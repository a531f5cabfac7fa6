"""Exact sparse multivariate polynomial arithmetic over the rationals.

Variables are plain strings.  A coefficient is an exact rational of one of
two types: an int, or a fractions.Fraction (lowest terms, positive
denominator), which only division by a coefficient brings in.  Equal
values of the two types print alike, compare equal and hash alike, so the
type never shows in output.  Division always goes through Fraction, never
through float.  Multiplication and Wu pseudo-division are division-free,
so systems built from integer data stay in int arithmetic there; monic
scaling and Groebner reduction make fractions.

A Polynomial is a map from power products (Monomial) to nonzero
coefficients; all operations return new objects with zero terms pruned,
and two polynomials are equal exactly when their term maps are.

Also here: term orders (lexicographic and degree-reverse-lexicographic),
exact evaluation, and pseudo-division with respect to a chosen variable.
Evaluation runs in int arithmetic: scaled_point brings a rational point
over one common denominator d, power_table lists d**0 .. d**K once per
point, and Polynomial.scaled_value computes d**K * p(x) from that table for
any p of total degree at most K, an int for int coefficients; evaluate
divides that by d**K once.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .budget import Deadline

Rational = Fraction


class MissingVariableError(KeyError):
    """An evaluation environment does not bind some variable."""


class NotUnivariateError(ValueError):
    """The pseudo-division divisor has degree zero in the chosen variable."""


# ---------------------------------------------------------------------------
# monomials

class Monomial:
    """A power product, e.g. x^2*y.  Stored as a name-sorted exponent tuple.

    Products, quotients and lcms merge two sorted tuples in one pass.
    """

    __slots__ = ("exps", "degree", "_hash")

    def __init__(self, exps=()):
        if isinstance(exps, dict):
            exps = exps.items()
        pairs = tuple(sorted((v, e) for v, e in exps if e != 0))
        for v, e in pairs:
            if e < 0:
                raise ValueError(f"negative exponent for {v}")
        self.exps = pairs
        self.degree = sum(e for _, e in pairs)
        self._hash = hash(pairs)

    def degree_in(self, var: str) -> int:
        for v, e in self.exps:
            if v == var:
                return e
        return 0

    def variables(self):
        return tuple(v for v, _ in self.exps)

    def is_one(self) -> bool:
        return not self.exps

    def __mul__(self, other: "Monomial") -> "Monomial":
        a, b = self.exps, other.exps
        if not b:
            return self
        if not a:
            return other
        out = []
        i = j = 0
        na, nb = len(a), len(b)
        va, vb = a[0][0], b[0][0]
        while True:
            if va == vb:
                out.append((va, a[i][1] + b[j][1]))
                i += 1
                j += 1
                if i == na or j == nb:
                    break
                va, vb = a[i][0], b[j][0]
            elif va < vb:
                out.append(a[i])
                i += 1
                if i == na:
                    break
                va = a[i][0]
            else:
                out.append(b[j])
                j += 1
                if j == nb:
                    break
                vb = b[j][0]
        out += a[i:]
        out += b[j:]
        return _monomial(tuple(out), self.degree + other.degree)

    def divides(self, other: "Monomial") -> bool:
        if self.degree > other.degree:
            return False
        b = other.exps
        j, nb = 0, len(b)
        for v, e in self.exps:
            while j < nb and b[j][0] < v:
                j += 1
            if j == nb or b[j][0] != v or b[j][1] < e:
                return False
            j += 1
        return True

    def divide(self, other: "Monomial") -> "Monomial":
        """self / other; other must divide self."""
        a = self.exps
        out = []
        i, na = 0, len(a)
        for v, e in other.exps:
            while i < na and a[i][0] < v:
                out.append(a[i])
                i += 1
            if i == na or a[i][0] != v or a[i][1] < e:
                raise ValueError("inexact monomial division")
            if a[i][1] != e:
                out.append((v, a[i][1] - e))
            i += 1
        out += a[i:]
        return _monomial(tuple(out), self.degree - other.degree)

    def lcm(self, other: "Monomial") -> "Monomial":
        a, b = self.exps, other.exps
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            if a[i][0] == b[j][0]:
                out.append(max(a[i], b[j]))     # same name: bigger exponent
                i += 1
                j += 1
            elif a[i][0] < b[j][0]:
                out.append(a[i])
                i += 1
            else:
                out.append(b[j])
                j += 1
        out += a[i:]
        out += b[j:]
        return _monomial(tuple(out), sum(e for _, e in out))

    def coprime(self, other: "Monomial") -> bool:
        mine = set(self.variables())
        return not any(v in mine for v in other.variables())

    def drop(self, var: str) -> "Monomial":
        e = self.degree_in(var)
        if not e:
            return self
        return _monomial(tuple(t for t in self.exps if t[0] != var),
                         self.degree - e)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if not self.exps:
            return "1"
        return "*".join(v if e == 1 else f"{v}^{e}" for v, e in self.exps)


def _monomial(pairs: tuple, degree: int) -> Monomial:
    """A Monomial from pairs already sorted by name, exponents all positive."""
    m = Monomial.__new__(Monomial)
    m.exps = pairs
    m.degree = degree
    m._hash = hash(pairs)
    return m


_ONE = Monomial()


# ---------------------------------------------------------------------------
# term orders

class _OrderKeys(dict):
    """Monomial -> TermOrder.key, each computed on first use.

    Holds no reference back to its TermOrder, so dropping the order frees
    the keys at once.
    """

    __slots__ = ("index", "lex")

    def __init__(self, index: dict, lex: bool):
        super().__init__()
        self.index = index
        self.lex = lex

    def __missing__(self, m: Monomial):
        evec = [0] * len(self.index)
        for v, e in m.exps:
            i = self.index.get(v)
            if i is None:
                raise KeyError(f"variable {v} not covered by this order")
            evec[i] = e
        if self.lex:
            k = tuple(evec)
        else:
            # degrevlex: grade by total degree, break ties by the reversed
            # exponent vector with flipped sign (rightmost difference decides)
            k = (m.degree, tuple(-e for e in reversed(evec)))
        self[m] = k
        return k


class TermOrder:
    """A monomial order over an explicit variable precedence list.

    kind is "lex" or "degrevlex"; vars lists variables from highest to
    lowest precedence.  key(m) is sortable: bigger key, bigger monomial.
    Each monomial's key is computed once and kept on this order; a proof
    builds its own order, so its keys are freed with it.
    """

    LEX = "lex"
    DEGREVLEX = "degrevlex"

    __slots__ = ("kind", "vars", "key")

    def __init__(self, kind: str, vars):
        if kind not in (self.LEX, self.DEGREVLEX):
            raise ValueError(f"unknown term order kind {kind!r}")
        self.kind = kind
        self.vars = tuple(vars)
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("duplicate variable in precedence list")
        index = {v: i for i, v in enumerate(self.vars)}
        # the cache's own lookup, so sorts and max() over keys stay in C
        self.key = _OrderKeys(index, kind == self.LEX).__getitem__

    def __repr__(self):
        return f"TermOrder({self.kind}, {list(self.vars)})"


# ---------------------------------------------------------------------------
# coefficients

def _coerce(value):
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)       # bool and other int subclasses
    raise TypeError(f"not a rational scalar: {value!r}")


def _quotient(a, b):
    """a / b exactly: an int when b divides a, otherwise a Fraction."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def scaled_point(env: dict, names) -> tuple:
    """(d, numerators) for the rational point env restricted to names.

    d is the least common denominator of those coordinates and
    numerators[name] = env[name] * d, an int, so a polynomial evaluates in
    int arithmetic (Polynomial.scaled_value).  Raises MissingVariableError
    for a name env does not bind and TypeError for a value that is not an
    exact rational, in the order names are given.
    """
    values = {}
    for name in names:
        if name not in values:
            if name not in env:
                raise MissingVariableError(name)
            values[name] = _coerce(env[name])
    d = math.lcm(*(v.denominator for v in values.values()))
    return d, {name: v.numerator * (d // v.denominator)
               for name, v in values.items()}


def power_table(d: int, k: int) -> list:
    """[1, d, d**2, ..., d**k], the powers Polynomial.scaled_value reads;
    k < 1 gives [1]."""
    dpow = [1]
    for _ in range(k):
        dpow.append(dpow[-1] * d)
    return dpow


# ---------------------------------------------------------------------------
# polynomials

def _polynomial(terms: dict) -> "Polynomial":
    """A Polynomial owning terms, which must hold no zero coefficient."""
    p = Polynomial.__new__(Polynomial)
    p.terms = terms
    return p


def _add_scaled(acc: dict, terms: dict, c, mono: Monomial) -> None:
    """acc += c * mono * terms, in place, pruning cancelled terms."""
    get = acc.get
    items = ([(m * mono, k) for m, k in terms.items()] if mono.exps
             else terms.items())
    for m, k in items:
        v = get(m, 0) + c * k
        if v:
            acc[m] = v
        else:
            del acc[m]


def _product(a: dict, b: dict) -> dict:
    if len(a) < len(b):
        a, b = b, a
    out: dict = {}
    get = out.get
    for m2, c2 in b.items():
        for m1, c1 in a.items():
            m = m1 * m2
            v = get(m, 0) + c1 * c2
            if v:
                out[m] = v
            else:
                del out[m]
    return out


class Polynomial:
    """Sparse polynomial: Monomial -> nonzero int or Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        out = {}
        if terms:
            for m, c in (terms.items() if isinstance(terms, dict) else terms):
                if not isinstance(m, Monomial):
                    m = Monomial(m)
                c = _coerce(c)
                if c != 0:
                    acc = out.get(m)
                    if acc is None:
                        out[m] = c
                    else:
                        acc += c
                        if acc == 0:
                            del out[m]
                        else:
                            out[m] = acc
        self.terms = out

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls({_ONE: c})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        return cls({Monomial({name: 1}): 1})

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m.is_one() for m in self.terms)

    def constant_value(self):
        if self.is_zero():
            return 0
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms[_ONE]

    def variables(self) -> tuple:
        names = set()
        for m in self.terms:
            names.update(m.variables())
        return tuple(sorted(names))

    @property
    def total_degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(m.degree for m in self.terms)

    def degree_in(self, var: str) -> int:
        """Degree in one variable; 0 when absent (also for the zero poly)."""
        return max((m.degree_in(var) for m in self.terms), default=0)

    def coeff_in(self, var: str, power: int) -> "Polynomial":
        """The coefficient of var**power, a polynomial in the other variables."""
        return _polynomial({m.drop(var): c for m, c in self.terms.items()
                            if m.degree_in(var) == power})

    def leading_coeff_in(self, var: str) -> "Polynomial":
        return self.coeff_in(var, self.degree_in(var))

    # -- term-order views ----------------------------------------------------

    def leading_monomial(self, order: TermOrder) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=order.key)

    def leading_coeff(self, order: TermOrder):
        return self.terms[self.leading_monomial(order)]

    def monic(self, order: TermOrder) -> "Polynomial":
        lc = self.leading_coeff(order)
        if lc == 1:
            return self
        return _polynomial({m: _quotient(c, lc) for m, c in self.terms.items()})

    def sorted_terms(self, order: TermOrder | None = None):
        """Terms in descending canonical order (graded by default)."""
        if order is not None:
            keyf = lambda mc: order.key(mc[0])
        else:
            keyf = lambda mc: (mc[0].degree, tuple((v, -e) for v, e in mc[0].exps))
        return sorted(self.terms.items(), key=keyf, reverse=True)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = as_polynomial(other)
        out = dict(self.terms)
        _add_scaled(out, other.terms, 1, _ONE)
        return _polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return _polynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        out = dict(self.terms)
        _add_scaled(out, as_polynomial(other).terms, -1, _ONE)
        return _polynomial(out)

    def __rsub__(self, other):
        return as_polynomial(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coerce(other)
            if c == 0:
                return ZERO
            return _polynomial({m: k * c for m, k in self.terms.items()})
        return _polynomial(_product(self.terms, as_polynomial(other).terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def term_times(self, coeff, mono: Monomial) -> "Polynomial":
        """self * coeff * mono."""
        c = _coerce(coeff)
        if c == 0:
            return ZERO
        return _polynomial({m * mono: k * c for m, k in self.terms.items()})

    # -- evaluation ----------------------------------------------------------

    def scaled_value(self, dpow: list, numerators: dict):
        """d**K * self(x) for the point x = numerators / d, given the power
        table dpow = [1, d, ..., d**K] with K = len(dpow) - 1 >= the total
        degree.

        Each term c*m adds c * m(numerators) * d**(K - deg m), so int
        coefficients give an exact int and Fraction ones an exact Fraction;
        it is zero exactly when self(x) is.  The zero polynomial gives 0.
        One table serves every polynomial evaluated at the same point.
        """
        k = len(dpow) - 1
        total = 0
        try:
            for m, c in self.terms.items():
                v = c * dpow[k - m.degree]
                for name, e in m.exps:
                    v *= numerators[name] if e == 1 else numerators[name] ** e
                total += v
        except KeyError as e:
            raise MissingVariableError(e.args[0]) from None
        return total

    def evaluate(self, env: dict) -> Fraction:
        """Exact value at a rational point; raises on unbound variables."""
        d, numerators = scaled_point(
            env, (name for m in self.terms for name, _ in m.exps))
        dpow = power_table(d, self.total_degree)
        return Fraction(self.scaled_value(dpow, numerators), dpow[-1])

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = as_polynomial(other)
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def to_string(self, order: TermOrder | None = None) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms(order):
            if m.is_one():
                parts.append(str(c))
            else:
                parts.append(f"{c}*{m!r}")
        return " + ".join(parts)

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"Polynomial({self.to_string()})"


ZERO = Polynomial()
ONE = Polynomial.constant(1)


def as_polynomial(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    return Polynomial.constant(value)


def var(name: str) -> Polynomial:
    """Shorthand for building expressions: x = var("x"); p = x*x - 1."""
    return Polynomial.variable(name)


# ---------------------------------------------------------------------------
# pseudo-division

def pseudo_divide(f: Polynomial, g: Polynomial, x: str,
                  deadline: Deadline | None = None):
    """Pseudo-divide f by g with respect to x: returns (q, r, k) with

        init(g)**k * f == q * g + r   and   deg_x(r) < deg_x(g),

    where init(g) is the leading coefficient of g in x and
    0 <= k <= deg_x(f) - deg_x(g) + 1.  Requires deg_x(g) >= 1.
    """
    dg = g.degree_in(x)
    if dg == 0:
        raise NotUnivariateError(f"divisor has degree 0 in {x}")
    df = f.degree_in(x)
    if f.is_zero() or df < dg:
        return ZERO, f, 0
    init = g.leading_coeff_in(x).terms
    # g = init * x^dg + tail.  With lc the coefficient of x^dr in r, a step
    # is r := init * (r - lc * x^dr) - lc * x^(dr-dg) * tail: the x^dr terms
    # cancel exactly, so they are never formed, and deg_x(r) drops
    tail = {m: c for m, c in g.terms.items() if m.degree_in(x) < dg}
    q: dict = {}
    r = f.terms
    k = 0
    dr = df
    while r and dr >= dg:
        if deadline is not None:
            deadline.check()
        lc: dict = {}
        low: dict = {}
        for m, c in r.items():
            if m.degree_in(x) == dr:
                lc[m.drop(x)] = c
            else:
                low[m] = c
        shift = Monomial({x: dr - dg})
        q = _product(init, q)
        _add_scaled(q, lc, 1, shift)
        r = _product(init, low)
        for m, c in lc.items():
            _add_scaled(r, tail, -c, m * shift)
        k += 1
        dr = max((m.degree_in(x) for m in r), default=0)
    return _polynomial(q), _polynomial(r), k

"""Exact sparse multivariate polynomial arithmetic over the rationals.

Variables are plain strings.  Coefficients are fractions.Fraction, so every
value is an arbitrary-precision rational in lowest terms with a positive
denominator.  A Polynomial is a map from power products (Monomial) to
nonzero coefficients; all operations return new objects with zero terms
pruned, and two polynomials are equal exactly when their term maps are.

Also here: term orders (lexicographic and degree-reverse-lexicographic),
exact evaluation, and pseudo-division with respect to a chosen variable.
"""

from __future__ import annotations

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
    """A power product, e.g. x^2*y.  Stored as a name-sorted exponent tuple."""

    __slots__ = ("exps", "_hash")

    def __init__(self, exps=()):
        if isinstance(exps, dict):
            exps = exps.items()
        pairs = tuple(sorted((v, e) for v, e in exps if e != 0))
        for v, e in pairs:
            if e < 0:
                raise ValueError(f"negative exponent for {v}")
        self.exps = pairs
        self._hash = hash(pairs)

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exps)

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
        merged = dict(self.exps)
        for v, e in other.exps:
            merged[v] = merged.get(v, 0) + e
        return Monomial(merged)

    def divides(self, other: "Monomial") -> bool:
        it = dict(other.exps)
        return all(it.get(v, 0) >= e for v, e in self.exps)

    def divide(self, other: "Monomial") -> "Monomial":
        """self / other; other must divide self."""
        merged = dict(self.exps)
        for v, e in other.exps:
            merged[v] = merged.get(v, 0) - e
            if merged[v] < 0:
                raise ValueError("inexact monomial division")
        return Monomial(merged)

    def lcm(self, other: "Monomial") -> "Monomial":
        merged = dict(self.exps)
        for v, e in other.exps:
            merged[v] = max(merged.get(v, 0), e)
        return Monomial(merged)

    def coprime(self, other: "Monomial") -> bool:
        mine = set(self.variables())
        return not any(v in mine for v in other.variables())

    def drop(self, var: str) -> "Monomial":
        return Monomial((v, e) for v, e in self.exps if v != var)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if not self.exps:
            return "1"
        return "*".join(v if e == 1 else f"{v}^{e}" for v, e in self.exps)


_ONE = Monomial()


# ---------------------------------------------------------------------------
# term orders

class TermOrder:
    """A monomial order over an explicit variable precedence list.

    kind is "lex" or "degrevlex"; vars lists variables from highest to
    lowest precedence.  key(m) is sortable: bigger key, bigger monomial.
    """

    LEX = "lex"
    DEGREVLEX = "degrevlex"

    __slots__ = ("kind", "vars", "_index")

    def __init__(self, kind: str, vars):
        if kind not in (self.LEX, self.DEGREVLEX):
            raise ValueError(f"unknown term order kind {kind!r}")
        self.kind = kind
        self.vars = tuple(vars)
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("duplicate variable in precedence list")
        self._index = {v: i for i, v in enumerate(self.vars)}

    def key(self, m: Monomial):
        evec = [0] * len(self.vars)
        for v, e in m.exps:
            i = self._index.get(v)
            if i is None:
                raise KeyError(f"variable {v} not covered by this order")
            evec[i] = e
        if self.kind == self.LEX:
            return tuple(evec)
        # degrevlex: grade by total degree, break ties by the reversed
        # exponent vector with flipped sign (rightmost difference decides).
        return (sum(evec), tuple(-e for e in reversed(evec)))

    def __repr__(self):
        return f"TermOrder({self.kind}, {list(self.vars)})"


# ---------------------------------------------------------------------------
# polynomials

def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not a rational scalar: {value!r}")


class Polynomial:
    """Sparse polynomial: Monomial -> nonzero Fraction."""

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
        return cls({_ONE: _coerce(c)})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        return cls({Monomial({name: 1}): Fraction(1)})

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m.is_one() for m in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
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
        out = {}
        for m, c in self.terms.items():
            if m.degree_in(var) == power:
                out[m.drop(var)] = out.get(m.drop(var), Fraction(0)) + c
        return Polynomial(out)

    def leading_coeff_in(self, var: str) -> "Polynomial":
        return self.coeff_in(var, self.degree_in(var))

    # -- term-order views ----------------------------------------------------

    def leading_monomial(self, order: TermOrder) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=order.key)

    def leading_coeff(self, order: TermOrder) -> Fraction:
        return self.terms[self.leading_monomial(order)]

    def monic(self, order: TermOrder) -> "Polynomial":
        lc = self.leading_coeff(order)
        return self if lc == 1 else self * (1 / lc)

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
        for m, c in other.terms.items():
            acc = out.get(m, Fraction(0)) + c
            if acc == 0:
                out.pop(m, None)
            else:
                out[m] = acc
        p = Polynomial.__new__(Polynomial)
        p.terms = out
        return p

    __radd__ = __add__

    def __neg__(self):
        p = Polynomial.__new__(Polynomial)
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __sub__(self, other):
        return self + (-as_polynomial(other))

    def __rsub__(self, other):
        return as_polynomial(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coerce(other)
            if c == 0:
                return ZERO
            p = Polynomial.__new__(Polynomial)
            p.terms = {m: k * c for m, k in self.terms.items()}
            return p
        other = as_polynomial(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 * m2
                acc = out.get(m, Fraction(0)) + c1 * c2
                if acc == 0:
                    out.pop(m, None)
                else:
                    out[m] = acc
        p = Polynomial.__new__(Polynomial)
        p.terms = out
        return p

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

    def term_times(self, coeff: Fraction, mono: Monomial) -> "Polynomial":
        """self * coeff * mono, the inner step of division loops."""
        p = Polynomial.__new__(Polynomial)
        p.terms = {m * mono: c * coeff for m, c in self.terms.items()}
        return p

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, env: dict) -> Fraction:
        """Exact value at a rational point; raises on unbound variables."""
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for name, e in m.exps:
                if name not in env:
                    raise MissingVariableError(name)
                v *= _coerce(env[name]) ** e
            total += v
        return total

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
    init = g.leading_coeff_in(x)
    q, r, k = ZERO, f, 0
    while not r.is_zero():
        dr = r.degree_in(x)
        if dr < dg:
            break
        if deadline is not None:
            deadline.check()
        lc = r.leading_coeff_in(x)
        shift = Monomial({x: dr - dg})
        q = init * q + lc.term_times(Fraction(1), shift)
        r = init * r - (lc * g).term_times(Fraction(1), shift)
        k += 1
        # leading terms cancel exactly, so the degree strictly drops
        assert r.degree_in(x) < dr or r.is_zero()
    return q, r, k


def pseudo_remainder(f: Polynomial, g: Polynomial, x: str,
                     deadline: Deadline | None = None) -> Polynomial:
    return pseudo_divide(f, g, x, deadline)[1]

"""Exact sparse multivariate polynomial arithmetic over the rationals.

Variables are plain strings.  A coefficient is an exact rational of one of
two types: an int, or a fractions.Fraction (lowest terms, positive
denominator), which only division by a coefficient brings in.  Equal
values of the two types print alike, compare equal and hash alike, so the
type never shows in output.  Division always goes through Fraction, never
through float.  Multiplication, Wu pseudo-division and Groebner reduction
(see groebner) are division-free, so systems built from integer data stay
in int arithmetic there; monic scaling and exact rational remainders make
fractions.

A Polynomial is a map from power products (Monomial) to nonzero
coefficients; all operations return new objects with zero terms pruned,
and two polynomials are equal exactly when their term maps are.  A
Monomial is an int holding the total degree and one exponent per variable
in fixed-width bit fields.  Each field belongs to one variable name for the
life of the process (a registry hands fields out on first use), so a
product or quotient is one int addition or subtraction, and term maps hash
and compare monomials in C.  Field positions are never read as an order:
exponent pairs, printed text and term-order keys are decoded by name.

Also here: term orders (lexicographic and degree-reverse-lexicographic),
exact evaluation, and pseudo-division with respect to a chosen variable.
evaluate is the exact Fraction sum over the terms.  For evaluating many
polynomials at many points in int arithmetic, Polynomial.term_rows lists
each term as its coefficient, a power of a common denominator d and the
positions of its variables in one value list, so that d**K * p(x) for
x = values / d is a sum of int products (the sampling oracle in provers).
"""

from __future__ import annotations

import functools
import operator
import sys
import threading
from fractions import Fraction

from .budget import Deadline

Rational = Fraction


class MissingVariableError(KeyError):
    """An evaluation environment does not bind some variable."""


class NotUnivariateError(ValueError):
    """The pseudo-division divisor has degree zero in the chosen variable."""


# ---------------------------------------------------------------------------
# monomials

# A monomial is one int of 16-bit fields.  Field 0 holds the total degree;
# field i >= 1 holds the exponent of _NAMES[i].  The top bit of each field is
# a guard bit, clear in every monomial, so a sum of two monomials never
# carries from one field into the next: exponent overflow shows up as a set
# guard bit instead.  No exponent exceeds the total degree, so the guard bit
# of field 0 alone tells whether any field of a product overflowed.
_WIDTH = 16                             # one "H" (uint16) item per field
_FIELD = (1 << _WIDTH) - 1
_LIMIT = (1 << (_WIDTH - 1)) - 1        # largest exponent and total degree
_DEGREE_GUARD = 1 << (_WIDTH - 1)

# The registry of variable names, shared by the whole process: a name's
# field is fixed when it is first used and never moves or goes away, so
# monomials built anywhere in the process can be compared and combined.
# Field numbers follow registration, which nothing reads as an order:
# exps, repr and TermOrder keys decode the fields by name.
_FIELDS: dict = {}                      # name -> field number
_NAMES: list = [None]                   # field number -> name
_GUARDS = _DEGREE_GUARD                 # the guard bits of every field so far
_REGISTER = threading.Lock()

_new = int.__new__


def _shift(name: str) -> int:
    """Bit offset of name's field, registering the name on first use."""
    f = _FIELDS.get(name)
    if f is None:
        global _GUARDS
        with _REGISTER:
            f = _FIELDS.get(name)
            if f is None:
                f = len(_NAMES)
                _NAMES.append(name)
                _GUARDS |= _DEGREE_GUARD << (f * _WIDTH)
                _FIELDS[name] = f   # last, so a reader of f finds the rest
    return f * _WIDTH


def _fields(m: int) -> memoryview:
    """Field values of a packed monomial, field 0 (the degree) first."""
    return memoryview(m.to_bytes(-(-m.bit_length() // _WIDTH) * 2,
                                 sys.byteorder)).cast("H")


def _pairs(m: int) -> list:
    """(name, exponent) for m's nonzero exponent fields, sorted by name."""
    names = _NAMES
    return sorted([(names[i], e) for i, e in enumerate(_fields(m)) if e and i])


def _overflow():
    raise OverflowError(f"monomial degree above {_LIMIT}")


def _power_product(exps) -> str:
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in exps)


class Monomial(int):
    """A power product, e.g. x^2*y, packed into one int of 16-bit fields.

    Field 0 holds the total degree and every other field the exponent of
    one registered variable name, so a product is one int addition, a
    quotient one subtraction, divisibility a test of the guard bits, and
    hashing and equality are int's own.  Exponents and the total degree are
    at most 32767: going above raises OverflowError, never wraps.
    """

    __slots__ = ()

    def __new__(cls, exps=()):
        if isinstance(exps, dict):
            exps = exps.items()
        packed = degree = 0
        for v, e in exps:
            if e < 0:
                raise ValueError(f"negative exponent for {v}")
            if e:
                if e > _LIMIT:
                    _overflow()
                packed += e << _shift(v)
                degree += e
        if degree > _LIMIT:
            _overflow()
        return _new(cls, packed + degree)

    @property
    def degree(self) -> int:
        return self & _LIMIT

    @property
    def exps(self) -> tuple:
        """(name, exponent) pairs, sorted by name."""
        return tuple(_pairs(self))

    def degree_in(self, var: str) -> int:
        return (self >> _shift(var)) & _FIELD

    def variables(self):
        return tuple(v for v, _ in _pairs(self))

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        m = self + other
        if m & _DEGREE_GUARD:
            _overflow()
        return _new(Monomial, m)

    def divides(self, other: "Monomial") -> bool:
        # a field of (other | guards) - self keeps its guard bit exactly
        # when other's exponent there is at least self's, and never borrows
        g = _GUARDS
        return ((other | g) - self) & g == g

    def divide(self, other: "Monomial") -> "Monomial":
        """self / other; other must divide self."""
        if not other.divides(self):
            raise ValueError("inexact monomial division")
        return _new(Monomial, self - other)

    def lcm(self, other: "Monomial") -> "Monomial":
        g = _GUARDS
        ge = ((self | g) - other) & g       # guards of fields where self wins
        mine = ge - (ge >> (_WIDTH - 1))    # those fields' exponent bits
        top = ((self & mine) | (other & ~mine)) & ~_FIELD
        degree = sum(_fields(top))
        if degree > _LIMIT:
            _overflow()
        return _new(Monomial, top + degree)

    def coprime(self, other: "Monomial") -> bool:
        # adding 0x7fff to a field sets its guard bit exactly when the
        # field is nonzero
        g = _GUARDS
        low = g - (g >> (_WIDTH - 1))
        return not ((self + low) & (other + low) & g) >> _WIDTH

    def drop(self, var: str) -> "Monomial":
        s = _shift(var)
        e = (self >> s) & _FIELD
        if not e:
            return self
        return _new(Monomial, self - (e << s) - e)

    def __repr__(self):
        return _power_product(self.exps) if self else "1"

    def __reduce__(self):
        # field positions are this process's own, so pickle the names
        return Monomial, (self.exps,)


_ONE = Monomial()


# ---------------------------------------------------------------------------
# term orders

class _OrderKeys(dict):
    """Monomial -> TermOrder.key, each computed on first use.

    Holds no reference back to its TermOrder, so dropping the order frees
    the keys at once.
    """

    __slots__ = ("fields", "lex", "cover", "size")

    def __init__(self, vars, lex: bool):
        super().__init__()
        fields = [_shift(v) // _WIDTH for v in vars]
        self.lex = lex
        # degrevlex reads the exponent vector reversed
        self.fields = fields if lex else fields[::-1]
        # every field a monomial under this order may use, and its bytes
        self.cover = sum(_FIELD << (f * _WIDTH) for f in fields) | _FIELD
        self.size = (max(fields, default=0) + 1) * 2

    def __missing__(self, m: Monomial):
        if m & ~self.cover:
            raise KeyError(f"variable {_pairs(m & ~self.cover)[0][0]} not "
                           "covered by this order")
        values = memoryview(m.to_bytes(self.size, sys.byteorder)).cast("H")
        if self.lex:
            k = tuple([values[f] for f in self.fields])
        else:
            # degrevlex: grade by total degree, break ties by the reversed
            # exponent vector with flipped sign (rightmost difference decides)
            k = (m & _LIMIT, tuple([-values[f] for f in self.fields]))
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
        # the cache's own lookup, so sorts and max() over keys stay in C
        self.key = _OrderKeys(self.vars, kind == self.LEX).__getitem__

    def __repr__(self):
        return f"TermOrder({self.kind}, {list(self.vars)})"


# ---------------------------------------------------------------------------
# coefficients

def _coerce(value):
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int) and not isinstance(value, Monomial):
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


# ---------------------------------------------------------------------------
# polynomials

def _polynomial(terms: dict) -> "Polynomial":
    """A Polynomial owning terms, which must hold no zero coefficient."""
    p = Polynomial.__new__(Polynomial)
    p.terms = terms
    return p


# The loops below add packed monomials as plain ints and look the sums up
# as they are: a dict keeps the key it already holds when a value is
# replaced, so a Monomial is made only for a term that is new.

def _add_scaled(acc: dict, terms: dict, c, mono: int) -> None:
    """acc += c * mono * terms, in place, pruning cancelled terms; mono is a
    packed monomial, a Monomial or its int value."""
    get = acc.get
    if not mono:
        for m, k in terms.items():
            v = get(m, 0) + c * k
            if v:
                acc[m] = v
            else:
                del acc[m]
        return
    for m, k in terms.items():
        m += mono
        if m & _DEGREE_GUARD:
            _overflow()
        v = get(m)
        if v is None:
            acc[_new(Monomial, m)] = c * k
        else:
            v += c * k
            if v:
                acc[m] = v
            else:
                del acc[m]


def _product(a: dict, b: dict) -> dict:
    """a * b: the larger operand scaled by each term of the smaller."""
    if len(a) < len(b):
        a, b = b, a
    out: dict = {}
    for m, c in b.items():
        _add_scaled(out, a, c, m)
    return out


class Polynomial:
    """Sparse polynomial: Monomial -> nonzero int or Fraction."""

    __slots__ = ("terms", "_decoded")

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
        return not any(self.terms)

    def constant_value(self):
        if self.is_zero():
            return 0
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms[_ONE]

    def variables(self) -> tuple:
        # a field of the bitwise or of all terms is nonzero when some
        # term's is
        used = functools.reduce(operator.or_, self.terms, 0)
        return tuple(v for v, _ in _pairs(used))

    @property
    def total_degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(m & _LIMIT for m in self.terms)

    def degree_in(self, var: str) -> int:
        """Degree in one variable; 0 when absent (also for the zero poly)."""
        s = _shift(var)
        return max(((m >> s) & _FIELD for m in self.terms), default=0)

    def coeff_in(self, var: str, power: int) -> "Polynomial":
        """The coefficient of var**power, a polynomial in the other variables."""
        s = _shift(var)
        power_of_var = (power << s) + power
        return _polynomial({_new(Monomial, m - power_of_var): c
                            for m, c in self.terms.items()
                            if (m >> s) & _FIELD == power})

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
        out: dict = {}
        _add_scaled(out, self.terms, c, mono)
        return _polynomial(out)

    # -- evaluation ----------------------------------------------------------

    def term_rows(self, names, top: int) -> list:
        """[(coefficient, k, positions)], one row per term: for the point
        x = values / d, values listed in the order of names, d**top *
        self(x) is the sum over the rows of coefficient * d**k times the
        product of values[i] for i in positions.

        k is top minus the term's degree, and positions repeats a
        variable's index in names once per unit of its exponent, so int
        values and coefficients give an int.  Raises MissingVariableError
        for a variable that names does not list, and ValueError for a top
        below the total degree.
        """
        if top < self.total_degree:
            raise ValueError(f"top {top} is below the total degree "
                             f"{self.total_degree}")
        index = {name: i for i, name in enumerate(names)}
        used = []
        for v in self.variables():
            if v not in index:
                raise MissingVariableError(v)
            used.append((_shift(v), index[v]))
        return [(c, top - (m & _LIMIT),
                 tuple([i for s, i in used if (e := (m >> s) & _FIELD)
                        for _ in range(e)]))
                for m, c in self.terms.items()]

    def _decoded_terms(self) -> list:
        """[(monomial, coefficient, degree, exps)] in term order, made on
        first use and kept: evaluate and printing read names, not fields."""
        try:
            return self._decoded
        except AttributeError:
            # read just the fields some term uses, in name order
            used = [(v, _shift(v)) for v in self.variables()]
            terms = [(m, c, m & _LIMIT,
                      tuple([(v, e) for v, s in used
                             if (e := (m >> s) & _FIELD)]))
                     for m, c in self.terms.items()]
            self._decoded = terms
            return terms

    def evaluate(self, env: dict) -> Fraction:
        """Exact value at a rational point; raises on unbound variables."""
        total = 0
        for _, c, _, exps in self._decoded_terms():
            for name, e in exps:
                if name not in env:
                    raise MissingVariableError(name)
                c *= _coerce(env[name]) ** e
            total += c
        return Fraction(total)

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        if (isinstance(other, (int, Fraction))
                and not isinstance(other, Monomial)):
            other = as_polynomial(other)
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def to_string(self, order: TermOrder | None = None) -> str:
        if not self.terms:
            return "0"
        # terms in descending order: under order if given, else graded and
        # then by the name-sorted exponent pairs
        if order is not None:
            key = order.key
            keyf = lambda row: key(row[0])
        else:
            keyf = lambda row: (row[2], tuple((v, -e) for v, e in row[3]))
        rows = sorted(self._decoded_terms(), key=keyf, reverse=True)
        return " + ".join(f"{c}*{_power_product(exps)}" if exps else str(c)
                          for _, c, _, exps in rows)

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
    s = _shift(x)
    x1 = (1 << s) + 1           # x**1 packed: its field and the degree
    tail = {m: c for m, c in g.terms.items() if (m >> s) & _FIELD < dg}
    q: dict = {}
    r = f.terms
    k = 0
    dr = df
    while r and dr >= dg:
        if deadline is not None:
            deadline.check()
        lc: dict = {}
        low: dict = {}
        top = dr * x1
        for m, c in r.items():
            if (m >> s) & _FIELD == dr:
                lc[_new(Monomial, m - top)] = c
            else:
                low[m] = c
        shift = (dr - dg) * x1
        q = _product(init, q)
        _add_scaled(q, lc, 1, shift)
        r = _product(init, low)
        for m, c in lc.items():
            _add_scaled(r, tail, -c, m + shift)
        k += 1
        dr = max(((m >> s) & _FIELD for m in r), default=0)
    return _polynomial(q), _polynomial(r), k

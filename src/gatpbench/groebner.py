"""Groebner bases over the rationals: multivariate division and Buchberger.

Reduction is fraction-free.  Each divisor record holds the primitive
integer multiple of its divisor (scaling a divisor leaves a remainder as it
is), and a division step scales the working polynomial so the leads cancel
in integers, the Groebner analogue of Wu's pseudo-division; normal_form and
divide still return the exact rational remainder and quotients.
Buchberger keeps every basis element primitive over Z (positive lead)
instead of monic, so its S-polynomials and reductions stay in ints.

Pair selection is by ascending lcm degree, ties in generator order.  A pair
whose leads are coprime is handled when it is made, never queued; the
chain criterion prunes queued pairs.  Buchberger stops at the first
generator or S-polynomial that reduces to a nonzero constant and returns
[1], the reduced basis of the unit ideal.  Any other returned basis is
inter-reduced, monic, and sorted by descending leading monomial, so equal
ideals with equal orders yield byte-for-byte equal bases.  Buchberger's
basis and interreduce's kept set build each element's divisor record (lead
monomial, lead coefficient, tail) once, when the element is added, and
every later division reads it.
"""

from __future__ import annotations

import heapq
import math

from . import polynomials
from .budget import Deadline
from .polynomials import (Monomial, Polynomial, TermOrder, _add_scaled, _new,
                          _polynomial, _quotient, as_polynomial)


def normal_form(f: Polynomial, basis, order: TermOrder,
                deadline: Deadline | None = None) -> Polynomial:
    """Remainder of f under multivariate division by basis (in list order)."""
    return _reduce(f, _divisors(basis, order), order, deadline, None)


def divide(f: Polynomial, basis, order: TermOrder,
           deadline: Deadline | None = None):
    """Full division: returns (quotients, remainder) with

        f == sum(q_i * basis_i) + remainder

    and no remainder term divisible by any basis leading monomial.
    """
    if type(basis) is not _Basis:
        basis = list(basis)
    divisors = _divisors(basis, order)
    quotients: list[dict] = [{} for _ in basis]
    remainder = _reduce(f, divisors, order, deadline, quotients)
    # _reduce divides by each record's primitive copy h_i of g_i, and
    # g_i = (lc(g_i) / glc) * h_i, so q_i = q(h_i) * glc / lc(g_i)
    for lm, glc, _, i in divisors:
        lc = as_polynomial(basis[i]).terms[lm]
        quotients[i] = {t: _quotient(b * glc, scale * lc)
                        for t, (b, scale) in quotients[i].items()}
    return [_polynomial(q) for q in quotients], remainder


def _integral(terms: dict) -> tuple:
    """(d, d * terms) for the least common denominator d of the
    coefficients, so the term map returned has int coefficients only."""
    dens = [c.denominator for c in terms.values() if type(c) is not int]
    if not dens:
        return 1, dict(terms)
    d = math.lcm(*dens)
    return d, {m: c.numerator * (d // c.denominator)
               for m, c in terms.items()}


def _primitive(terms: dict, lm: Monomial) -> dict:
    """The primitive integer multiple of a nonzero term map: int
    coefficients with gcd 1, and a positive coefficient at lm."""
    ints = _integral(terms)[1]
    content = math.gcd(*ints.values())
    if ints[lm] < 0:
        content = -content
    if content != 1:
        ints = {m: c // content for m, c in ints.items()}
    return ints


def _divisor(g: Polynomial, order: TermOrder, i: int) -> tuple:
    """(lead monomial, lead coefficient, tail terms, i) of the primitive
    integer multiple of the i-th basis element g: what dividing by g reads.
    A remainder does not change when a divisor is scaled, so division by
    this copy leaves the remainder of division by g."""
    lm = g.leading_monomial(order)
    tail = _primitive(g.terms, lm)
    lc = tail.pop(lm)
    return lm, lc, tail, i


class _Basis(list):
    """A basis that builds each element's divisor record once, when the
    element is appended; normal_form and divide read the records instead of
    rebuilding them.  append is the only mutator that keeps them."""

    __slots__ = ("order", "divisors")

    def __init__(self, order: TermOrder):
        super().__init__()
        self.order = order
        self.divisors: list[tuple] = []

    def append(self, g: Polynomial) -> None:
        self.divisors.append(_divisor(g, self.order, len(self)))
        super().append(g)


def _divisors(basis, order: TermOrder) -> list:
    """The divisor records of basis's nonzero elements, in list order."""
    if type(basis) is _Basis and basis.order is order:
        return basis.divisors
    return [_divisor(g, order, i)
            for i, g in enumerate(map(as_polynomial, basis))
            if not g.is_zero()]


def _reduce(f: Polynomial, divisors: list, order: TermOrder,
            deadline: Deadline | None, quotients: list | None) -> Polynomial:
    """Division of f by the divisor records, fraction-free, on one working
    term map of ints.

    The working map p is scale * (f - what has been divided out so far),
    scale starting at f's common denominator.  A step by lead coefficient
    glc with p's lead lc is p <- a*p - b*t*tail with a = glc/gcd and
    b = lc/gcd, so the leads cancel in integers; scale grows by a.  A lead
    no divisor reaches is a remainder term of coefficient lc / scale, the
    exact rational that division over Q leaves.  When given, quotients
    (one dict per basis element) get t -> (b, scale) per step: b / scale
    times the record's primitive divisor.
    """
    key = order.key
    # every field of these monomials is registered by now, so one read of
    # the guard bits serves the whole division (see Monomial.divides)
    g = polynomials._GUARDS
    scale, p = _integral(f.terms)
    remainder = {}
    while p:
        lm = max(p, key=key)
        lc = p.pop(lm)
        if deadline is not None:
            deadline.check()
        lm_g = lm | g
        for glm, glc, tail, i in divisors:
            if (lm_g - glm) & g == g:
                b, r = divmod(lc, glc)
                if r:
                    d = math.gcd(lc, glc)
                    a, b = glc // d, lc // d
                    p = {m: a * c for m, c in p.items()}
                    scale *= a
                t = lm - glm
                if quotients is not None:
                    quotients[i][_new(Monomial, t)] = (b, scale)
                # lm cancels exactly; only the tail of b*t*g is left to add
                _add_scaled(p, tail, -b, t)
                break
        else:
            remainder[lm] = lc if scale == 1 else _quotient(lc, scale)
    return _polynomial(remainder)


def s_polynomial(f: Polynomial, g: Polynomial, order: TermOrder) -> Polynomial:
    """Fraction-free S-polynomial (lc_g/d)*(l/lm_f)*f - (lc_f/d)*(l/lm_g)*g,
    with l the lcm of the leading monomials and d the gcd of the two leading
    coefficients when both are ints (1 otherwise).

    That is lc_f*lc_g/d times the textbook (l/LT f)*f - (l/LT g)*g, a
    nonzero rational multiple, so it is zero, reduces to zero or reduces to
    a constant exactly when the textbook one does.  Integer inputs give
    integer coefficients.
    """
    lmf, lmg = f.leading_monomial(order), g.leading_monomial(order)
    l = lmf.lcm(lmg)
    cf, cg = f.terms[lmf], g.terms[lmg]
    if type(cf) is int and type(cg) is int:
        d = math.gcd(cf, cg)
        cf, cg = cf // d, cg // d
    out: dict = {}
    _add_scaled(out, f.terms, cg, l - lmf)
    _add_scaled(out, g.terms, -cf, l - lmg)
    return _polynomial(out)


def buchberger(gens, order: TermOrder,
               deadline: Deadline | None = None) -> list[Polynomial]:
    """Reduced Groebner basis of the ideal generated by gens.

    Terminates by Dickson/Noetherianity; the caller bounds wall time via
    deadline.  The zero ideal yields [], the unit ideal [1]: as soon as a
    generator or an S-polynomial reduces to a nonzero constant, [1] is
    returned without handling the pairs still pending.
    """
    basis = _Basis(order)
    # heap of (lcm degree, i, j), each pair pushed once; a pair with
    # coprime leads is handled when it is made and never pushed
    pending: list = []
    pending_set: set = set()

    def add(f: Polynomial) -> bool:
        """Reduce f by the basis, keep a nonzero remainder's primitive part
        and push its pairs; True when f reduces to a nonzero constant."""
        # through the module global, so that normal_form stays one call
        # per reduction wherever it is wrapped
        h = normal_form(f, basis, order, deadline) if basis else f
        if h.is_zero():
            return False
        if h.is_constant():
            return True
        j = len(basis)
        lmj = h.leading_monomial(order)
        for lmi, _, _, i in basis.divisors:
            # coprime leads: the S-polynomial reduces to zero, so the pair
            # is handled as soon as it is made
            if not lmi.coprime(lmj):
                heapq.heappush(pending, (lmi.lcm(lmj).degree, i, j))
                pending_set.add((i, j))
        basis.append(_polynomial(_primitive(h.terms, lmj)))
        return False

    for f in map(as_polynomial, gens):
        # cleared of denominators, so normal_form works in ints from here
        if not f.is_zero() and add(_polynomial(_integral(f.terms)[1])):
            return [Polynomial.constant(1)]

    while pending:
        if deadline is not None:
            deadline.check()
        _, i, j = heapq.heappop(pending)
        pending_set.discard((i, j))
        l = basis.divisors[i][0].lcm(basis.divisors[j][0])
        if _chain_criterion(basis.divisors, i, j, l, pending_set):
            continue
        if add(s_polynomial(basis[i], basis[j], order)):
            return [Polynomial.constant(1)]

    return interreduce(basis, order, deadline)


def _chain_criterion(divisors, i, j, l, pending_set) -> bool:
    # prune (i, j) when some k has lm_k | lcm(i, j) and both (i, k), (j, k)
    # were already handled; a pair with coprime leads never enters
    # pending_set, so it counts as handled from the moment it is made
    for lmk, _, _, k in divisors:
        if k in (i, j):
            continue
        if lmk.divides(l):
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in pending_set and b not in pending_set:
                return True
    return False


def interreduce(polys, order: TermOrder,
                deadline: Deadline | None = None) -> list[Polynomial]:
    """Monic, mutually reduced generating set, sorted by descending lead.

    On a Groebner basis this is the reduced basis of its ideal.
    """
    work = [p.monic(order) for p in polys if not p.is_zero()]
    # keep only lead-minimal members; process ascending so divisors come first
    work.sort(key=lambda p: order.key(p.leading_monomial(order)))
    kept = _Basis(order)
    for p in work:
        lm = p.leading_monomial(order)
        if any(d[0].divides(lm) for d in kept.divisors):
            continue
        # a lead divides only terms at or above it, so just the members
        # before p can reduce p's tail, and they are already final; p's
        # own lead (coefficient 1) is divisible by none of them
        kept.append(normal_form(p, kept, order, deadline))
    return kept[::-1]


def is_unit_basis(basis) -> bool:
    """True when the basis generates the whole ring (contains a unit)."""
    return any(not g.is_zero() and g.is_constant() for g in basis)

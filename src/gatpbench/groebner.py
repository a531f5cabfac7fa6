"""Groebner bases over the rationals: multivariate division and Buchberger.

Pair selection is by ascending lcm degree, ties in generator order; the
coprime-lead and chain criteria prune useless S-pairs.  Buchberger stops
at the first generator or S-polynomial that reduces to a nonzero constant
and returns [1], the reduced basis of the unit ideal.  Any other returned
basis is inter-reduced, monic, and sorted by descending leading monomial,
so equal ideals with equal orders yield byte-for-byte equal bases.
Buchberger's basis and interreduce's kept set build each element's divisor
record (lead monomial, lead coefficient, tail) once, when the element is
added, and every later division reads it.
"""

from __future__ import annotations

import heapq

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
    quotients: list[dict] = [{} for _ in basis]
    remainder = _reduce(f, _divisors(basis, order), order, deadline,
                        quotients)
    return [_polynomial(q) for q in quotients], remainder


def _divisor(g: Polynomial, order: TermOrder, i: int) -> tuple:
    """(lead monomial, lead coefficient, tail terms, i): what dividing by
    the i-th basis element g reads."""
    lm = g.leading_monomial(order)
    tail = dict(g.terms)
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
    """Division of f by the divisor records on one working term map; fills
    quotients (one dict per basis element) when given."""
    key = order.key
    # every field of these monomials is registered by now, so one read of
    # the guard bits serves the whole division (see Monomial.divides)
    g = polynomials._GUARDS
    p = dict(f.terms)
    remainder = {}
    while p:
        lm = max(p, key=key)
        lc = p.pop(lm)
        if deadline is not None:
            deadline.check()
        lm_g = lm | g
        for glm, glc, tail, i in divisors:
            if (lm_g - glm) & g == g:
                t = lm - glm
                c = _quotient(lc, glc)
                if quotients is not None:
                    quotients[i][_new(Monomial, t)] = c
                # lm cancels exactly; only the tail of c*t*g is left to add
                _add_scaled(p, tail, -c, t)
                break
        else:
            remainder[lm] = lc
    return _polynomial(remainder)


def s_polynomial(f: Polynomial, g: Polynomial, order: TermOrder) -> Polynomial:
    lmf, lmg = f.leading_monomial(order), g.leading_monomial(order)
    l = lmf.lcm(lmg)
    return (f.term_times(_quotient(1, f.terms[lmf]), l.divide(lmf))
            - g.term_times(_quotient(1, g.terms[lmg]), l.divide(lmg)))


def buchberger(gens, order: TermOrder,
               deadline: Deadline | None = None) -> list[Polynomial]:
    """Reduced Groebner basis of the ideal generated by gens.

    Terminates by Dickson/Noetherianity; the caller bounds wall time via
    deadline.  The zero ideal yields [], the unit ideal [1]: as soon as a
    generator or an S-polynomial reduces to a nonzero constant, [1] is
    returned without handling the pairs still pending.
    """
    basis = _Basis(order)
    leads: list[Monomial] = []
    # heap of (lcm degree, i, j), each pair pushed once; the lcm itself is
    # worked out again on pop, and only for pairs that pass the coprime test
    pending: list = []
    pending_set: set = set()

    def add(f: Polynomial) -> bool:
        """Reduce f by the basis, keep a nonzero remainder monic and push its
        pairs; True when f reduces to a nonzero constant."""
        # through the module global, so that normal_form stays one call
        # per reduction wherever it is wrapped
        h = normal_form(f, basis, order, deadline) if basis else f
        if h.is_zero():
            return False
        if h.is_constant():
            return True
        j = len(basis)
        basis.append(h.monic(order))
        lmj = basis.divisors[j][0]
        leads.append(lmj)
        for i in range(j):
            heapq.heappush(pending, (leads[i].lcm(lmj).degree, i, j))
            pending_set.add((i, j))
        return False

    for f in map(as_polynomial, gens):
        if not f.is_zero() and add(f):
            return [Polynomial.constant(1)]

    while pending:
        if deadline is not None:
            deadline.check()
        _, i, j = heapq.heappop(pending)
        pending_set.discard((i, j))
        if leads[i].coprime(leads[j]):
            continue  # coprime-lead criterion
        l = leads[i].lcm(leads[j])
        if _chain_criterion(leads, i, j, l, pending_set):
            continue
        if add(s_polynomial(basis[i], basis[j], order)):
            return [Polynomial.constant(1)]

    return interreduce(basis, order, deadline)


def _chain_criterion(leads, i, j, l, pending_set) -> bool:
    # prune (i, j) when some k has lm_k | lcm(i, j) and both (i, k), (j, k)
    # were already handled
    for k, lmk in enumerate(leads):
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

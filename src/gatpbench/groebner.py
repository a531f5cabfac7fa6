"""Groebner bases over the rationals: multivariate division and Buchberger.

Pair selection is by ascending lcm degree; the coprime-lead and chain
criteria prune useless S-pairs.  The returned basis is inter-reduced,
monic, and sorted by descending leading monomial, so equal ideals with
equal orders yield byte-for-byte equal bases.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from .budget import Deadline
from .polynomials import Monomial, Polynomial, TermOrder, ZERO, as_polynomial


def normal_form(f: Polynomial, basis, order: TermOrder,
                deadline: Deadline | None = None) -> Polynomial:
    """Remainder of f under multivariate division by basis (in list order)."""
    return divide(f, basis, order, deadline)[1]


def divide(f: Polynomial, basis, order: TermOrder,
           deadline: Deadline | None = None):
    """Full division: returns (quotients, remainder) with

        f == sum(q_i * basis_i) + remainder

    and no remainder term divisible by any basis leading monomial.
    """
    basis = [as_polynomial(g) for g in basis]
    leads = [(g.leading_monomial(order), g.leading_coeff(order)) if not g.is_zero() else None
             for g in basis]
    quotients = [ZERO] * len(basis)
    remainder = ZERO
    p = f
    while not p.is_zero():
        if deadline is not None:
            deadline.check()
        lm = p.leading_monomial(order)
        lc = p.terms[lm]
        for i, lead in enumerate(leads):
            if lead is not None and lead[0].divides(lm):
                t = lm.divide(lead[0])
                c = lc / lead[1]
                quotients[i] = quotients[i] + Polynomial({t: c})
                p = p - basis[i].term_times(c, t)
                break
        else:
            remainder = remainder + Polynomial({lm: lc})
            p = p - Polynomial({lm: lc})
    return quotients, remainder


def s_polynomial(f: Polynomial, g: Polynomial, order: TermOrder) -> Polynomial:
    lmf, lmg = f.leading_monomial(order), g.leading_monomial(order)
    l = lmf.lcm(lmg)
    return (f.term_times(1 / f.leading_coeff(order), l.divide(lmf))
            - g.term_times(1 / g.leading_coeff(order), l.divide(lmg)))


def buchberger(gens, order: TermOrder,
               deadline: Deadline | None = None) -> list[Polynomial]:
    """Reduced Groebner basis of the ideal generated by gens.

    Terminates by Dickson/Noetherianity; the caller bounds wall time via
    deadline.  The zero ideal yields [], the unit ideal [1].
    """
    basis: list[Polynomial] = []
    for f in gens:
        f = as_polynomial(f)
        if f.is_zero():
            continue
        h = normal_form(f, basis, order, deadline) if basis else f
        if not h.is_zero():
            basis.append(h.monic(order))

    pending: list = []      # heap of (lcm degree, i, j); each pair pushed once

    def push_pairs(j: int):
        lmj = basis[j].leading_monomial(order)
        for i in range(j):
            l = basis[i].leading_monomial(order).lcm(lmj)
            heapq.heappush(pending, (l.degree, i, j))

    for j in range(len(basis)):
        push_pairs(j)
    pending_set = {(i, j) for _, i, j in pending}

    while pending:
        if deadline is not None:
            deadline.check()
        _, i, j = heapq.heappop(pending)
        pending_set.discard((i, j))
        lmi = basis[i].leading_monomial(order)
        lmj = basis[j].leading_monomial(order)
        if lmi.coprime(lmj):
            continue  # coprime-lead criterion
        l = lmi.lcm(lmj)
        if _chain_criterion(basis, order, i, j, l, pending_set):
            continue
        s = s_polynomial(basis[i], basis[j], order)
        h = normal_form(s, basis, order, deadline)
        if h.is_zero():
            continue
        basis.append(h.monic(order))
        push_pairs(len(basis) - 1)
        pending_set.update((i2, len(basis) - 1) for i2 in range(len(basis) - 1))

    return interreduce(basis, order, deadline)


def _chain_criterion(basis, order, i, j, l, pending_set) -> bool:
    # prune (i, j) when some k has lm_k | lcm(i, j) and both (i, k), (j, k)
    # were already handled
    for k in range(len(basis)):
        if k in (i, j):
            continue
        if basis[k].leading_monomial(order).divides(l):
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in pending_set and b not in pending_set:
                return True
    return False


def interreduce(polys, order: TermOrder,
                deadline: Deadline | None = None) -> list[Polynomial]:
    """Monic, mutually reduced generating set, sorted by descending lead."""
    work = [p.monic(order) for p in polys if not p.is_zero()]
    # keep only lead-minimal members; process ascending so divisors come first
    work.sort(key=lambda p: order.key(p.leading_monomial(order)))
    kept: list[Polynomial] = []
    for p in work:
        lm = p.leading_monomial(order)
        if not any(q.leading_monomial(order).divides(lm) for q in kept):
            kept.append(p)
    # tail-reduce to a fixpoint; leading monomials are stable here
    changed = True
    while changed:
        changed = False
        if deadline is not None:
            deadline.check()
        for idx, p in enumerate(kept):
            rest = kept[:idx] + kept[idx + 1:]
            r = normal_form(p, rest, order, deadline) if rest else p
            if not r.is_zero():
                r = r.monic(order)
            if r != p:
                kept[idx] = r
                changed = True
        kept = [p for p in kept if not p.is_zero()]
    kept.sort(key=lambda p: order.key(p.leading_monomial(order)), reverse=True)
    return kept


def is_unit_basis(basis) -> bool:
    """True when the basis generates the whole ring (contains a unit)."""
    return any(not g.is_zero() and g.is_constant() for g in basis)

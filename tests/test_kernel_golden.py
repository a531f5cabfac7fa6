"""Behaviour fingerprint of the polynomial kernel.

One sha256 digest covers what the provers and the Groebner machinery print:
Wu's traces on the whole bundled corpus (ascending chains included), the
Groebner prover's verdicts, ndgs and traces, the text of reduced bases, and
the quotients and remainders of both division routines on fixed random
inputs.  Any change to chain order, ndg order, basis text or division
results changes the digest; a faster kernel that computes the same thing
leaves it alone.
"""

import hashlib
import random
from fractions import Fraction

from gatpbench.algebraize import algebraize
from gatpbench.corpus import bundled_manifest_path, load_corpus
from gatpbench.groebner import buchberger, divide, normal_form
from gatpbench.polynomials import Polynomial, TermOrder, pseudo_divide, var
from gatpbench.provers import groebner_prove, wu_prove

GOLDEN_KERNEL_DIGEST = (
    "427feceaea5a69902dc611d85c7b7a8c3b45c7ed9b7e56ff98c02acd1f7ee752")

# the digest was fixed before the Groebner prover could decide this entry,
# so it leaves the entry out; gbm now decides it in a fraction of a second,
# and its verdict and ndgs are checked against wu, and its call counts
# pinned, in tests/test_provers.py
GBM_SKIP = {"GEO0008"}

x, y, z = var("x"), var("y"), var("z")
LEX_XY = TermOrder(TermOrder.LEX, ("x", "y"))
DRL_XYZ = TermOrder(TermOrder.DEGREVLEX, ("x", "y", "z"))


def random_poly(rng, names=("x", "y", "z"), terms=3, deg=2, bound=5):
    p = Polynomial.constant(0)
    for _ in range(rng.randint(1, terms)):
        t = Polynomial.constant(Fraction(rng.randint(-bound, bound)))
        for n in names:
            t = t * var(n) ** rng.randint(0, deg)
        p = p + t
    return p


def _outcome_lines(tag, outcome):
    return ([f"{tag} {outcome.status.value}"]
            + [f"{tag} ndg {c.to_string()}" for c in outcome.ndg_conditions]
            + [f"{tag} trace {outcome.trace}"])


def _basis_line(basis, order):
    return "basis " + " ; ".join(b.to_string(order) for b in basis)


def _bases():
    """The bases that tests/test_groebner.py builds."""
    out = [_basis_line(buchberger([x ** 2 + y ** 2, x * y], LEX_XY), LEX_XY),
           _basis_line(buchberger([2 * x ** 2 + 2 * y ** 2, 5 * x * y],
                                  LEX_XY), LEX_XY)]
    gens = [x * y - z, y * z - x, z * x - y]
    out.append(_basis_line(buchberger(gens, DRL_XYZ), DRL_XYZ))
    out.append(_basis_line(buchberger(list(reversed(gens)), DRL_XYZ), DRL_XYZ))
    out.append(_basis_line(buchberger([x, x + 1], LEX_XY), LEX_XY))
    out.append(_basis_line(buchberger([x ** 2], LEX_XY), LEX_XY))
    rng = random.Random(31337)
    for _ in range(40):
        gens = [random_poly(rng, terms=2) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if gens:
            out.append(_basis_line(buchberger(gens, DRL_XYZ), DRL_XYZ))
    return out


def _divisions():
    out = []
    rng = random.Random(4242)
    for _ in range(60):
        f = random_poly(rng)
        basis = [b for b in (random_poly(rng)
                             for _ in range(rng.randint(1, 3)))
                 if not b.is_zero()]
        if not basis:
            continue
        qs, r = divide(f, basis, DRL_XYZ)
        out.append("divide " + " ; ".join(q.to_string() for q in qs)
                   + " | " + r.to_string())
        out.append("nf " + normal_form(f, basis, DRL_XYZ).to_string())
    rng = random.Random(99)
    checked = 0
    while checked < 100:
        f = random_poly(rng, terms=5, deg=3, bound=9)
        g = random_poly(rng, terms=3, deg=3, bound=9)
        if g.degree_in("x") < 1:
            continue
        q, r, k = pseudo_divide(f, g, "x")
        out.append(f"prem {q} | {r} | {k}")
        checked += 1
    return out


def fingerprint_lines():
    lines = []
    for entry in load_corpus(bundled_manifest_path()).entries:
        system = algebraize(entry.problem)
        lines.append(f"== {entry.id}")
        lines += _outcome_lines("wu", wu_prove(system, trace=True))
        if entry.id not in GBM_SKIP:
            lines += _outcome_lines("gbm", groebner_prove(system, trace=True))
    lines.append("== bases")
    lines += _bases()
    lines.append("== divisions")
    lines += _divisions()
    return lines


def kernel_digest() -> str:
    return hashlib.sha256("\n".join(fingerprint_lines()).encode()).hexdigest()


def test_golden_kernel_digest():
    assert kernel_digest() == GOLDEN_KERNEL_DIGEST

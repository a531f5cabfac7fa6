"""The step solvers against a rational reference.

The oracle's solvers work in integer homogeneous coordinates.  This file
keeps a plain Fraction solver per construct, as the reference, and checks
that on the same seeded draws both return equal points, that both return
None on exactly the same degenerate draws, and that every returned triple
is normalised (W > 0, gcd(X, Y, W) = 1).
"""

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from gatpbench.corpus import bundled_manifest_path, load_corpus
from gatpbench.problems import STEPS, parse_problem, rational_point
from gatpbench.provers import SAMPLE_BOUND, solve_construction

from test_constructs import DEGENERATE, TABLE

DRAWS = 200


def _free(step, pts, draw):
    return draw(), draw()


def _fixed(step, pts, draw):
    return step.x, step.y


def _midpoint(step, pts, draw):
    (xa, ya), (xb, yb) = pts[step.a], pts[step.b]
    return (xa + xb) / 2, (ya + yb) / 2


def _on_line(step, pts, draw):
    (xa, ya), (xb, yb) = pts[step.a], pts[step.b]
    if xa == xb:
        return None
    x = draw()
    return x, ya + (x - xa) * (yb - ya) / (xb - xa)


def _inter(step, pts, draw):
    (xa, ya), (xb, yb) = pts[step.a], pts[step.b]
    (xc, yc), (xd, yd) = pts[step.c], pts[step.d]
    a1, b1 = -(yb - ya), xb - xa
    c1 = a1 * xa + b1 * ya
    a2, b2 = -(yd - yc), xd - xc
    c2 = a2 * xc + b2 * yc
    det = a1 * b2 - a2 * b1
    if det == 0:
        return None
    return (c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det


def _foot(step, pts, draw):
    (xp, yp) = pts[step.src]
    (xa, ya), (xb, yb) = pts[step.a], pts[step.b]
    dx, dy = xb - xa, yb - ya
    d2 = dx * dx + dy * dy
    if d2 == 0:
        return None
    t = ((xp - xa) * dx + (yp - ya) * dy) / d2
    return xa + t * dx, ya + t * dy


def _on_circle(step, pts, draw):
    (xo, yo) = pts[step.center]
    (xa, ya) = pts[step.through]
    t = draw()
    den = 1 + t * t
    c, s = (1 - t * t) / den, 2 * t / den
    vx, vy = xa - xo, ya - yo
    return xo + c * vx - s * vy, yo + s * vx + c * vy


def _circumcenter(step, pts, draw):
    (xa, ya), (xb, yb) = pts[step.a], pts[step.b]
    (xc, yc) = pts[step.c]
    a1, b1 = 2 * (xb - xa), 2 * (yb - ya)
    c1 = xb * xb + yb * yb - xa * xa - ya * ya
    a2, b2 = 2 * (xc - xa), 2 * (yc - ya)
    c2 = xc * xc + yc * yc - xa * xa - ya * ya
    det = a1 * b2 - a2 * b1
    if det == 0:
        return None
    return (c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det


REFERENCE = {"free": _free, "fixed": _fixed, "midpoint": _midpoint,
             "on_line": _on_line, "inter": _inter, "foot": _foot,
             "on_circle": _on_circle, "circumcenter": _circumcenter}


def reference_construction(problem, rng):
    """The rational model that the solvers are checked against."""
    def draw():
        return Fraction(rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND))
    pts = {}
    for step in problem.steps:
        xy = REFERENCE[step.keyword](step, pts, draw)
        if xy is None:
            return None
        pts[step.point] = xy
    return pts


def _moved(text):
    """text with its first free point fixed at a non-integer rational."""
    return text.replace("free A\n", "fixed A 1/3 -5/7\n", 1)


def _texts():
    texts = [(p.id, p.values[0]) for p in TABLE]
    texts += [(f"{name}@fixed", _moved(text)) for name, text in texts]
    texts += [(f"degenerate{i}", text)
              for i, text in enumerate(DEGENERATE, start=1)]
    texts += [(e.id, Path(e.path).read_text())
              for e in load_corpus(bundled_manifest_path()).entries]
    return texts


def test_reference_covers_every_construct():
    assert set(REFERENCE) == set(STEPS)


@pytest.mark.parametrize("name,text", _texts())
def test_solvers_match_rational_reference(name, text):
    problem = parse_problem(text)
    got_rng, want_rng = random.Random(7), random.Random(7)
    for _ in range(DRAWS):
        got = solve_construction(problem, got_rng)
        want = reference_construction(problem, want_rng)
        # the same draws are consumed, so the two streams stay in step
        assert got_rng.getstate() == want_rng.getstate()
        if want is None:
            assert got is None
            continue
        assert got is not None
        assert list(got) == list(want)
        for point, (x, y, w) in got.items():
            assert w > 0 and math.gcd(x, y, w) == 1, (point, (x, y, w))
            assert rational_point((x, y, w)) == want[point], point


def test_draws_equal_randint():
    # the oracle inlines randint's loop; a change in CPython's randint must
    # fail here rather than silently move the models and the oracle digest
    problem = parse_problem("problem draws\n"
                            + "".join(f"free P{i}\n" for i in range(250))
                            + "conjecture parallel P0 P1 P2 P3\n")
    for seed in range(200):
        pts = solve_construction(problem, random.Random(seed))
        want = random.Random(seed)
        assert [c for step in problem.steps for c in pts[step.point][:2]] == [
            want.randint(-SAMPLE_BOUND, SAMPLE_BOUND) for _ in range(500)
        ], seed

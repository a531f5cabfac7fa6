"""Coordinate translation: constructions to polynomial systems."""

import random
from fractions import Fraction

import pytest

from gatpbench.algebraize import (DegenerateConstructionError, algebraize,
                                  translate_predicate)
from gatpbench.polynomials import var
from gatpbench.problems import (Collinear, EqDist, Parallel, parse_problem,
                                rational_point)
from gatpbench.provers import solve_construction


def system_for(text):
    return algebraize(parse_problem(text))


def test_midpoint_worked_example():
    s = system_for("problem m\nfree A\nfree B\nmidpoint M A B\n"
                   "conjecture collinear A M B\n")
    u1, u2, u3, u4 = (var(f"u{i}") for i in range(1, 5))
    x1, x2 = var("x1"), var("x2")
    assert list(s.hypotheses) == [2 * x1 - u3 - u1, 2 * x2 - u4 - u2]
    assert [v.name for v in s.params] == ["u1", "u2", "u3", "u4"]
    assert [v.name for v in s.dependents] == ["x1", "x2"]
    assert len(s.conclusions) == 1


def test_fixed_points_become_constants():
    s = system_for("problem f\nfixed A 0 0\nfixed B 1 0\nfree C\n"
                   "conjecture collinear A B C\n")
    assert [v.name for v in s.params] == ["u1", "u2"]
    assert s.assignment["A"] == (Fraction(0), Fraction(0))
    assert s.assignment["B"] == (Fraction(1), Fraction(0))


CONSTRUCTORS = {
    # text, dependents added, equations added, hints added
    "midpoint M A B": (2, 2, 0),
    "on_line M A B": (1, 1, 1),
    "inter M A B C D": (2, 2, 1),
    "foot M A A B": (2, 2, 1),
    "on_circle M A B": (1, 1, 0),
    "circumcenter M A B C": (2, 2, 1),
}


@pytest.mark.parametrize("step", sorted(CONSTRUCTORS))
def test_variable_equation_balance(step):
    deps, eqs, hints = CONSTRUCTORS[step]
    base = "problem b\nfree A\nfree B\nfree C\nfree D\n"
    conj = "conjecture eqdist M A M B\n"
    s = system_for(base + step + "\n" + conj)
    assert len(s.dependents) == deps
    assert len(s.hypotheses) == eqs
    assert len(s.ndg_hints) == hints


def test_triangular_by_construction():
    """Scanning hypotheses in order, the dependents seen so far always form
    a prefix x1..xk — nothing references a dependent from a later step."""
    s = system_for("problem t\nfree A\nfree B\nmidpoint M A B\n"
                   "foot F M A B\ninter G A F M B\n"
                   "conjecture collinear A G B\n")
    dep_names = [v.name for v in s.dependents]
    seen = set()
    for h in s.hypotheses:
        seen.update(n for n in h.variables() if n in set(dep_names))
        assert seen == set(dep_names[:len(seen)])
    assert seen == set(dep_names)


def test_every_dependent_occurs_in_some_hypothesis():
    s = system_for("problem d\nfree A\nfree B\nfree C\n"
                   "circumcenter O A B C\nconjecture eqdist O A O B\n")
    mentioned = set()
    for h in s.hypotheses:
        mentioned.update(h.variables())
    for d in s.dependents:
        assert d.name in mentioned


def test_predicate_translation_shapes():
    env = {"A": (var("a1"), var("a2")), "B": (var("b1"), var("b2")),
           "C": (var("c1"), var("c2")), "D": (var("d1"), var("d2"))}
    assert len(translate_predicate(Collinear("A", "B", "C"), env)) == 1
    assert len(translate_predicate(Parallel("A", "B", "C", "D"), env)) == 1
    eq = translate_predicate(EqDist("A", "B", "C", "D"), env)[0]
    swapped = translate_predicate(EqDist("C", "D", "A", "B"), env)[0]
    assert eq == -1 * swapped or eq == swapped * -1 or eq == -swapped


def test_degenerate_construction_rejected():
    with pytest.raises(DegenerateConstructionError):
        system_for("problem g\nfree A\non_line P A A\n"
                   "conjecture collinear A P P\n")


def test_models_satisfy_hypotheses_exactly():
    """Stepwise rational solving hits every hypothesis with zero residue."""
    text = ("problem s\nfree A\nfree B\nfree C\nmidpoint MA B C\n"
            "midpoint MB A C\ninter G A MA B MB\nfoot F G A B\n"
            "conjecture collinear A G F\n")
    problem = parse_problem(text)
    s = algebraize(problem)
    rng = random.Random(11)
    hits = 0
    while hits < 25:
        model = solve_construction(problem, rng)
        if model is None:
            continue
        env = {}
        for point, (cx, cy) in s.assignment.items():
            vx, vy = rational_point(model[point])
            for coord, val in ((cx, vx), (cy, vy)):
                if hasattr(coord, "name"):
                    env[coord.name] = val
        assert all(h.evaluate(env) == 0 for h in s.hypotheses)
        hits += 1

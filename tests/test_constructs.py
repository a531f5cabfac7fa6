"""Behaviour fingerprint of the problem language.

One sha256 digest covers what parsing, rendering, validation,
algebraization, the sampling oracle's constructor and Wu's method make of
the bundled corpus, of degenerate-but-valid problems and of malformed
texts.  Any change to what a construct or predicate means changes the
digest; a pure refactor leaves it alone.  A second test runs every
construct of the table through parse, render, algebraize and the oracle's
constructor.
"""

import hashlib
import random

import pytest

from gatpbench.algebraize import AlgebraizeError, Variable, algebraize
from gatpbench.corpus import bundled_manifest_path, load_corpus
from gatpbench.problems import (PREDICATES, STEPS, ParseError, parse_problem,
                                rational_point, render_problem,
                                validate_problem)
from gatpbench.provers import solve_construction, wu_prove

GOLDEN_DIGEST = (
    "558555409733e491d73c4a8ee09571d30e81f3a3111f9b36fb7556f55c5c38ef")

# Parseable problems whose steps or conjectures are degenerate, so every
# degeneracy reason and algebraize's unconstrained-dependent check show up.
DEGENERATE = [
    "problem d1\nfree A\non_line P A A\nconjecture collinear A P P\n",
    "problem d2\nfree A\nfree B\nfree C\ninter P A A B C\n"
    "conjecture collinear A B P\n",
    "problem d3\nfree A\nfree B\ninter P A B B B\n"
    "conjecture collinear A B P\n",
    "problem d4\nfree A\nfree B\nfoot F B A A\nconjecture collinear A B F\n",
    "problem d5\nfree O\non_circle P O O\nconjecture eqdist O P O P\n",
    "problem d6\nfree A\nfree B\ncircumcenter O A A B\n"
    "conjecture eqdist O A O B\n",
    "problem d7\nfree A\nfree B\nfree C\nfree D\n"
    "conjecture collinear A A B\nconjecture parallel A A C D\n"
    "conjecture parallel A B C C\nconjecture parallel A B B A\n"
    "conjecture perpendicular A A C D\nconjecture perpendicular A B D D\n"
    "conjecture eqdist A B B A\nconjecture eqdist A A C C\n"
    "conjecture midpoint_of A A A\nconjecture on_circle_of A B A\n",
    "problem d8\n# meta: first\n# meta: second\nfree A\n# meta: not meta\n"
    "fixed B 4/6 -0/3\nfixed C -7 12/4\nmidpoint M A A\nfree Z\n"
    "conjecture midpoint_of M A A\nconjecture on_circle_of B C B\n",
]

MALFORMED = [
    "",
    "# only a comment\n\n",
    "free A\n",
    "problem\n",
    "problem p q\n",
    "problem 9p\nfree A\nconjecture collinear A A A\n",
    "problem p\nfree A\n",
    "problem p\nfrree A\nconjecture collinear A A A\n",
    "problem p\nfree A\nconjecture colinear A A A\n",
    "problem p\nfree A\nconjecture\n",
    "problem p\nfree A\nfree B\nconjecture collinear A B\n",
    "problem p\nfree A\nfree B\nconjecture parallel A B A\n",
    "problem p\nfree A\nfree B\nconjecture midpoint_of A B A B\n",
    "problem p\nfree A\nconjecture collinear A A 3x\n",
    "problem p\nfixed A 0\nconjecture collinear A A A\n",
    "problem p\nfixed A 0 0 0\nconjecture collinear A A A\n",
    "problem p\nfree A B\nconjecture collinear A A A\n",
    "problem p\nfree\nconjecture collinear A A A\n",
    "problem p\nfree 1A\nconjecture collinear A A A\n",
    "problem p\nfixed 1A 0 0\nconjecture collinear A A A\n",
    "problem p\nfree A\nfree B\nmidpoint M A\nconjecture collinear A B M\n",
    "problem p\nfree A\nfree B\ninter P A B A\nconjecture collinear A B P\n",
    "problem p\nfree A\nfree B\nfoot F A B\nconjecture collinear A B F\n",
    "problem p\nfree A\non_circle P A\nconjecture collinear A A P\n",
    "problem p\nfree A\nfree B\ncircumcenter O A B\n"
    "conjecture collinear A B O\n",
    "problem p\nfree A\non_line P A A A\nconjecture collinear A A P\n",
    "problem p\nfixed A 1.5 0\nconjecture collinear A A A\n",
    "problem p\nfixed A 0 x\nconjecture collinear A A A\n",
    "problem p\nfixed A 1/0 0\nconjecture collinear A A A\n",
    "problem p\nfixed A 0 -3/-4\nconjecture collinear A A A\n",
    "problem p\nfree A\nmidpoint M A B\nconjecture collinear A M B\n",
    "problem p\nfree A\nmidpoint M Z\nconjecture collinear A M A\n",
    "problem p\nfree A\nconjecture collinear A A Q\n",
    "problem p\nfree A\nfree A\nconjecture collinear A A A\n",
    "problem p\nfree A\nfree B\nmidpoint A A B\nconjecture collinear A B B\n",
    "problem p\nfree A\nmidpoint A B C\nconjecture collinear A A A\n",
    "problem p\nfree A\nfree B\nconjecture collinear A B B\nfree C\n",
    "problem p\nfree A\nconjecture collinear A A A\nfrob C\n",
    "problem p\nfree A\nfree B\ninter P A B B A\nconjecture collinear A B P\n",
    "problem p\nfree A\nfree B\ninter P A B A B\nconjecture collinear A B P\n",
    "problem p\nfree A\nfree B\ninter P A B B Z\nconjecture collinear A B P\n",
    "problem p\nfree A\nfixed A x 0\nconjecture collinear A A A\n",
    "problem p\nproblem q\nfree A\nconjecture collinear A A A\n",
    "problem p\nfree A\nfree B\nmidpoint_of M A B\nconjecture collinear A B M\n",
    "problem p\nfree A\nfree B\nconjecture midpoint A A B\n",
]

SAMPLES = 20


def _model_text(model):
    if model is None:
        return "degenerate"
    return " ".join(f"{k}=({x},{y})" for k, (x, y) in sorted(
        (k, rational_point(p)) for k, p in model.items()))


def _system_lines(problem):
    try:
        s = algebraize(problem)
    except AlgebraizeError as e:
        return [f"algebraize {type(e).__name__}: {e}"]
    return ([f"hyp {h.to_string()}" for h in s.hypotheses]
            + [f"concl {g.to_string()}" for g in s.conclusions]
            + [f"hint {h.to_string()}" for h in s.ndg_hints]
            + ["params " + " ".join(v.name for v in s.params)]
            + ["deps " + " ".join(v.name for v in s.dependents)])


def _problem_lines(problem, prove):
    out = [render_problem(problem)]
    out += [repr(w) for w in validate_problem(problem)]
    out += _system_lines(problem)
    rng = random.Random(5)
    out += [_model_text(solve_construction(problem, rng))
            for _ in range(SAMPLES)]
    if prove:
        outcome = wu_prove(algebraize(problem))
        out.append(outcome.status.value)
        out += [f"ndg {c.to_string()}" for c in outcome.ndg_conditions]
    return out


def _malformed_line(text):
    try:
        parse_problem(text)
    except ParseError as e:
        return repr((type(e).__name__, e.line, e.col, e.reason))
    return "parsed"


def fingerprint_lines():
    lines = []
    for entry in load_corpus(bundled_manifest_path()).entries:
        lines.append(f"== {entry.id}")
        lines += _problem_lines(entry.problem, prove=True)
    for text in DEGENERATE:
        lines.append("== degenerate")
        lines += _problem_lines(parse_problem(text), prove=False)
    lines.append("== malformed")
    lines += [_malformed_line(text) for text in MALFORMED]
    return lines


def test_golden_digest():
    digest = hashlib.sha256("\n".join(fingerprint_lines()).encode())
    assert digest.hexdigest() == GOLDEN_DIGEST


# Every construct of the table, used once on generic free points; a new
# construct is covered as soon as it is declared.
BASE = "problem k\nfree A\nfree B\nfree C\nfree D\n"


def _step_text(cls):
    points, rationals = iter("ABCD"), iter(["1/2", "-3"])
    args = [next(rationals) if kind == "RAT" else next(points)
            for kind in cls._form[1:]]
    return (BASE + " ".join([cls.keyword, "P", *args])
            + "\nconjecture collinear P A B\n")


def _predicate_text(cls):
    args = "ABCD"[:len(cls._form)]
    return BASE + " ".join(["conjecture", cls.keyword, *args]) + "\n"


TABLE = ([pytest.param(_step_text(c), id=k) for k, c in STEPS.items()]
         + [pytest.param(_predicate_text(c), id=k)
            for k, c in PREDICATES.items()])


@pytest.mark.parametrize("text", TABLE)
def test_construct_round_trips_and_models_satisfy_hypotheses(text):
    problem = parse_problem(text)
    assert render_problem(problem) == text
    system = algebraize(problem)
    assert system.conclusions
    rng = random.Random(5)
    models = [m for m in (solve_construction(problem, rng)
                          for _ in range(SAMPLES)) if m is not None]
    assert models
    for model in models:
        env = {c.name: v
               for point, coords in system.assignment.items()
               for c, v in zip(coords, rational_point(model[point]))
               if isinstance(c, Variable)}
        assert all(h.evaluate(env) == 0 for h in system.hypotheses)

"""Wu and Gröbner provers, the numeric oracle, and the external adapter."""

import os
import random
import stat
import textwrap
from pathlib import Path

import pytest

from gatpbench.algebraize import (DEPENDENT, PARAM, PolynomialSystem,
                                  Variable, algebraize)
from gatpbench.polynomials import pseudo_remainder, var
from gatpbench.problems import parse_problem
from gatpbench.provers import (GENERIC, STRICT, Consistent, Counterexample,
                               DegenerateExhaustedError,
                               InconsistentSystemError, SpawnFailureError,
                               Status, external_descriptor, external_prove,
                               groebner_prove, numeric_check,
                               solve_construction, wu_prove, wu_triangulate)

DATA = Path(__file__).resolve().parent.parent / "src" / "gatpbench" / "data"


def load(problem_id):
    return algebraize(parse_problem((DATA / f"{problem_id}.geo").read_text()))


def synthetic_system(hypotheses, conclusions, n_deps, n_params=0):
    deps = tuple(Variable(f"x{i}", DEPENDENT, i, f"P{i}", "x")
                 for i in range(1, n_deps + 1))
    params = tuple(Variable(f"u{i}", PARAM, i, f"Q{i}", "x")
                   for i in range(1, n_params + 1))
    return PolynomialSystem(hypotheses=tuple(hypotheses),
                            conclusions=tuple(conclusions), params=params,
                            dependents=deps, ndg_hints=(), assignment={},
                            problem=None)


class TestTriangulate:
    def test_chain_is_triangular_with_increasing_class(self):
        s = load("GEO0008")
        chain = wu_triangulate(s)
        mains = [m.main_var for m in chain]
        assert len(set(mains)) == len(mains)
        order = {v.name: i for i, v in enumerate(s.dependents)}
        assert [order[m] for m in mains] == sorted(order[m] for m in mains)

    def test_chain_members_pairwise_reduced(self):
        s = load("GEO0004")
        chain = wu_triangulate(s)
        for i, low in enumerate(chain):
            for high in chain[i + 1:]:
                assert high.poly.degree_in(low.main_var) \
                    < low.poly.degree_in(low.main_var)

    def test_inconsistent_hypotheses_rejected(self):
        x1 = var("x1")
        s = synthetic_system([x1, x1 - 1], [x1], n_deps=1)
        with pytest.raises(InconsistentSystemError):
            wu_triangulate(s)

    def test_duplicates_collapse(self):
        x1, u1 = var("x1"), var("u1")
        s = synthetic_system([x1 - u1, x1 - u1], [x1 - u1],
                             n_deps=1, n_params=1)
        assert len(wu_triangulate(s)) == 1


class TestWuProver:
    def test_proves_midline(self):
        out = wu_prove(load("GEO0001"), timeout_seconds=30)
        assert out.status is Status.PROVED
        assert out.wall_seconds >= 0 and out.cpu_seconds >= 0

    def test_rejects_non_theorem_with_remainder(self):
        out = wu_prove(load("NOT0001"), timeout_seconds=30)
        assert out.status is Status.UNPROVED
        assert out.trace and "u1" in out.trace  # final nonzero remainder shown

    def test_non_theorem_remainder_is_exact(self):
        # perpendicularity of AB, AC for free A=..(u1,u2) style corners:
        # reducing the dot product by the (empty) chain leaves it untouched
        s = load("NOT0001")
        assert not wu_triangulate(s)  # no dependents, chain is empty
        assert s.conclusions[0] == var("u1") * var("u3") \
            + var("u2") * var("u4")

    def test_ndg_conditions_are_monic_nonconstant(self):
        out = wu_prove(load("GEO0009"), timeout_seconds=30)
        assert out.status is Status.PROVED
        assert out.ndg_conditions
        for c in out.ndg_conditions:
            assert not c.is_constant()

    def test_trace_contains_chain(self):
        out = wu_prove(load("GEO0001"), timeout_seconds=30, trace=True)
        assert "ascending chain" in out.trace

    def test_tiny_budget_times_out(self):
        out = wu_prove(load("GEO0008"), timeout_seconds=1e-6)
        assert out.status is Status.TIMEOUT
        roomy = wu_prove(load("GEO0008"), timeout_seconds=60)
        assert roomy.status is Status.PROVED

    @pytest.mark.parametrize("budget", [0, -1, float("nan"), float("inf")])
    def test_budget_must_be_positive_and_finite(self, budget):
        with pytest.raises(ValueError):
            wu_prove(load("GEO0001"), timeout_seconds=budget)


class TestGroebnerProver:
    def test_agrees_with_wu_on_small_sample(self):
        for pid in ("GEO0001", "GEO0002", "GEO0005", "NOT0001", "NOT0003"):
            s = load(pid)
            a = wu_prove(s, timeout_seconds=30).status
            b = groebner_prove(s, timeout_seconds=30).status
            assert a == b, pid

    def test_strict_mode_needs_no_degeneracy_escape(self):
        s = load("GEO0009")
        assert groebner_prove(s, timeout_seconds=30,
                              mode=GENERIC).status is Status.PROVED
        strict = groebner_prove(s, timeout_seconds=30, mode=STRICT)
        assert strict.status is Status.UNPROVED

    def test_strict_proof_reports_no_ndg(self):
        out = groebner_prove(load("GEO0001"), timeout_seconds=30, mode=STRICT)
        assert out.status is Status.PROVED
        assert out.ndg_conditions == ()


class TestNumericOracle:
    def test_true_theorem_is_consistent(self):
        assert isinstance(numeric_check(load("GEO0002"), samples=15, seed=3),
                          Consistent)

    def test_false_statement_yields_counterexample(self):
        got = numeric_check(load("NOT0004"), samples=30, seed=5)
        assert isinstance(got, Counterexample)
        assert got.value != 0
        # the model actually violates the conclusion it names
        s = load("NOT0004")
        assert s.conclusions[got.conclusion_index].evaluate(got.env) \
            == got.value

    def test_deterministic_construction_needs_one_sample(self):
        got = numeric_check(load("GEO0007"), samples=50, seed=1)
        assert got == Consistent(samples=1)

    def test_seed_reproducibility(self):
        a = numeric_check(load("NOT0002"), samples=10, seed=42)
        b = numeric_check(load("NOT0002"), samples=10, seed=42)
        assert a == b

    def test_avoid_forces_resampling_until_exhausted(self):
        s = load("GEO0001")
        # a hypothesis is zero on every model, so it can never be avoided
        with pytest.raises(DegenerateExhaustedError):
            numeric_check(s, samples=1, seed=0, avoid=[s.hypotheses[0]],
                          retry_cap=8)

    def test_models_satisfy_prover_ndg_when_avoided(self):
        s = load("GEO0009")
        out = wu_prove(s, timeout_seconds=30)
        rng = random.Random(0)
        got = numeric_check(s, samples=20, seed=9, avoid=out.ndg_conditions)
        assert isinstance(got, Consistent)


def write_stub(tmp_path, name, body):
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + textwrap.dedent(body))
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


class TestExternalAdapter:
    def test_exit_zero_is_proved_and_stdout_becomes_trace(self, tmp_path):
        stub = write_stub(tmp_path, "yes.sh", 'echo "QED $1"\nexit 0\n')
        desc = external_descriptor("yes", f"{stub} {{input}}")
        out = external_prove(desc, "problem.geo", timeout_seconds=10)
        assert out.status is Status.PROVED
        assert "QED problem.geo" in out.trace

    def test_exit_one_is_unproved(self, tmp_path):
        stub = write_stub(tmp_path, "no.sh", "exit 1\n")
        desc = external_descriptor("no", f"{stub} {{input}}")
        assert external_prove(desc, "p.geo",
                              10).status is Status.UNPROVED

    def test_other_exit_is_error_with_message(self, tmp_path):
        stub = write_stub(tmp_path, "boom.sh", 'echo "bad" >&2\nexit 7\n')
        desc = external_descriptor("boom", f"{stub} {{input}}")
        out = external_prove(desc, "p.geo", 10)
        assert out.status is Status.ERROR
        assert "7" in (out.message or "")

    def test_overrun_is_killed_and_timed_out(self, tmp_path):
        stub = write_stub(tmp_path, "slow.sh", "sleep 30\n")
        desc = external_descriptor("slow", f"{stub} {{input}}")
        out = external_prove(desc, "p.geo", timeout_seconds=0.5)
        assert out.status is Status.TIMEOUT
        assert 0.5 <= out.wall_seconds < 2.0

    def test_missing_binary_raises_spawn_failure(self):
        desc = external_descriptor("ghost", "/nope/nothing {input}")
        with pytest.raises(SpawnFailureError):
            external_prove(desc, "p.geo", 5)


def test_solve_construction_covers_every_constructor():
    text = ("problem all\nfixed A 0 0\nfree B\nfree C\nmidpoint M B C\n"
            "on_line P A B\ninter X A C B M\nfoot F P A C\n"
            "on_circle Q A B\ncircumcenter O A B C\n"
            "conjecture eqdist O A O B\n")
    problem = parse_problem(text)
    rng = random.Random(2)
    models = 0
    for _ in range(40):
        m = solve_construction(problem, rng)
        if m is not None:
            models += 1
            assert set(m) == {"A", "B", "C", "M", "P", "X", "F", "Q", "O"}
    assert models > 0

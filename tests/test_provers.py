"""Wu and Gröbner provers, the numeric oracle, and the external adapter."""

import contextlib
import os
import random
import signal
import stat
import subprocess
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import pytest

from gatpbench.algebraize import (DEPENDENT, PARAM, PolynomialSystem,
                                  Variable, algebraize)
from gatpbench.corpus import bundled_manifest_path, load_corpus
from gatpbench.groebner import buchberger, is_unit_basis
from gatpbench.polynomials import (MissingVariableError, Polynomial,
                                   TermOrder, var)
from gatpbench import groebner, provers
from gatpbench.problems import parse_problem
from gatpbench.provers import (TRACE_LIMIT, Consistent,
                               Counterexample, DegenerateExhaustedError,
                               InconsistentSystemError, SpawnFailureError,
                               Status, external_descriptor, external_prove,
                               _generic_ndg, groebner_prove, numeric_check,
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


PROVERS = {
    "wu": wu_prove,
    "gbm": groebner_prove,
}


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

    def test_chain_member_degree_is_the_main_variable_degree(self):
        for pid, s in bundled_systems():
            for m in wu_triangulate(s):
                assert m.degree == m.poly.degree_in(m.main_var), pid

    @pytest.mark.parametrize("swap", [False, True])
    def test_equal_rank_keys_tie_break_on_printed_text(self, swap):
        # both are (class 1, degree 2, 2 terms); "1*u2*x1^2 + -1*u1*u2"
        # prints before "1*x1^2 + -1*u1", so it leads the basic set in
        # either pool order, and the other reduces to zero by it
        x1, u1, u2 = var("x1"), var("u1"), var("u2")
        a, b = x1 ** 2 - u1, u2 * x1 ** 2 - u1 * u2
        s = synthetic_system([b, a] if swap else [a, b], [x1 ** 4 - u1 ** 2],
                             n_deps=1, n_params=2)
        chain = wu_triangulate(s)
        assert [(m.poly, m.main_var, m.initial, m.degree) for m in chain] \
            == [(b, "x1", u2, 2)]
        assert wu_prove(s).ndg_conditions == (u2,)

    def test_lazy_tie_break_orders_like_the_full_key(self):
        rng = random.Random(8)
        depidx = {f"x{i}": i for i in (1, 2, 3)}
        depname = {i: n for n, i in depidx.items()}
        names = [*depidx, "u1", "u2"]
        for _ in range(200):
            pool = []
            for _ in range(rng.randint(2, 9)):
                p = Polynomial.constant(rng.choice([-2, 1, 3]))
                for _ in range(rng.randint(1, 3)):
                    p = p + rng.choice([-1, 1, 2]) * var(rng.choice(names)) \
                        ** rng.randint(1, 2) * var(rng.choice(names))
                if not p.is_zero() and p not in [q for _, q in pool]:
                    pool.append(provers._pool_entry(p, depidx, depname))
            full = sorted(pool, key=lambda e: (*e[0], e[1].to_string()))
            assert provers._by_rank(pool) == full


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

    @pytest.mark.parametrize("prover", list(PROVERS))
    def test_tiny_budget_times_out(self, prover):
        out = PROVERS[prover](load("GEO0008"), timeout_seconds=1e-6)
        assert out.status is Status.TIMEOUT
        roomy = PROVERS[prover](load("GEO0008"), timeout_seconds=60)
        assert roomy.status is Status.PROVED

    @pytest.mark.parametrize("budget", [0, -1, float("nan"), float("inf")])
    def test_budget_must_be_positive_and_finite(self, budget):
        with pytest.raises(ValueError):
            wu_prove(load("GEO0001"), timeout_seconds=budget)


def bundled_systems():
    entries = load_corpus(bundled_manifest_path()).entries
    assert len(entries) == 17
    return [(e.id, algebraize(e.problem)) for e in entries]


def product_inverter_is_unit(system):
    """Unit-ideal answer of the encoding that inverts the product of all
    ndgs with one variable, 1 - w*prod(d), hypotheses before the goal."""
    ndg = _generic_ndg(wu_triangulate(system), system)
    prod = Polynomial.constant(1)
    for d in ndg:
        prod = prod * d
    extra = [1 - var("w") * prod] if ndg else []
    prec = (["z", "w"] + [v.name for v in reversed(system.dependents)]
            + [v.name for v in reversed(system.params)])
    order = TermOrder(TermOrder.DEGREVLEX, prec)
    return all(is_unit_basis(buchberger(list(system.hypotheses) + extra
                                        + [1 - var("z") * g], order))
               for g in system.conclusions if not g.is_zero())


class TestGeo0008Work:
    """The work gbm does on the Euler line entry, counted at each call
    site: a change that makes it faster without moving these counts cut
    overhead, not work."""

    def count_calls(self, monkeypatch, module, name):
        calls = []
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
        return calls

    def test_gbm_call_counts(self, monkeypatch):
        """Buchberger forms 135 S-polynomials and reduces 160 polynomials.
        These fell from 161 and 186 when pairs with coprime leads stopped
        being formed, which lets the chain criterion prune more pairs.
        Triangulation's 164 pseudo-divisions are Wu's work."""
        s_polys = self.count_calls(monkeypatch, groebner, "s_polynomial")
        forms = self.count_calls(monkeypatch, groebner, "normal_form")
        divisions = self.count_calls(monkeypatch, provers, "pseudo_divide")
        out = groebner_prove(load("GEO0008"), timeout_seconds=60)
        assert out.status is Status.PROVED
        assert len(out.ndg_conditions) == 11
        assert (len(s_polys), len(forms), len(divisions)) == (135, 160, 164)

    def test_gbm_builds_few_fractions(self, count_fractions):
        """Buchberger reduces in integers over a primitive basis: the only
        Fractions are remainder coefficients that normal_form returns
        exactly (6,915 while the basis was monic and reduction rational)."""
        system = load("GEO0008")
        before = len(count_fractions)
        out = groebner_prove(system, timeout_seconds=60)
        assert out.status is Status.PROVED
        assert len(count_fractions) - before <= 146


class TestGroebnerProver:
    def test_agrees_with_wu_on_every_bundled_entry(self):
        # the 5 s budget leaves a wide margin on GEO0008 (Euler line, 11
        # ndgs), the entry that takes longest
        for pid, s in bundled_systems():
            wu = wu_prove(s, timeout_seconds=5)
            gbm = groebner_prove(s, timeout_seconds=5)
            assert gbm.status in (Status.PROVED, Status.UNPROVED), pid
            assert (gbm.status, gbm.ndg_conditions) \
                == (wu.status, wu.ndg_conditions), pid

    def test_one_inverter_per_factor_decides_like_the_product(self):
        for pid, s in bundled_systems():
            if pid == "GEO0008":
                continue    # the product inverter takes over a minute here
            proved = groebner_prove(s).status is Status.PROVED
            assert product_inverter_is_unit(s) == proved, pid

    @pytest.mark.parametrize("name", ["z", "w1"])
    def test_fresh_variable_clash_is_rejected(self, name):
        # the chain initial u1 is the one ndg, so the prover adjoins z, w1
        u1, t = var("u1"), var(name)
        s = PolynomialSystem(
            hypotheses=(u1 * t - 1,), conclusions=(t * u1 - 1,),
            params=(Variable("u1", PARAM, 1, "Q1", "x"),),
            dependents=(Variable(name, DEPENDENT, 1, "P1", "x"),),
            ndg_hints=(), assignment={}, problem=None)
        with pytest.raises(ValueError, match=name):
            groebner_prove(s)


def foot_system(first, second):
    """The foot F of C on AB, with two conjectures in the given order."""
    return algebraize(parse_problem(textwrap.dedent(f"""\
        problem FOOT
        fixed A 0 0
        free B
        free C
        foot F C A B
        conjecture {first}
        conjecture {second}
        """)))


CHAIN = ["ascending chain:",
         "  [x1] 1*u2^2*x1 + -1*u1*u2*u4 + 1*u1^2*x1 + -1*u1^2*u3",
         "  [x2] 1*u1*u2^2*x2 + -1*u1*u2^2*u4 + -1*u1^2*u2*u3 + 1*u1^3*x2"]
FOOT_NDG = ["1*u1*u2^2 + 1*u1^3", "1*u2^2 + 1*u1^2"]
FOOT_NDG_LINES = [f"nondegeneracy: {d} != 0" for d in FOOT_NDG]
ZERO, NONZERO = "collinear A A F", "perpendicular C F A B"

# (case, prover) -> (status, ndgs, message, trace lines) of a traced run
CHARACTERISED = {
    ("zero-first", "wu"): (
        Status.PROVED, FOOT_NDG, "",
        ["conclusion 1: identically zero", *CHAIN,
         "conclusion 2: remainder zero", *FOOT_NDG_LINES]),
    ("zero-first", "gbm"): (
        Status.PROVED, FOOT_NDG, "",
        ["conclusion 1: identically zero",
         "conclusion 2: radical membership confirmed", *FOOT_NDG_LINES]),
    ("zero-after", "wu"): (
        Status.PROVED, FOOT_NDG, "",
        [*CHAIN, "conclusion 1: remainder zero",
         "conclusion 2: identically zero", *FOOT_NDG_LINES]),
    ("zero-after", "gbm"): (
        Status.PROVED, FOOT_NDG, "",
        ["conclusion 1: radical membership confirmed",
         "conclusion 2: identically zero", *FOOT_NDG_LINES]),
    ("NOT0001", "wu"): (
        Status.UNPROVED, [], "",
        ["ascending chain:",
         "conclusion 1: nonzero final remainder 1*u2*u4 + 1*u1*u3"]),
    ("NOT0001", "gbm"): (
        Status.UNPROVED, [], "",
        ["conclusion 1: not in the radical (basis of 1 elements, no unit)"]),
    ("contradictory", "wu"): (
        Status.ERROR, [], "hypotheses force -1 = 0", None),
    ("contradictory", "gbm"): (
        Status.ERROR, [], "hypotheses force -1 = 0", None),
    ("param-constrained", "wu"): (
        Status.ERROR, [],
        "hypotheses constrain the parameters: 1*u1 + -1 = 0", None),
    ("param-constrained", "gbm"): (
        Status.ERROR, [],
        "hypotheses constrain the parameters: 1*u1 + -1 = 0", None),
}


def characterised_system(case):
    if case == "zero-first":
        return foot_system(ZERO, NONZERO)
    if case == "zero-after":
        return foot_system(NONZERO, ZERO)
    if case == "NOT0001":
        return load("NOT0001")
    x1 = var("x1")
    if case == "param-constrained":
        u1 = var("u1")
        return synthetic_system([u1 - 1, x1 - u1], [x1 - 1], n_deps=1,
                                n_params=1)
    return synthetic_system([x1, x1 - 1], [x1], n_deps=1)


class TestProofPaths:
    @pytest.mark.parametrize("case,prover", list(CHARACTERISED))
    def test_characterised_outcome(self, case, prover):
        status, ndgs, message, lines = CHARACTERISED[case, prover]
        s = characterised_system(case)
        out = PROVERS[prover](s, timeout_seconds=30, trace=True)
        assert out.status is status
        assert [d.to_string() for d in out.ndg_conditions] == ndgs
        assert out.message == message
        assert out.trace == (None if lines is None else "\n".join(lines))
        # untraced runs keep only the line that says why a proof failed
        quiet = PROVERS[prover](s, timeout_seconds=30)
        assert (quiet.status, quiet.ndg_conditions) \
            == (out.status, out.ndg_conditions)
        assert quiet.trace == (lines[-1] if status is Status.UNPROVED
                               else None)

    def test_provers_agree_when_no_conclusion_needs_reducing(self):
        # neither prover triangulates when every conclusion is identically
        # zero, so both report only the constructor hints, and contradictory
        # hypotheses are never looked at
        foot = algebraize(parse_problem(textwrap.dedent("""\
            problem FOOT
            free A
            free B
            free C
            foot F C A B
            conjecture collinear A A F
            """)))
        x1 = var("x1")
        contradictory = synthetic_system([x1, x1 - 1], [Polynomial.constant(0)],
                                         n_deps=1)
        for s in (foot, contradictory):
            wu, gbm = wu_prove(s), groebner_prove(s)
            assert wu.status is Status.PROVED
            assert (gbm.status, gbm.ndg_conditions) \
                == (wu.status, wu.ndg_conditions)
        assert len(wu_prove(foot).ndg_conditions) == 1


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
            numeric_check(s, samples=1, seed=0, avoid=[s.hypotheses[0]])

    def test_fixed_construction_is_drawn_once(self, monkeypatch):
        # no random choice, so the one model cannot change by redrawing
        s = algebraize(parse_problem(
            "problem FIXED\nfixed A 0 0\nfixed B 2 4\nmidpoint M A B\n"
            "conjecture collinear A B M\n"))
        calls = []

        def counted(problem, rng):
            calls.append(problem)
            return solve_construction(problem, rng)

        monkeypatch.setattr(provers, "solve_construction", counted)
        assert numeric_check(s, samples=10, seed=0) == Consistent(samples=1)
        assert len(calls) == 1
        with pytest.raises(DegenerateExhaustedError):
            numeric_check(s, samples=10, seed=0, avoid=[s.hypotheses[0]])
        assert len(calls) == 2

    def test_hypothesis_violation_is_an_assertion_error(self):
        s = load("GEO0002")
        hypotheses = (s.hypotheses[0] + 1,) + s.hypotheses[1:]
        broken = PolynomialSystem(**{**vars(s), "hypotheses": hypotheses})
        with pytest.raises(AssertionError, match="violates a hypothesis"):
            numeric_check(broken, samples=1, seed=0)

    def test_consistent_check_builds_no_fraction(self, count_fractions):
        """Draws, solving and evaluation are int arithmetic: a check that
        comes back Consistent constructs no Fraction at all."""
        systems = [algebraize(e.problem)
                   for e in load_corpus(bundled_manifest_path()).entries]
        consistent = 0
        for system in systems:
            before = len(count_fractions)
            if isinstance(numeric_check(system, samples=100, seed=0),
                          Consistent):
                consistent += 1
                assert len(count_fractions) == before, system.problem.id
        assert consistent == 13

    def test_models_satisfy_prover_ndg_when_avoided(self):
        s = load("GEO0009")
        out = wu_prove(s, timeout_seconds=30)
        rng = random.Random(0)
        got = numeric_check(s, samples=20, seed=9, avoid=out.ndg_conditions)
        assert isinstance(got, Consistent)

    def test_avoid_may_be_a_generator(self):
        s = algebraize(parse_problem(
            "problem R\nfixed A 0 0\nfree B\nfree C\nmidpoint M B C\n"
            "conjecture collinear B M C\n"))
        for avoid in ((s.hypotheses[0],), (h for h in [s.hypotheses[0]])):
            with pytest.raises(DegenerateExhaustedError):
                numeric_check(s, samples=1, seed=0, avoid=avoid)

    def test_fraction_coefficients_give_an_exact_counterexample(self):
        # a fixed point off the integer grid puts Fraction coefficients in
        # the hypotheses and the conclusion
        s = algebraize(parse_problem(
            "problem R2\nfixed A 1/3 -2/7\nfree B\nfree C\nmidpoint M B C\n"
            "conjecture perpendicular A M B C\n"))
        got = numeric_check(s, samples=50, seed=3)
        assert got == Counterexample(
            model={"A": (Fraction(1, 3), Fraction(-2, 7)),
                   "B": (Fraction(-2203), Fraction(9419)),
                   "C": (Fraction(7833), Fraction(-5727)),
                   "M": (Fraction(2815), Fraction(1846))},
            env={"u1": Fraction(-2203), "u2": Fraction(9419),
                 "u3": Fraction(7833), "u4": Fraction(-5727),
                 "x1": Fraction(2815), "x2": Fraction(1846)},
            conclusion_index=0, value=Fraction(5967176, 21))
        assert list(got.env) == ["u1", "u2", "u3", "u4", "x1", "x2"]
        assert s.conclusions[0].evaluate(got.env) == got.value

    def test_fraction_coefficients_theorem_is_consistent(self):
        s = algebraize(parse_problem(
            "problem R2\nfixed A 1/3 -2/7\nfree B\nfree C\nmidpoint M B C\n"
            "midpoint N A C\nconjecture parallel M N A B\n"))
        assert numeric_check(s, samples=50, seed=3) == Consistent(samples=50)

    def test_avoid_in_a_foreign_variable_raises_missing_variable_error(self):
        s = load("GEO0002")
        with pytest.raises(MissingVariableError) as err:
            numeric_check(s, samples=5, seed=0, avoid=[var("zz") + 1])
        assert err.value.args == ("zz",)

    def test_solve_construction_runs_once_per_draw(self, monkeypatch):
        calls = []

        def counted(problem, rng):
            model = solve_construction(problem, rng)
            calls.append(model is None)
            return model

        monkeypatch.setattr(provers, "solve_construction", counted)
        got = numeric_check(load("GEO0002"), samples=100, seed=0)
        assert got == Consistent(samples=100)
        # each accepted sample is one draw, and each degenerate one a draw
        assert len(calls) == 100 + sum(calls)


def kill_survivors(pids, grace=2.0) -> list:
    """The pids still live after up to grace seconds, which are then
    killed; a zombie awaiting its reaper counts as gone."""
    def live(pid):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
        except FileNotFoundError:
            return False

    deadline = time.monotonic() + grace
    while any(map(live, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    survivors = [pid for pid in pids if live(pid)]
    for pid in survivors:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    return survivors


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

    @pytest.mark.parametrize("code,status", [(0, Status.PROVED),
                                             (1, Status.UNPROVED),
                                             (5, Status.ERROR)])
    def test_long_output_is_cut_to_trace_limit(self, tmp_path, code, status):
        stub = write_stub(tmp_path, "chatty.sh",
                          f"head -c {8 << 20} /dev/zero | tr '\\0' x\n"
                          f"exit {code}\n")
        desc = external_descriptor("chatty", f"{stub} {{input}}")
        out = external_prove(desc, "p.geo", timeout_seconds=30)
        assert out.status is status
        assert out.trace == "x" * TRACE_LIMIT

    @pytest.mark.parametrize("budget", [float("nan"), float("inf"), 0.0,
                                        -1.0])
    def test_a_bad_budget_is_refused_before_the_child_starts(
            self, tmp_path, budget):
        ran = tmp_path / "ran"
        stub = write_stub(tmp_path, "touch.sh", f"touch {ran}\nexit 0\n")
        desc = external_descriptor("touch", f"{stub} {{input}}")
        with pytest.raises(ValueError) as ext:
            external_prove(desc, "p.geo", budget)
        with pytest.raises(ValueError) as builtin:
            wu_prove(load("GEO0001"), timeout_seconds=budget)
        assert str(ext.value) == str(builtin.value) \
            == "budget must be positive and finite"
        assert not ran.exists()

    def test_no_budget_runs_unbounded(self, tmp_path):
        stub = write_stub(tmp_path, "nap.sh", "sleep 0.2\nexit 0\n")
        desc = external_descriptor("nap", f"{stub} {{input}}")
        out = external_prove(desc, "p.geo", None)
        assert out.status is Status.PROVED and out.wall_seconds >= 0.2

    def test_missing_binary_raises_spawn_failure(self):
        desc = external_descriptor("ghost", "/nope/nothing {input}")
        with pytest.raises(SpawnFailureError):
            external_prove(desc, "p.geo", 5)

    @pytest.mark.skipif(not os.path.isdir("/proc/self"),
                        reason="needs procfs")
    def test_interrupt_kills_the_process_group(self, tmp_path, monkeypatch):
        pids = tmp_path / "pids"
        stub = write_stub(tmp_path, "sleeper.sh",
                          f"sleep 30 &\necho $$ $! > {pids}\nwait\n")
        desc = external_descriptor("sleeper", f"{stub} {{input}}")
        started = []

        class Kept(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                started.append(self)

        monkeypatch.setattr(subprocess, "Popen", Kept)

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            with pytest.raises(KeyboardInterrupt):
                external_prove(desc, "p.geo", timeout_seconds=30)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert kill_survivors([int(p) for p in pids.read_text().split()]) \
            == []
        # the child is reaped and its pipe closed before the interrupt
        # leaves external_prove
        [proc] = started
        assert proc.returncode is not None and proc.stdout.closed


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

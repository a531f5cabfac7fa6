"""End-to-end acceptance gate.

Each test prints one PASS line when its criterion holds (run with -s to see
them); a failure reads as the criterion's FAIL.  Criterion 7 deliberately
waits out a real 60 s timeout, so this module takes a bit over a minute.
"""

import random
import stat
import time
from fractions import Fraction
from pathlib import Path

import pytest

from gatpbench.algebraize import algebraize
from gatpbench.cli import main
from gatpbench.corpus import CorpusManifest, bundled_manifest_path, load_corpus
from gatpbench.groebner import buchberger, normal_form, s_polynomial
from gatpbench.harness import (ResultsStore, RunConfig, RunRecord,
                               format_record, host_fingerprint, parse_record,
                               run_single, run_suite)
from gatpbench.polynomials import Polynomial, TermOrder, pseudo_divide, var
from gatpbench.problems import parse_problem, render_problem
from gatpbench.provers import (Consistent, Status, external_descriptor,
                               groebner_prove, numeric_check, wu_descriptor,
                               wu_prove)
from gatpbench.ranking import (EfficiencyClass, classify_time,
                               de_bruijn_factor)

CORPUS = load_corpus(bundled_manifest_path())
DEFAULT_TIMEOUT = 60.0


def ok(n, label):
    print(f"criterion {n}: PASS — {label}", flush=True)


@pytest.fixture(scope="module")
def wu_outcomes():
    """One wu run per corpus entry under the default 60 s budget."""
    out = {}
    for entry in CORPUS.entries:
        system = algebraize(entry.problem)
        started = time.perf_counter()
        outcome = wu_prove(system, timeout_seconds=DEFAULT_TIMEOUT)
        out[entry.id] = (entry, system, outcome,
                         time.perf_counter() - started)
    return out


def test_criterion_01_corpus_soundness(wu_outcomes):
    """>=10 classics proved, >=3 non-theorems rejected, fast overall."""
    proved_ids = [e.id for e in CORPUS.entries if e.expected_status == "proved"]
    refuted_ids = [e.id for e in CORPUS.entries
                   if e.expected_status == "not-a-theorem"]
    assert len(proved_ids) >= 10
    assert len(refuted_ids) >= 3
    # the four named classics are present: midline/midpoint configuration,
    # Varignon's parallelogram, centroid concurrence, circumcenter eqdist
    for must in ("GEO0001", "GEO0002", "GEO0003", "GEO0004"):
        assert must in proved_ids

    total = 0.0
    for entry, _system, outcome, wall in wu_outcomes.values():
        total += wall
        expected = (Status.PROVED if entry.expected_status == "proved"
                    else Status.UNPROVED)
        assert outcome.status is expected, entry.id
    assert total < 60.0
    ok(1, f"wu decides all {len(CORPUS.entries)} entries correctly "
          f"in {total:.2f}s")


def test_criterion_02_oracle_cross_check(wu_outcomes):
    """Every Proved verdict survives 100 exact random models."""
    checked = 0
    for entry, system, outcome, _wall in wu_outcomes.values():
        if outcome.status is not Status.PROVED:
            continue
        got = numeric_check(system, samples=100, seed=20260818,
                            avoid=outcome.ndg_conditions)
        assert isinstance(got, Consistent), entry.id
        checked += 1
    assert checked >= 10
    ok(2, f"{checked} proved entries consistent over 100 samples each")


def test_criterion_03_prover_agreement(wu_outcomes):
    """Wu and the Gröbner prover agree wherever both decide in budget."""
    agreed = skipped = 0
    for entry, system, wu_out, _wall in wu_outcomes.values():
        gb_out = groebner_prove(system, timeout_seconds=10.0)
        decided = {Status.PROVED, Status.UNPROVED}
        if wu_out.status in decided and gb_out.status in decided:
            assert wu_out.status is gb_out.status, entry.id
            agreed += 1
        else:
            skipped += 1
    assert agreed >= 10
    ok(3, f"statuses agree on {agreed} entries ({skipped} undecided)")


def test_criterion_04_pseudo_division_identity():
    """init(g)^k * f == q*g + r exactly, 1000 random instances."""
    x, u, v = var("x"), var("u"), var("v")
    q, r, k = pseudo_divide(x ** 2 - u, v * x - 1, "x")
    assert r == 1 - u * v ** 2 and k == 2

    rng = random.Random(41)
    names = ("x", "u", "v")

    def rand_poly(terms):
        p = Polynomial.constant(0)
        for _ in range(rng.randint(1, terms)):
            t = Polynomial.constant(Fraction(rng.randint(-9, 9)))
            for n in names:
                t = t * var(n) ** rng.randint(0, 3)
            p = p + t
        return p

    done = 0
    while done < 1000:
        f, g = rand_poly(5), rand_poly(3)
        if g.degree_in("x") < 1:
            continue
        q, r, k = pseudo_divide(f, g, "x")
        init = g.leading_coeff_in("x")
        assert init ** k * f == q * g + r
        assert r.degree_in("x") < g.degree_in("x")
        done += 1
    ok(4, "1000 random identities plus the worked case hold exactly")


def test_criterion_05_groebner_correctness():
    """All S-pairs of every output basis reduce to zero; inputs belong."""
    lex = TermOrder(TermOrder.LEX, ("x", "y"))
    x, y = var("x"), var("y")
    assert buchberger([x ** 2 + y ** 2, x * y], lex) == \
        [x ** 2 + y ** 2, x * y, y ** 3]

    rng = random.Random(271828)
    names = ("x", "y", "z")
    order = TermOrder(TermOrder.DEGREVLEX, names)

    def rand_poly():
        p = Polynomial.constant(0)
        for _ in range(rng.randint(1, 3)):
            t = Polynomial.constant(Fraction(rng.randint(-3, 3)))
            for n in names:
                t = t * var(n) ** rng.randint(0, 3)
            p = p + t
        return p

    done = 0
    while done < 100:
        gens = [g for g in (rand_poly() for _ in range(rng.randint(1, 4)))
                if not g.is_zero()]
        if not gens:
            continue
        basis = buchberger(gens, order)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                s = s_polynomial(basis[i], basis[j], order)
                assert normal_form(s, basis, order).is_zero()
        for g in gens:
            assert normal_form(g, basis, order).is_zero()
        done += 1
    ok(5, "100 random bases confluent; worked basis reproduced")


def test_criterion_06_efficiency_classification():
    table = [
        (0.016, Status.PROVED, EfficiencyClass.GOOD),
        (1.5, Status.PROVED, EfficiencyClass.GOOD),      # inclusive edge
        (2.9, Status.PROVED, EfficiencyClass.FAIR),
        (3.0, Status.PROVED, EfficiencyClass.FAIR),      # inclusive edge
        (3.2, Status.PROVED, EfficiencyClass.UNSUITABLE),
        (0.5, Status.TIMEOUT, EfficiencyClass.UNDECIDED),
        (0.5, Status.ERROR, EfficiencyClass.UNDECIDED),
        (0.5, Status.UNPROVED, EfficiencyClass.UNDECIDED),
    ]
    for seconds, status, expected in table:
        assert classify_time(seconds, status) is expected, (seconds, status)
    ok(6, "threshold semantics including both inclusive boundaries")


@pytest.mark.slow
def test_criterion_07_timeout_enforcement(tmp_path):
    """A 120 s external prover is cut off at the 60 s default. (Slow.)"""
    stub = tmp_path / "sleeper.sh"
    stub.write_text("#!/bin/sh\nsleep 120\n")
    stub.chmod(stub.stat().st_mode | stat.S_IEXEC)
    desc = external_descriptor("sleeper", f"{stub} {{input}}")
    entry = CORPUS.entries[0]
    cfg = RunConfig(provers=(desc,),
                    corpus=CorpusManifest(path=CORPUS.path, entries=[entry]))
    assert cfg.timeout_seconds == DEFAULT_TIMEOUT
    record = run_single(entry.problem, desc, cfg)
    assert record.status is Status.TIMEOUT
    assert 60.0 <= record.wall_seconds <= 61.0
    ok(7, f"timeout record after {record.wall_seconds:.3f}s wall")


def test_criterion_08_de_bruijn_factor():
    assert de_bruijn_factor(1000, 4000) == Fraction(1, 4)
    assert de_bruijn_factor(2048, 2048) == Fraction(1)
    for a, b in ((1000, 4000), (31, 7), (5, 5)):
        assert de_bruijn_factor(a, b) * de_bruijn_factor(b, a) == 1
    ok(8, "ratio direction, identity, reciprocal symmetry")


def test_criterion_09_determinism(tmp_path, capsys):
    """bench twice: same records modulo timing; rank: byte-identical."""
    stores = []
    for name in ("a.tsv", "b.tsv"):
        path = tmp_path / name
        code = main(["bench", "--corpus", str(bundled_manifest_path()),
                     "--provers", "wu,gbm", "--timeout", "5",
                     "--out", str(path)])
        assert code == 0
        stores.append(ResultsStore(path).load())
    strip = [[r.timing_free() for r in records] for records in stores]
    assert strip[0] == strip[1]

    capsys.readouterr()
    args = ["rank", "--store", str(tmp_path / "a.tsv"), "--corpus",
            str(bundled_manifest_path())]
    weights = ["--weights", "scope=2,efficiency=1,reliability=1"]
    assert main(args + weights) == 0
    first = capsys.readouterr().out
    assert main(args + weights) == 0
    assert capsys.readouterr().out == first

    scaled = ["--weights", "scope=14,efficiency=7,reliability=7"]
    assert main(args + scaled) == 0
    rescaled = capsys.readouterr().out
    agg = lambda text: [l for l in text.splitlines()[-2:]]
    assert [l.split()[1] for l in agg(first)] == \
        [l.split()[1] for l in agg(rescaled)]
    ok(9, "records stable modulo timing; reports byte-identical; "
          "weight scaling preserves order")


def test_criterion_10_round_trips():
    for entry in CORPUS.entries:
        text = render_problem(entry.problem)
        again = parse_problem(text)
        assert again == entry.problem, entry.id
        assert render_problem(again) == text, entry.id

    rng = random.Random(1009)
    records = []
    for i in range(1000):
        records.append(RunRecord(
            problem_id=f"P{rng.randrange(200):04d}",
            prover_id=rng.choice(["wu", "gbm", "extern"]),
            repetition=rng.randint(1, 9),
            status=rng.choice(list(Status)),
            cpu_seconds=float(f"{rng.random() * 90:.6f}"),
            wall_seconds=float(f"{rng.random() * 90:.6f}"),
            ndg_count=rng.randrange(16),
            started_at="2026-08-18T10:20:30.405060+00:00",
            host_fingerprint=host_fingerprint()))
    for r in records:
        assert parse_record(format_record(r)) == r
    ok(10, "DSL and 1000-record store round-trips are exact")

"""Benchmark harness: records, stores, timed runs."""

import dataclasses
import json
import os
import pickle
import random
import stat
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

from gatpbench import harness
from gatpbench.corpus import CorpusManifest, bundled_manifest_path, load_corpus
from gatpbench.harness import (HEADER, CorruptRecordError, ResultsStore,
                               RunConfig, RunRecord, format_record,
                               host_fingerprint, parse_record, run_single,
                               run_suite)
from gatpbench.problems import parse_problem
from gatpbench.provers import Status, external_descriptor, wu_descriptor

PROBLEM = parse_problem("problem t\nfree A\nfree B\nmidpoint M A B\n"
                        "conjecture collinear A M B\n")


def small_corpus(*ids):
    full = load_corpus(bundled_manifest_path())
    return CorpusManifest(path=full.path,
                          entries=[e for e in full.entries if e.id in ids])


def sample_record(i=0):
    return RunRecord(problem_id=f"P{i:04d}", prover_id="wu", repetition=1,
                     status=Status.PROVED, cpu_seconds=0.25,
                     wall_seconds=0.5, ndg_count=i % 3,
                     started_at="2026-08-18T00:00:00+00:00",
                     host_fingerprint=host_fingerprint())


class TestRecordFormat:
    def test_round_trip_identity(self):
        r = sample_record()
        assert parse_record(format_record(r)) == r

    def test_round_trip_survives_odd_fingerprints(self):
        r = RunRecord(problem_id="P", prover_id="x", repetition=2,
                      status=Status.ERROR, cpu_seconds=0.0, wall_seconds=0.0,
                      ndg_count=0, started_at="2026-01-01T00:00:00+00:00",
                      host_fingerprint='weird "quoted"\tname')
        assert parse_record(format_record(r)) == r

    def test_times_serialized_at_six_decimals(self):
        line = format_record(sample_record())
        cpu, wall = line.split("\t")[4:6]
        assert cpu == "0.250000" and wall == "0.500000"

    @pytest.mark.parametrize("line,why", [
        ("a\tb\tc", "too few fields"),
        (format_record(sample_record()).replace("proved", "maybe"),
         "unknown status"),
        (format_record(sample_record()).replace("\t1\t", "\tone\t", 1),
         "bad repetition"),
        (format_record(sample_record()) + "\textra", "fingerprint not json"),
    ])
    def test_corrupt_lines_rejected_with_line_number(self, line, why):
        with pytest.raises(CorruptRecordError) as info:
            parse_record(line, line_number=17)
        assert info.value.line_number == 17

    @pytest.mark.parametrize("field,value,reason", [
        (3, "xyz", "'xyz' is not a valid Status"),
        (2, "one", "invalid literal for int() with base 10: 'one'"),
        (6, "2.5", "invalid literal for int() with base 10: '2.5'"),
        (4, "fast", "could not convert string to float: 'fast'"),
        (5, "", "could not convert string to float: ''"),
        (8, "not json", "Expecting value: line 1 column 1 (char 0)"),
        (8, '"open', "Unterminated string starting at: "
                     "line 1 column 1 (char 0)"),
        (8, "123", "host fingerprint is not a string"),
        (8, '["h"]', "host fingerprint is not a string"),
    ])
    def test_corrupt_field_message(self, field, value, reason):
        parts = format_record(sample_record()).split("\t")
        parts[field] = value
        with pytest.raises(CorruptRecordError) as info:
            parse_record("\t".join(parts), line_number=5)
        assert str(info.value) == f"record line 5: {reason}"

    def test_wrong_field_count_message(self):
        with pytest.raises(CorruptRecordError) as info:
            parse_record("a\tb\tc", line_number=2)
        assert str(info.value) == "record line 2: expected 9 fields, got 3"

    def test_a_bad_host_is_not_remembered(self):
        good = format_record(sample_record())
        parts = good.split("\t")
        for host in ("123", "not json"):
            bad = "\t".join(parts[:8] + [host])
            for _ in range(2):
                with pytest.raises(CorruptRecordError):
                    parse_record(bad)
        assert parse_record(good) == sample_record()

    @pytest.mark.parametrize("status", list(Status))
    def test_every_status_round_trips(self, status):
        r = dataclasses.replace(sample_record(), status=status)
        assert parse_record(format_record(r)).status is status

    def test_synthetic_store_round_trip(self, tmp_path):
        rng = random.Random(6)
        records = []
        for i in range(300):
            records.append(RunRecord(
                problem_id=f"P{rng.randrange(50):04d}",
                prover_id=rng.choice(["wu", "gbm", "ext"]),
                repetition=rng.randint(1, 5),
                status=rng.choice(list(Status)),
                cpu_seconds=float(f"{rng.random() * 70:.6f}"),
                wall_seconds=float(f"{rng.random() * 70:.6f}"),
                ndg_count=rng.randrange(12),
                started_at="2026-08-18T12:34:56.789012+00:00",
                host_fingerprint=host_fingerprint()))
        store = ResultsStore(tmp_path / "runs.tsv")
        store.append_many(records)
        assert store.load() == records


class TestRunRecordValue:
    def test_fields_cannot_be_assigned(self):
        r = sample_record()
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.status = Status.ERROR
        # a name that is not a field has no slot; which error says so
        # depends on the Python version
        with pytest.raises((AttributeError, TypeError)):
            r.note = "x"

    def test_no_instance_dict(self):
        assert not hasattr(sample_record(), "__dict__")

    def test_hash_and_pickle(self):
        r = sample_record(1)
        assert hash(r) == hash(sample_record(1))
        assert len({r, sample_record(1), sample_record(2)}) == 2
        back = pickle.loads(pickle.dumps(r))
        assert back == r and hash(back) == hash(r)

    def test_replace_and_timing_free(self):
        r = sample_record()
        assert dataclasses.replace(r, repetition=4).repetition == 4
        blank = r.timing_free()
        assert (blank.cpu_seconds, blank.wall_seconds, blank.started_at) \
            == (0.0, 0.0, "")
        assert blank == dataclasses.replace(r, cpu_seconds=0.0,
                                            wall_seconds=0.0, started_at="")


def fresh_child(code, *flags):
    """stdout of code run in a new interpreter that imports from src/."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, *flags, "-c", code],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_import_leaves_thread_pool_unloaded():
    assert fresh_child("import sys, gatpbench; "
                       "print('concurrent.futures' in sys.modules)") == "False"


def test_import_loads_only_the_modules_it_uses():
    # -S: no site hook (a .pth file) preloads standard modules
    assert fresh_child(
        "import sys, gatpbench; "
        "print(*sorted(m for m in sys.modules if 'gatpbench' in m))",
        "-S").split() == ["gatpbench", "gatpbench.algebraize",
                          "gatpbench.budget", "gatpbench.polynomials",
                          "gatpbench.problems"]
    assert fresh_child(
        "import sys, gatpbench.cli; "
        "print(*(m for m in ('gatpbench.harness', 'platform', 'subprocess', "
        "'hashlib', 'statistics', 'datetime') if m in sys.modules))",
        "-S") == ""


PUBLIC_NAMES = [
    "AlgebraizeError", "BadArityError", "Consistent", "CorpusEntry",
    "CorpusError", "CorpusManifest", "CorpusParseError", "CorruptRecordError",
    "Counterexample", "DEFAULT_TIMEOUT_SECONDS", "Deadline",
    "DeadlineExceeded", "DegenerateConstructionError",
    "DegenerateExhaustedError", "DuplicateIdError", "DuplicatePointError",
    "EfficiencyClass", "InconsistentSystemError", "MissingFileError",
    "MissingRecordsError", "Monomial", "NegativeWeightError",
    "NotUnivariateError", "ParseError", "Polynomial", "PolynomialSystem",
    "Problem", "ProblemSyntaxError", "ProofOutcome", "ProverDescriptor",
    "ProverKind", "QualityProfile", "RankingError", "RankingReport",
    "Rational", "ReliabilityClass", "ResultsStore", "RunConfig", "RunRecord",
    "SpawnFailureError", "Status", "TermOrder", "TriangulateError",
    "UndefinedPointError", "ValidationWarning", "Variable", "ZeroSizeError",
    "algebraize", "as_polynomial", "buchberger", "budget",
    "build_quality_profile", "bundled_manifest_path", "classify_time",
    "corpus", "corpus_hash", "de_bruijn_factor", "de_bruijn_factor_text",
    "divide", "external_descriptor", "external_prove", "format_record",
    "groebner", "groebner_descriptor", "groebner_prove", "harness",
    "host_fingerprint", "is_unit_basis", "load_corpus", "normal_form",
    "numeric_check", "parse_problem", "parse_record", "polynomials",
    "problems", "provers", "pseudo_divide", "rank_report", "ranking",
    "render_problem", "report_from_records", "run_single", "run_suite",
    "s_polynomial", "solve_construction", "translate_predicate",
    "validate_problem", "var", "wu_descriptor", "wu_prove", "wu_triangulate",
]


def test_lazy_namespace_keeps_every_public_name():
    code = textwrap.dedent("""
        import json, gatpbench
        import gatpbench.algebraize, gatpbench.provers
        out = {"algebraize": type(gatpbench.algebraize).__name__}
        from gatpbench import harness
        out["harness"] = type(harness).__name__
        try:
            gatpbench.no_such_name
        except AttributeError:
            out["unknown"] = "AttributeError"
        from gatpbench import budget
        out["timeouts"] = [gatpbench.DEFAULT_TIMEOUT_SECONDS,
                           harness.DEFAULT_TIMEOUT_SECONDS,
                           budget.DEFAULT_TIMEOUT_SECONDS]
        ns = {}
        exec("from gatpbench import *", ns)
        out["missing"] = sorted(set(gatpbench.__all__) - set(ns))
        out["all"] = sorted(gatpbench.__all__)
        print(json.dumps(out))
    """)
    out = json.loads(fresh_child(code))
    assert out.pop("all") == PUBLIC_NAMES
    assert out == {"algebraize": "function", "harness": "module",
                   "unknown": "AttributeError", "timeouts": [60.0] * 3,
                   "missing": []}


class TestStore:
    def test_header_written_once(self, tmp_path):
        store = ResultsStore(tmp_path / "s.tsv")
        store.append(sample_record(0))
        store.append(sample_record(1))
        lines = (tmp_path / "s.tsv").read_text().splitlines()
        assert lines[0] == HEADER
        assert sum(1 for l in lines if l.startswith("#")) == 1
        assert len(store.load()) == 2

    def test_comments_and_blanks_skipped_on_load(self, tmp_path):
        p = tmp_path / "s.tsv"
        p.write_text(HEADER + "\n\n# note\n" + format_record(sample_record())
                     + "\n")
        assert len(ResultsStore(p).load()) == 1

    def test_load_reports_corrupt_line_number(self, tmp_path):
        p = tmp_path / "s.tsv"
        p.write_text(HEADER + "\n" + format_record(sample_record())
                     + "\ngarbage line\n")
        with pytest.raises(CorruptRecordError) as info:
            ResultsStore(p).load()
        assert info.value.line_number == 3

    def test_torn_last_line_is_skipped(self, tmp_path):
        p = tmp_path / "s.tsv"
        store = ResultsStore(p)
        store.append_many([sample_record(0), sample_record(1)])
        store.load()
        assert store.torn_line is None
        whole = format_record(sample_record(2))
        with open(p, "a") as fh:
            fh.write(whole[:len(whole) // 2])     # a writer died mid-record
        assert store.load() == [sample_record(0), sample_record(1)]
        assert store.torn_line == 4

    @pytest.mark.parametrize("cut", [0.5, 1.0])
    def test_append_after_an_unterminated_last_line(self, tmp_path, cut):
        # a torn fragment is dropped, a whole record that only lacks its
        # newline is kept; either way the next record gets its own line
        p = tmp_path / "s.tsv"
        store = ResultsStore(p)
        store.append_many([sample_record(0), sample_record(1)])
        whole = format_record(sample_record(2))
        with open(p, "a") as fh:
            fh.write(whole[:int(len(whole) * cut)])
        store.append(sample_record(3))
        kept = [sample_record(2)] if cut == 1.0 else []
        assert store.load() == ([sample_record(0), sample_record(1)] + kept
                                + [sample_record(3)])
        assert store.torn_line is None

    def test_append_after_a_store_that_is_one_fragment(self, tmp_path):
        p = tmp_path / "s.tsv"
        p.write_text(HEADER[:7])
        store = ResultsStore(p)
        store.append(sample_record(0))
        assert p.read_text().startswith(HEADER[:7] + "\n")
        assert store.load() == [sample_record(0)]
        q = tmp_path / "t.tsv"
        q.write_text(format_record(sample_record(0))[:20])
        ResultsStore(q).append(sample_record(1))
        assert q.read_text() == HEADER + "\n" + format_record(
            sample_record(1)) + "\n"

    def test_unparsable_line_before_the_last_still_raises(self, tmp_path):
        p = tmp_path / "s.tsv"
        whole = format_record(sample_record(0))
        p.write_text(HEADER + "\n" + whole[:10] + "\n" + whole)
        with pytest.raises(CorruptRecordError) as info:
            ResultsStore(p).load()
        assert info.value.line_number == 2


class TestRunSingle:
    def cfg(self, **kw):
        base = dict(provers=(wu_descriptor(),),
                    corpus=small_corpus("GEO0001"), timeout_seconds=20.0)
        base.update(kw)
        return RunConfig(**base)

    def test_builtin_run_produces_proved_record(self):
        rec = run_single(PROBLEM, wu_descriptor(), self.cfg())
        assert rec.status is Status.PROVED
        assert rec.problem_id == "t" and rec.prover_id == "wu"
        assert rec.host_fingerprint == host_fingerprint()
        # stored times round-trip through the 6-decimal format
        assert rec == parse_record(format_record(rec))

    def test_external_run_gets_rendered_problem_file(self, tmp_path):
        catcher = tmp_path / "seen.txt"
        stub = tmp_path / "stub.sh"
        stub.write_text("#!/bin/sh\ncat \"$1\" > " + str(catcher)
                        + "\nexit 0\n")
        stub.chmod(stub.stat().st_mode | stat.S_IEXEC)
        desc = external_descriptor("stub", f"{stub} {{input}}")
        rec = run_single(PROBLEM, desc, self.cfg(provers=(desc,)))
        assert rec.status is Status.PROVED
        assert "problem t" in catcher.read_text()

    def test_spawn_failure_becomes_error_record(self):
        desc = external_descriptor("ghost", "/does/not/exist {input}")
        rec = run_single(PROBLEM, desc, self.cfg(provers=(desc,)))
        assert rec.status is Status.ERROR


class TestRunSuite:
    def test_cell_count_and_order(self):
        corpus = small_corpus("GEO0001", "GEO0002", "NOT0001")
        cfg = RunConfig(provers=(wu_descriptor(),), corpus=corpus,
                        timeout_seconds=20.0, repetitions=2)
        records = run_suite(cfg)
        assert len(records) == 3 * 2
        keys = [r.sort_key() for r in records]
        assert keys == sorted(keys)

    def test_parallel_run_is_deterministic_modulo_timing(self, tmp_path):
        corpus = small_corpus("GEO0001", "GEO0002", "NOT0001", "NOT0002")
        # the stub refutes exactly the NOT entries, like wu does
        stub = tmp_path / "stub.sh"
        stub.write_text("#!/bin/sh\n! grep -q '^problem NOT' \"$1\"\n")
        stub.chmod(stub.stat().st_mode | stat.S_IEXEC)
        ext = external_descriptor("stub", f"{stub} {{input}}")
        runs = []
        for jobs in (1, 2, 4):
            cfg = RunConfig(provers=(wu_descriptor(), ext), corpus=corpus,
                            timeout_seconds=20.0, parallelism=jobs)
            runs.append([r.timing_free() for r in run_suite(cfg)])
        assert runs[0] == runs[1] == runs[2]
        assert [(r.problem_id, r.prover_id, r.status) for r in runs[0]] == [
            (pid, prover, Status.UNPROVED if pid.startswith("NOT")
             else Status.PROVED)
            for pid in ("GEO0001", "GEO0002", "NOT0001", "NOT0002")
            for prover in ("stub", "wu")]

    def test_builtin_cells_run_on_the_calling_thread(self, monkeypatch):
        threads = []
        prove = harness.wu_prove

        def spy(*args, **kwargs):
            threads.append(threading.current_thread())
            return prove(*args, **kwargs)

        monkeypatch.setattr(harness, "wu_prove", spy)
        corpus = small_corpus("GEO0001", "GEO0002", "NOT0001", "NOT0002")
        cfg = RunConfig(provers=(wu_descriptor(),), corpus=corpus,
                        timeout_seconds=20.0, repetitions=2, parallelism=4)
        assert len(run_suite(cfg)) == 8
        assert threads == [threading.current_thread()] * 8

    def test_suite_appends_to_store(self, tmp_path):
        corpus = small_corpus("GEO0001")
        cfg = RunConfig(provers=(wu_descriptor(),), corpus=corpus,
                        timeout_seconds=20.0)
        store = ResultsStore(tmp_path / "out.tsv")
        run_suite(cfg, store)
        run_suite(cfg, store)
        assert len(store.load()) == 2

    def test_config_validation(self):
        corpus = small_corpus("GEO0001")
        with pytest.raises(ValueError):
            RunConfig(provers=(), corpus=corpus)
        with pytest.raises(ValueError, match="distinct"):
            RunConfig(provers=(wu_descriptor(),
                               external_descriptor("wu", "false {input}")),
                      corpus=corpus)
        for budget in (0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                RunConfig(provers=(wu_descriptor(),), corpus=corpus,
                          timeout_seconds=budget)
        with pytest.raises(ValueError):
            RunConfig(provers=(wu_descriptor(),), corpus=corpus,
                      repetitions=0)

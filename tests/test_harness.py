"""Benchmark harness: records, stores, timed runs."""

import random
import stat
import textwrap
from pathlib import Path

import pytest

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
        runs = []
        for jobs in (1, 4):
            cfg = RunConfig(provers=(wu_descriptor(),), corpus=corpus,
                            timeout_seconds=20.0, parallelism=jobs)
            runs.append([r.timing_free() for r in run_suite(cfg)])
        assert runs[0] == runs[1]

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
        for budget in (0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                RunConfig(provers=(wu_descriptor(),), corpus=corpus,
                          timeout_seconds=budget)
        with pytest.raises(ValueError):
            RunConfig(provers=(wu_descriptor(),), corpus=corpus,
                      repetitions=0)

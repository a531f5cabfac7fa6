"""Command-line interface: flows and the exit-code contract."""

import os
import signal
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gatpbench
from gatpbench.cli import build_parser, main, resolve_timeout, UsageError
from gatpbench.corpus import bundled_manifest_path
from gatpbench.harness import ResultsStore

from test_provers import kill_survivors

DATA = Path(__file__).resolve().parent.parent / "src" / "gatpbench" / "data"
MANIFEST = str(bundled_manifest_path())


def geo(problem_id):
    return str(DATA / f"{problem_id}.geo")


class TestTimeoutResolution:
    def test_default_is_sixty_exactly(self, monkeypatch):
        monkeypatch.delenv("GATPBENCH_TIMEOUT", raising=False)
        assert resolve_timeout(None) == 60.0

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv("GATPBENCH_TIMEOUT", "7.5")
        assert resolve_timeout(None) == 7.5

    def test_flag_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("GATPBENCH_TIMEOUT", "7.5")
        assert resolve_timeout(2.0) == 2.0

    def test_bad_env_is_usage_error(self, monkeypatch):
        monkeypatch.setenv("GATPBENCH_TIMEOUT", "soon")
        with pytest.raises(UsageError):
            resolve_timeout(None)
        for bad in ("-3", "nan", "inf", "-inf"):
            monkeypatch.setenv("GATPBENCH_TIMEOUT", bad)
            with pytest.raises(UsageError):
                resolve_timeout(None)


class TestProve:
    def test_theorem_exits_zero_and_prints_status(self, capsys):
        assert main(["prove", geo("GEO0001"), "--prover", "wu"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "Proved"
        assert any(l.startswith("wall_seconds:") for l in out)

    def test_non_theorem_exits_one(self, capsys):
        assert main(["prove", geo("NOT0001"), "--prover", "gbm"]) == 1
        assert capsys.readouterr().out.splitlines()[0] == "Unproved"

    def test_ndg_conditions_listed(self, capsys):
        assert main(["prove", geo("GEO0009")]) == 0
        out = capsys.readouterr().out
        assert "ndg:" in out and "!= 0" in out

    def test_trace_flag_appends_log(self, capsys):
        assert main(["prove", geo("GEO0001"), "--trace"]) == 0
        assert "ascending chain" in capsys.readouterr().out

    def test_env_timeout_can_force_timeout(self, capsys, monkeypatch):
        monkeypatch.setenv("GATPBENCH_TIMEOUT", "0.000001")
        assert main(["prove", geo("GEO0008")]) == 1
        assert capsys.readouterr().out.splitlines()[0] == "Timeout"

    def test_missing_file_exits_three(self, capsys):
        assert main(["prove", "/no/such/file.geo"]) == 3

    def test_malformed_file_exits_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.geo"
        bad.write_text("problem p\nfrree A\n")
        assert main(["prove", str(bad)]) == 3

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["prove", geo("GEO0001"), "--wat"]) == 2

    @pytest.mark.parametrize("budget", ["0", "nan", "inf"])
    def test_bad_timeout_flag_is_usage_error(self, capsys, budget):
        assert main(["prove", geo("GEO0001"), "--timeout", budget]) == 2


class TestCheck:
    def test_consistent_exits_zero(self, capsys):
        assert main(["check", geo("GEO0002"), "--samples", "5",
                     "--seed", "1"]) == 0
        assert capsys.readouterr().out.startswith("Consistent (5 samples)")

    def test_counterexample_exits_one_with_model(self, capsys):
        assert main(["check", geo("NOT0003"), "--samples", "20",
                     "--seed", "1"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("Counterexample")
        assert "u1 =" in out

    def test_seed_makes_output_reproducible(self, capsys):
        args = ["check", geo("NOT0001"), "--samples", "10", "--seed", "99"]
        assert main(args) == 1
        first = capsys.readouterr().out
        assert main(args) == 1
        assert capsys.readouterr().out == first

    def test_zero_samples_usage_error(self, capsys):
        assert main(["check", geo("GEO0002"), "--samples", "0"]) == 2
        assert capsys.readouterr().err == "error: --samples must be >= 1\n"


class TestListCommand:
    def test_lists_ids_and_expected_statuses(self, capsys):
        assert main(["list", "--corpus", MANIFEST]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 17
        assert lines[0] == "GEO0001\tproved"
        assert all(len(l.split("\t")) == 2 for l in lines)

    def test_missing_manifest_exits_three(self):
        assert main(["list", "--corpus", "/no/manifest.tsv"]) == 3


@pytest.fixture()
def mini_corpus(tmp_path):
    for pid in ("GEO0001", "NOT0001"):
        (tmp_path / f"{pid}.geo").write_text((DATA / f"{pid}.geo").read_text())
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("GEO0001\tGEO0001.geo\tproved\n"
                        "NOT0001\tNOT0001.geo\tnot-a-theorem\n")
    return manifest


class TestBenchAndRank:
    def test_bench_writes_expected_cells(self, mini_corpus, tmp_path, capsys):
        out = tmp_path / "runs.tsv"
        code = main(["bench", "--corpus", str(mini_corpus), "--provers",
                     "wu,gbm", "--timeout", "20", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 1 + 2 * 2

    def test_rank_text_and_tsv(self, mini_corpus, tmp_path, capsys):
        store = tmp_path / "runs.tsv"
        main(["bench", "--corpus", str(mini_corpus), "--provers", "wu,gbm",
              "--timeout", "20", "--out", str(store)])
        capsys.readouterr()
        assert main(["rank", "--store", str(store), "--corpus",
                     str(mini_corpus), "--weights", "scope=2,efficiency=1"
                     ]) == 0
        text = capsys.readouterr().out
        assert "by scope:" in text and "aggregate" in text
        assert main(["rank", "--store", str(store), "--format", "tsv"]) == 0
        tsv = capsys.readouterr().out
        assert tsv.splitlines()[0] == "dimension\trank\tprover_id\tscore"

    def test_rank_reports_are_byte_identical(self, mini_corpus, tmp_path,
                                             capsys):
        store = tmp_path / "runs.tsv"
        main(["bench", "--corpus", str(mini_corpus), "--provers", "wu",
              "--timeout", "20", "--out", str(store)])
        capsys.readouterr()
        main(["rank", "--store", str(store), "--corpus", str(mini_corpus)])
        one = capsys.readouterr().out
        main(["rank", "--store", str(store), "--corpus", str(mini_corpus)])
        assert capsys.readouterr().out == one

    def test_rank_skips_and_reports_torn_last_line(self, mini_corpus,
                                                    tmp_path, capsys):
        store = tmp_path / "runs.tsv"
        main(["bench", "--corpus", str(mini_corpus), "--provers", "wu",
              "--timeout", "20", "--out", str(store)])
        capsys.readouterr()
        main(["rank", "--store", str(store), "--corpus", str(mini_corpus)])
        whole = capsys.readouterr().out
        lines = store.read_text().splitlines(keepends=True)
        with open(store, "a") as fh:
            fh.write(lines[-1][:len(lines[-1]) // 2])
        assert main(["rank", "--store", str(store), "--corpus",
                     str(mini_corpus)]) == 0
        captured = capsys.readouterr()
        assert captured.out == whole
        assert f"torn last line {len(lines) + 1}" in captured.err

    def test_rank_corrupt_middle_line_exits_three(self, mini_corpus,
                                                  tmp_path, capsys):
        store = tmp_path / "runs.tsv"
        main(["bench", "--corpus", str(mini_corpus), "--provers", "wu",
              "--timeout", "20", "--out", str(store)])
        lines = store.read_text().splitlines(keepends=True)
        assert len(lines) == 3
        store.write_text("".join(lines[:2] + ["not a record\n"] + lines[2:]))
        capsys.readouterr()
        assert main(["rank", "--store", str(store)]) == 3
        assert capsys.readouterr().err == (
            "error: record line 3: expected 9 fields, got 1\n")

    @pytest.mark.parametrize("field,value,reason", [
        (5, "nan", "wall_seconds nan is not a finite time >= 0"),
        (4, "-1.000000", "cpu_seconds -1.000000 is not a finite time >= 0"),
        (2, "0", "repetition 0 is below 1"),
        (6, "-2", "ndg_count -2 is negative"),
    ])
    def test_rank_out_of_range_field_exits_three(self, tmp_path, capsys,
                                                 field, value, reason):
        good = ["GEO0001", "wu", "1", "proved", "0.100000", "0.200000", "0",
                "2026-01-01T00:00:00+00:00", '"host"']
        bad = list(good)
        bad[1], bad[field] = "gbm", value
        store = tmp_path / "runs.tsv"
        store.write_text("# header\n" + "\t".join(good) + "\n"
                         + "\t".join(bad) + "\n")
        assert main(["rank", "--store", str(store)]) == 3
        assert capsys.readouterr().err == f"error: record line 3: {reason}\n"

    def test_external_prover_flows_through(self, mini_corpus, tmp_path,
                                           capsys):
        stub = tmp_path / "stub.sh"
        stub.write_text("#!/bin/sh\nexit 0\n")
        stub.chmod(stub.stat().st_mode | stat.S_IEXEC)
        store = tmp_path / "runs.tsv"
        code = main(["bench", "--corpus", str(mini_corpus), "--provers",
                     "stub", "--external", f"stub={stub} {{input}}",
                     "--timeout", "10", "--out", str(store)])
        assert code == 0
        assert main(["rank", "--store", str(store), "--external",
                     f"stub={stub} {{input}}"]) == 0

    def test_bad_weights_usage_error(self, mini_corpus, tmp_path, capsys):
        store = tmp_path / "runs.tsv"
        main(["bench", "--corpus", str(mini_corpus), "--provers", "wu",
              "--timeout", "20", "--out", str(store)])
        assert main(["rank", "--store", str(store), "--weights",
                     "speed=1"]) == 2
        assert main(["rank", "--store", str(store), "--weights",
                     "scope"]) == 2
        assert main(["rank", "--store", str(store), "--weights",
                     "scope=abc"]) == 2
        capsys.readouterr()
        assert main(["rank", "--store", str(store), "--weights",
                     "scope=-1"]) == 2
        assert capsys.readouterr().err == (
            "error: negative weight -1 for 'scope'\n")
        assert main(["rank", "--store", str(store), "--weights",
                     "efficiency=1,efficiency=2"]) == 2
        assert capsys.readouterr().err == (
            "error: dimension 'efficiency' given twice\n")

    def test_unknown_prover_usage_error(self, mini_corpus, tmp_path):
        assert main(["bench", "--corpus", str(mini_corpus), "--provers",
                     "vampire", "--out", str(tmp_path / "r.tsv")]) == 2

    def test_bad_external_spec_usage_error(self, mini_corpus, tmp_path):
        assert main(["bench", "--corpus", str(mini_corpus), "--provers",
                     "wu", "--external", "nonsense",
                     "--out", str(tmp_path / "r.tsv")]) == 2

    @pytest.mark.parametrize("flags", [
        ["--provers", "wu,wu"],
        ["--provers", "wu", "--external", "wu=false {input}"],
        ["--provers", "ext", "--external", "ext=true {input}",
         "--external", "ext=false {input}"],
        ["--provers", "wu,x", "--external", 'x=python3 "oops {input}'],
        ["--provers", "wu,x", "--external", "x=true"],
        ["--provers", "wu", "--external", "a\tb=true {input}"],
        ["--provers", "wu", "--external", "a b=true {input}"],
        ["--provers", "wu", "--external", "a\nb=true {input}"],
        ["--provers", "wu", "--external", "a\rb=true {input}"],
        ["--provers", "wu", "--external", "a,b=true {input}"],
        ["--provers", "wu", "--jobs", "0"],
        ["--provers", "wu", "--repetitions", "0"],
    ], ids=["builtin-twice", "external-shadows-builtin", "external-twice",
            "unsplittable-template", "template-without-input", "tab-in-id",
            "space-in-id", "lf-in-id", "cr-in-id", "comma-in-id",
            "zero-jobs", "zero-repetitions"])
    def test_colliding_prover_ids_usage_error(self, mini_corpus, tmp_path,
                                              flags):
        # two provers under one id would merge their records in the store,
        # and an id with whitespace or a comma would split a store line or
        # the --provers list; each bad prover list, like a count below 1,
        # is rejected before any cell runs
        store = tmp_path / "r.tsv"
        assert main(["bench", "--corpus", str(mini_corpus), *flags,
                     "--timeout", "10", "--out", str(store)]) == 2
        assert not store.exists()

    def test_rank_rejects_external_with_builtin_id(self, mini_corpus,
                                                   tmp_path):
        store = tmp_path / "runs.tsv"
        main(["bench", "--corpus", str(mini_corpus), "--provers", "wu",
              "--timeout", "20", "--out", str(store)])
        assert main(["rank", "--store", str(store), "--external",
                     "wu=false {input}"]) == 2

    @pytest.mark.parametrize("spec", ['x=python3 "oops {input}', "x=true",
                                      "a\tb=true {input}"],
                             ids=["unsplittable-template",
                                  "template-without-input", "tab-in-id"])
    def test_rank_rejects_bad_external_template(self, mini_corpus, tmp_path,
                                                spec):
        store = tmp_path / "runs.tsv"
        main(["bench", "--corpus", str(mini_corpus), "--provers", "wu",
              "--timeout", "20", "--out", str(store)])
        assert main(["rank", "--store", str(store), "--external",
                     spec]) == 2

    def test_bench_missing_manifest_exits_three(self, tmp_path, capsys):
        store = tmp_path / "runs.tsv"
        assert main(["bench", "--corpus", "/no/manifest.tsv", "--provers",
                     "wu", "--out", str(store)]) == 3
        assert capsys.readouterr().err.startswith(
            "error: cannot read manifest: ")
        assert not store.exists()

    def test_manifest_id_unlike_header_exits_three(self, mini_corpus,
                                                   tmp_path, capsys):
        # bench would store GEO0001's records, which rank would not count
        # for X1: X1 would read undecided although it was proved
        store = tmp_path / "runs.tsv"
        main(["bench", "--corpus", str(mini_corpus), "--provers", "wu",
              "--timeout", "20", "--out", str(store)])
        renamed = tmp_path / "renamed.tsv"
        renamed.write_text("X1\tGEO0001.geo\tproved\n"
                           "NOT0001\tNOT0001.geo\tnot-a-theorem\n")
        capsys.readouterr()
        for argv in (["list", "--corpus", str(renamed)],
                     ["bench", "--corpus", str(renamed), "--provers", "wu",
                      "--out", str(tmp_path / "other.tsv")],
                     ["rank", "--store", str(store), "--corpus",
                      str(renamed)]):
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert err.startswith("error: manifest line 1: id X1 names ")
            assert err.endswith("whose header is 'problem GEO0001'\n")
        assert not (tmp_path / "other.tsv").exists()

    def test_ranking_error_exits_three(self, mini_corpus, tmp_path, capsys,
                                       monkeypatch):
        from gatpbench import ranking
        store = tmp_path / "runs.tsv"
        main(["bench", "--corpus", str(mini_corpus), "--provers", "wu",
              "--timeout", "20", "--out", str(store)])

        def missing(records, descriptors, *args, **kwargs):
            raise ranking.MissingRecordsError(descriptors[0].id)

        # rank resolves report_from_records in ranking when it is called
        monkeypatch.setattr(ranking, "report_from_records", missing)
        capsys.readouterr()
        assert main(["rank", "--store", str(store)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no records for prover 'wu'\n"

    def test_empty_store_usage_error(self, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        assert main(["rank", "--store", str(empty)]) == 2


def test_one_parser_serves_every_call(mini_corpus, tmp_path, capsys):
    """main builds its parser once per process; a reused parser gives each
    call the exit code and output of a freshly built one."""
    store = tmp_path / "runs.tsv"
    main(["bench", "--corpus", str(mini_corpus), "--provers", "wu",
          "--timeout", "20", "--out", str(store)])
    externals = ["--external", "a=true {input}",
                 "--external", "b=true {input}"]
    rank = ["rank", "--store", str(store), *externals]
    calls = [["bench", "--corpus", str(mini_corpus)], ["--help"], rank, rank,
             ["check", geo("GEO0002"), "--samples", "5", "--seed", "1"]]
    capsys.readouterr()
    reused = []
    for argv in calls:
        reused.append((main(argv), *capsys.readouterr()))
    assert build_parser() is build_parser()
    assert [r[0] for r in reused] == [2, 0, 0, 0, 0]
    # append options start empty on every parse, so --external ids given
    # once per call are never "declared twice"
    assert build_parser().parse_args(rank).external == externals[1::2]
    for argv, got in zip(calls, reused):
        build_parser.cache_clear()
        assert (main(argv), *capsys.readouterr()) == got


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs procfs")
@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
def test_stopped_bench_kills_external_provers(mini_corpus, tmp_path, signum):
    """bench stopped by a signal takes its external provers down with it:
    the running one and its helper are killed, the queued one never starts.
    The built-in cells that ended before the signal stay in the store."""
    pids = tmp_path / "pids"
    pids.mkdir()
    stub = tmp_path / "sleeper.sh"
    stub.write_text("#!/bin/sh\nsleep 30 &\n"
                    f"echo $$ $! > {pids}/$$.tmp\n"
                    f"mv {pids}/$$.tmp {pids}/$$\nwait\n")
    stub.chmod(stub.stat().st_mode | stat.S_IEXEC)
    src = Path(gatpbench.__file__).resolve().parent.parent
    bench = subprocess.Popen(
        [sys.executable, "-m", "gatpbench.cli", "bench", "--corpus",
         str(mini_corpus), "--provers", "wu,sleeper", "--external",
         f"sleeper={stub} {{input}}", "--timeout", "60",
         "--out", str(tmp_path / "runs.tsv")],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        # as from a terminal, whatever the test runner ignores
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    try:
        deadline = time.monotonic() + 30
        while not (started := [f for f in pids.iterdir()
                               if f.suffix != ".tmp"]):
            assert time.monotonic() < deadline, "no external prover started"
            time.sleep(0.05)
        t0 = time.monotonic()
        bench.send_signal(signum)
        bench.wait(timeout=5)
        assert time.monotonic() - t0 < 5
        assert bench.returncode != 0
        assert [f.name for f in pids.iterdir()] == [started[0].name]
    finally:
        if bench.poll() is None:
            bench.kill()
            bench.wait()
        survivors = kill_survivors([int(pid) for f in pids.iterdir()
                                    for pid in f.read_text().split()])
    assert survivors == []
    kept = ResultsStore(tmp_path / "runs.tsv").load()
    assert [(r.problem_id, r.prover_id) for r in kept] == [
        ("GEO0001", "wu"), ("NOT0001", "wu")]

"""gatpbench benchmark: runs one workload through the public CLI and prints
its metrics.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 40 --trace 0

Every program call goes through ``gatpbench.cli.main`` with the argv a
user would type, in this process; the program only ever sees the generated
``.geo`` files, manifests and record stores.  Each workload visits these
operations round-robin until ``--seconds`` have passed (see ``measure``):

* ``setup``: a fresh interpreter imports gatpbench and loads the manifests;
* ``bench`` once per prover (wu, gbm, and ``ext``, an external prover that
  runs ``gatpbench prove --prover wu`` in a child interpreter);
* ``check`` on every problem of the workload's check list;
* ``rank`` of a record store.

Every verdict is checked: each record against its manifest status, the
provers against each other, every ``check`` verdict against the expected
status, and every ``rank`` output against the first (byte-identical).  A
wrong verdict prints ``"correct": false`` with no metrics and exits 1.

With ``--trace 1`` one extra round runs with the layers wrapped (see
``tracing.py``) and the per-layer metrics are printed instead.  The last
stdout line is the JSON result; the line before it holds provenance.
Working files go to ``.perfbench/`` at the repository root and are removed
afterwards, except the span dump of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import re
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUNDLED = SRC / "gatpbench" / "data" / "manifest.tsv"
WORK = ROOT / ".perfbench"

CELL_BUDGET_S = 10        # above the ~6 s a fixed gbm needs on GEO0008
CHECK_SAMPLES = 100
CONFIRM_SAMPLES = 20
MIN_SAMPLE_S = 0.25
HOST_LOOP_ITERS = 150_000
HOST_LOOP_READS = 60_000
HOST_LOOP_BYTES = 1 << 22  # twice the 2 MiB L2 of the defining host
HOST_LOOP_S = 0.020       # reference seconds: as if host_loop() took this
MAX_SHARE = 0.4           # of a run one op may take after its first visit
WEIGHTS = "scope=2,efficiency=1"
PROVERS = ("wu", "gbm", "ext")
BUILTIN = ("wu", "gbm")

END_TO_END = {  # name -> unit
    "setup_s": "s", "wu_suite_s": "s", "gbm_suite_s": "s",
    "ext_suite_s": "s", "cells_decided_frac": "ratio",
    "rec_wall_over_cpu": "ratio", "check_samples_per_s": "1/s",
    "rank_s": "s", "peak_rss_mb": "MB",
}

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import gatpbench
for manifest in sys.argv[1:]:
    gatpbench.load_corpus(manifest)
print(repr(time.perf_counter() - t0))
"""


class WrongResult(Exception):
    """The program gave a wrong verdict or output."""


@dataclass
class Workload:
    manifest: Path            # what bench runs on
    jobs: int
    checks: list              # (id, .geo path, expected status)
    check_seed: int
    rank_corpus: Path
    rank_store: Path | None   # None: rank the records bench wrote
    setup_manifests: list


def _confirm(manifest: Path, seed: int) -> None:
    """Make sure every generated problem has its manifest status, using the
    exact numeric oracle, before anything is timed."""
    from gatpbench import (Counterexample, algebraize, numeric_check,
                           parse_problem)
    from inputs import read_manifest
    for pid, path, expected in read_manifest(manifest):
        system = algebraize(parse_problem(Path(path).read_text()))
        refuted = isinstance(
            numeric_check(system, samples=CONFIRM_SAMPLES, seed=seed),
            Counterexample)
        if expected != "unknown" and refuted != (expected == "not-a-theorem"):
            raise RuntimeError(f"generated {pid} is not {expected}")


def make_workload(name: str, seed: int, work: Path) -> Workload:
    import inputs
    bundled = inputs.read_manifest(BUNDLED)
    if name == "corpus":   # the shipped corpus as is; the seed is not used
        return Workload(BUNDLED, 1, bundled, 0, BUNDLED, None, [BUNDLED])
    if name == "translated":
        manifest = inputs.make_translated(BUNDLED, work, seed)
        _confirm(manifest, seed)
        return Workload(manifest, 2, inputs.read_manifest(manifest), seed,
                        manifest, None, [manifest])
    if name == "check-rank":
        manifest = inputs.make_fixed_instances(work, seed)
        _confirm(manifest, seed)
        store = work / "synthetic.tsv"
        inputs.make_store(store, [pid for pid, _, _ in bundled], seed)
        return Workload(manifest, 1, bundled, seed, BUNDLED, store,
                        [manifest, BUNDLED])
    raise ValueError(f"unknown workload {name!r}")


class Bench:
    """The workload's operations, with the bookkeeping that checks them."""

    def __init__(self, wl: Workload, work: Path):
        from inputs import read_manifest
        self.wl = wl
        self.work = work
        self.expected = {pid: exp
                         for pid, _, exp in read_manifest(wl.manifest)}
        self.ext = ["--external",
                    f"ext={shlex.quote(sys.executable)} -m gatpbench.cli "
                    "prove --prover wu {input}"]
        self.attempted = 0
        self.decided = {}        # problem -> {prover: status}
        self.passes = {p: [] for p in PROVERS}  # (cells, decided, wall, cpu)
        self.first_store = {}
        self.undecided = set()   # (problem, prover, status)
        self.rank_store = wl.rank_store
        self.rank_text = None
        self.check_samples = None   # oracle samples in one check pass
        self.n = 0

    def cli(self, argv) -> tuple:
        import gatpbench.cli
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = gatpbench.cli.main(argv)
            dt = time.perf_counter() - t0
        return code, out.getvalue(), err.getvalue(), dt

    def ops(self) -> list:
        return [("setup", self.setup)] + [
            (f"bench:{p}", lambda p=p: self.bench(p)) for p in PROVERS] + [
            ("check", self.check), ("rank", self.rank)]

    # Each op returns (seconds, of which spent waiting out cell budgets).

    def setup(self) -> tuple:
        """Import gatpbench and load the workload's manifests in a fresh
        interpreter, timed inside the child."""
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE,
             *map(str, self.wl.setup_manifests)],
            capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            raise WrongResult(f"setup failed: {out.stderr.strip()}")
        return float(out.stdout.split()[-1]), 0.0

    def bench(self, prover: str) -> tuple:
        from inputs import read_records
        self.n += 1
        store = self.work / f"{prover}-{self.n}.tsv"
        argv = ["bench", "--corpus", str(self.wl.manifest), "--provers",
                prover, "--timeout", str(CELL_BUDGET_S), "--jobs",
                str(self.wl.jobs), "--out", str(store)]
        code, _, err, dt = self.cli(argv + (self.ext if prover == "ext"
                                            else []))
        if code != 0:
            raise WrongResult(f"bench {prover} exited {code}: {err.strip()}")
        records = read_records(store)
        ids = sorted(r[0] for r in records)
        if ids != sorted(self.expected):
            raise WrongResult(f"bench {prover} recorded {ids}")
        decided, wall, cpu, waited = 0, 0.0, 0.0, 0.0
        for pid, who, status, c, w in records:
            if who != prover:
                raise WrongResult(f"record of {who} in a {prover} pass")
            if status in ("timeout", "error"):
                self.undecided.add((pid, prover, status))
                if status == "timeout":
                    waited += w
                continue
            want = {"proved": "proved", "not-a-theorem": "unproved"}.get(
                self.expected[pid])
            if want is not None and status != want:
                raise WrongResult(f"{prover} says {pid} is {status}")
            others = self.decided.setdefault(pid, {})
            for other, verdict in others.items():
                if verdict != status:
                    raise WrongResult(f"{prover} says {pid} is {status}, "
                                      f"{other} says {verdict}")
            others[prover] = status
            decided += 1
            wall += w
            cpu += c
        self.passes[prover].append((len(records), decided, wall, cpu))
        if prover in self.first_store:
            store.unlink()
        else:
            self.first_store[prover] = store
        return dt, waited

    def check(self) -> tuple:
        """Seconds spent in check calls that came back Consistent."""
        consistent_time = 0.0
        samples = 0
        for pid, path, expected in self.wl.checks:
            code, out, err, dt = self.cli(
                ["check", path, "--samples", str(CHECK_SAMPLES), "--seed",
                 str(self.wl.check_seed)])
            first = out.splitlines()[0] if out else ""
            m = re.fullmatch(r"Consistent \((\d+) samples\)", first)
            if expected == "proved" and code == 0 and m:
                samples += int(m.group(1))
                consistent_time += dt
            elif not (expected == "not-a-theorem" and code == 1
                      and first == "Counterexample"):
                raise WrongResult(f"check {pid} ({expected}) gave {code} "
                                  f"{first!r} {err.strip()}")
        if self.check_samples not in (None, samples):
            raise WrongResult("check drew a different number of samples")
        self.check_samples = samples
        return consistent_time, 0.0

    def rank(self) -> tuple:
        if self.rank_store is None:  # the first pass of every prover
            self.rank_store = self.work / "ranked.tsv"
            with open(self.rank_store, "w") as fh:
                for i, p in enumerate(PROVERS):
                    lines = self.first_store[p].read_text().splitlines(True)
                    fh.writelines(lines if i == 0 else lines[1:])
        code, out, err, dt = self.cli(
            ["rank", "--store", str(self.rank_store), "--corpus",
             str(self.wl.rank_corpus), "--weights", WEIGHTS] + self.ext)
        if code != 0:
            raise WrongResult(f"rank exited {code}: {err.strip()}")
        if self.rank_text is None:
            from inputs import read_records
            count = len(read_records(self.rank_store))
            if f"\nrecords: {count} " not in out or "aggregate" not in out:
                raise WrongResult("rank output does not cover the store")
            self.rank_text = out
        elif out != self.rank_text:
            raise WrongResult("rank output differs between passes")
        return dt, 0.0

    def end_to_end(self, values: dict, loop_s: float) -> dict:
        """Times are in reference seconds (see ``measure``): each sample's
        seconds times HOST_LOOP_S / loop_s, except time spent waiting out a
        cell budget, which is wall-clock by definition."""
        scale = HOST_LOOP_S / loop_s

        def seconds(name):
            return statistics.median((t - w) * scale + w
                                     for t, w in values[name])

        cells = sum(p[0][0] for p in self.passes.values())
        decided = sum(statistics.median(q[1] for q in p)
                      for p in self.passes.values())
        # built-in provers only: an external cell's cpu is the children's
        # rusage delta, which also counts concurrent neighbours' children
        wall = sum(statistics.median(q[2] for q in self.passes[b])
                   for b in BUILTIN)
        cpu = sum(statistics.median(q[3] for q in self.passes[b])
                  for b in BUILTIN)
        values = {
            "setup_s": seconds("setup"),
            "wu_suite_s": seconds("bench:wu"),
            "gbm_suite_s": seconds("bench:gbm"),
            "ext_suite_s": seconds("bench:ext"),
            "cells_decided_frac": decided / cells,
            "rec_wall_over_cpu": wall / cpu,
            "check_samples_per_s": self.check_samples / seconds("check"),
            "rank_s": seconds("rank"),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return {k: {"value": v, "unit": END_TO_END[k]}
                for k, v in values.items()}


def host_loop(buf: bytearray) -> float:
    """Seconds a fixed pure-Python workload takes now: integer arithmetic,
    then reads at pseudo-random places in buf, which miss the private
    caches.  Neighbours on a shared host slow the program both by taking
    the core and by thrashing the shared cache, so the loop samples both."""
    t0 = time.perf_counter()
    x = 0
    for k in range(HOST_LOOP_ITERS):
        x += k * k
    i = 0
    mask = len(buf) - 1
    for _ in range(HOST_LOOP_READS):
        i = (i * 1103515245 + 12345) & mask
        x += buf[i]
    return time.perf_counter() - t0


def measure(ops, seconds: float, tracer=None) -> tuple:
    """Visit every op in turn, round after round, while its next visit
    still fits in ``seconds`` and keeps the op within MAX_SHARE of them.
    A visit repeats the op until MIN_SAMPLE_S have passed, so cheap ops are
    sampled in batches and every op's samples spread over the whole run.

    A shared host's speed for interpreter work drifts by tens of percent
    over seconds to minutes, so ``host_loop`` is timed before every visit.
    Dividing a run's medians by the loop's median run time tracks part of
    that drift (on a 2-core host it cut the spread of 40 s medians by a
    third to a half) and keeps runs made minutes apart comparable.  With a tracer, one more round
    after the first calls each in-process op once, traced.
    Returns ({op: [op results]}, {op: traced result}, [host_loop() times]).
    """
    values = {name: [] for name, _ in ops}
    last = {}
    spent = dict.fromkeys(values, 0.0)
    traced = {}
    loops = []
    buf = bytearray(range(256)) * (HOST_LOOP_BYTES // 256)
    start = time.perf_counter()

    def visit(name, fn):
        loops.append(host_loop(buf))
        gc.collect()
        t0 = time.perf_counter()
        while True:
            values[name].append(fn())
            last[name] = time.perf_counter() - t0
            if last[name] >= MIN_SAMPLE_S:
                break
        spent[name] += last[name]

    def due(name):
        return (time.perf_counter() - start + last[name] <= seconds
                and spent[name] + last[name] <= seconds * MAX_SHARE)

    for name, fn in ops:
        visit(name, fn)
    if tracer is not None:
        tracer.install()
        try:
            for name, fn in ops:
                if name != "setup":
                    gc.collect()
                    traced[name] = fn()
        finally:
            tracer.restore()
    while any(due(name) for name, _ in ops):
        for name, fn in ops:
            if due(name):
                visit(name, fn)
    return values, traced, loops


def provenance(args, wl: Workload) -> dict:
    from gatpbench.harness import host_fingerprint
    revision = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_revision": revision or None,
        "source_sha256": digest.hexdigest(),
        "host_fingerprint": host_fingerprint(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "jobs": wl.jobs, "cell_budget_s": CELL_BUDGET_S,
        "check_samples": CHECK_SAMPLES,
    }


def use_sources() -> None:
    """Import gatpbench from this checkout's src/, here and in children."""
    if not (SRC / "gatpbench" / "__init__.py").is_file():
        raise SystemExit("perfbench: no gatpbench sources under src/")
    sys.path.insert(0, str(SRC))
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    os.environ.pop("GATPBENCH_TIMEOUT", None)
    import gatpbench
    if Path(gatpbench.__file__).resolve().parent != SRC / "gatpbench":
        raise SystemExit("perfbench: gatpbench imported from elsewhere")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["corpus", "translated", "check-rank"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    use_sources()

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    # the harness hands external provers temporary files; keep them here
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    try:
        wl = make_workload(args.workload, args.seed, work)
        bench = Bench(wl, work)
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
        try:
            values, traced, loops = measure(bench.ops(), args.seconds,
                                            tracer)
        except WrongResult as e:
            print(f"perfbench: wrong result: {e}", file=sys.stderr)
            print(json.dumps({"correct": False,
                              "attempted": bench.attempted,
                              "failed": 1, "metrics": {}}))
            return 1
        info = provenance(args, wl)
        info["rank_sha256"] = hashlib.sha256(
            bench.rank_text.encode()).hexdigest()
        if tracer is None:
            metrics = bench.end_to_end(values, statistics.median(loops))
        else:
            layers = tracer.metrics()
            layers["trace.overhead_s"] = sum(
                traced[n][0] - statistics.median(t for t, _ in values[n])
                for n in traced)
            metrics = {k: {"value": v, "unit": _layer_unit(k)}
                       for k, v in layers.items()}
            spans = WORK / f"spans-{args.workload}-seed{args.seed}.tsv"
            tracer.dump(spans)
            info["spans_file"] = str(spans.relative_to(ROOT))
            info["pseudo_divide_top_problems"] = tracer.top_problems(
                "polynomials.pseudo_divide")[0]
        info["undecided_cells"] = sorted(bench.undecided)
        info["calls"] = {n: len(v) for n, v in values.items()}
        info["median_s"] = {n: statistics.median(t for t, _ in v)
                            for n, v in values.items()}
        info["host_loop_s"] = statistics.median(loops)
        print(json.dumps({"provenance": info}))
        print(json.dumps({"correct": True, "attempted": bench.attempted,
                          "failed": 0, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_share"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

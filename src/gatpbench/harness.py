"""Benchmark harness: timed prover runs over a corpus, recorded durably.

Records live in an append-only tab-separated store, one line per run:

    problem_id  prover_id  repetition  status  cpu_seconds  wall_seconds
    ndg_count  started_at  host_fingerprint

Times carry six decimal places, started_at is ISO-8601 UTC, and the host
fingerprint is a JSON-quoted string (it contains spaces).  Lines starting
with '#' are headers or comments.  Apart from wall-clock readings and
timestamps, reruns of the same configuration produce identical records.
"""

from __future__ import annotations

import datetime
import platform
import tempfile
import threading
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from .algebraize import AlgebraizeError, algebraize
from .corpus import CorpusManifest
from .problems import Problem, render_problem
from .provers import (ProofOutcome, ProverDescriptor, ProverKind,
                      SpawnFailureError, Status, external_prove,
                      groebner_prove, wu_prove)

DEFAULT_TIMEOUT_SECONDS = 60.0

HEADER = ("# problem_id\tprover_id\trepetition\tstatus\tcpu_seconds"
          "\twall_seconds\tndg_count\tstarted_at\thost_fingerprint")


class CorruptRecordError(Exception):
    def __init__(self, line_number: int, reason: str):
        super().__init__(f"record line {line_number}: {reason}")
        self.line_number = line_number


@dataclass(frozen=True)
class RunConfig:
    provers: tuple
    corpus: CorpusManifest
    timeout_seconds: float = DEFAULT_TIMEOUT_SECONDS
    repetitions: int = 1
    parallelism: int = 1

    def __post_init__(self):
        if not self.provers:
            raise ValueError("at least one prover")
        if not 0 < self.timeout_seconds < math.inf:
            raise ValueError("timeout must be positive and finite")
        if self.repetitions < 1 or self.parallelism < 1:
            raise ValueError("repetitions and parallelism must be >= 1")


@dataclass(frozen=True)
class RunRecord:
    problem_id: str
    prover_id: str
    repetition: int
    status: Status
    cpu_seconds: float
    wall_seconds: float
    ndg_count: int
    started_at: str
    host_fingerprint: str

    def sort_key(self):
        return (self.problem_id, self.prover_id, self.repetition)

    def timing_free(self):
        """The record with volatile fields blanked, for determinism checks."""
        return replace(self, cpu_seconds=0.0, wall_seconds=0.0, started_at="")


_FINGERPRINT = None


def host_fingerprint() -> str:
    """OS and CPU model strings, enough to flag cross-host comparisons."""
    global _FINGERPRINT
    if _FINGERPRINT is None:
        cpu = ""
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.lower().startswith("model name"):
                        cpu = line.split(":", 1)[1].strip()
                        break
        except OSError:
            pass
        if not cpu:
            cpu = platform.processor() or "unknown-cpu"
        _FINGERPRINT = f"{platform.system()} {platform.release()} / {cpu}"
    return _FINGERPRINT


def _now_iso() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="microseconds")


def _round6(x: float) -> float:
    # normalise to the serialised precision so store round trips are exact
    return float(f"{x:.6f}")


def format_record(r: RunRecord) -> str:
    return "\t".join([
        r.problem_id, r.prover_id, str(r.repetition), r.status.value,
        f"{r.cpu_seconds:.6f}", f"{r.wall_seconds:.6f}", str(r.ndg_count),
        r.started_at, json.dumps(r.host_fingerprint),
    ])


def parse_record(line: str, line_number: int = 0) -> RunRecord:
    parts = line.rstrip("\n").split("\t", 8)
    if len(parts) != 9:
        raise CorruptRecordError(line_number,
                                 f"expected 9 fields, got {len(parts)}")
    pid, prover, rep, status, cpu, wall, ndg, started, host = parts
    try:
        status_v = Status(status)
        rep_v = int(rep)
        cpu_v = float(cpu)
        wall_v = float(wall)
        ndg_v = int(ndg)
        host_v = json.loads(host)
    except (ValueError, json.JSONDecodeError) as e:
        raise CorruptRecordError(line_number, str(e))
    if not isinstance(host_v, str):
        raise CorruptRecordError(line_number, "host fingerprint is not a string")
    return RunRecord(problem_id=pid, prover_id=prover, repetition=rep_v,
                     status=status_v, cpu_seconds=cpu_v, wall_seconds=wall_v,
                     ndg_count=ndg_v, started_at=started,
                     host_fingerprint=host_v)


class ResultsStore:
    """Append-only record file; safe for concurrent appends in one process."""

    def __init__(self, path):
        self.path = Path(path)
        self._lock = threading.Lock()

    def append(self, record: RunRecord) -> None:
        self.append_many([record])

    def append_many(self, records) -> None:
        with self._lock:
            fresh = not self.path.exists() or self.path.stat().st_size == 0
            with open(self.path, "a") as fh:
                if fresh:
                    fh.write(HEADER + "\n")
                for r in records:
                    fh.write(format_record(r) + "\n")
                fh.flush()
                os.fsync(fh.fileno())

    def load(self) -> list:
        records = []
        with open(self.path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.rstrip("\n")
                if not line.strip() or line.startswith("#"):
                    continue
                records.append(parse_record(line, lineno))
        return records


def run_single(problem: Problem, descriptor: ProverDescriptor,
               cfg: RunConfig, repetition: int = 1) -> RunRecord:
    """One timed prover run; any failure becomes an error record."""
    started = _now_iso()
    try:
        if descriptor.kind is ProverKind.BUILTIN_WU:
            outcome = wu_prove(algebraize(problem),
                               timeout_seconds=cfg.timeout_seconds)
        elif descriptor.kind is ProverKind.BUILTIN_GROEBNER:
            outcome = groebner_prove(algebraize(problem),
                                     timeout_seconds=cfg.timeout_seconds)
        elif descriptor.kind is ProverKind.EXTERNAL:
            with tempfile.NamedTemporaryFile(
                    "w", suffix=".geo", delete=False) as fh:
                fh.write(render_problem(problem))
                path = fh.name
            try:
                outcome = external_prove(descriptor, path,
                                         cfg.timeout_seconds)
            finally:
                os.unlink(path)
        else:
            raise ValueError(f"unknown prover kind {descriptor.kind}")
    except (AlgebraizeError, SpawnFailureError, OSError) as e:
        outcome = ProofOutcome(status=Status.ERROR, message=str(e))
    return RunRecord(
        problem_id=problem.id, prover_id=descriptor.id,
        repetition=repetition, status=outcome.status,
        cpu_seconds=_round6(outcome.cpu_seconds),
        wall_seconds=_round6(outcome.wall_seconds),
        ndg_count=len(outcome.ndg_conditions), started_at=started,
        host_fingerprint=host_fingerprint())


def run_suite(cfg: RunConfig, store: ResultsStore | None = None) -> list:
    """Every (problem, prover, repetition) cell, deterministically ordered.

    Work is spread over a bounded thread pool; results are sorted by
    (problem_id, prover_id, repetition) before storing so equal inputs give
    equal stores modulo timing.
    """
    cells = [(entry.problem, desc, rep)
             for entry in cfg.corpus.entries
             for desc in cfg.provers
             for rep in range(1, cfg.repetitions + 1)]
    if cfg.parallelism == 1:
        records = [run_single(p, d, cfg, rep) for p, d, rep in cells]
    else:
        with ThreadPoolExecutor(max_workers=cfg.parallelism) as pool:
            records = list(pool.map(
                lambda cell: run_single(cell[0], cell[1], cfg, cell[2]),
                cells))
    records.sort(key=RunRecord.sort_key)
    if store is not None:
        store.append_many(records)
    return records

"""Benchmark harness: timed prover runs over a corpus, recorded durably.

Records live in an append-only tab-separated store, one line per run:

    problem_id  prover_id  repetition  status  cpu_seconds  wall_seconds
    ndg_count  started_at  host_fingerprint

A row is a RunRecord, a named tuple of those nine fields in that order,
and the store's header line is made from the tuple's field names.

Times carry six decimal places, started_at is ISO-8601 UTC, and the host
fingerprint is a JSON-quoted string (it contains spaces).  Lines starting
with '#' are headers or comments, and blank lines are skipped.  Records are
written as cells end, built-ins first, then externals, each group sorted by
problem, prover and repetition; a suite stopped by SIGTERM or Ctrl-C keeps
the records written so far.  Apart from times, reruns give identical records.

The store is outside input, so loading it checks every line: nine fields,
a known status, integer repetition >= 1 and ndg_count >= 0, finite times
>= 0 (no nan or inf), and a JSON string fingerprint.  A line that fails
raises CorruptRecordError naming its line number, except a last line with
no newline, which is an append cut short and is skipped.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import threading
from collections import namedtuple
from pathlib import Path

from .algebraize import AlgebraizeError, algebraize
from .budget import DEFAULT_TIMEOUT_SECONDS, budget_seconds
from .corpus import CorpusManifest
from .problems import Problem, Record, render_problem
from .provers import (BUILTINS, ProofOutcome, ProverDescriptor, ProverKind,
                      SpawnFailureError, Status, external_prove,
                      groebner_prove, kill_external_provers, wu_prove)

class CorruptRecordError(ValueError):
    def __init__(self, line_number: int, reason: str):
        super().__init__(f"record line {line_number}: {reason}")
        self.line_number = line_number


class RunConfig(Record):
    provers: tuple
    corpus: CorpusManifest
    timeout_seconds: float = DEFAULT_TIMEOUT_SECONDS
    repetitions: int = 1
    parallelism: int = 1

    def __post_init__(self):
        if not self.provers:
            raise ValueError("at least one prover")
        if len({d.id for d in self.provers}) < len(self.provers):
            raise ValueError("prover ids must be distinct")
        budget_seconds(self.timeout_seconds)
        if self.repetitions < 1 or self.parallelism < 1:
            raise ValueError("repetitions and parallelism must be >= 1")


class RunRecord(namedtuple("RunRecord", (
        "problem_id", "prover_id", "repetition", "status", "cpu_seconds",
        "wall_seconds", "ndg_count", "started_at", "host_fingerprint"))):
    """One store row; status is a Status, the times are seconds."""
    __slots__ = ()

    def sort_key(self):
        return self[:3]

    def timing_free(self):
        """The record with volatile fields blanked, for determinism checks."""
        return self._replace(cpu_seconds=0.0, wall_seconds=0.0, started_at="")


HEADER = "# " + "\t".join(RunRecord._fields)


_FINGERPRINT = None


def host_fingerprint() -> str:
    """OS and CPU model strings, enough to flag cross-host comparisons."""
    global _FINGERPRINT
    if _FINGERPRINT is None:
        import platform
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
    import datetime
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


_STATUSES = {s.value: s for s in Status}


@functools.lru_cache(maxsize=32)
def _decode_host(field: str) -> str:
    # a store holds one fingerprint per host, so each is decoded once;
    # a field that raises is not cached
    host = json.loads(field)
    if not isinstance(host, str):
        raise ValueError("host fingerprint is not a string")
    return host


# builds a record from one tuple of its fields, without the keyword
# handling of RunRecord.__new__
_new_record = functools.partial(tuple.__new__, RunRecord)
_intern = sys.intern


def parse_record(line: str, line_number: int = 0) -> RunRecord:
    parts = line.rstrip("\n").split("\t", 8)
    if len(parts) != 9:
        raise CorruptRecordError(line_number,
                                 f"expected 9 fields, got {len(parts)}")
    pid, prover, rep, status, cpu, wall, ndg, started, host = parts
    try:
        # a miss falls through to Status(), which raises the usual error
        status_v = _STATUSES.get(status) or Status(status)
        rep_v = int(rep)
        cpu_v = float(cpu)
        wall_v = float(wall)
        ndg_v = int(ndg)
        host_v = _decode_host(host)
    except ValueError as e:
        raise CorruptRecordError(line_number, str(e))
    if rep_v < 1:
        raise CorruptRecordError(line_number, f"repetition {rep} is below 1")
    if ndg_v < 0:
        raise CorruptRecordError(line_number, f"ndg_count {ndg} is negative")
    # a nan fails both comparisons
    if not 0.0 <= cpu_v < math.inf:
        raise CorruptRecordError(
            line_number, f"cpu_seconds {cpu} is not a finite time >= 0")
    if not 0.0 <= wall_v < math.inf:
        raise CorruptRecordError(
            line_number, f"wall_seconds {wall} is not a finite time >= 0")
    # a store names a few dozen problems and provers: share their strings
    return _new_record((_intern(pid), _intern(prover), rep_v, status_v,
                        cpu_v, wall_v, ndg_v, started, host_v))


class ResultsStore:
    """Append-only record file; safe for concurrent appends in one process."""

    def __init__(self, path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self.torn_line: int | None = None

    def append(self, record: RunRecord) -> None:
        self.append_many([record])

    def append_many(self, records) -> None:
        with self._lock:
            if self.path.exists():
                self._end_last_line()
            fresh = not self.path.exists() or self.path.stat().st_size == 0
            with open(self.path, "a") as fh:
                if fresh:
                    fh.write(HEADER + "\n")
                for r in records:
                    fh.write(format_record(r) + "\n")
                fh.flush()
                os.fsync(fh.fileno())

    def _end_last_line(self) -> None:
        """Let the next append start on a line of its own: a last line
        without a newline is ended when it parses, and cut off (back to the
        previous newline) when it is the fragment of a torn append."""
        with open(self.path, "rb+") as fh:
            end = fh.seek(0, os.SEEK_END)
            start = end
            tail = b""
            while start > 0 and b"\n" not in tail:
                step = min(start, 4096)
                start -= step
                fh.seek(start)
                tail = fh.read(step) + tail
            if not tail or tail.endswith(b"\n"):
                return
            cut = tail.rfind(b"\n") + 1
            try:
                text = tail[cut:].decode()
                if text.strip() and not text.startswith("#"):
                    parse_record(text)
            except (UnicodeDecodeError, CorruptRecordError):
                fh.truncate(start + cut)
            else:
                fh.seek(end)
                fh.write(b"\n")

    def load(self) -> list:
        """Every record in the file.  A last line that has no newline and
        does not parse is an append cut short: it is skipped, and its line
        number kept in torn_line.  Any other bad line raises
        CorruptRecordError."""
        records = []
        self.torn_line = None
        with open(self.path) as fh:
            for lineno, line in enumerate(fh, start=1):
                if line.startswith("#") or line.isspace():
                    continue
                try:
                    records.append(parse_record(line, lineno))
                except CorruptRecordError:
                    if line.endswith("\n"):
                        raise
                    self.torn_line = lineno
        return records


def run_single(problem: Problem, descriptor: ProverDescriptor,
               cfg: RunConfig, repetition: int = 1) -> RunRecord:
    """One timed prover run; any failure becomes an error record."""
    started = _now_iso()
    try:
        if descriptor.kind is ProverKind.EXTERNAL:
            import tempfile
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
            prove = BUILTINS[descriptor.id]
            # through this module's global of the same name, if any, where
            # the benchmark's layer tracing wraps the built-ins
            prove = globals().get(prove.__name__, prove)
            outcome = prove(algebraize(problem),
                            timeout_seconds=cfg.timeout_seconds)
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
    """Every (problem, prover, repetition) cell, sorted by that key.

    Built-in cells run one at a time on the calling thread: they hold the
    GIL, so running them side by side would only stretch their wall times.
    External cells then overlap on cfg.parallelism threads, each waiting on
    its own child process; an exception that stops the run, such as
    KeyboardInterrupt, kills those children before it propagates.  Records
    reach the store in one append, built-in cells first, then external
    ones, each group in key order, and each once its cell and those before
    it have ended, so a run stopped by SIGTERM or Ctrl-C keeps them.
    """
    cells = sorted(((entry.problem, desc, rep)
                    for entry in cfg.corpus.entries
                    for desc in cfg.provers
                    for rep in range(1, cfg.repetitions + 1)),
                   key=lambda c: (c[0].id, c[1].id, c[2]))
    records: list = []
    futures: list = []

    def finished(pool):
        for p, d, rep in cells:
            if d.kind is not ProverKind.EXTERNAL:
                records.append(run_single(p, d, cfg, rep))
                yield records[-1]
        futures.extend(pool.submit(run_single, p, d, cfg, rep)
                       for p, d, rep in cells if d.kind is ProverKind.EXTERNAL)
        for f in futures:
            records.append(f.result())
            yield records[-1]

    # without a store, list just runs the cells
    drain = list if store is None else store.append_many
    # imported here so that importing the package does not load it
    from concurrent.futures import ThreadPoolExecutor, wait
    with ThreadPoolExecutor(max_workers=cfg.parallelism) as pool:
        try:
            drain(finished(pool))
        except BaseException:
            # stopped (a signal, an error): start no further cell and kill
            # the children of the running ones, also one that starts late,
            # so that leaving the pool does not wait for them to finish
            running = [f for f in futures if not f.cancel()]
            while running:
                kill_external_provers()
                running = list(wait(running, timeout=0.05).not_done)
            raise
    records.sort(key=RunRecord.sort_key)
    return records

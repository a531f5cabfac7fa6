"""Outside-in layer tracing for the benchmark.

The program is not edited.  Instead, public functions are replaced by
timing wrappers in the module (or class) where their callers look them up:
``provers`` calls ``pseudo_divide`` through its own module global, so the
wrapper goes on ``gatpbench.provers.pseudo_divide``; patching only the
defining module would leave the counts at zero.  Spans are kept in memory,
one open-span stack per thread, and turned into per-layer metrics once the
traced pass is over.  ``Tracer.restore`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    t0: float
    t1: float
    cell: tuple | None = None   # (problem_id, prover_id) for harness cells


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by child spans.

    Children may overlap (thread-pool workers under one parent), so the
    covered part is the length of the union of their clipped intervals.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.t0, s.t1))
    out = {}
    for s in spans:
        covered = 0.0
        end = s.t0
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, end), min(b, s.t1)
            if b > a:
                covered += b - a
                end = b
        out[s.id] = (s.t1 - s.t0) - covered
    return out


def _terms(poly) -> int:
    return len(getattr(poly, "terms", ()))


# Observers see (tracer, call args, result) after a call returns normally.

def _obs_pseudo_divide(tr, args, result):
    tr.maximum("polynomials.pseudo_divide.max_rem_terms", _terms(result[1]))


def _obs_buchberger(tr, args, result):
    tr.maximum("groebner.basis.max_len", len(result))


def _obs_normal_form(tr, args, result):
    tr.maximum("groebner.basis.max_len", len(args[1]))
    if result.is_zero():
        tr.count("groebner.normal_form.zero")


def _obs_triangulate(tr, args, result):
    tr.maximum("provers.chain.max_len", len(result))


def _obs_solve(tr, args, result):
    if result is not None:
        tr.count("provers.solve_construction.accepted")


def _obs_run_single(tr, args, record):
    tr.cells.append((record.status.value, record.wall_seconds,
                     record.cpu_seconds, args[2].timeout_seconds,
                     args[1].kind.name == "EXTERNAL"))


def _cell(args):
    return (args[0].id, args[1].id)


# (module, attribute path, metric name, observer, span?, cell tagger)
SITES = (
    ("gatpbench.cli", "main", "cli.main", None, True, None),
    ("gatpbench.cli", "load_corpus", "corpus.load", None, True, None),
    ("gatpbench.corpus", "parse_problem", "problems.parse", None, True, None),
    ("gatpbench.cli", "parse_problem", "problems.parse", None, True, None),
    ("gatpbench.harness", "algebraize", "algebraize", None, True, None),
    ("gatpbench.cli", "algebraize", "algebraize", None, True, None),
    ("gatpbench.harness", "run_single", "harness.run_single",
     _obs_run_single, True, _cell),
    ("gatpbench.harness", "ResultsStore.append_many", "harness.store_append",
     None, True, None),
    ("gatpbench.harness", "ResultsStore.load", "harness.store_load",
     None, True, None),
    ("gatpbench.harness", "parse_record", "harness.parse_record",
     None, False, None),
    ("gatpbench.harness", "wu_prove", "provers.wu_prove", None, True, None),
    ("gatpbench.harness", "groebner_prove", "provers.groebner_prove",
     None, True, None),
    ("gatpbench.harness", "external_prove", "provers.external_prove",
     None, True, None),
    ("gatpbench.cli", "numeric_check", "provers.numeric_check",
     None, True, None),
    ("gatpbench.provers", "solve_construction", "provers.solve_construction",
     _obs_solve, False, None),
    ("gatpbench.provers", "wu_triangulate", "provers.wu_triangulate",
     _obs_triangulate, True, None),
    ("gatpbench.provers", "pseudo_divide", "polynomials.pseudo_divide",
     _obs_pseudo_divide, True, None),
    ("gatpbench.provers", "buchberger", "groebner.buchberger",
     _obs_buchberger, True, None),
    ("gatpbench.groebner", "normal_form", "groebner.normal_form",
     _obs_normal_form, True, None),
    ("gatpbench.groebner", "s_polynomial", "groebner.s_poly",
     None, False, None),
    ("gatpbench.groebner", "interreduce", "groebner.interreduce",
     None, True, None),
    ("gatpbench.cli", "report_from_records", "ranking.report",
     None, True, None),
    ("gatpbench.ranking", "RankingReport.to_text", "ranking.render",
     None, True, None),
)


def _owner(module: str, path: str):
    obj = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        obj = getattr(obj, p)
    return obj, attr


class Tracer:
    """Collects spans and counts from wrapped functions, in any thread."""

    def __init__(self):
        self.spans: list[Span] = []
        # (status, wall, cpu, budget, external?) per run_single
        self.cells: list = []
        self._counts = Counter()
        self._maxima: dict = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._stacks: dict = {}   # thread ident -> open span ids
        self._main = None
        self._patched: list = []  # (owner, attr, original)

    # -- recording ---------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counts[name] += n

    def maximum(self, name: str, value) -> None:
        with self._lock:
            if value > self._maxima.get(name, 0):
                self._maxima[name] = value

    def _stack(self) -> list:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks.setdefault(ident, [])
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # a pool worker's outermost span belongs to whatever the submitting
        # (main) thread has open, so worker time is not the main's self time
        if threading.get_ident() != self._main:
            main = self._stacks.get(self._main)
            if main:
                return main[-1]
        return None

    def _wrap(self, name, fn, observe, span, cell):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(name + ".calls")
            if not span:
                result = fn(*args, **kwargs)
            else:
                stack = tracer._stack()
                parent = tracer._parent(stack)
                sid = next(tracer._ids)
                stack.append(sid)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = time.perf_counter()
                    stack.pop()
                    tracer.spans.append(Span(sid, parent, name, t0, t1,
                                             cell(args) if cell else None))
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        self._main = threading.get_ident()
        for module, path, name, observe, span, cell in SITES:
            try:
                owner, attr = _owner(module, path)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                print(f"perfbench: trace site {module}.{path} not found",
                      file=sys.stderr)
                continue
            self._patched.append((owner, attr, original))
            setattr(owner, attr,
                    self._wrap(name, original, observe, span, cell))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------
    def metrics(self) -> dict:
        selfs = self_times(self.spans)
        self_s = Counter()
        for s in self.spans:
            self_s[s.name] += selfs[s.id]
        c = self._counts
        nf_calls = c["groebner.normal_form.calls"]
        solve_calls = c["provers.solve_construction.calls"]
        timeouts = [(wall, budget) for status, wall, _, budget, _ in self.cells
                    if status == "timeout"]
        return {
            "polynomials.pseudo_divide.calls":
                c["polynomials.pseudo_divide.calls"],
            "polynomials.pseudo_divide.self_s":
                self_s["polynomials.pseudo_divide"],
            "polynomials.pseudo_divide.max_rem_terms":
                self._maxima.get("polynomials.pseudo_divide.max_rem_terms", 0),
            "polynomials.pseudo_divide.top_problem_share":
                self.top_problems("polynomials.pseudo_divide", selfs)[1],
            "groebner.buchberger.calls": c["groebner.buchberger.calls"],
            "groebner.buchberger.self_s": self_s["groebner.buchberger"],
            "groebner.s_poly.calls": c["groebner.s_poly.calls"],
            "groebner.normal_form.calls": nf_calls,
            "groebner.normal_form.self_s": self_s["groebner.normal_form"],
            "groebner.normal_form.zero_frac":
                c["groebner.normal_form.zero"] / nf_calls if nf_calls else 0.0,
            "groebner.interreduce.self_s": self_s["groebner.interreduce"],
            "groebner.basis.max_len":
                self._maxima.get("groebner.basis.max_len", 0),
            "provers.wu_triangulate.calls": c["provers.wu_triangulate.calls"],
            "provers.wu_triangulate.self_s": self_s["provers.wu_triangulate"],
            "provers.chain.max_len":
                self._maxima.get("provers.chain.max_len", 0),
            "provers.wu_prove.self_s": self_s["provers.wu_prove"],
            "provers.groebner_prove.self_s": self_s["provers.groebner_prove"],
            "provers.external_prove.self_s": self_s["provers.external_prove"],
            "provers.numeric_check.self_s": self_s["provers.numeric_check"],
            "provers.solve_construction.calls": solve_calls,
            "provers.model_accept_frac":
                (c["provers.solve_construction.accepted"] / solve_calls
                 if solve_calls else 0.0),
            "budget.timeouts": len(timeouts),
            "budget.overrun_s": max((w - b for w, b in timeouts), default=0.0),
            "harness.run_single.calls": c["harness.run_single.calls"],
            "harness.run_single.self_s": self_s["harness.run_single"],
            # an external cell's cpu is a children's rusage delta that also
            # counts concurrent neighbours, so only built-in cells count
            "harness.cell_wait_s": sum(w - cpu for _, w, cpu, _, ext
                                       in self.cells if not ext),
            "harness.store_append.self_s": self_s["harness.store_append"],
            "harness.store_load.self_s": self_s["harness.store_load"],
            "harness.parse_record.calls": c["harness.parse_record.calls"],
            "ranking.report.self_s": self_s["ranking.report"],
            "ranking.render.self_s": self_s["ranking.render"],
            "problems.parse.calls": c["problems.parse.calls"],
            "problems.parse.self_s": self_s["problems.parse"],
            "corpus.load.self_s": self_s["corpus.load"],
            "algebraize.calls": c["algebraize.calls"],
            "algebraize.self_s": self_s["algebraize"],
            "cli.main.self_s": self_s["cli.main"],
        }

    def top_problems(self, name: str, selfs: dict | None = None, n: int = 3):
        """The n problems whose harness cells spent the most self time in
        spans called name, and the share of that self time the first holds."""
        selfs = self_times(self.spans) if selfs is None else selfs
        by_id = {s.id: s for s in self.spans}
        per_problem = Counter()
        for s in self.spans:
            if s.name != name:
                continue
            anc = s
            while anc is not None and anc.cell is None:
                anc = by_id.get(anc.parent)
            problem = anc.cell[0] if anc is not None else None
            per_problem[problem] += selfs[s.id]
        total = sum(per_problem.values())
        top = per_problem.most_common(n)
        share = top[0][1] / total if total > 0 else 0.0
        return top, share

    def dump(self, path) -> None:
        """Write every span once, as tab-separated lines."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tt0\tt1\tcell\n")
            for s in self.spans:
                cell = "/".join(s.cell) if s.cell else ""
                fh.write(f"{s.id}\t{s.parent or ''}\t{s.name}\t{s.t0:.9f}"
                         f"\t{s.t1:.9f}\t{cell}\n")

"""Command-line driver tying parsing, proving, benchmarking and ranking
together.

Exit codes: 0 success, 1 conjecture not proved (also timeouts and numeric
counterexamples), 2 usage error, 3 internal or file error.  Machine-facing
output goes to stdout, diagnostics to stderr.  The proof timeout defaults
to 60 s; the GATPBENCH_TIMEOUT environment variable overrides the default
and an explicit --timeout flag wins over both.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
from fractions import Fraction

from .algebraize import AlgebraizeError, algebraize
from .budget import DEFAULT_TIMEOUT_SECONDS, budget_seconds
from .corpus import CorpusError, load_corpus
from .problems import ParseError, parse_problem
from .provers import (Counterexample, DegenerateExhaustedError,
                      SpawnFailureError, Status, external_descriptor,
                      external_prove, groebner_descriptor, groebner_prove,
                      numeric_check, wu_descriptor, wu_prove)
from .ranking import (DIMENSIONS, NegativeWeightError, RankingError,
                      report_from_records)

EXIT_OK = 0
EXIT_NOT_PROVED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

ENV_TIMEOUT = "GATPBENCH_TIMEOUT"


# built-in prover ids and the descriptors they stand for
_BUILTINS = {"wu": wu_descriptor, "gbm": groebner_descriptor}


class UsageError(Exception):
    pass


def _positive_seconds(text: str) -> float:
    try:
        return budget_seconds(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"timeout must be a positive finite number, got {text!r}")


def resolve_timeout(flag_value: float | None) -> float:
    """Flag wins over environment; environment wins over the 60 s default."""
    if flag_value is not None:
        return flag_value
    env = os.environ.get(ENV_TIMEOUT)
    if env is not None:
        try:
            return budget_seconds(float(env))
        except ValueError:
            raise UsageError(f"{ENV_TIMEOUT} must be a positive finite "
                             f"number, got {env!r}")
    return DEFAULT_TIMEOUT_SECONDS


def _parse_external(specs) -> list:
    import shlex
    out = []
    for spec in specs or []:
        ident, sep, template = spec.partition("=")
        if not sep or not ident or not template:
            raise UsageError(f"--external wants ID=TEMPLATE, got {spec!r}")
        if ident in _BUILTINS or any(d.id == ident for d in out):
            raise UsageError(f"--external id {ident!r} is a built-in prover "
                             "or declared twice")
        try:
            shlex.split(template)
        except ValueError as e:
            raise UsageError(f"--external {ident!r}: bad template: {e}")
        out.append(external_descriptor(ident, template))
    return out


def _parse_provers(listing: str, externals) -> list:
    byid = {d.id: d for d in externals}
    out = []
    for name in filter(None, (s.strip() for s in listing.split(","))):
        if any(d.id == name for d in out):
            raise UsageError(f"prover {name!r} listed twice")
        if name in _BUILTINS:
            out.append(_BUILTINS[name]())
        elif name in byid:
            out.append(byid.pop(name))
        else:
            raise UsageError(f"unknown prover {name!r} "
                             "(builtin: wu, gbm; externals need --external)")
    out.extend(byid.values())
    if not out:
        raise UsageError("no provers selected")
    return out


def _parse_weights(text: str) -> dict:
    weights = {}
    for piece in filter(None, (s.strip() for s in text.split(","))):
        key, sep, value = piece.partition("=")
        if not sep:
            raise UsageError(f"--weights wants k=v pairs, got {piece!r}")
        if key not in DIMENSIONS:
            raise UsageError(f"unknown dimension {key!r} "
                             f"(choose from {', '.join(DIMENSIONS)})")
        try:
            weights[key] = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad weight for {key!r}: {value!r}")
        if weights[key] < 0:
            raise UsageError(str(NegativeWeightError(key, weights[key])))
    if not weights:
        raise UsageError("--weights given but empty")
    return weights


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gatpbench",
        description="Benchmark and rank geometric theorem provers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="decide one problem file")
    p.add_argument("file")
    p.add_argument("--prover", choices=list(_BUILTINS), default="wu")
    p.add_argument("--timeout", type=_positive_seconds, default=None,
                   metavar="S")
    p.add_argument("--trace", action="store_true",
                   help="emit the reduction log")

    b = sub.add_parser("bench", help="run provers over a corpus")
    b.add_argument("--corpus", required=True, metavar="MANIFEST")
    b.add_argument("--provers", default="wu,gbm", metavar="LIST",
                   help="comma-separated: wu, gbm, or external ids")
    b.add_argument("--external", action="append", metavar="ID=TEMPLATE",
                   help="external prover command with {input} placeholder")
    b.add_argument("--timeout", type=_positive_seconds, default=None,
                   metavar="S")
    b.add_argument("--out", required=True, metavar="STORE")
    b.add_argument("--repetitions", type=int, default=1, metavar="N")
    b.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="external cells run at once; built-in cells "
                   "always run one at a time")

    r = sub.add_parser("rank", help="report quality rankings from a store")
    r.add_argument("--store", required=True, metavar="STORE")
    r.add_argument("--corpus", default=None, metavar="MANIFEST")
    r.add_argument("--weights", default=None, metavar="K=V,...")
    r.add_argument("--external", action="append", metavar="ID=TEMPLATE")
    r.add_argument("--format", choices=["text", "tsv"], default="text")
    r.add_argument("--time", choices=["wall", "cpu"], default="wall",
                   dest="time_source")

    c = sub.add_parser("check", help="numeric oracle on one problem file")
    c.add_argument("file")
    c.add_argument("--samples", type=int, default=100, metavar="N")
    c.add_argument("--seed", type=int, default=0, metavar="K")

    ls = sub.add_parser("list", help="print corpus ids and expected statuses")
    ls.add_argument("--corpus", required=True, metavar="MANIFEST")
    return parser


def _load_problem(path: str):
    with open(path) as fh:
        return parse_problem(fh.read())


def _cmd_prove(args) -> int:
    timeout = resolve_timeout(args.timeout)
    system = algebraize(_load_problem(args.file))
    prove = wu_prove if args.prover == "wu" else groebner_prove
    outcome = prove(system, timeout_seconds=timeout, trace=args.trace)
    print(outcome.status.value.capitalize())
    if outcome.ndg_conditions:
        for cond in outcome.ndg_conditions:
            print(f"ndg: {cond.to_string()} != 0")
    else:
        print("ndg: none")
    print(f"cpu_seconds: {outcome.cpu_seconds:.6f}")
    print(f"wall_seconds: {outcome.wall_seconds:.6f}")
    if args.trace and outcome.trace:
        print(outcome.trace)
    if outcome.status is Status.PROVED:
        return EXIT_OK
    if outcome.status is Status.ERROR:
        if outcome.message:
            print(outcome.message, file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_NOT_PROVED


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def _cmd_bench(args) -> int:
    from .harness import ResultsStore, RunConfig, run_suite
    if args.repetitions < 1 or args.jobs < 1:
        raise UsageError("--repetitions and --jobs must be >= 1")
    provers = _parse_provers(args.provers, _parse_external(args.external))
    corpus = load_corpus(args.corpus)
    cfg = RunConfig(provers=tuple(provers), corpus=corpus,
                    timeout_seconds=resolve_timeout(args.timeout),
                    repetitions=args.repetitions, parallelism=args.jobs)
    store = ResultsStore(args.out)
    # SIGTERM stops the run the way Ctrl-C does, so that run_suite kills the
    # external provers it started (they run in sessions of their own)
    on_main = threading.current_thread() is threading.main_thread()
    if on_main:
        previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        records = run_suite(cfg, store)
    finally:
        if on_main:
            signal.signal(signal.SIGTERM, previous)
    print(f"wrote {len(records)} records to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_rank(args) -> int:
    from .harness import ResultsStore
    store = ResultsStore(args.store)
    records = store.load()
    if store.torn_line is not None:
        print(f"warning: {args.store}: skipped torn last line "
              f"{store.torn_line} (no trailing newline)", file=sys.stderr)
    if not records:
        raise UsageError(f"store {args.store!r} holds no records")
    corpus = load_corpus(args.corpus) if args.corpus else None
    weights = _parse_weights(args.weights) if args.weights else None

    known = {d.id: d for d in _parse_external(args.external)}
    descriptors = []
    for pid in sorted({r.prover_id for r in records}):
        if pid in _BUILTINS:
            descriptors.append(_BUILTINS[pid]())
        elif pid in known:
            descriptors.append(known[pid])
        else:
            # metadata unknown: rank it, but at the least-trusted defaults
            print(f"note: no descriptor for {pid!r}; "
                  "assuming readability 1, unverified", file=sys.stderr)
            descriptors.append(external_descriptor(pid, "true {input}"))
    report = report_from_records(records, descriptors, corpus,
                                 time_source=args.time_source,
                                 weights=weights)
    sys.stdout.write(report.to_tsv() if args.format == "tsv"
                     else report.to_text())
    return EXIT_OK


def _cmd_check(args) -> int:
    if args.samples < 1:
        raise UsageError("--samples must be >= 1")
    system = algebraize(_load_problem(args.file))
    result = numeric_check(system, samples=args.samples, seed=args.seed)
    if isinstance(result, Counterexample):
        print("Counterexample")
        print(f"conclusion: {result.conclusion_index}")
        print(f"value: {result.value}")
        for name in sorted(result.env):
            print(f"  {name} = {result.env[name]}")
        return EXIT_NOT_PROVED
    print(f"Consistent ({result.samples} samples)")
    return EXIT_OK


def _cmd_list(args) -> int:
    for entry in load_corpus(args.corpus).entries:
        print(f"{entry.id}\t{entry.expected_status}")
    return EXIT_OK


_COMMANDS = {"prove": _cmd_prove, "bench": _cmd_bench, "rank": _cmd_rank,
             "check": _cmd_check, "list": _cmd_list}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse already printed usage/help; preserve its code
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, CorpusError, AlgebraizeError, RankingError,
            SpawnFailureError, DegenerateExhaustedError, OSError,
            ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:  # console-script entry point
    sys.exit(main())


if __name__ == "__main__":
    run()

"""Benchmarking a prover field over the bundled corpus, then ranking it.

Run:  python3 demos/05_bench_and_rank.py
"""

import tempfile
from pathlib import Path

from gatpbench import (ResultsStore, RunConfig, bundled_manifest_path,
                       groebner_descriptor, load_corpus, report_from_records,
                       run_suite, wu_descriptor)

corpus = load_corpus(bundled_manifest_path())
provers = (wu_descriptor(), groebner_descriptor())

# a short budget keeps a stuck prover from stalling the demo; both built-in
# provers decide every bundled problem well within it, and a timeout would
# itself be a result worth ranking
cfg = RunConfig(provers=provers, corpus=corpus, timeout_seconds=5.0,
                repetitions=1, parallelism=2)

with tempfile.TemporaryDirectory() as tmp:
    store = ResultsStore(Path(tmp) / "runs.tsv")
    records = run_suite(cfg, store)
    print(f"ran {len(records)} (problem, prover) cells; "
          f"store holds {len(store.load())} records")
    statuses = {}
    for r in records:
        statuses.setdefault(r.prover_id, []).append(r.status.value)
    for prover_id, ss in sorted(statuses.items()):
        summary = {s: ss.count(s) for s in sorted(set(ss))}
        print(f"  {prover_id}: {summary}")
    print()

    report = report_from_records(
        records, provers, corpus,
        weights={"scope": 2, "efficiency": 1, "reliability": 1})
    print(report.to_text())

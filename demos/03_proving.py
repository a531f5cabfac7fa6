"""Deciding conjectures: the characteristic-set and Gröbner provers.

Run:  python3 demos/03_proving.py
"""

from gatpbench import (algebraize, bundled_manifest_path, groebner_prove,
                       load_corpus, wu_prove)

corpus = load_corpus(bundled_manifest_path())

print("== a generically true theorem carries nondegeneracy conditions ==")
entry = corpus.entry("GEO0009")
print(entry.problem.meta)
system = algebraize(entry.problem)
outcome = wu_prove(system, timeout_seconds=30, trace=True)
print("wu:", outcome.status.value)
for c in outcome.ndg_conditions:
    print("  requires", c.to_string(), "!= 0")
print()
print(outcome.trace)

print("== the Gröbner prover decides the same generic question ==")
gbm = groebner_prove(system, timeout_seconds=30)
print("gbm:", gbm.status.value, "| same ndgs as wu:",
      gbm.ndg_conditions == outcome.ndg_conditions)

print()
print("== a non-theorem leaves a nonzero remainder ==")
entry = corpus.entry("NOT0001")
print(entry.problem.meta)
outcome = wu_prove(algebraize(entry.problem), timeout_seconds=30)
print("wu:", outcome.status.value)
print(outcome.trace)

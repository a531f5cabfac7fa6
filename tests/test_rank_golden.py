"""Behaviour fingerprint of `gatpbench rank`.

One sha256 digest covers the report that `rank` prints for a seeded record
store, in every output format and time source, with and without a corpus
and weights.  The store mixes all four statuses, proof times in all three
efficiency classes and two hosts (one whose fingerprint holds a quote and a
tab), in shuffled line order.  A faster store or ranking path that computes
the same report leaves the digest alone.
"""

import hashlib
import itertools
import random

from gatpbench.cli import main
from gatpbench.corpus import bundled_manifest_path, load_corpus
from gatpbench.harness import ResultsStore, RunRecord
from gatpbench.provers import Status

GOLDEN_RANK_DIGEST = (
    "6d15a3383681dda981b07652d6bc611b3768d1c609adb36cdac6655af1935f6a")

PROVERS = ("wu", "gbm", "p03", "p04", "p05", "p06")
REPETITIONS = 9
HOSTS = ("Linux 6.1 / Example CPU @ 2.40GHz", 'lab "b"\thost 2')
# seconds ranges for the good, fair and unsuitable classes
TIME_RANGES = ((0.001, 1.5), (1.5, 3.0), (3.0, 60.0))


def seeded_records(seed=6):
    rng = random.Random(seed)
    ids = [e.id for e in load_corpus(bundled_manifest_path()).entries]
    records = []
    for prover in PROVERS:
        # weights in Status order: proved first, then the three others
        status_weights = [rng.uniform(3, 8)] + [rng.uniform(0.3, 2)
                                                for _ in range(3)]
        for pid in ids:
            usual = rng.choices(list(Status), status_weights)[0]
            low, high = rng.choice(TIME_RANGES)
            for rep in range(1, REPETITIONS + 1):
                status = usual if rng.random() < 0.7 else rng.choice(
                    list(Status))
                wall = round(rng.uniform(low, high), 6)
                records.append(RunRecord(
                    problem_id=pid, prover_id=prover, repetition=rep,
                    status=status, cpu_seconds=round(
                        wall * rng.uniform(0.8, 1.0), 6),
                    wall_seconds=wall, ndg_count=rng.randrange(4),
                    started_at=f"2026-01-01T00:00:{rep:02d}.000000+00:00",
                    host_fingerprint=rng.choice(HOSTS)))
    rng.shuffle(records)
    return records


def rank_outputs(store_path, capsys):
    out = []
    for fmt, time, corpus, weights in itertools.product(
            ("text", "tsv"), ("wall", "cpu"), (False, True), (False, True)):
        options = ["--format", fmt, "--time", time]
        if corpus:
            options += ["--corpus", "MANIFEST"]
        if weights:
            options += ["--weights",
                        "scope=3,efficiency=2,readability=1,reliability=1/2"]
        # the label names the manifest by a fixed token, so the digest does
        # not depend on where the repository is checked out
        argv = ["rank", "--store", str(store_path)] + [
            str(bundled_manifest_path()) if a == "MANIFEST" else a
            for a in options]
        assert main(argv) == 0
        out.append(f"== {' '.join(options)}\n{capsys.readouterr().out}")
    return out


def test_store_covers_every_class_and_status():
    records = seeded_records()
    assert len(records) == len(PROVERS) * 17 * REPETITIONS
    assert {r.status for r in records} == set(Status)
    assert {r.host_fingerprint for r in records} == set(HOSTS)
    for low, high in TIME_RANGES:
        assert any(low < r.wall_seconds <= high for r in records)


def test_golden_rank_digest(tmp_path, capsys):
    store = ResultsStore(tmp_path / "runs.tsv")
    store.append_many(seeded_records())
    digest = hashlib.sha256("".join(rank_outputs(store.path, capsys))
                            .encode())
    assert digest.hexdigest() == GOLDEN_RANK_DIGEST


def test_line_order_does_not_change_the_report(tmp_path, capsys):
    records = seeded_records()
    reordered = list(records)
    random.Random(7).shuffle(reordered)
    assert reordered != records
    outputs = []
    for name, lines in (("first", records), ("second", reordered)):
        store = ResultsStore(tmp_path / f"{name}.tsv")
        store.append_many(lines)
        outputs.append(rank_outputs(store.path, capsys))
    assert outputs[0] == outputs[1]

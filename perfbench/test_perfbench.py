"""Self-tests of the benchmark's input generation and tracing.

    python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402

run.use_sources()

from tracing import SITES, Span, Tracer, _owner, self_times  # noqa: E402

from gatpbench import (Consistent, Counterexample, algebraize,  # noqa: E402
                       numeric_check, parse_problem)


def _verdicts(manifest):
    out = {}
    for pid, path, expected in inputs.read_manifest(manifest):
        system = algebraize(parse_problem(Path(path).read_text()))
        result = numeric_check(system, samples=10, seed=7)
        out[pid] = (expected, result)
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_translation_keeps_expected_statuses(tmp_path, seed):
    manifest = inputs.make_translated(run.BUNDLED, tmp_path, seed)
    verdicts = _verdicts(manifest)
    assert len(verdicts) == 16 * len(inputs.TRANSLATE_MAGNITUDES)
    assert not any(pid.startswith("GEO0008") for pid in verdicts)
    for pid, (expected, result) in verdicts.items():
        want = Consistent if expected == "proved" else Counterexample
        assert isinstance(result, want), pid


def test_translation_moves_fixed_points_and_is_seeded(tmp_path):
    text = (run.BUNDLED.parent / "GEO0007.geo").read_text()
    moved = inputs.translate_text(text, "GEO0007_t1", 2, -3)
    assert "problem GEO0007_t1" in moved
    assert "fixed B 6 -3" in moved and "fixed D 2 0" in moved
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    inputs.make_translated(run.BUNDLED, a, 5)
    inputs.make_translated(run.BUNDLED, b, 5)
    for f in a.iterdir():
        assert f.read_bytes() == (b / f.name).read_bytes()


def test_fixed_instances_hold(tmp_path):
    manifest = inputs.make_fixed_instances(tmp_path, 11)
    for pid, (expected, result) in _verdicts(manifest).items():
        assert expected == "proved"
        assert isinstance(result, Consistent), pid


def test_synthetic_store_has_every_status(tmp_path):
    path = tmp_path / "store.tsv"
    ids = [pid for pid, _, _ in inputs.read_manifest(run.BUNDLED)]
    n = inputs.make_store(path, ids, 3)
    records = inputs.read_records(path)
    assert len(records) == n >= inputs.STORE_RECORDS
    assert {r[2] for r in records} == set(inputs.STATUSES)
    assert len({r[1] for r in records}) == inputs.STORE_PROVERS


def test_self_time_on_a_hand_built_tree():
    spans = [
        Span(1, None, "root", 0.0, 10.0),
        Span(2, 1, "a", 1.0, 4.0),
        Span(3, 1, "b", 3.0, 6.0),      # overlaps a: a second worker
        Span(4, 2, "leaf", 2.0, 3.0),
        Span(5, 1, "c", 9.0, 12.0),     # runs past its parent's end
    ]
    got = self_times(spans)
    assert got == pytest.approx({1: 10 - 5 - 1, 2: 3 - 1, 3: 3, 4: 1, 5: 3})


def _originals():
    out = {}
    for module, path, *_ in SITES:
        owner, attr = _owner(module, path)
        out[(module, path)] = owner.__dict__[attr]
    return out


def test_traced_run_restores_originals_and_counts(tmp_path, monkeypatch):
    monkeypatch.setattr(inputs, "TRANSLATE_MAGNITUDES", ((1, 2),))
    before = _originals()
    wl = run.make_workload("translated", 1, tmp_path)
    wl.checks = wl.checks[:3]
    monkeypatch.setattr(run, "PROVERS", ("wu", "gbm"))
    bench = run.Bench(wl, tmp_path)
    tracer = Tracer()
    values, traced, _ = run.measure(bench.ops(), 0, tracer)
    assert set(traced) == set(values) - {"setup"}
    assert _originals() == before
    m = tracer.metrics()
    assert m["harness.run_single.calls"] == 2 * 16
    assert m["polynomials.pseudo_divide.calls"] > 0
    assert m["groebner.buchberger.calls"] > 0
    assert m["groebner.s_poly.calls"] > 0
    assert m["provers.solve_construction.calls"] > 0
    assert m["harness.parse_record.calls"] == 2 * 16
    assert m["ranking.render.self_s"] > 0
    assert all(v >= 0 for k, v in m.items() if k.endswith("self_s"))

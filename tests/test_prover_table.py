"""One table of built-in provers: provers.BUILTINS maps each id to its prove
function, and the CLI, the descriptors and the harness all read it."""

import pytest

from gatpbench import harness
from gatpbench.cli import build_parser, main
from gatpbench.harness import ResultsStore, RunConfig, run_single
from gatpbench.provers import (BUILTINS, ProofOutcome, ProverDescriptor,
                               ProverKind, ReliabilityClass, Status,
                               builtin_descriptor, external_descriptor,
                               groebner_descriptor, wu_descriptor)

from test_cli import geo, mini_corpus  # noqa: F401 (a fixture)
from test_harness import PROBLEM, small_corpus


def third_prove(system, timeout_seconds=None, trace=False):
    return ProofOutcome(status=Status.PROVED)


@pytest.fixture()
def third(monkeypatch):
    """A third built-in, added by one table entry and no other edit."""
    monkeypatch.setitem(BUILTINS, "third", third_prove)
    build_parser.cache_clear()
    yield "third"
    # rebuilt from the restored table on its next use
    build_parser.cache_clear()


def test_prover_kinds():
    assert [k.name for k in ProverKind] == ["BUILTIN", "EXTERNAL"]


def test_builtin_descriptors_come_from_the_table():
    assert [builtin_descriptor(b).id for b in BUILTINS] == ["wu", "gbm"]
    assert wu_descriptor() == builtin_descriptor("wu")
    assert groebner_descriptor() == builtin_descriptor("gbm")
    assert {builtin_descriptor(b).reliability for b in BUILTINS} == {
        ReliabilityClass.EXTENSIVELY_TESTED}


def test_builtin_descriptor_needs_a_table_id():
    # without this check run_single would raise KeyError mid-suite and
    # bench would write no records
    with pytest.raises(ValueError, match="'nope'"):
        ProverDescriptor(id="nope", kind=ProverKind.BUILTIN)


def test_external_template_must_split():
    # a template that shlex cannot split would fail only when run_suite
    # reaches its cells, after the cells before them had run
    with pytest.raises(ValueError, match="No closing quotation"):
        external_descriptor("x", "true '{input}")
    with pytest.raises(ValueError, match="{input}"):
        external_descriptor("x", "true")


def test_one_table_entry_adds_a_builtin(third, mini_corpus, tmp_path,
                                        capsys):
    assert main(["prove", geo("GEO0001"), "--prover", third]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "Proved", "ndg: none", "cpu_seconds: 0.000000",
        "wall_seconds: 0.000000"]

    store = tmp_path / "runs.tsv"
    assert main(["bench", "--corpus", str(mini_corpus), "--provers",
                 f"wu,{third}", "--timeout", "20", "--out", str(store)]) == 0
    assert sorted((r.problem_id, r.prover_id, r.status)
                  for r in ResultsStore(store).load()) == [
        ("GEO0001", "third", Status.PROVED), ("GEO0001", "wu", Status.PROVED),
        ("NOT0001", "third", Status.PROVED),
        ("NOT0001", "wu", Status.UNPROVED)]

    capsys.readouterr()
    assert main(["rank", "--store", str(store)]) == 0
    out, err = capsys.readouterr()
    assert third in out
    assert "no descriptor" not in err  # ranked as a built-in

    # an external may not take the new built-in's id
    assert main(["bench", "--corpus", str(mini_corpus), "--provers", third,
                 "--external", f"{third}=true {{input}}",
                 "--out", str(tmp_path / "other.tsv")]) == 2


def test_unknown_prover_message_lists_the_table(third, mini_corpus,
                                                tmp_path, capsys):
    assert main(["bench", "--corpus", str(mini_corpus), "--provers",
                 "vampire", "--out", str(tmp_path / "r.tsv")]) == 2
    assert capsys.readouterr().err == (
        "error: unknown prover 'vampire' (builtin: wu, gbm, third; "
        "externals need --external)\n")


def test_run_single_calls_builtins_through_harness_globals(monkeypatch):
    # the benchmark's layer tracing wraps harness.wu_prove and
    # harness.groebner_prove, so run_single must call what is bound there
    calls = []
    for name in ("wu_prove", "groebner_prove"):
        real = getattr(harness, name)

        def wrapped(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(harness, name, wrapped)
    cfg = RunConfig(provers=(wu_descriptor(),),
                    corpus=small_corpus("GEO0001"), timeout_seconds=20.0)
    for desc in (wu_descriptor(), groebner_descriptor()):
        assert run_single(PROBLEM, desc, cfg).status is Status.PROVED
    assert calls == ["wu_prove", "groebner_prove"]

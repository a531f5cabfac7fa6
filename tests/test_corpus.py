"""Corpus manifests: loading, validation, content hashing."""

import pytest

from gatpbench.corpus import (CorpusError, CorpusParseError,
                              DuplicateIdError, MissingFileError,
                              bundled_manifest_path, corpus_hash, load_corpus)
from gatpbench.problems import parse_problem, validate_problem

GOOD = ("problem {pid}\nfree A\nfree B\nmidpoint M A B\n"
        "conjecture collinear A M B\n")


def write_corpus(tmp_path, rows, problems=()):
    for pid in problems:
        (tmp_path / f"{pid}.geo").write_text(GOOD.format(pid=pid))
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("".join(f"{r}\n" for r in rows))
    return manifest


def test_bundled_corpus_loads():
    corpus = load_corpus(bundled_manifest_path())
    assert len(corpus.entries) == 17
    statuses = {e.expected_status for e in corpus.entries}
    assert statuses == {"proved", "not-a-theorem"}
    assert corpus.entry("GEO0003").problem.id == "GEO0003"


def test_bundled_problems_parse_cleanly():
    for entry in load_corpus(bundled_manifest_path()).entries:
        assert entry.problem.conjectures
        assert validate_problem(entry.problem) == []


def test_hash_is_stable_and_content_sensitive(tmp_path):
    m1 = write_corpus(tmp_path, ["A\tA.geo\tproved"], ["A"])
    corpus = load_corpus(m1)
    assert corpus_hash(corpus) == corpus_hash(load_corpus(m1))

    other = tmp_path / "other"
    other.mkdir()
    m2 = write_corpus(other, ["A\tA.geo\tunknown"], ["A"])
    assert corpus_hash(load_corpus(m2)) != corpus_hash(corpus)


def test_comment_and_blank_lines_ignored(tmp_path):
    m = write_corpus(tmp_path, ["# header", "", "A\tA.geo\tproved"], ["A"])
    assert [e.id for e in load_corpus(m).entries] == ["A"]


def test_missing_problem_file(tmp_path):
    m = write_corpus(tmp_path, ["A\tA.geo\tproved"])
    with pytest.raises(MissingFileError):
        load_corpus(m)


def test_unreadable_problem_file_names_its_reason(tmp_path):
    (tmp_path / "dirc" / "GEOX.geo").mkdir(parents=True)
    m = write_corpus(tmp_path, ["A\tA.geo\tproved",
                                "GEOX\tdirc/GEOX.geo\tproved"])
    with pytest.raises(MissingFileError) as info:
        load_corpus(m)
    assert str(info.value) == (f"A: cannot read {tmp_path / 'A.geo'}: "
                               "No such file or directory")
    (tmp_path / "A.geo").write_text(GOOD.format(pid="A"))
    with pytest.raises(MissingFileError) as info:
        load_corpus(m)
    assert str(info.value) == (
        f"GEOX: cannot read {tmp_path / 'dirc' / 'GEOX.geo'}: "
        "Is a directory")
    assert (info.value.problem_id, info.value.line) == ("GEOX", 2)


def test_duplicate_id_rejected(tmp_path):
    m = write_corpus(tmp_path, ["A\tA.geo\tproved", "A\tA.geo\tproved"],
                     ["A"])
    with pytest.raises(DuplicateIdError):
        load_corpus(m)


@pytest.mark.parametrize("rows,line,pid,header", [
    (["X1\tA.geo\tproved", "B\tB.geo\tproved"], 1, "X1", "A"),
    (["A\tA.geo\tproved", "B\tA.geo\tproved"], 2, "B", "A"),
], ids=["renamed", "same-file-twice"])
def test_manifest_id_must_be_the_header_id(tmp_path, rows, line, pid,
                                            header):
    # bench would store the header id's records, rank count the manifest's
    m = write_corpus(tmp_path, rows, ["A", "B"])
    with pytest.raises(CorpusError) as info:
        load_corpus(m)
    assert (info.value.line, info.value.problem_id) == (line, pid)
    assert str(info.value).startswith(f"manifest line {line}: id {pid} ")
    assert str(info.value).endswith(f"whose header is 'problem {header}'")


def test_bad_status_rejected(tmp_path):
    m = write_corpus(tmp_path, ["A\tA.geo\tmaybe"], ["A"])
    with pytest.raises(Exception) as info:
        load_corpus(m)
    assert "maybe" in str(info.value)


def test_problem_parse_error_carries_id(tmp_path):
    (tmp_path / "A.geo").write_text("problem A\nfrree X\n")
    m = tmp_path / "manifest.tsv"
    m.write_text("A\tA.geo\tproved\n")
    with pytest.raises(CorpusParseError) as info:
        load_corpus(m)
    assert info.value.problem_id == "A"


@pytest.mark.parametrize("literal", ["1" * 5000, "1/" + "1" * 5000],
                         ids=["numerator", "denominator"])
def test_an_overlong_rational_literal_names_its_problem(tmp_path, literal):
    (tmp_path / "A.geo").write_text(
        f"problem A\nfixed P {literal} 0\nconjecture collinear P P P\n")
    m = write_corpus(tmp_path, ["A\tA.geo\tproved"])
    with pytest.raises(CorpusParseError) as info:
        load_corpus(m)
    assert info.value.problem_id == "A"
    assert (info.value.error.line, info.value.error.col) == (2, 9)
    assert str(info.value).startswith(f"A ({tmp_path / 'A.geo'}): line 2, ")


def test_entry_paths_join_the_manifest_directory_as_pathlib_does(
        tmp_path, monkeypatch):
    (tmp_path / "sub").mkdir()
    m = write_corpus(tmp_path, ["A\t./A.geo\tproved",
                                "B\tsub/../B.geo\tproved"], ["A", "B"])
    paths = [e.path for e in load_corpus(m).entries]
    # a './' component is dropped, a '..' one kept
    assert paths == [f"{tmp_path}/A.geo", f"{tmp_path}/sub/../B.geo"]
    monkeypatch.chdir(tmp_path)
    assert [e.path for e in load_corpus("manifest.tsv").entries] == [
        "A.geo", "sub/../B.geo"]


def test_each_entry_is_parsed_once_through_the_module_global(
        tmp_path, monkeypatch):
    # perfbench traces problems.parse by patching this global
    import gatpbench.corpus
    calls = []

    def counting(text):
        calls.append(text)
        return parse_problem(text)

    monkeypatch.setattr(gatpbench.corpus, "parse_problem", counting)
    corpus = load_corpus(bundled_manifest_path())
    assert len(calls) == len(corpus.entries) == 17

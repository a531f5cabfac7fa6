"""Corpus manifests: a tab-separated catalog of problems under test.

Each manifest line is  id<TAB>relative-path<TAB>expected-status  where the
status is one of proved, not-a-theorem, unknown.  Paths resolve relative to
the manifest file.  Blank lines and '#' comments are allowed.  A bundled
corpus of classic theorems and deliberate non-theorems ships with the
package.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .problems import ParseError, Problem, parse_problem

EXPECTED_STATUSES = ("proved", "not-a-theorem", "unknown")


class CorpusError(Exception):
    def __init__(self, message: str, problem_id: str | None = None,
                 line: int | None = None):
        super().__init__(message)
        self.problem_id = problem_id
        self.line = line


class MissingFileError(CorpusError):
    pass


class DuplicateIdError(CorpusError):
    pass


class CorpusParseError(CorpusError):
    """A problem file failed to parse; carries the nested ParseError."""

    def __init__(self, problem_id: str, path: str, error: ParseError):
        super().__init__(f"{problem_id} ({path}): {error}",
                         problem_id=problem_id)
        self.path = path
        self.error = error


@dataclass(frozen=True)
class CorpusEntry:
    id: str
    path: str
    expected_status: str
    problem: Problem


@dataclass(frozen=True)
class CorpusManifest:
    path: str
    entries: tuple

    def entry(self, problem_id: str) -> CorpusEntry:
        for e in self.entries:
            if e.id == problem_id:
                return e
        raise KeyError(problem_id)


def load_corpus(manifest_path) -> CorpusManifest:
    manifest_path = Path(manifest_path)
    try:
        text = manifest_path.read_text()
    except OSError as e:
        raise CorpusError(f"cannot read manifest: {e}")
    base = manifest_path.parent
    entries: list[CorpusEntry] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise CorpusError(
                f"manifest line {lineno}: expected 3 tab-separated fields, "
                f"got {len(parts)}", line=lineno)
        pid, rel, expected = (p.strip() for p in parts)
        if expected not in EXPECTED_STATUSES:
            raise CorpusError(
                f"manifest line {lineno}: bad expected status {expected!r}",
                problem_id=pid, line=lineno)
        if pid in seen:
            raise DuplicateIdError(f"duplicate id {pid}", problem_id=pid,
                                   line=lineno)
        seen.add(pid)
        path = base / rel
        try:
            body = path.read_text()
        except OSError:
            raise MissingFileError(f"{pid}: missing file {path}",
                                   problem_id=pid, line=lineno)
        try:
            problem = parse_problem(body)
        except ParseError as e:
            raise CorpusParseError(pid, str(path), e)
        entries.append(CorpusEntry(id=pid, path=str(path),
                                   expected_status=expected, problem=problem))
    return CorpusManifest(path=str(manifest_path), entries=tuple(entries))


def corpus_hash(manifest: CorpusManifest) -> str:
    """Content hash over ids, expected statuses, and canonical problem text;
    independent of file locations and incidental formatting."""
    import hashlib
    from .problems import render_problem
    h = hashlib.sha256()
    for e in manifest.entries:
        h.update(e.id.encode())
        h.update(b"\0")
        h.update(e.expected_status.encode())
        h.update(b"\0")
        h.update(render_problem(e.problem).encode())
        h.update(b"\1")
    return h.hexdigest()


def bundled_manifest_path() -> Path:
    """The manifest of the corpus shipped inside the package."""
    return Path(__file__).resolve().parent / "data" / "manifest.tsv"

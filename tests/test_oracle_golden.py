"""Behaviour fingerprint of the numeric oracle.

One sha256 digest covers what the oracle reports: the full stdout and exit
code of `gatpbench check` on every bundled problem at seeds 0, 1 and 2, the
same on copies whose fixed points are moved (larger, denser coordinates),
and every field of `numeric_check`'s result when it avoids the ndg
conditions of a Wu proof, whose monic polynomials carry Fraction
coefficients.  A faster evaluator that draws the same models and computes
the same values leaves the digest alone.
"""

import contextlib
import hashlib
import io
import re
from fractions import Fraction
from pathlib import Path

from gatpbench.algebraize import algebraize
from gatpbench.cli import main
from gatpbench.corpus import bundled_manifest_path, load_corpus
from gatpbench.problems import parse_problem
from gatpbench.provers import (Consistent, DegenerateExhaustedError,
                               numeric_check, wu_prove)

GOLDEN_ORACLE_DIGEST = (
    "02ad68f423d6ccfda908937a0d73e0ecce87dd466465db5d7965f8790293de38")

SEEDS = (0, 1, 2)
SHIFTS = ((3, -2), (-4, 5))
# a Wu proof of a moved Euler line takes tens of seconds, so its copies are
# only checked, not avoided
NO_PROOF = "GEO0008@"
_FIXED = re.compile(r"^(\s*fixed\s+\S+\s+)(\S+)(\s+)(\S+)(\s*)$", re.M)


def shifted(text: str, dx: int, dy: int) -> str:
    return _FIXED.sub(lambda m: (f"{m[1]}{int(m[2]) + dx}{m[3]}"
                                 f"{int(m[4]) + dy}{m[5]}"), text)


def check_lines(tag, path, seed):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check", str(path), "--samples", "100",
                     "--seed", str(seed)])
    return [f"{tag} seed {seed} exit {code}", out.getvalue()]


def result_line(result) -> str:
    if isinstance(result, Consistent):
        return f"consistent {result.samples}"
    model = " ".join(f"{p}=({x},{y})" for p, (x, y) in sorted(
        result.model.items()))
    env = " ".join(f"{k}={v!r}" for k, v in sorted(result.env.items()))
    return (f"counterexample {result.conclusion_index} {result.value!r} "
            f"model {model} env {env}")


def problem_files(tmp_path):
    """(tag, path) of every bundled problem, then of its moved copies."""
    out = []
    for entry in load_corpus(bundled_manifest_path()).entries:
        out.append((entry.id, Path(entry.path)))
        text = out[-1][1].read_text()
        for dx, dy in SHIFTS:
            moved = shifted(text, dx, dy)
            if moved != text:
                path = tmp_path / f"{entry.id}_{dx}_{dy}.geo"
                path.write_text(moved)
                out.append((f"{entry.id}@{dx},{dy}", path))
    return out


def oracle_lines(tmp_path):
    lines = []
    fraction_coefficients = False
    for tag, path in problem_files(tmp_path):
        for seed in SEEDS:
            lines += check_lines(tag, path, seed)
        if tag.startswith(NO_PROOF):
            continue
        system = algebraize(parse_problem(path.read_text()))
        ndg = wu_prove(system, timeout_seconds=60).ndg_conditions
        fraction_coefficients |= any(
            type(c) is Fraction for d in ndg for c in d.terms.values())
        for seed in SEEDS:
            try:
                got = result_line(numeric_check(system, samples=30, seed=seed,
                                                avoid=ndg))
            except DegenerateExhaustedError as e:
                got = f"exhausted {e}"
            lines.append(f"{tag} avoid seed {seed} {got}")
    # moved copies make monic ndgs with Fraction coefficients (GEO0003)
    assert fraction_coefficients
    return lines


def oracle_digest(tmp_path) -> str:
    return hashlib.sha256(
        "\n".join(oracle_lines(tmp_path)).encode()).hexdigest()


def test_oracle_golden_digest(tmp_path):
    assert oracle_digest(tmp_path) == GOLDEN_ORACLE_DIGEST

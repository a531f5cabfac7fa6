"""Seeded benchmark inputs, written as plain files the program reads.

Everything here works on the text formats (``.geo`` problems, tab-separated
manifests and record stores), so the inputs stay valid while the program's
internals change.  The same seed always gives byte-identical files.
"""

from __future__ import annotations

import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

# GEO0008 (Euler line) stays out of the translated set: shifting its fixed
# vertex makes every coefficient dense, and wu alone needed 17.6 s at offset
# (1, 0) and overran a 60 s budget at larger offsets.
TRANSLATE_SKIP = ("GEO0008",)
# One copy per magnitude pair; the seed draws each copy's signs.  Fixing the
# magnitudes keeps a pass's work nearly the same for every seed (a zero or a
# small component makes a copy much cheaper), while staying within [-5, 5].
TRANSLATE_MAGNITUDES = ((1, 4), (2, 3), (3, 5), (5, 2))

_FIXED = re.compile(r"^(\s*fixed\s+\S+\s+)(\S+)(\s+)(\S+)(\s*)$")
_HEADER = re.compile(r"^(\s*problem\s+)(\S+)(\s*)$")


def read_manifest(path) -> list:
    """(id, absolute .geo path, expected status) for each manifest line."""
    path = Path(path)
    entries = []
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        pid, rel, expected = (p.strip() for p in line.split("\t"))
        entries.append((pid, str(path.parent / rel), expected))
    return entries


def write_manifest(directory: Path, entries) -> Path:
    """entries: (id, file name inside directory, expected status)."""
    path = directory / "manifest.tsv"
    path.write_text("".join(f"{pid}\t{name}\t{expected}\n"
                            for pid, name, expected in entries))
    return path


def translate_text(text: str, new_id: str, dx: int, dy: int) -> str:
    """The problem with every fixed point moved by (dx, dy), renamed."""
    out = []
    for line in text.splitlines():
        m = _FIXED.match(line)
        if m:
            x = Fraction(m.group(2)) + dx
            y = Fraction(m.group(4)) + dy
            line = f"{m.group(1)}{x}{m.group(3)}{y}{m.group(5)}"
        else:
            h = _HEADER.match(line)
            if h:
                line = f"{h.group(1)}{new_id}{h.group(3)}"
        out.append(line)
    return "\n".join(out) + "\n"


def make_translated(bundled_manifest, directory: Path, seed: int) -> Path:
    """One shifted copy per TRANSLATE_MAGNITUDES pair of every bundled
    problem but the skipped ones.  Translation preserves every predicate,
    so each copy keeps its original's expected status."""
    rng = random.Random(seed)
    entries = []
    for pid, path, expected in read_manifest(bundled_manifest):
        if pid in TRANSLATE_SKIP:
            continue
        text = Path(path).read_text()
        for k, (a, b) in enumerate(TRANSLATE_MAGNITUDES, start=1):
            new_id = f"{pid}_t{k}"
            dx, dy = a * rng.choice((-1, 1)), b * rng.choice((-1, 1))
            name = f"{new_id}.geo"
            (directory / name).write_text(translate_text(text, new_id, dx, dy))
            entries.append((new_id, name, expected))
    return write_manifest(directory, entries)


def _point(rng: random.Random) -> tuple:
    return rng.randint(-30, 30), rng.randint(-30, 30)


def _distinct(rng: random.Random, n: int) -> list:
    while True:
        pts = [_point(rng) for _ in range(n)]
        if len(set(pts)) == n:
            return pts


def _instance(rng: random.Random, kind: str) -> tuple:
    """(fixed points, conjecture) of one all-fixed configuration that holds
    exactly.  With no free point the program introduces no variable, so
    proving it parses and algebraizes but never pseudo-divides or runs
    Buchberger."""
    (ax, ay), (bx, by) = _distinct(rng, 2)
    ux, uy = bx - ax, by - ay
    t = rng.choice([-3, -2, 2, 3])
    if kind == "parallelogram":
        cx, cy = _point(rng)
        while (cx - ax) * uy == (cy - ay) * ux:  # keep A, B, C non-collinear
            cx, cy = _point(rng)
        dx, dy = ax + cx - bx, ay + cy - by
        return ({"A": (ax, ay), "B": (bx, by), "C": (cx, cy), "D": (dx, dy)},
                "parallel A B D C")
    if kind == "midpoint":
        m = (Fraction(ax + bx, 2), Fraction(ay + by, 2))
        return {"A": (ax, ay), "B": (bx, by), "M": m}, "midpoint_of M A B"
    if kind == "right_angle":
        c = (ax - t * uy, ay + t * ux)
        return {"A": (ax, ay), "B": (bx, by), "C": c}, "perpendicular A B A C"
    if kind == "collinear":
        c = (ax + t * ux, ay + t * uy)
        return {"A": (ax, ay), "B": (bx, by), "C": c}, "collinear A B C"
    if kind == "mirror":
        return ({"A": (ax, ay), "B": (bx, by), "C": (ax - ux, ay - uy)},
                "eqdist A B A C")
    if kind == "circle":
        return ({"O": (ax, ay), "A": (bx, by), "P": (ax - uy, ay + ux)},
                "on_circle_of P O A")
    raise ValueError(kind)


FIXED_KINDS = ("parallelogram", "midpoint", "right_angle", "collinear",
               "mirror", "circle")
FIXED_COPIES = 3


def make_fixed_instances(directory: Path, seed: int) -> Path:
    """A manifest of concrete, all-fixed true statements (proved)."""
    rng = random.Random(seed)
    entries = []
    for kind in FIXED_KINDS:
        for k in range(1, FIXED_COPIES + 1):
            pid = f"FIX_{kind}_{k}"
            points, conjecture = _instance(rng, kind)
            lines = [f"problem {pid}"]
            lines += [f"fixed {name} {x} {y}"
                      for name, (x, y) in points.items()]
            lines.append(f"conjecture {conjecture}")
            name = f"{pid}.geo"
            (directory / name).write_text("\n".join(lines) + "\n")
            entries.append((pid, name, "proved"))
    return write_manifest(directory, entries)


# synthetic record store for the read side
STORE_PROVERS = 20
STORE_RECORDS = 100_000
STATUSES = ("proved", "unproved", "timeout", "error")


def make_store(path: Path, problem_ids, seed: int) -> int:
    """A record store of STORE_PROVERS provers (wu, gbm and externals) over
    problem_ids, with about STORE_RECORDS records.  Each prover has its own
    status mix and lognormal wall times spread across the good, fair and
    unsuitable classes.  Returns the record count."""
    rng = random.Random(seed)
    provers = ["wu", "gbm"] + [f"p{i:02d}"
                               for i in range(3, STORE_PROVERS + 1)]
    reps = math.ceil(STORE_RECORDS / (len(provers) * len(problem_ids)))
    host = json.dumps("synthetic host")
    count = 0
    with open(path, "w") as fh:
        fh.write("# problem_id\tprover_id\trepetition\tstatus\tcpu_seconds"
                 "\twall_seconds\tndg_count\tstarted_at\thost_fingerprint\n")
        for prover in provers:
            mu = rng.uniform(-1.5, 1.8)
            sigma = rng.uniform(0.3, 1.0)
            weights = [rng.uniform(2, 8), rng.uniform(0, 2),
                       rng.uniform(0, 1.5), rng.uniform(0, 1)]
            for pid in problem_ids:
                # a cell mostly repeats its own status, so modal statuses vary
                usual = rng.choices(STATUSES, weights)[0]
                for rep in range(1, reps + 1):
                    status = (usual if rng.random() < 0.8
                              else rng.choice(STATUSES))
                    wall = rng.lognormvariate(mu, sigma)
                    cpu = wall * rng.uniform(0.85, 1.0)
                    started = (f"2026-01-01T00:00:00.{count % 1_000_000:06d}"
                               "+00:00")
                    fh.write(f"{pid}\t{prover}\t{rep}\t{status}\t{cpu:.6f}"
                             f"\t{wall:.6f}\t{rng.randint(0, 3)}\t{started}"
                             f"\t{host}\n")
                    count += 1
    return count


def read_records(path) -> list:
    """(problem_id, prover_id, status, cpu, wall) of every stored record."""
    out = []
    for raw in Path(path).read_text().splitlines():
        if not raw.strip() or raw.startswith("#"):
            continue
        f = raw.split("\t")
        out.append((f[0], f[1], f[3], float(f[4]), float(f[5])))
    return out

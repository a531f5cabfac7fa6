"""Behaviour fingerprint of the problem parser on mangled text.

One sha256 digest covers what `parse_problem` makes of seeded mutations of
the bundled problem texts: Unicode whitespace, '#' comments at any
position, junk tokens, deleted characters and extra newlines.  A parsed
text contributes its canonical rendering and meta, a rejected one its
error's class, line, column and reason.  A faster tokenizer that accepts,
rejects and locates exactly as before leaves the digest alone.  A second
test uses every whitespace code point as a token separator.
"""

import hashlib
import random
import re
import sys

import pytest

from gatpbench.corpus import bundled_manifest_path
from gatpbench.problems import ParseError, parse_problem, render_problem

GOLDEN_PARSER_DIGEST = (
    "f2765912f5e4b9f77d10ee974faaa1be55ccd487a79782897cb5a8de229e2359")

MUTATIONS = 6000

TEXTS = [p.read_text() for p in
         sorted(bundled_manifest_path().parent.glob("*.geo"))]

# str.splitlines() ends a line at several of these
SPACES = [" ", "\t", "\xa0", "\u3000", "\u2009", "\x0b", "\x0c", "\x1c",
          "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r", "\r\n"]

JUNK = ["A", "B", "M", "P9", "9", "0", "-7", "1/2", "-3/4", "1/0", "-0/5",
        "1/2/3", "x/y", "--1", "+1", "problem", "conjecture", "free",
        "fixed", "midpoint", "inter", "collinear", "eqdist", "on_circle_of",
        "\xe9", "\xc41", "_a", "a-b", "a_b1", "#", "# meta: z"]


def mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.choice([1, 1, 2, 3])):
        at = rng.randrange(len(text) + 1)
        kind = rng.randrange(6)
        if kind == 5:
            # replace one token, so the error sits anywhere in its line
            tok = rng.choice(list(re.finditer(r"\S+", text)))
            text = text[:tok.start()] + rng.choice(JUNK) + text[tok.end():]
            continue
        if kind == 0:
            piece = rng.choice(SPACES) * rng.randint(1, 2)
        elif kind == 1:
            piece = "#" + rng.choice(["", " x", " meta: y", "#", "\t1/0"])
        elif kind == 2:
            piece = rng.choice(SPACES[:5]) + rng.choice(JUNK)
        elif kind == 3:
            text = text[:at] + text[at + rng.randint(1, 3):]
            continue
        else:
            piece = "\n" * rng.randint(1, 2)
        text = text[:at] + piece + text[at:]
    return text


def outcome(text: str) -> str:
    try:
        p = parse_problem(text)
    except ParseError as e:
        return repr((type(e).__name__, e.line, e.col, e.reason))
    return repr((render_problem(p), p.meta))


def fingerprint_lines():
    rng = random.Random(27)
    return [outcome(mutate(TEXTS[i % len(TEXTS)], rng))
            for i in range(MUTATIONS)]


def test_golden_parser_digest():
    lines = fingerprint_lines()
    # the mutations reach both outcomes, not only one
    parsed = sum(line.startswith("('problem") for line in lines)
    assert 0 < parsed < len(lines)
    digest = hashlib.sha256("\n".join(lines).encode())
    assert digest.hexdigest() == GOLDEN_PARSER_DIGEST


def _breaks_line(ch: str) -> bool:
    return len(f"a{ch}b".splitlines()) > 1


WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]


@pytest.mark.parametrize("ch", WHITESPACE, ids=lambda ch: f"U+{ord(ch):04X}")
def test_every_whitespace_separates_tokens(ch):
    # a line-ending character separates statements, any other one tokens;
    # meta lines are left out, since their prefix allows only ' ' and tab
    for text in TEXTS:
        body = [line for line in text.splitlines()
                if not line.startswith("# meta:")]
        want = parse_problem("\n".join(body))
        if _breaks_line(ch):
            spaced = ch.join(body)
        else:
            spaced = "\n".join(ch + line.replace(" ", ch) + ch
                               for line in body)
        assert parse_problem(spaced) == want

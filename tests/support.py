"""Shared test support: a hypothesis strategy for small generated LEXF
lexicons, and a reader for the quoted strings of a DOT export.

Generated headwords share a small pool, so genus words hit defined senses, one
headword has senses under several parts of speech and homographs, and
coordinate lines of one sense key may be split by lines of another.
"""
from __future__ import annotations

import re

from hypothesis import strategies as st

HEADWORDS = ("alpha", "beta", "gamma", "give", "give up", "into")
GENUS_WORDS = ("alpha", "beta", "gamma", "give up", "delta")
POS = ("vi", "vt", "vb", "n", "prep")
LABELS = ("1", "1a", "1b", "1b(2)", "2", "2a")
TAILS = ("", " into something", " with an instrument", " slowly",
         " from one state to another")

_headers = st.lists(
    st.tuples(st.sampled_from(HEADWORDS), st.sampled_from(POS),
              st.integers(1, 2)),
    min_size=1, max_size=6, unique=True)


def _verb_line(draw) -> str:
    label = draw(st.sampled_from(LABELS))
    if draw(st.integers(0, 5)) == 0:
        word = draw(st.sampled_from(GENUS_WORDS)).split()[0].upper()
        return f"Y|{label}|{word}"
    negated = "not " if draw(st.integers(0, 5)) == 0 else ""
    genus = draw(st.sampled_from(GENUS_WORDS))
    tail = draw(st.sampled_from(TAILS))
    return f"S|{label}||to {negated}{genus}{tail}|"


@st.composite
def lexf_texts(draw) -> str:
    """A valid LEXF text: entries, an optional seed frame per entry, and R
    records that may or may not name a real arc."""
    lines: list[str] = []
    keys: list[str] = []
    for headword, pos, hom in draw(_headers):
        body: list[str] = []
        for _ in range(draw(st.integers(1, 4))):
            if pos in ("vi", "vt", "vb"):
                line = _verb_line(draw)
            else:
                line = f"S|{draw(st.sampled_from(LABELS))}||a kind of {headword}|"
            if line not in body:
                body.append(line)
        lines.append(f"E|{headword}|{pos}|{hom}")
        lines.extend(body)
        first_label = body[0].split("|")[1]
        if draw(st.booleans()):
            lines.append(f"F|{first_label}|PRED {headword.upper().replace(' ', '-')}")
        keys.extend(f"{headword}:{pos}:{hom}:{ln.split('|')[1]}" for ln in body)
        lines.append("")
    for _ in range(draw(st.integers(0, 6))):
        source = draw(st.sampled_from(keys))
        word = draw(st.sampled_from(GENUS_WORDS))
        target = draw(st.sampled_from(keys + [f"{word}:vi:1:1"]))
        lines.append(f"R|{source}|{word}|{target}")
    return "\n".join(lines) + "\n"


_DOT_STRING = re.compile(r'"((?:[^"\\]|\\.)*)"')


def dot_strings(dot: str) -> list[str]:
    """The unescaped quoted strings of a DOT text; fails on a stray quote
    or backslash outside them."""
    for line in dot.splitlines():
        bare = _DOT_STRING.sub("", line)
        assert '"' not in bare and "\\" not in bare, line
    return [re.sub(r"\\(.)", r"\1", m) for m in _DOT_STRING.findall(dot)]

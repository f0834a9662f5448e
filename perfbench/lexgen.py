"""Seeded generator of a scaled lexicon built from the bundled corpus.

The bundled corpus is one hub verb, ``change``, plus the dictionary
entries whose definitions use it.  The generator keeps ``change`` (with
its seed frames) and the preposition senses once, and appends N copies of
the using block and of the word-government supplement.  Every copy renames
its headwords with a copy tag, so copies never collide and every copy's
senses still hang off the single ``change`` hub.  The seed picks the copy
tags and the order of the entries inside each copy; nothing else varies.

The bundled files are only read, never written.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

DATA = Path(__file__).resolve().parent.parent / "src" / "lexigraph" / "data"

HUB = "change"
# Tag letters avoid vowels (no English words) and the letters the parser's
# inflection stripping looks at (s, d, y, e, l), so a tagged headword is
# only ever found by exact match.
_TAG_LETTERS = "bcfghjkmpqvwxz"


@dataclass(frozen=True)
class CopyVerb:
    """A single-word copy headword with exactly one sense: a sentence
    using it must resolve to ``key``."""

    word: str
    key: str


@dataclass(frozen=True)
class Generated:
    lexicon: str          # change, its frames, the using copies, prepositions
    resolutions: str      # R records of the using copies
    supplement: str       # word-government supplement copies, with their R records
    copy_verbs: tuple[CopyVerb, ...]

    def texts(self) -> list[str]:
        return [self.lexicon, self.resolutions, self.supplement]


def _blocks(text: str) -> list[list[str]]:
    """Entry blocks (an E line and the S/Y/F lines that follow it) and
    single R lines. Comments and blank lines are dropped."""
    blocks: list[list[str]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith(("E|", "R|")):
            blocks.append([line])
        else:
            blocks[-1].append(line)
    return blocks


def _header(block: list[str]) -> tuple[str, str, str]:
    _, head, pos, hom = block[0].split("|")
    return head, pos, hom


def _rename(headword: str, tag: str) -> str:
    first, sep, rest = headword.partition(" ")
    return first + tag + sep + rest


def _rename_key(key: str, names: dict[str, str]) -> str:
    head, sep, rest = key.partition(":")
    return names.get(head, head) + sep + rest


def _tags(rng: random.Random, n: int) -> list[str]:
    tags: list[str] = []
    while len(tags) < n:
        tag = "".join(rng.choice(_TAG_LETTERS) for _ in range(3))
        if tag not in tags:
            tags.append(tag)
    return tags


def generate(copies: int, seed: int) -> Generated:
    if copies < 1:
        raise ValueError("need at least one copy")
    corpus = _blocks((DATA / "change_corpus.lexf").read_text(encoding="utf-8"))
    records: dict[str, list[list[str]]] = {}
    for (line,) in _blocks((DATA / "resolutions.lexf").read_text(encoding="utf-8")):
        fields = line.split("|")
        records.setdefault(fields[1].partition(":")[0], []).append(fields)
    supplement = _blocks((DATA / "wordgov_corpus.lexf").read_text(encoding="utf-8"))

    hub = [b for b in corpus if _header(b)[0] == HUB]
    preps = [b for b in corpus if _header(b)[1] == "prep"]
    using = [b for b in corpus if b not in hub and b not in preps]
    supplement_words = {_header(b)[0] for b in supplement if b[0].startswith("E|")}
    word_re = re.compile(r"\b(" + "|".join(sorted(supplement_words)) + r")\b")

    rng = random.Random(seed)
    tags = _tags(rng, copies)
    lex_lines = [ln for b in hub for ln in b]
    res_lines: list[str] = []
    sup_lines: list[str] = []
    copy_verbs: list[CopyVerb] = []
    for tag in tags:
        names = {_header(b)[0]: _rename(_header(b)[0], tag) for b in using}
        order = list(using)
        rng.shuffle(order)
        for block in order:
            head, pos, hom = _header(block)
            lex_lines.append(f"E|{names[head]}|{pos}|{hom}")
            lex_lines.extend(block[1:])
            labels = {ln.split("|")[1] for ln in block[1:]}
            if " " not in head and head not in supplement_words and len(labels) == 1:
                copy_verbs.append(CopyVerb(names[head],
                                           f"{names[head]}:{pos}:{hom}:{labels.pop()}"))
        for block in order:
            for kind, source, genus, target in records.get(_header(block)[0], ()):
                res_lines.append("|".join(
                    (kind, _rename_key(source, names), genus, target)))
        for block in supplement:
            sup_lines.extend(word_re.sub(lambda m: m.group(1) + tag, ln)
                             for ln in block)
    lex_lines.extend(ln for b in preps for ln in b)
    return Generated("\n".join(lex_lines) + "\n",
                     "\n".join(res_lines) + "\n", "\n".join(sup_lines) + "\n",
                     tuple(copy_verbs))

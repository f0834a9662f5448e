"""Bundled fixtures: the change lexicon, the word-government supplement,
prep rule and cue tables, hand resolutions, and the manifest of expected
counts with their derivations."""
from __future__ import annotations

import os
from typing import NamedTuple, Optional

from .lexicon import (
    Lexicon,
    PartOfSpeech,
    genus_words,
    merge_lexicons,
    parse_lexf,
    senses_of,
)
from .prep_rules import CueTable, RuleTable, load_cue_table, load_rule_table

# The files are read from the directory next to this module, which a
# zipped install does not have; importlib.resources would cost each CLI
# call the pathlib, zipfile and tempfile imports.
_DATA = os.path.join(os.path.dirname(__file__), "data")


def _read(name: str) -> str:
    with open(os.path.join(_DATA, name), encoding="utf-8") as fh:
        return fh.read()


def corpus_text(name: str = "change_corpus.lexf") -> str:
    return _read(name)


def load_corpus(include_word_government: bool = False,
                include_resolutions: bool = True) -> Lexicon:
    parts = [parse_lexf(_read("change_corpus.lexf"))]
    if include_resolutions:
        parts.append(parse_lexf(_read("resolutions.lexf")))
    if include_word_government:
        parts.append(parse_lexf(_read("wordgov_corpus.lexf")))
    return merge_lexicons(*parts)


def load_rules() -> RuleTable:
    return load_rule_table(_read("prep_rules.tsv"))


def load_cues() -> CueTable:
    return load_cue_table(_read("prep_cues.tsv"))


class FixtureManifest(NamedTuple):
    values: dict
    derivations: dict

    def expected(self, key: str) -> int:
        return self.values[key]


def load_manifest() -> FixtureManifest:
    values: dict = {}
    derivations: dict = {}
    for lineno, raw in enumerate(_read("manifest.tsv").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"manifest line {lineno}: need 3 columns")
        key, value, derivation = parts
        values[key] = int(value)
        derivations[key] = derivation
    return FixtureManifest(values, derivations)


class VerifyRow(NamedTuple):
    """One manifest count; ``actual`` is None when it was not computed."""

    key: str
    expected: int
    actual: Optional[int]

    @property
    def checked(self) -> bool:
        return self.actual is not None

    @property
    def ok(self) -> bool:
        return self.actual == self.expected


class VerifyReport(NamedTuple):
    rows: tuple[VerifyRow, ...]

    @property
    def ok(self) -> bool:
        """Every checked count matches; unchecked rows count for nothing."""
        return all(r.ok for r in self.rows if r.checked)

    def to_text(self) -> str:
        lines = []
        for r in self.rows:
            mark = ("unchecked" if not r.checked
                    else "ok" if r.ok else "MISMATCH")
            actual = "-" if r.actual is None else str(r.actual)
            lines.append(f"{mark}\t{r.key}\texpected {r.expected}\tactual {actual}")
        return "\n".join(lines) + "\n"


def lexicon_counts(lexicon: Lexicon) -> dict:
    """The manifest keys derivable from the lexicon alone."""
    change = senses_of(lexicon, "change", PartOfSpeech.VI)
    labels = {s.label.text for s in change}
    using = [s for s in lexicon.entries
             if s.pos.is_verb and s.headword != "change"
             and "change" in genus_words(s, lexicon)]
    using_keys = {s.key for s in using}
    preps = [s for s in lexicon.entries if s.pos is PartOfSpeech.PREP]
    respect = 0
    for key, lines in lexicon.seed_frames.items():
        if key.headword != "change":
            continue
        if key.label == "1" or not key.label.startswith("1"):
            continue
        for line in lines:
            if ".RESPECT RESTRICT " in line:
                respect += 1
    return {
        "change_vi_labels": len(labels),
        "change_vi_lines": len(change),
        "change_vi_definition_lines": sum(1 for s in change
                                          if not s.is_synonym_line),
        "change_vi_synonym_lines": sum(1 for s in change if s.is_synonym_line),
        "using_rows": len(using_keys),
        "using_lines": len(using),
        "using_synonym_lines": sum(1 for s in using if s.is_synonym_line),
        "respect_payloads": respect,
        "prep_senses": len(preps),
        "resolution_rows": len(lexicon.resolutions),
    }


def verify_fixture(lexicon: Lexicon,
                   manifest: Optional[FixtureManifest] = None) -> VerifyReport:
    """Report-only check of the lexicon-derivable manifest counts; the
    other manifest keys are reported as unchecked."""
    manifest = manifest or load_manifest()
    actuals = lexicon_counts(lexicon)
    rows = []
    for key in sorted(manifest.values):
        rows.append(VerifyRow(key, manifest.values[key], actuals.get(key)))
    return VerifyReport(tuple(rows))

"""The manifest of expected counts on the bundled corpus, with their
derivations, and the report-only check of the counts a lexicon alone
gives.  Only the ``ingest`` command loads it."""
from __future__ import annotations

from collections import namedtuple

from .corpus import _read
from .lexicon import Lexicon, PartOfSpeech, genus_words, senses_of


# each manifest key's expected count and its derivation
FixtureManifest = namedtuple("FixtureManifest", "values derivations")


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


class VerifyRow(namedtuple("VerifyRow", "key expected actual")):
    """One manifest count; ``actual`` is None when it was not computed."""

    __slots__ = ()

    @property
    def checked(self) -> bool:
        return self.actual is not None

    @property
    def ok(self) -> bool:
        return self.actual == self.expected


class VerifyReport(namedtuple("VerifyReport", "rows")):
    """A ``VerifyRow`` per manifest key, sorted by key."""

    __slots__ = ()

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
                   manifest: FixtureManifest | None = None) -> VerifyReport:
    """Report-only check of the lexicon-derivable manifest counts; the
    other manifest keys are reported as unchecked."""
    manifest = manifest or load_manifest()
    actuals = lexicon_counts(lexicon)
    rows = []
    for key in sorted(manifest.values):
        rows.append(VerifyRow(key, manifest.values[key], actuals.get(key)))
    return VerifyReport(tuple(rows))

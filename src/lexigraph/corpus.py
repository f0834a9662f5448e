"""Bundled fixtures: the change lexicon, the word-government supplement,
the prep rule table and hand resolutions.  The manifest of expected
counts is read and checked in ``manifest``, which only ``ingest`` loads."""
from __future__ import annotations

import os

from .lexicon import Lexicon, merge_lexicons, parse_lexf

# true for type checkers only: ``typing.TYPE_CHECKING`` would import typing
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .prep_rules import RuleTable

# The files are read from the directory next to this module, which a
# zipped install does not have; importlib.resources would cost each CLI
# call the pathlib, zipfile and tempfile imports.
_DATA = os.path.join(os.path.dirname(__file__), "data")


def _read(name: str) -> str:
    with open(os.path.join(_DATA, name), encoding="utf-8") as fh:
        return fh.read()


def load_corpus(include_word_government: bool = False) -> Lexicon:
    parts = [parse_lexf(_read("change_corpus.lexf")),
             parse_lexf(_read("resolutions.lexf"))]
    if include_word_government:
        parts.append(parse_lexf(_read("wordgov_corpus.lexf")))
    return merge_lexicons(*parts)


def load_rules() -> RuleTable:
    # imported here: a command that reads no rule table never loads it
    from .prep_rules import load_rule_table
    return load_rule_table(_read("prep_rules.tsv"))


def __getattr__(name: str):
    """``verify_fixture`` lives in ``manifest``, which only ``ingest``
    loads; perfbench still reads it here.  Resolved on first read, then
    kept as a module attribute."""
    if name != "verify_fixture":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .manifest import verify_fixture
    globals()[name] = verify_fixture
    return verify_fixture

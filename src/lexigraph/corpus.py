"""Bundled fixtures: the change lexicon, the prep rule table and hand
resolutions (the word-government supplement beside them is read only by
the tests and perfbench's generator); and ``Analysis``, one run of the
pipeline over a lexicon read from them or from LEXF files.  The manifest
of expected counts is read and checked in ``manifest``, which only
``ingest`` loads."""
from __future__ import annotations

import os
from functools import cached_property

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


def load_corpus() -> Lexicon:
    return merge_lexicons(parse_lexf(_read("change_corpus.lexf")),
                          parse_lexf(_read("resolutions.lexf")))


def load_rules() -> RuleTable:
    # imported here: a command that reads no rule table never loads it
    from .prep_rules import load_rule_table
    return load_rule_table(_read("prep_rules.tsv"))


class Analysis:
    """One run's stages over one lexicon: the LEXF files at the paths
    ``lexicons``, else the bundled corpus, with the ``resolutions`` file on
    top.  Its R records are checked on construction, before any stage reads
    them or the rule table.  Each stage is computed on first use and kept,
    and imports its module only then, so a command loads only what it
    reads: ingest, graph, scc and primitives never pay for the rule table,
    frames, networks or the parser."""

    def __init__(self, lexicons=(), resolutions: str | None = None):
        paths = [*lexicons, *([resolutions] if resolutions else [])]
        parts = [] if lexicons else [load_corpus()]
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                parts.append(parse_lexf(fh.read()))
        self.lexicon = merge_lexicons(*parts) if paths else parts[0]
        self.lexicon._resolved  # raises ResolutionError at a bad R record

    @cached_property
    def rules(self) -> RuleTable:
        """The ``LEXIGRAPH_RULES`` table if set, else the bundled one."""
        if override := os.environ.get("LEXIGRAPH_RULES"):
            from .prep_rules import load_rule_table
            with open(override, encoding="utf-8") as fh:
                return load_rule_table(fh.read())
        return load_rules()

    @cached_property
    def graph(self):
        from .defgraph import apply_resolutions, build_graph
        return apply_resolutions(build_graph(self.lexicon),
                                 self.lexicon.resolutions)

    @cached_property
    def frames(self):
        from .frames import build_frames
        return build_frames(self.lexicon, self.rules)

    @cached_property
    def networks(self):
        from .ssn import NetworkCache
        return NetworkCache(self.lexicon, self.frames)


def __getattr__(name: str):
    """``verify_fixture`` lives in ``manifest``, which only ``ingest``
    loads; perfbench still reads it here.  Resolved on first read, then
    kept as a module attribute."""
    if name != "verify_fixture":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .manifest import verify_fixture
    globals()[name] = verify_fixture
    return verify_fixture

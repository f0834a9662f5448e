"""One reading of the R records: the lexicon's resolution map
(``Lexicon._resolved``) rejects a record exactly when the definition graph
does, with its message, and otherwise is the map of the resolved graph's
arcs, so frames and reduction read what the graph would give them."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import (
    accepted,
    family_rules_text,
    lexf_texts,
    resolved_lexf_texts,
)
from lexigraph.defgraph import apply_resolutions, build_graph
from lexigraph.frames import build_frames
from lexigraph.lexicon import ResolutionError, parse_lexf
from lexigraph.prep_rules import load_rule_table
from lexigraph.reduction import reduce_fixpoint

RULES = load_rule_table(family_rules_text())


def check_accepted(text: str) -> None:
    """On a text whose R records the graph accepts: the lexicon's map is
    the resolved graph's, and so is the reduction."""
    lx = parse_lexf(text)
    resolved = apply_resolutions(build_graph(lx), lx.resolutions)
    graph_map = {(a.source, a.genus_word): a.target()
                 for a in resolved.arcs if a.resolved}
    assert lx._resolved == graph_map
    # the report of a lexicon whose map is taken from the graph's arcs
    from_graph = parse_lexf(text)
    vars(from_graph)["_resolved"] = graph_map
    assert (reduce_fixpoint(lx, None, build_frames(lx, RULES), RULES)
            == reduce_fixpoint(from_graph, resolved,
                               build_frames(from_graph, RULES), RULES))


# drawn R records may name no arc or no sense; valid ones resolve most arcs
@settings(max_examples=100, deadline=None)
@given(st.one_of(lexf_texts(), resolved_lexf_texts()))
def test_the_lexicon_reads_the_records_as_the_graph_does(text):
    lx = parse_lexf(text)
    try:
        apply_resolutions(build_graph(lx), lx.resolutions)
    except ResolutionError as exc:
        with pytest.raises(ResolutionError) as raised:
            lx._resolved
        assert str(raised.value) == str(exc)
        text = accepted(text)  # and build_frames raises it too
    check_accepted(text)

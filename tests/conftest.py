from __future__ import annotations

import pytest

from lexigraph import corpus
from lexigraph.defgraph import apply_resolutions, build_graph
from lexigraph.frames import build_frames
from lexigraph.ssn import build_all_ssns


@pytest.fixture(scope="session")
def lexicon():
    return corpus.load_corpus()


@pytest.fixture(scope="session")
def wordgov_lexicon():
    return corpus.load_corpus(include_word_government=True)


@pytest.fixture(scope="session")
def rules():
    return corpus.load_rules()


@pytest.fixture(scope="session")
def manifest():
    return corpus.load_manifest()


@pytest.fixture(scope="session")
def graph(lexicon):
    return build_graph(lexicon)


@pytest.fixture(scope="session")
def resolved_graph(lexicon, graph):
    return apply_resolutions(graph, lexicon.resolutions)


@pytest.fixture(scope="session")
def frames(lexicon, rules):
    return build_frames(lexicon, rules)


@pytest.fixture(scope="session")
def ssns(lexicon, frames):
    return build_all_ssns(lexicon, frames)


@pytest.fixture(scope="session")
def change_ssn(ssns):
    return ssns["change"]

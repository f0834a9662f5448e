from __future__ import annotations

from support import wordgov_corpus
from lexigraph.corpus import load_corpus
from lexigraph.manifest import lexicon_counts, verify_fixture
from lexigraph.lexicon import PartOfSpeech, senses_of


def test_manifest_derivations_present(manifest):
    assert manifest.values
    for key in manifest.values:
        assert manifest.derivations[key].strip(), key


def test_verify_fixture_ok(lexicon, manifest):
    report = verify_fixture(lexicon, manifest)
    assert report.ok, report.to_text()


def test_verify_fixture_reports_mismatch(lexicon, manifest):
    broken = type(manifest)(dict(manifest.values, change_vi_labels=99),
                            dict(manifest.derivations))
    report = verify_fixture(lexicon, broken)
    assert not report.ok
    assert "MISMATCH" in report.to_text()


def test_counts(lexicon, manifest):
    counts = lexicon_counts(lexicon)
    assert counts["change_vi_labels"] == 19
    assert counts["using_rows"] == 47
    assert counts["using_lines"] == 49
    assert counts["respect_payloads"] == 13
    assert counts["resolution_rows"] == 47


def test_weaken_carries_three_lines(lexicon):
    weaken = senses_of(lexicon, "weaken", PartOfSpeech.VI)
    assert len(weaken) == 3
    assert len({s.label.text for s in weaken}) == 1


def test_flagged_coordinate_sense_three(lexicon):
    lines = senses_of(lexicon, "change", PartOfSpeech.VI)
    three = [s for s in lines if s.label.text == "3"]
    assert len(three) == 2
    assert three[1].raw_definition.startswith(three[0].raw_definition)


def test_word_government_supplement_loads():
    lx = wordgov_corpus()
    assert senses_of(lx, "knife", PartOfSpeech.NOUN)
    assert senses_of(lx, "knife", PartOfSpeech.VT)
    assert senses_of(lx, "cut", PartOfSpeech.VT)
    assert len(lx.resolutions) == 48


def test_loading_is_deterministic():
    assert load_corpus() == load_corpus()

"""The products of frame derivation, reduction, network compile and
autoresolve are fixed.  On the bundled corpus (with and without the
word-government supplement) and on ``perfbench/lexgen.py``'s x16
lexicons for seeds 7 and 11, the sha256 of the ``repr`` of each product
must equal the pinned one: the frame table (its frames, and the record,
genus word, genus frame and deltas of each use it applied), the reduction
report, the text of every network and the autoresolve proposals.  Some
per-run memos are keyed by object id or by sense key, so this runs in CI
under two ``PYTHONHASHSEED`` values and under ``PYTHONOPTIMIZE=1``.

The slot operations ``find_slot`` and ``update_slot`` equal the
path-building reference versions kept below, on drawn slot trees, and so
does the one-walk edit (``_edit``) of the slot ``find_slot`` finds; every
command's output on lexicons whose frames are derived by applying uses is
the same with the reference versions in their place.

When a change alters a product on purpose, print the new hashes with
``PYTHONPATH=src:tests python tests/test_analysis_pins.py`` and review why.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from support import (
    NAMES,
    family_rules_text,
    lexgen,
    slot_trees,
    use_lexf_texts,
    wordgov_corpus,
)
from lexigraph import corpus, frames as frames_mod, parser as parser_mod
from lexigraph.cli import run
from lexigraph.defgraph import apply_resolutions, build_graph
from lexigraph.frames import (
    Slot,
    _as_is,
    _edit,
    _entry_path,
    _restricted,
    _with,
    build_frames,
    find_slot,
    slot_order_key,
    update_slot,
)
from lexigraph.lexicon import SenseKey, merge_lexicons, parse_lexf
from lexigraph.prep_rules import load_rule_table
from lexigraph.autoresolve import autoresolve_all
from lexigraph.reduction import reduce_fixpoint
from lexigraph.ssn import build_all_ssns, to_text

PINNED = {
    "corpus": {
        "frames": "8a932c422e212aa0337e655ec94d13ed7386133a3d576ef1bbb604b36b143183",
        "uses": "89ff89010a716a0e3d4ccdd2d91ff2870f3744745480cb1445334d6c45c286df",
        "reduction": "f46fe9527063a203e931475056f3b37ca71d1fb2c59f0b6fbe0dac72e2ef158a",
        "ssn": "7af6255b581f22ad5665cd5dde32f0f97b20cb28e3085e0a4d7e3ee1964549af",
        "autoresolve": "8dbd4744a485731a2b932465f7d161002f62b710b7ca40abe442b22f1190e5ff",
    },
    "corpus+wordgov": {
        "frames": "5594600305b1e6787da098085d8368967bc868674bfa9e2a8ac6bf67f3a2ec96",
        "uses": "d1b7cf1bd76606d3151be67a8328c813a75f97da5940e2d239ffa3428896e2d0",
        "reduction": "7c146d5df642f16c0f02d0bcfe93452e0c55bdcb102edcba110e4909401092d7",
        "ssn": "167ab284be726a05a636f99ef6fb6efa78a95cefbbb11bf06be8789cb8830b90",
        "autoresolve": "8dbd4744a485731a2b932465f7d161002f62b710b7ca40abe442b22f1190e5ff",
    },
    "x16-seed7": {
        "frames": "9af1e168ec864547575c2cddd467263c73d64397b745fd42d3cf4ecdbad301c9",
        "uses": "979b50fa510848e1a115bd70cb9c978849b2f8258593db3801fa725e3a39ce80",
        "reduction": "702f68fbbf75274aa47c5be9444075fef1d0a825702c93aebe6cdb0676d86b5c",
        "ssn": "e8530348730af02ce72beeb4492dd32e6924b7d303142333772ebc54e361e384",
        "autoresolve": "5a103e64da4fe266885ee1d06a2f6fdb6ce205226687d25dd095978402badb7f",
    },
    "x16-seed11": {
        "frames": "8cb3c6685b92a5de3582f87af32cac105ed9e40d969fd2d9886dcce5a074ca5f",
        "uses": "3fd19e2d28a45ec6d3cd09ca5040f9d22c6d216bea77d7c4f49a09e7d0607192",
        "reduction": "6def60ce4d3d2962580a8a18f06bcb25905e1e99d2c7580b6bbbd4bebfffcb85",
        "ssn": "5ae9035616b7a5d7b6064dae2a239a085742afa2a27ab237c5ffc9f290f90cbe",
        "autoresolve": "8328bc8f418e6cbf1ca74e7635c5b3e0e5a08661737e69d3e39bdca9dd667a93",
    },
}


def lexicon_of(name: str):
    if name == "corpus":
        return corpus.load_corpus()
    if name == "corpus+wordgov":
        return wordgov_corpus()
    generated = lexgen().generate(16, int(name.removeprefix("x16-seed")))
    return merge_lexicons(*(parse_lexf(t) for t in generated.texts()))


def analysis_hashes(lexicon) -> dict[str, str]:
    """sha256 of the repr of each product of layers 5 to 8 on ``lexicon``."""
    rules = corpus.load_rules()
    graph = apply_resolutions(build_graph(lexicon), lexicon.resolutions)
    frames = build_frames(lexicon, rules)
    report = reduce_fixpoint(lexicon, graph, frames, rules)
    networks = build_all_ssns(lexicon, frames)
    proposals = autoresolve_all(lexicon, frames, rules)
    # the uses are keyed by record id: name each by its record instead
    uses = sorted((rec.key.sort_key(), rec.line, word, repr(base), repr(deltas))
                  for (_, word), (rec, base, deltas) in frames.uses.items())
    products = {
        "frames": sorted(frames.items(), key=lambda kv: SenseKey.sort_key(kv[0])),
        "uses": uses,
        "reduction": report,
        "ssn": [to_text(networks[hw]) for hw in sorted(networks)],
        "autoresolve": proposals,
    }
    return {name: hashlib.sha256(repr(value).encode()).hexdigest()
            for name, value in products.items()}


LEXICONS = ("corpus", "corpus+wordgov", "x16-seed7", "x16-seed11")


@pytest.mark.parametrize("name", LEXICONS)
def test_analysis_products_match_pinned_hashes(name):
    assert analysis_hashes(lexicon_of(name)) == PINNED[name]


# ---------------------------------------------------------------------------
# the slot operations equal the reference versions, which build a path for
# every slot they visit and rank every slot to place a new one

def reference_find_slot(slots, name):
    bound = None
    queue = [((s.name,), s) for s in slots]
    for path, slot in queue:  # also visits what the loop appends
        if slot.name == name:
            return path, slot
        if bound is None and slot.bind == name:
            bound = path, slot
        if slot.children:
            queue.extend((path + (c.name,), c) for c in slot.children)
    return bound


def reference_update_slot(slots, path, change, *args):
    name = path[0]
    for i, old in enumerate(slots):
        if old.name == name:
            found = True
            break
    else:
        found, old = False, Slot(name)
        rank = slot_order_key(name)
        i = sum(slot_order_key(s.name) < rank for s in slots)
    if len(path) > 1:
        kids = reference_update_slot(old.children, path[1:], change, *args)
        new = old if kids is old.children else Slot(
            old.name, old.case, old.bind, old.filler, old.restrictions, kids)
    else:
        new = change(old, *args)
    if found and new is old:
        return slots
    return slots[:i] + (new,) + slots[i + found:]


def reference_find(slots, name):
    """The entry (see ``frames.find_slot``) of the reference's slot, made
    by walking its path by name."""
    found = reference_find_slot(slots, name)
    if found is None:
        return None
    entry, level = None, slots
    for step in found[0]:
        i = [s.name for s in level].index(step)
        entry = (level[i], i, entry, 1)
        level = level[i].children
    return entry


def reference_edit(slots, entry, change, *args):
    """The edit of ``entry``'s slot, walking its path down by name."""
    return reference_update_slot(slots, _entry_path(entry), change, *args)


CHANGES = ((_as_is, ()), (_restricted, ("color",)), (_restricted, ("hue", True)),
           (_with, ("filler", "steam")), (_with, ("case", ("PAT",))))


@settings(max_examples=150, deadline=None)
@given(slot_trees(), st.sampled_from(NAMES))
def test_find_slot_equals_the_reference(slots, name):
    entry = find_slot(slots, name)
    found = None if entry is None else (_entry_path(entry), entry[0])
    assert found == reference_find_slot(slots, name)
    assert entry == reference_find(slots, name)


@settings(max_examples=150, deadline=None)
@given(slot_trees(), st.lists(st.sampled_from(NAMES), min_size=1, max_size=4),
       st.sampled_from(CHANGES))
def test_update_slot_equals_the_reference(slots, path, change):
    fn, args = change
    new = update_slot(slots, tuple(path), fn, *args)
    reference = reference_update_slot(slots, tuple(path), fn, *args)
    assert new == reference
    assert (new is slots) == (reference is slots)


@settings(max_examples=150, deadline=None)
@given(slot_trees(), st.sampled_from(NAMES), st.sampled_from(CHANGES))
def test_one_walk_edit_equals_update_slot(slots, name, change):
    """The edit a use makes, of the slot ``find_slot`` finds; a slot not
    there is first made empty at the top level, as a use makes it."""
    fn, args = change
    entry = find_slot(slots, name)
    if entry is None:
        slots = update_slot(slots, (name,), _as_is)
        entry = find_slot(slots, name)
    new = _edit(slots, entry, fn, *args)
    path = _entry_path(entry)
    for reference in (update_slot(slots, path, fn, *args),
                      reference_update_slot(slots, path, fn, *args)):
        assert new == reference
        assert (new is slots) == (reference is slots)


# ---------------------------------------------------------------------------
# every command's output on lexicons that derive frames through uses

def command_outputs(text: str, rules_path: str) -> list[tuple[int, str, str]]:
    lx = parse_lexf(text)
    with tempfile.TemporaryDirectory() as tmp:
        lexf, story = Path(tmp, "lexicon.lexf"), Path(tmp, "story.txt")
        lexf.write_text(text, encoding="utf-8")
        verb = lx.headwords()[-1]
        story.write_text(f"The water {verb} into ice.\nIt {verb} slowly.\n",
                         encoding="utf-8")
        commands = [["graph"], ["scc"], ["primitives"], ["reduce"],
                    ["reduce", "--format", "tsv"], ["autoresolve"],
                    ["parse", "--text", f"The water {verb} in color"],
                    ["discourse", "--file", str(story)]]
        for word in lx.headwords():
            commands += [["frames", "--word", word], ["ssn", "--word", word]]
        outputs = []
        with mock.patch.dict("os.environ", {"LEXIGRAPH_RULES": rules_path}):
            for argv in commands:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = run(["--lexicon", str(lexf), *argv])
                assert code in (0, 2, 3), (argv, err.getvalue())
                outputs.append((code, out.getvalue(), err.getvalue()))
    return outputs


@contextlib.contextmanager
def reference_slot_operations():
    with contextlib.ExitStack() as stack:
        for name, reference in (("find_slot", reference_find),
                                ("update_slot", reference_update_slot),
                                ("_edit", reference_edit)):
            stack.enter_context(mock.patch.object(frames_mod, name, reference))
        # the parser's fill plan finds the SUBJ slot itself
        stack.enter_context(mock.patch.object(parser_mod, "find_slot",
                                              reference_find))
        yield


@pytest.fixture(scope="module")
def rules_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("rules") / "rules.tsv"
    path.write_text(family_rules_text(), encoding="utf-8")
    return str(path)


def test_generated_uses_fill_and_restrict_slots():
    rules = load_rule_table(family_rules_text())

    def kinds(text):
        table = build_frames(parse_lexf(text), rules)
        return {d.kind for _, _, deltas in table.uses.values() for d in deltas}

    # found among a few hundred examples, and not shrunk
    for kind in ("FILL", "RESTRICT", "ADD-SLOT"):
        find(use_lexf_texts(), lambda text: kind in kinds(text),
             settings=settings(max_examples=500, database=None,
                               phases=[Phase.generate]))


@settings(max_examples=40, deadline=None)
@given(text=use_lexf_texts())
def test_command_outputs_equal_those_of_the_reference(text, rules_path):
    outputs = command_outputs(text, rules_path)
    with reference_slot_operations():
        assert command_outputs(text, rules_path) == outputs


if __name__ == "__main__":
    for name in LEXICONS:
        print(f"    {name!r}: {analysis_hashes(lexicon_of(name))!r},")

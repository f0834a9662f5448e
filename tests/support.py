"""Shared test support: hypothesis strategies for small generated LEXF
lexicons (among them ones whose frames are derived by applying uses, with
the rule rows for their predicate families) and for slot trees, a
generated text without the R records the graph rejects, a reader for
the quoted strings of a DOT export, one-entry lexicons whose senses
each differ at a slot, or require a condition, of their own, an answer
map that leads a network to one sense, the network compile as one
recursive walk that asks each necessary condition as a two-way question,
shares no subtree and finds first differences by flattening each frame,
a reference for what traversing a compiled network selects, the CLI's
argparse parser as it was written out by hand before the command table,
a reference for the argv reader and the parser built from the table, a
definition graph's adjacency read off its arcs, a writer of a Lexicon
back out as LEXF, and the bundled corpus with its word-government
supplement.

Generated headwords share a small pool, so genus words hit defined senses, one
headword has senses under several parts of speech and homographs, and
coordinate lines of one sense key may be split by lines of another.
"""
from __future__ import annotations

import argparse
import importlib.util
import re
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from lexigraph.corpus import _read, load_corpus
from lexigraph.defgraph import apply_resolutions, build_graph
from lexigraph.frames import (
    Slot,
    build_frames,
    render_condition,
    slot_order_key,
)
from lexigraph.lexicon import (
    Lexicon,
    PartOfSpeech,
    ResolutionError,
    SenseKey,
    merge_lexicons,
    parse_lexf,
)
from lexigraph.prep_rules import RuleTable
from lexigraph.ssn import (
    _TRANSITIVITY,
    _VB,
    _VI,
    _VT,
    SSN,
    CompileError,
    Nonterminal,
    Question,
    Sieve,
    Terminal,
    _collapse,
    _conditions,
    _render_value,
    compile_ssn,
)


def change_key(label: str) -> SenseKey:
    return SenseKey("change", PartOfSpeech.VI, 1, label)


FAMILY1 = tuple(change_key(l) for l in
                ("1", "1a", "1b(1)", "1b(2)", "1c", "1d", "1e", "1f",
                 "1g", "1h", "1i"))
FAMILY2 = tuple(change_key(l) for l in ("2", "2a", "2b", "2c"))

HEADWORDS = ("alpha", "beta", "gamma", "give", "give up", "into")
GENUS_WORDS = ("alpha", "beta", "gamma", "give up", "delta")
POS = ("vi", "vt", "vb", "n", "prep")
LABELS = ("1", "1a", "1b", "1b(2)", "2", "2a")
TAILS = ("", " into something", " with an instrument", " slowly",
         " from one state to another", " into", " in color")
NOTES = ("", "used with into", "used with to or from")
SEED_LINES = ("PRED {}", "SLOT SUBJ BIND FROM-STATE",
              "SLOT RESPECT RESTRICT color", "SLOT RESPECT RESTRICT size")

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
    note = draw(st.sampled_from(NOTES))
    return f"S|{label}||to {negated}{genus}{tail}|{note}"


@st.composite
def lexf_texts(draw) -> str:
    """A valid LEXF text: entries, an optional seed line per entry (a
    predicate, a subject bound as the from-state, or a respect group) on
    any of its senses, so a seeded subsense may sit under an unseeded
    label parent, and R records that may or may not name a real arc."""
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
        if draw(st.booleans()):
            label = draw(st.sampled_from(body)).split("|")[1]
            seed = draw(st.sampled_from(SEED_LINES))
            lines.append(f"F|{label}|"
                         + seed.format(headword.upper().replace(' ', '-')))
        keys.extend(f"{headword}:{pos}:{hom}:{ln.split('|')[1]}" for ln in body)
        lines.append("")
    for _ in range(draw(st.integers(0, 6))):
        source = draw(st.sampled_from(keys))
        word = draw(st.sampled_from(GENUS_WORDS))
        target = draw(st.sampled_from(keys + [f"{word}:vi:1:1"]))
        lines.append(f"R|{source}|{word}|{target}")
    return "\n".join(lines) + "\n"


@st.composite
def resolved_lexf_texts(draw, texts=None) -> str:
    """A ``lexf_texts()`` text (or one drawn from ``texts``) whose R records
    are replaced by valid ones: most arcs of its graph are resolved to one
    sense of their bundle."""
    drawn = draw(lexf_texts() if texts is None else texts)
    text = "".join(line for line in drawn.splitlines(True)
                   if not line.startswith("R|"))
    records = []
    for arc in build_graph(parse_lexf(text)).arcs:
        senses = sorted((t for t in arc.targets if t.pos is not None),
                        key=lambda t: t.sort_key())
        if senses and draw(st.integers(0, 3)):
            target = draw(st.sampled_from(senses))
            records.append(f"R|{arc.source.render()}|{arc.genus_word}|"
                           f"{target.render()}\n")
    return text + "".join(records)


# genus verbs whose seed lines give their frames slots to fill and
# restrict, the verbs defined by them, and tails and statuses that make
# their uses fill, restrict and add slots or leave residue
USE_GENUS = ("alpha", "beta", "change", "give up")
USE_VERBS = ("delta", "epsilon", "turn")
USE_SEEDS = ("PRED {}", "COND FROM-STATE NE TO-STATE", "SLOT SUBJ CASE PAT|AGT",
             "SLOT SUBJ BIND FROM-STATE", "SLOT ACCIDENTAL-ATTRS.RESPECT",
             "SLOT ACCIDENTAL-ATTRS.RESPECT RESTRICT color",
             "SLOT ACCIDENTAL-ATTRS.RESPECT.TO-STATE", "SLOT TO-STATE VALUE ice",
             "SLOT INSTRUMENT")
USE_TAILS = TAILS + (" by the wind", " into ice or into steam", " to a state",
                     " in color or shape", " from hot to cold slowly")
STATUSES = ("", "subject:water", "obs")


@st.composite
def _use_bases(draw) -> str:
    lines: list[str] = []
    genus_words = draw(st.lists(st.sampled_from(USE_GENUS), min_size=1,
                                max_size=3, unique=True))
    for word in genus_words:
        labels = draw(st.lists(st.sampled_from(LABELS), min_size=1,
                               max_size=3, unique=True))
        lines.append(f"E|{word}|{draw(st.sampled_from(POS[:3]))}|1")
        lines += [f"S|{label}||to move{draw(st.sampled_from(TAILS))}|"
                  for label in labels]
        for label in labels:
            for seed in draw(st.lists(st.sampled_from(USE_SEEDS), max_size=3,
                                      unique=True)):
                lines.append(f"F|{label}|"
                             + seed.format(word.upper().replace(" ", "-")))
        lines.append("")
    for word in draw(st.lists(st.sampled_from(USE_VERBS), min_size=1,
                              max_size=3, unique=True)):
        lines.append(f"E|{word}|{draw(st.sampled_from(POS[:3]))}|1")
        for label in draw(st.lists(st.sampled_from(LABELS), min_size=1,
                                   max_size=3, unique=True)):
            lines.append(f"S|{label}|{draw(st.sampled_from(STATUSES))}|to "
                         f"{draw(st.sampled_from(genus_words))}"
                         f"{draw(st.sampled_from(USE_TAILS))}|"
                         f"{draw(st.sampled_from(NOTES))}")
        lines.append("")
    return "\n".join(lines) + "\n"


def use_lexf_texts():
    """A LEXF text whose senses derive their frames by applying uses:
    genus verbs (``change`` among them) with seed lines, verbs defined by
    them, and R records resolving most of their genus arcs.  Under
    ``family_rules_text()`` the uses fill, restrict and add slots."""
    return resolved_lexf_texts(_use_bases())


PARTICLE_NOTES = ("", "used with about", "used with into", "used with over",
                  "used with up", "used with into or up")


@st.composite
def usage_lexf_texts(draw) -> str:
    """One headword as vi, vt and vb entries whose senses name particles:
    the transitivity answers share the vb senses, and the usage conditions
    leave a group of them at several stages."""
    lines = []
    for pos, senses in (("vi", 1), ("vt", 1), ("vb", 2)):
        lines.append(f"E|w|{pos}|1")
        for label in draw(st.lists(st.sampled_from(("1", "1a", "2", "3")),
                                   min_size=senses, max_size=senses + 1,
                                   unique=True)):
            lines.append(f"S|{label}||to {draw(st.sampled_from(GENUS_WORDS))}"
                         f"{draw(st.sampled_from(TAILS))}|"
                         f"{draw(st.sampled_from(PARTICLE_NOTES))}")
    return "\n".join(lines) + "\n"


# slot names of the fixed order and two open extension names, which sort
# last; a name may recur at several levels
NAMES = ("SUBJ", "FROM-STATE", "TO-STATE", "RESPECT", "MANNER",
         "ACCIDENTAL-ATTRS", "AGENT", "ZONE")


@st.composite
def slot_trees(draw, depth: int = 3) -> tuple[Slot, ...]:
    """Slots as the operations keep them: one per name at each level, in
    slot order, some bound to a role, some filled or restricted."""
    names = draw(st.lists(st.sampled_from(NAMES), max_size=4, unique=True))
    return tuple(
        Slot(name, draw(st.sampled_from(((), ("PAT",), ("PAT", "AGT")))),
             draw(st.sampled_from((None,) + NAMES)),
             draw(st.sampled_from((None, "ice"))),
             draw(st.sampled_from(((), ("color",), ("size", "color")))),
             draw(slot_trees(depth - 1)) if depth else ())
        for name in sorted(names, key=slot_order_key))


def accepted(text: str) -> str:
    """``text`` without the R records that ``apply_resolutions`` rejects
    (each record is checked on its own, so the rest pass together).  Where
    it rejects the text's records, ``build_frames`` must raise the same
    ResolutionError."""
    lexicon = parse_lexf(text)
    graph = build_graph(lexicon)
    try:
        apply_resolutions(graph, lexicon.resolutions)
    except ResolutionError as exc:
        with pytest.raises(ResolutionError) as raised:
            build_frames(lexicon, RuleTable())
        assert str(raised.value) == str(exc)
    else:
        return text
    kept = []
    for line in text.splitlines():
        if line.startswith("R|"):
            try:
                apply_resolutions(graph, parse_lexf(line).resolutions)
            except ResolutionError:
                continue
        kept.append(line)
    return "\n".join(kept) + "\n"


def analysable(text: str, rules) -> tuple[str, list[str]]:
    """``accepted(text)``, and the headwords whose network then compiles:
    a full analysis succeeds on both."""
    text = accepted(text)
    lexicon = parse_lexf(text)
    frames = build_frames(lexicon, rules)
    headwords = []
    for headword in lexicon.headwords():
        try:
            compile_ssn(headword, lexicon, frames)
        except CompileError:
            continue
        headwords.append(headword)
    return text, headwords


def family_rules_text() -> str:
    """The bundled rule table's rows for every predicate family that
    ``lexf_texts()`` or ``use_lexf_texts()`` can give a frame."""
    names = [w.upper() for w in HEADWORDS + USE_GENUS + GENUS_WORDS
             + USE_VERBS + ("give", "move")]
    # a seed's PRED joins a phrase with "-", a provisional predicate keeps
    # its space
    families = set(names) | {name.replace(" ", "-") for name in names}
    rows = [line.split("\t") for line in
            _read("prep_rules.tsv").splitlines()
            if line and not line.startswith("#")]
    return "".join(f"{prep}\t{family}\t{slot}\t{action}\n"
                   for prep, _, slot, action in rows
                   for family in sorted(families))


def wordgov_corpus() -> Lexicon:
    """The bundled corpus with the word-government supplement merged in
    after it, read afresh on each call."""
    return merge_lexicons(load_corpus(),
                          parse_lexf(_read("wordgov_corpus.lexf")))


def lexgen():
    """``perfbench/lexgen.py``, the benchmark's lexicon generator, loaded
    from its file and only read."""
    path = Path(__file__).parents[1] / "perfbench" / "lexgen.py"
    spec = importlib.util.spec_from_file_location("lexgen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("lexgen", module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


_DOT_STRING = re.compile(r'"((?:[^"\\]|\\.)*)"')


def dot_strings(dot: str) -> list[str]:
    """The unescaped quoted strings of a DOT text; fails on a stray quote
    or backslash outside them."""
    for line in dot.splitlines():
        bare = _DOT_STRING.sub("", line)
        assert '"' not in bare and "\\" not in bare, line
    return [re.sub(r"\\(.)", r"\1", m) for m in _DOT_STRING.findall(dot)]


# A phrasal genus listed as a headword: "quit" is defined by "give up", and
# its R record resolves that arc to the phrase's own sense.
PHRASAL_LEXF = """\
E|give|vt|1
S|1||to hand over|

E|give up|vi|1
S|1||to stop trying|
F|1|PRED GIVE-UP

E|quit|vi|1
S|1||to give up in despair|

R|quit:vi:1|give up|give up:vi:1
"""


# An R record whose target is no sense of the lexicon, though the target's
# label parent is: beta has senses 1 and 1a, not 1b.
UNKNOWN_SUBSENSE_LEXF = """\
E|alpha|vi|1
S|1||to beta slowly|

E|beta|vi|1
S|1||to move|
S|1a||to move fast|

R|alpha:vi:1:1|beta|beta:vi:1:1b
"""


def chain_word(n: int) -> str:
    """A letters-only headword; later links of a chain sort first."""
    n = 9999 - n
    word = ""
    for _ in range(3):
        word = chr(97 + n % 26) + word
        n //= 26
    return "w" + word


def chain_lexf(depth: int) -> str:
    """A resolved definition chain ``depth`` senses deep: link N is defined
    by link N-1 and resolved to it, and the deepest link sorts first, so
    deriving it first walks the whole chain."""
    lines = [f"E|{chain_word(0)}|vi|1", "S|1||to move slowly|", ""]
    for n in range(1, depth):
        lines += [f"E|{chain_word(n)}|vi|1",
                  f"S|1||to {chain_word(n - 1)} slowly|", ""]
    for n in range(1, depth):
        lines.append(f"R|{chain_word(n)}:vi:1:1|{chain_word(n - 1)}|"
                     f"{chain_word(n - 1)}:vi:1:1")
    return "\n".join(lines) + "\n"


def wide_lexf(senses: int) -> str:
    """One verb entry whose ``senses`` senses each differ from the others
    at a slot of their own: its network asks one new position per level,
    a chain of frame differences as deep as the sense count."""
    numbers = range(1, senses + 1)
    return ("E|zap|vi|1\n" + "".join(f"S|{i}||become bar|\n" for i in numbers)
            + "".join(f"F|{i}|SLOT X{i} VALUE v\n" for i in numbers))


def particle_lexf(senses: int) -> str:
    """One verb entry whose ``senses`` senses are each used with a particle
    of their own, and a preposition entry per particle, so a sentence can
    name one: one usage condition per sense."""
    numbers = range(1, senses + 1)
    return ("E|zap|vi|1\n"
            + "".join(f"S|{i}||to become bar {i}|used with p{i}\n"
                      for i in numbers)
            + "".join(f"\nE|p{i}|prep|1\nS|1||a particle|\n"
                      for i in numbers))


def object_lexf(senses: int) -> str:
    """One transitive verb entry whose ``senses`` senses each specify an
    object of their own and differ at a slot of their own: one OBJ-IS
    condition per sense."""
    numbers = range(1, senses + 1)
    return ("E|zap|vt|1\n"
            + "".join(f"S|{i}||to hit (thing{i}) hard|\n" for i in numbers)
            + "".join(f"F|{i}|SLOT X{i} VALUE v\n" for i in numbers))


@st.composite
def wide_lexf_texts(draw) -> str:
    """One verb entry of 2 to 60 senses, each differing from the others at
    a position of its own: a slot of its own, a child of its own under a
    slot they may all hold, or a child under a slot of its own, filled,
    restricted or given a case."""
    senses = draw(st.integers(2, 60))
    lines = ["E|zap|vi|1"] + [f"S|{i}||become bar|"
                              for i in range(1, senses + 1)]
    for i in range(1, senses + 1):
        path = draw(st.sampled_from(("X{}", "A.X{}", "X{}.B"))).format(i)
        action = draw(st.sampled_from(("VALUE v", "RESTRICT r", "CASE PAT")))
        lines.append(f"F|{i}|SLOT {path} {action}")
    return "\n".join(lines) + "\n"


def oracle_reaching(ssn, target) -> dict | None:
    """An answer map under which traversal returns exactly the target: the
    first one a depth-first search of the network finds, else None.  At a
    sieve it keeps the conditions the target requires and prunes the
    others, and searches the tree of the senses left."""
    return _search(ssn.root, target, {})


def _search(node, target, answers: dict) -> dict | None:
    """``oracle_reaching`` below ``node``, given the answers that lead there."""
    if isinstance(node, Sieve):
        if target not in node.senses:
            return None
        place, alive = node.senses.index(target), -1
        for q in node.conditions:
            (prune, needing), (keep, others) = q.branches
            if needing >> place & 1:
                answers = {**answers, q.qid: keep}
            else:
                answers = {**answers, q.qid: prune}
                alive &= others
        return _search(node.tree_of(alive), target, answers)
    if isinstance(node, Terminal):
        return answers if node.sense == target else None
    if isinstance(node, Nonterminal):
        return None
    for answer, child in node.branches:
        if node.qid in answers and answers[node.qid] != answer:
            continue
        found = _search(child, target, {**answers, node.qid: answer})
        if found is not None:
            return found
    return None


# the values of a canonical position that read as nothing: absent, or an
# empty string or tuple
EMPTY_VALUES = (None, "", ())


# The first difference of a group of frames by flattening: every frame
# becomes a dict of its canonical positions, whose sorted union is scanned
# in order.  ``compile_ssn`` finds the same first differences by walking
# the frames' slot trees together.

def canonical_paths(frame) -> dict[tuple, tuple[tuple[str, ...], object]]:
    """Flatten to {sortable position: (display path, value)}; alignment-proof
    across frames with different slot inventories."""
    out: dict[tuple, tuple[tuple[str, ...], object]] = {
        ((0, "pos"),): (("pos",), frame.pos.value),
        ((1, "transitivity"),): (("transitivity",),
                                 _TRANSITIVITY.get(frame.pos, "")),
        ((2, "predicate"),): (("predicate",),
                              (frame.predicate,
                               "provisional" if frame.provisional else "fixed")),
        ((3, "conditions"),): (("conditions",),
                               tuple(sorted(render_condition(c)
                                            for c in frame.conditions))),
    }

    for slot in frame.slots:
        _slot_paths(out, slot, ((4, "slots"),), ("slots",))
    return out


def _slot_paths(out: dict, slot: Slot, sort_prefix: tuple,
                display_prefix: tuple[str, ...]) -> None:
    """Add the canonical positions of ``slot`` and its children to ``out``."""
    name, restrictions = slot.name, slot.restrictions
    base_sort = sort_prefix + (slot_order_key(name),)
    base_disp = display_prefix + (name,)
    out[base_sort + ((0, "case"),)] = (base_disp + ("case",),
                                       " v ".join(slot.case))
    out[base_sort + ((1, "bind"),)] = (base_disp + ("bind",), slot.bind or "")
    out[base_sort + ((2, "filler"),)] = (base_disp + ("filler",),
                                         slot.render_filler())
    out[base_sort + ((3, "restrictions"),)] = (
        base_disp + ("restrictions",),
        tuple(sorted(restrictions)) if len(restrictions) > 1 else restrictions)
    for child in slot.children:
        _slot_paths(out, child, base_sort + ((4, "children"),), base_disp)


def flat_group(frames: dict) -> tuple[dict, list]:
    """Each frame's ``canonical_paths`` and the sorted union of their
    positions, as ``first_diff`` reads them."""
    flats = {k: canonical_paths(f) for k, f in frames.items()}
    return flats, sorted(set().union(*flats.values()))


def first_diff(keys: list, flats: dict, positions: list, start: int = 0):
    """The first of ``positions[start:]`` at which any two of ``keys``
    differ: (its index, display path, {sense key: value-at-position}), or
    None.  An absent value (None) and an empty one ("" or ()) are no
    difference, so a position none of the keys has is none either, and
    ``flats`` and ``positions`` may cover more keys."""
    flat_list = [flats[key] for key in keys]
    for index in range(start, len(positions)):
        pos = positions[index]
        entries = [flat.get(pos) for flat in flat_list]
        if entries.count(entries[0]) == len(entries):
            continue
        # every canonical value is a str or a tuple of str
        distinct = {None if e is None or e[1] in EMPTY_VALUES else e[1]
                    for e in entries}
        if len(distinct) > 1:
            display = next(e[0] for e in entries if e is not None)
            return index, display, {key: None if e is None else e[1]
                                    for key, e in zip(keys, entries)}
    return None


def reference_compile_ssn(headword, lexicon, frames) -> SSN:
    """The network as a tree with no sieve: one recursive walk that asks
    each stage question (POS, TRANSITIVITY, then each necessary condition
    as a two-way question whose keeping answer leads to the whole group)
    where it splits the group, builds a subtree for each group wherever
    the questions lead to it, sharing none, and flattens every frame of
    the network for its first differences.  Traversing it selects what
    traversing the compiled network does, under any answers."""
    keys = lexicon._by_headword.get(headword)
    if not keys:
        raise CompileError(f"no senses for {headword!r}")
    for k in keys:
        if k not in frames:
            raise CompileError(f"no frame for {k.render()}")
    frames = {k: frames[k] for k in keys}  # the network's own
    stages = _reference_stages(keys, lexicon) if len(keys) > 1 else ()
    # a group is a list of senses numbered by their place in ``keys``
    return SSN(headword, tuple(keys), _reference_build(
        list(range(len(keys))), 0, stages, keys, frames, []))


def _reference_stages(keys, lexicon):
    """The stage questions, in order, each (kind, payload, partition of a
    group); no POS or TRANSITIVITY question where every sense has one part
    of speech."""
    pos = [k.pos for k in keys]

    def by_pos(group):
        parts = {}
        for i in group:
            parts.setdefault("v" if pos[i].is_verb else pos[i].value,
                             []).append(i)
        return parts

    def by_transitivity(group):
        return {"vi": [i for i in group if pos[i] in (_VI, _VB)],
                "vt": [i for i in group if pos[i] in (_VT, _VB)]}

    def necessary(q):  # the keeping answer keeps every sense
        (prune, needing), (keep, _) = q.branches
        return lambda group: {keep: group, prune: [
            i for i in group if not needing >> i & 1]}

    stages = ([("POS", (), by_pos), ("TRANSITIVITY", (), by_transitivity)]
              if len(set(pos)) > 1 else [])
    return stages + [(q.kind, q.payload, necessary(q))
                     for q in _conditions(keys, lexicon._by_key)]


def _reference_build(group, stage_idx, stages, keys, frames, flat):
    if len(group) == 1:
        return Terminal(keys[group[0]])
    while stage_idx < len(stages):
        kind, payload, partition = stages[stage_idx]
        stage_idx += 1
        parts = {a: sub for a, sub in partition(group).items() if sub}
        if len(parts) < 2 or len({tuple(sub) for sub in parts.values()}) < 2:
            continue
        return Question(kind, payload, tuple(
            (answer, _reference_build(list(sub), stage_idx, stages, keys,
                                      frames, flat))
            for answer, sub in sorted(parts.items())))
    if not flat:
        flat += flat_group(dict(enumerate(frames.values())))
    return _reference_frame_diff_tree(group, 0, *flat, keys, frames)


def _reference_frame_diff_tree(group, start, flats, positions, keys, frames):
    if len(group) == 1:
        return Terminal(keys[group[0]])
    diff = first_diff(group, flats, positions, start)
    if diff is None:
        return _collapse([keys[i] for i in group], frames)
    index, path, values = diff
    concrete: dict = {}
    empties = []
    for k in group:
        v = values.get(k)
        if v in EMPTY_VALUES:
            empties.append(k)
        else:
            concrete.setdefault(_render_value(path[-1], v), []).append(k)
    branches = []
    alts = []
    for answer in sorted(concrete):
        sub = concrete[answer]
        branches.append((answer, _reference_frame_diff_tree(
            sub, index, flats, positions, keys, frames)))
        alts.append((answer, values[sub[0]]))
    if empties:
        branches.append(("other", _reference_frame_diff_tree(
            empties, index, flats, positions, keys, frames)))
        alts.append(("other", ""))
    return Question("FRAME-DIFF", (tuple(path), tuple(alts)), tuple(branches))


def node_objects(node) -> dict:
    """The distinct node objects under ``node``, by id: a sieve, its
    conditions and the nodes of its whole group's tree among them."""
    seen: dict = {}
    stack = [node]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            if isinstance(node, Sieve):
                stack += [*node.conditions, node.tree]
            elif isinstance(node, Question):  # a sieve's conditions lead
                stack.extend(child for _, child in node.branches  # to bit
                             if not isinstance(child, int))       # sets
    return seen


# ---------------------------------------------------------------------------
# the CLI's argparse parser, written out by hand

FORMATS = ("dot", "tsv", "text")


def reference_build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexigraph",
        description="dictionary-definition analysis over LEXF lexicons")
    parser.add_argument("--lexicon", action="append", default=[],
                        help="LEXF file (repeatable); bundled corpus if omitted")
    parser.add_argument("--resolutions", help="extra LEXF file of R records")
    parser.add_argument("--format", choices=FORMATS, default="text")
    parser.add_argument("--output", help="output path (default stdout)")
    # --format and --output are also accepted after the subcommand; there
    # they default to SUPPRESS, so a value given before it is kept
    output_flags = argparse.ArgumentParser(add_help=False)
    output_flags.add_argument("--format", choices=FORMATS,
                              default=argparse.SUPPRESS)
    output_flags.add_argument("--output", default=argparse.SUPPRESS,
                              help="output path (default stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, **kwargs) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[output_flags], **kwargs)

    command("ingest", help="validate input and check manifest counts")
    graph_p = command("graph", help="export the definition graph")
    graph_p.add_argument("--mode", choices=("optimistic", "resolved"),
                         default="optimistic")
    scc_p = command("scc", help="strongly connected components")
    scc_p.add_argument("--mode", choices=("optimistic", "resolved"),
                       default="optimistic")
    command("primitives", help="primitive candidates and undefined leaves")
    command("autoresolve", help="propose resolution records")
    command("reduce", help="non-primitive reduction report")
    frames_p = command("frames", help="dump a sense frame")
    frames_p.add_argument("--word", required=True)
    frames_p.add_argument("--label")
    ssn_p = command("ssn", help="export a sense selection network")
    ssn_p.add_argument("--word", required=True)
    parse_p = command("parse", help="disambiguate one sentence")
    parse_p.add_argument("--text", required=True)
    parse_p.add_argument("--strict", action="store_true",
                         help="exit 3 when ambiguity remains")
    disc_p = command("discourse", help="parse sentences from a file")
    disc_p.add_argument("--file", required=True,
                        help="one sentence per line")
    return parser


# ---------------------------------------------------------------------------
# a definition graph's adjacency, and a lexicon written back out

def edges(graph, mode: str) -> dict:
    """Each node's targets under a mode, read off the graph's arcs:
    optimistic takes every member of every bundle, resolved-only the
    resolved arcs only."""
    adj: dict = {n: set() for n in graph.nodes}
    for arc in graph.arcs:
        if mode == "optimistic" or arc.resolved:
            adj[arc.source] |= arc.targets
    return adj


def serialize_lexf(lexicon: Lexicon) -> str:
    """Write a Lexicon back out as LEXF; parse(serialize(lx)) == lx."""
    lines: list[str] = []
    current: tuple | None = None
    emitted_seeds: set[SenseKey] = set()
    for s in lexicon.entries:
        header = (s.headword, s.pos, s.homograph)
        if header != current:
            if current is not None:
                lines.append("")
            lines.append(f"E|{s.headword}|{s.pos.value}|{s.homograph}")
            current = header
        if s.is_synonym_line:
            row = f"Y|{s.label}|{s.synonym_refs[0]}"
            if s.usage_note:
                row += f"|{s.usage_note}"
            lines.append(row)
        else:
            note = s.usage_note or ""
            status = ",".join(sorted(s.status))
            lines.append(f"S|{s.label}|{status}|{s.raw_definition}|{note}")
        if s.key not in emitted_seeds:
            for payload in lexicon.seed_frames.get(s.key, ()):
                lines.append(f"F|{s.label}|{payload}")
            emitted_seeds.add(s.key)
    if lexicon.resolutions:
        lines.append("")
        for r in lexicon.resolutions:
            lines.append(f"R|{r.from_key.render()}|{r.genus_word}|{r.target.render()}")
    return "\n".join(lines) + "\n"

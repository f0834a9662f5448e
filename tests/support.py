"""Shared test support: hypothesis strategies for small generated LEXF
lexicons (among them ones whose frames are derived by applying uses, with
the rule rows for their predicate families) and for slot trees, a
generated text without the R records the graph rejects, a reader for
the quoted strings of a DOT export, an answer map that leads a network
to one sense, and the network compile as one recursive walk that shares
no subtree, a reference for ``compile_ssn``.

Generated headwords share a small pool, so genus words hit defined senses, one
headword has senses under several parts of speech and homographs, and
coordinate lines of one sense key may be split by lines of another.
"""
from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from lexigraph.corpus import corpus_text
from lexigraph.defgraph import apply_resolutions, build_graph
from lexigraph.frames import Slot, build_frames, slot_order_key
from lexigraph.lexicon import ResolutionError, parse_lexf
from lexigraph.prep_rules import RuleTable
from lexigraph.ssn import (
    EMPTY_VALUES,
    SSN,
    CompileError,
    Nonterminal,
    Question,
    Terminal,
    _collapse,
    _render_value,
    _stage_questions,
    compile_ssn,
    first_diff,
    flat_group,
)

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
            corpus_text("prep_rules.tsv").splitlines()
            if line and not line.startswith("#")]
    return "".join(f"{prep}\t{family}\t{slot}\t{action}\n"
                   for prep, _, slot, action in rows
                   for family in sorted(families))


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


def oracle_reaching(ssn, target) -> dict | None:
    """An answer map under which traversal returns exactly the target: the
    first one a depth-first search of the network finds, else None."""
    return _search(ssn.root, target, {})


def _search(node, target, answers: dict) -> dict | None:
    """``oracle_reaching`` below ``node``, given the answers that lead there."""
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


def reference_compile_ssn(headword, lexicon, frames) -> SSN:
    """``compile_ssn`` as one recursive walk that builds a subtree for each
    group wherever the questions lead to it, sharing none: the network as
    a tree of its own nodes, equal to the compiled one."""
    keys = lexicon._by_headword.get(headword)
    if not keys:
        raise CompileError(f"no senses for {headword!r}")
    for k in keys:
        if k not in frames:
            raise CompileError(f"no frame for {k.render()}")
    frames = {k: frames[k] for k in keys}
    stages = _stage_questions(keys, lexicon._by_key) if len(keys) > 1 else ()
    return SSN(headword, tuple(keys),
               _reference_build(keys, 0, stages, frames, []))


def _reference_build(group, stage_idx, stages, frames, flat):
    if len(group) == 1:
        return Terminal(group[0], frames[group[0]])
    while stage_idx < len(stages):
        kind, payload, partition = stages[stage_idx]
        stage_idx += 1
        parts = {a: sub for a, sub in partition(group).items() if sub}
        if len(parts) < 2 or len({tuple(sub) for sub in parts.values()}) < 2:
            continue
        return Question(kind, payload, tuple(
            (answer, _reference_build(sub, stage_idx, stages, frames, flat))
            for answer, sub in sorted(parts.items())))
    if not flat:
        flat += flat_group(frames)
    return _reference_frame_diff_tree(group, 0, *flat, frames)


def _reference_frame_diff_tree(group, start, flats, positions, frames):
    if len(group) == 1:
        return Terminal(group[0], frames[group[0]])
    diff = first_diff(group, flats, positions, start)
    if diff is None:
        return _collapse(group, frames)
    index, path, values = diff
    concrete: dict = {}
    empties = []
    for k in group:
        v = values.get(k)
        if v in EMPTY_VALUES:
            empties.append(k)
        else:
            concrete.setdefault(_render_value(v), []).append(k)
    branches = []
    alts = []
    for answer in sorted(concrete):
        sub = concrete[answer]
        branches.append((answer, _reference_frame_diff_tree(
            sub, index, flats, positions, frames)))
        alts.append((answer, values[sub[0]]))
    if empties:
        branches.append(("other", _reference_frame_diff_tree(
            empties, index, flats, positions, frames)))
        alts.append(("other", ""))
    return Question("FRAME-DIFF", (tuple(path), tuple(alts)), tuple(branches))


def node_objects(node) -> dict:
    """The distinct node objects under ``node``, by id."""
    seen: dict = {}
    stack = [node]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            if isinstance(node, Question):
                stack.extend(child for _, child in node.branches)
    return seen

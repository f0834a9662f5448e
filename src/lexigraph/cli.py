"""Command-line surface. Exit codes: 0 success, 1 usage error, 2 data
error, 3 ambiguity remaining under parse --strict. Diagnostics go to the
error stream, data to the output stream; text reports are stable-ordered."""
from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from . import corpus as corpus_mod
from .lexicon import (
    Lexicon,
    LexfError,
    ResolutionError,
    merge_lexicons,
    parse_lexf,
)
from .prep_rules import load_rule_table

# Each command imports the analysis modules it uses, so a call loads only
# those: graph, scc and primitives never pay for frames, networks or the
# parser.

USAGE_ERROR = 1
DATA_ERROR = 2
AMBIGUITY_REMAINING = 3


def _load_lexicon(args) -> Lexicon:
    if not args.lexicon:
        return corpus_mod.load_corpus()
    parts = []
    for path in args.lexicon:
        with open(path, encoding="utf-8") as fh:
            parts.append(parse_lexf(fh.read()))
    if args.resolutions:
        with open(args.resolutions, encoding="utf-8") as fh:
            parts.append(parse_lexf(fh.read()))
    return merge_lexicons(*parts)


def _load_rules():
    override = os.environ.get("LEXIGRAPH_RULES")
    if override:
        with open(override, encoding="utf-8") as fh:
            return load_rule_table(fh.read())
    return corpus_mod.load_rules()


def _resolved_graph(lexicon: Lexicon):
    from .defgraph import apply_resolutions, build_graph
    graph = build_graph(lexicon)
    return apply_resolutions(graph, lexicon.resolutions)


def _build_frames(lexicon: Lexicon, rules):
    """The frames of every sense, once every resolution record is known
    to target a sense, as the graph commands require."""
    from .frames import build_frames
    for record in lexicon.resolutions:
        if not lexicon.has_sense(record.target):
            raise ResolutionError.unknown_target(record)
    return build_frames(lexicon, rules)


class _NetworkCache:
    """Networks are compiled per headword on demand: an under-resolved
    lexicon may lack distinct representations for words the invocation
    never asks about."""

    def __init__(self, lexicon: Lexicon, frames):
        self._lexicon = lexicon
        self._frames = frames
        self._nets: dict = {}

    def __contains__(self, headword: str) -> bool:
        return self._lexicon.has_headword(headword)

    def __getitem__(self, headword: str):
        if headword not in self._nets:
            from .ssn import compile_ssn
            grouped = self._lexicon.records_by_key(headword)
            if not grouped:
                raise KeyError(headword)
            self._nets[headword] = compile_ssn(headword, grouped, self._frames)
        return self._nets[headword]


FORMATS = ("dot", "tsv", "text")


def build_argparser() -> argparse.ArgumentParser:
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


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run(argv: Optional[list[str]] = None) -> int:
    parser = build_argparser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0

    try:
        lexicon = _load_lexicon(args)
        rules = _load_rules()
    except (LexfError, OSError, ValueError) as exc:
        print(f"lexigraph: {exc}", file=sys.stderr)
        return DATA_ERROR

    try:
        return _dispatch(args, lexicon, rules)
    except (LexfError, OSError, ValueError) as exc:
        print(f"lexigraph: {exc}", file=sys.stderr)
        return DATA_ERROR


def _dispatch(args, lexicon: Lexicon, rules) -> int:
    mode_name = getattr(args, "mode", "optimistic")
    mode = "resolved-only" if mode_name == "resolved" else "optimistic"

    if args.command == "ingest":
        report = corpus_mod.verify_fixture(lexicon)
        _emit(args, report.to_text())
        if not report.ok:
            print("lexigraph: manifest mismatch", file=sys.stderr)
            return DATA_ERROR
        return 0

    if args.command == "graph":
        from .defgraph import (
            components_tsv,
            strongly_connected_components,
            to_dot,
        )
        graph = _resolved_graph(lexicon)
        if args.format == "tsv":
            comps = strongly_connected_components(graph, mode)
            _emit(args, components_tsv(comps))
        else:
            _emit(args, to_dot(graph))
        return 0

    if args.command == "scc":
        from .defgraph import components_tsv, strongly_connected_components
        graph = _resolved_graph(lexicon)
        comps = strongly_connected_components(graph, mode)
        _emit(args, components_tsv(comps))
        return 0

    if args.command == "primitives":
        from .defgraph import primitive_candidates
        graph = _resolved_graph(lexicon)
        report = primitive_candidates(graph)
        lines = []
        for comp in report.candidates:
            lines.append("candidate\t" + "\t".join(n.render() for n in comp))
        for leaf in report.undefined_leaves:
            lines.append(f"undefined-leaf\t{leaf.render()}")
        _emit(args, "\n".join(lines) + "\n")
        return 0

    if args.command == "autoresolve":
        from .parser import autoresolve_all
        frames = _build_frames(lexicon, rules)
        proposals = autoresolve_all(lexicon, frames, rules)
        lines = []
        for p in proposals:
            if p.unique is not None:
                lines.append(f"R|{p.using.render()}|{p.genus_word}|"
                             f"{p.unique.render()}")
            else:
                cands = ",".join(k.render() for k in p.candidates)
                lines.append(f"# {p.using.render()}: {p.rationale}: {cands}")
        _emit(args, "\n".join(lines) + "\n")
        return 0

    if args.command == "reduce":
        from .reduction import reduce_fixpoint
        graph = _resolved_graph(lexicon)
        frames = _build_frames(lexicon, rules)
        report = reduce_fixpoint(lexicon, graph, frames, rules)
        if args.format == "tsv":
            _emit(args, report.to_tsv())
        else:
            _emit(args, report.to_tsv() + "\n" + report.summary())
        return 0

    if args.command == "frames":
        from .frames import frame_to_text
        frames = _build_frames(lexicon, rules)
        keys = [k for k in sorted(frames, key=lambda k: k.sort_key())
                if k.headword == args.word
                and (args.label is None or k.label == args.label)]
        if not keys:
            print(f"lexigraph: no frames for {args.word!r}", file=sys.stderr)
            return DATA_ERROR
        _emit(args, "\n".join(frame_to_text(frames[k]) for k in keys))
        return 0

    if args.command == "ssn":
        from .ssn import to_dot, to_text
        frames = _build_frames(lexicon, rules)
        ssns = _NetworkCache(lexicon, frames)
        if args.word not in ssns:
            print(f"lexigraph: no senses for {args.word!r}", file=sys.stderr)
            return DATA_ERROR
        net = ssns[args.word]
        _emit(args, to_dot(net) if args.format == "dot" else to_text(net))
        return 0

    if args.command in ("parse", "discourse"):
        from .parser import ChunkError, NoNetworkError
        try:
            return _parse(args, lexicon, rules)
        except (ChunkError, NoNetworkError) as exc:
            print(f"lexigraph: {exc}", file=sys.stderr)
            return DATA_ERROR

    print(f"lexigraph: unknown command {args.command!r}", file=sys.stderr)
    return USAGE_ERROR


def _parse(args, lexicon: Lexicon, rules) -> int:
    """The parse and discourse commands."""
    from .parser import (
        SentenceContext,
        VarAllocator,
        chunk_sentence,
        disambiguate,
        parse_discourse,
        results_to_tsv,
    )
    frames = _build_frames(lexicon, rules)
    ssns = _NetworkCache(lexicon, frames)

    if args.command == "parse":
        chunks = chunk_sentence(args.text, lexicon)
        ctx = SentenceContext(chunks)
        verb = ctx.verb
        if verb is None or verb.lemma not in ssns:
            print("lexigraph: no known verb in the sentence", file=sys.stderr)
            return DATA_ERROR
        result = disambiguate(verb.text, chunks, ssns[verb.lemma], frames,
                              rules, lexicon, VarAllocator())
        if args.format == "tsv":
            _emit(args, results_to_tsv([result]))
        else:
            _emit(args, result.to_text())
        if args.strict and (len(result.candidates) > 1 or result.open_questions):
            return AMBIGUITY_REMAINING
        return 0

    with open(args.file, encoding="utf-8") as fh:
        sentences = [ln.strip() for ln in fh if ln.strip()]
    results, state = parse_discourse(sentences, lexicon, ssns, frames, rules)
    if args.format == "tsv":
        _emit(args, results_to_tsv(results))
    else:
        parts = [r.to_text() for r in results]
        if state.bindings:
            parts.append("bindings:\n" + "\n".join(
                f"  ?{var} = {value}" for var, value in state.bindings) + "\n")
        _emit(args, "\n".join(parts))
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

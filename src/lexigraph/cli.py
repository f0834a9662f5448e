"""Command-line surface. Exit codes: 0 success, 1 usage error, 2 data
error, 3 ambiguity remaining under parse --strict. Diagnostics go to the
error stream, data to the output stream; text reports are stable-ordered."""
from __future__ import annotations

import argparse
import os
import sys
from functools import cached_property
from typing import Optional

from . import corpus as corpus_mod
from .lexicon import Lexicon, LexfError, merge_lexicons, parse_lexf

USAGE_ERROR = 1
DATA_ERROR = 2
AMBIGUITY_REMAINING = 3


def _load_lexicon(args) -> Lexicon:
    """The ``--lexicon`` files, else the bundled corpus, with the
    ``--resolutions`` file on top."""
    paths = args.lexicon + ([args.resolutions] if args.resolutions else [])
    if not paths:
        return corpus_mod.load_corpus()
    parts = [] if args.lexicon else [corpus_mod.load_corpus()]
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            parts.append(parse_lexf(fh.read()))
    return merge_lexicons(*parts)


class Analysis:
    """One run's stages over one lexicon.  Each stage is computed on first
    use and kept, and imports its module only then, so a command loads only
    what it reads: ingest, graph, scc and primitives never pay for the rule
    table, frames, networks or the parser."""

    def __init__(self, lexicon: Lexicon):
        self.lexicon = lexicon

    @cached_property
    def rules(self):
        override = os.environ.get("LEXIGRAPH_RULES")
        if override:
            from .prep_rules import load_rule_table
            with open(override, encoding="utf-8") as fh:
                return load_rule_table(fh.read())
        return corpus_mod.load_rules()

    @cached_property
    def graph(self):
        from .defgraph import apply_resolutions, build_graph
        return apply_resolutions(build_graph(self.lexicon),
                                 self.lexicon.resolutions)

    @cached_property
    def frames(self):
        """The frames of every sense, once the rule table loads (and then
        the lexicon checks its resolution records)."""
        from .frames import build_frames
        return build_frames(self.lexicon, self.rules)

    @cached_property
    def networks(self):
        from .ssn import NetworkCache
        return NetworkCache(self.lexicon, self.frames)


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
        return _dispatch(args, Analysis(_load_lexicon(args)))
    except (LexfError, OSError, ValueError) as exc:
        print(f"lexigraph: {exc}", file=sys.stderr)
        return DATA_ERROR


def _dispatch(args, a: Analysis) -> int:
    if args.command == "ingest":
        a.lexicon._resolved  # its R records must pass the graph's checks
        from .manifest import verify_fixture
        report = verify_fixture(a.lexicon)
        _emit(args, report.to_text())
        if not report.ok:
            print("lexigraph: manifest mismatch", file=sys.stderr)
            return DATA_ERROR
        return 0

    if args.command in ("graph", "scc"):
        from .defgraph import (
            components_tsv,
            strongly_connected_components,
            to_dot,
        )
        if args.command == "graph" and args.format != "tsv":
            _emit(args, to_dot(a.graph))
        else:
            _emit(args, components_tsv(strongly_connected_components(
                a.graph,
                "resolved-only" if args.mode == "resolved" else "optimistic")))
        return 0

    if args.command == "primitives":
        from .defgraph import primitive_candidates
        _emit(args, primitive_candidates(a.graph).to_tsv())
        return 0

    if args.command == "autoresolve":
        from .autoresolve import autoresolve_all
        proposals = autoresolve_all(a.lexicon, a.frames, a.rules)
        _emit(args, "\n".join(p.render() for p in proposals) + "\n")
        return 0

    if args.command == "reduce":
        from .reduction import reduce_fixpoint
        a.lexicon._resolved  # the R records are checked before the rule table
        report = reduce_fixpoint(a.lexicon, None, a.frames, a.rules)
        _emit(args, report.to_tsv() if args.format == "tsv"
              else report.to_tsv() + "\n" + report.summary())
        return 0

    if args.command == "frames":
        from .frames import frame_to_text
        frames = a.frames
        keys = [k for k in a.lexicon._by_headword.get(args.word, ())
                if args.label is None or k.label == args.label]
        if not keys:
            label = "" if args.label is None else f" with label {args.label!r}"
            print(f"lexigraph: no frames for {args.word!r}{label}",
                  file=sys.stderr)
            return DATA_ERROR
        _emit(args, "\n".join(frame_to_text(frames[k]) for k in keys))
        return 0

    if args.command == "ssn":
        from .ssn import to_dot, to_text
        if args.word not in a.networks:
            print(f"lexigraph: no senses for {args.word!r}", file=sys.stderr)
            return DATA_ERROR
        net = a.networks[args.word]
        _emit(args, to_dot(net) if args.format == "dot" else to_text(net))
        return 0

    # parse or discourse, the last commands the argument parser admits
    from .parser import run_command
    return AMBIGUITY_REMAINING if run_command(args, a, _emit) else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

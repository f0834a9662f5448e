"""Command-line surface. Exit codes: 0 success, 1 usage error, 2 data
error, 3 ambiguity remaining under parse --strict. Diagnostics go to the
error stream, data to the output stream; text reports are stable-ordered."""
from __future__ import annotations

import sys
from types import SimpleNamespace

from .corpus import Analysis

USAGE_ERROR = 1
DATA_ERROR = 2
AMBIGUITY_REMAINING = 3


# the command table, the CLI's one grammar.  An option is its flag and the
# keyword arguments of argparse's add_argument; _read_argv reads their
# action ("append" or "store_true"), choices, default and required as
# argparse does, and usage.build_argparser hands them to argparse.  The
# output options are accepted before or after the command, the input
# options before it only; a command is its help and its own options.
OUTPUT_OPTIONS = {"--format": {"choices": ("dot", "tsv", "text"),
                               "default": "text"},
                  "--output": {"help": "output path (default stdout)"}}
INPUT_OPTIONS = {
    "--lexicon": {"action": "append", "default": [],
                  "help": "LEXF file (repeatable); bundled corpus if omitted"},
    "--resolutions": {"help": "extra LEXF file of R records"}}
_MODE = {"--mode": {"choices": ("optimistic", "resolved"),
                    "default": "optimistic"}}
COMMANDS = {
    "ingest": ("validate input and check manifest counts", {}),
    "graph": ("export the definition graph", _MODE),
    "scc": ("strongly connected components", _MODE),
    "primitives": ("primitive candidates and undefined leaves", {}),
    "autoresolve": ("propose resolution records", {}),
    "reduce": ("non-primitive reduction report", {}),
    "frames": ("dump a sense frame",
               {"--word": {"required": True}, "--label": {}}),
    "ssn": ("export a sense selection network", {"--word": {"required": True}}),
    "parse": ("disambiguate one sentence", {
        "--text": {"required": True},
        "--strict": {"action": "store_true", "default": False,
                     "help": "exit 3 when ambiguity remains"}}),
    "discourse": ("parse sentences from a file", {
        "--file": {"required": True, "help": "one sentence per line"}}),
}


def _read_argv(argv):
    """The namespace argparse gives a well-formed ``argv``, read from the
    command table: the options before the command, the command, then its
    own options and the output options.  None for any token the table does
    not name exactly (help, an abbreviation, ``--opt=value``, ``--``, a
    value that begins with "-", a choice not listed, a second command) or
    a required option left out; argparse then reads or reports it."""
    options = {**INPUT_OPTIONS, **OUTPUT_OPTIONS, **COMMANDS}
    command = None
    given = {}
    for token in (tokens := iter(argv)):
        spec = options.get(token)
        if spec is None:
            return None
        if token in COMMANDS:
            command = token
            options = {**OUTPUT_OPTIONS, **spec[1]}
        elif spec.get("action") == "store_true":
            given[token] = True
        else:
            value = next(tokens, "-")  # a missing value is declined as "-"
            if (value.startswith("-")
                    or value not in spec.get("choices", (value,))):
                return None
            given[token] = ([*given.get(token, ()), value]  # "append"
                            if spec.get("action") else value)
    if not command or any(flag not in given for flag in options
                          if options[flag].get("required")):
        return None
    return SimpleNamespace(command=command, **{
        flag[2:]: given.get(flag, spec.get("default"))
        for flag, spec in {**INPUT_OPTIONS, **options}.items()})


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run(argv: list[str] | None = None) -> int:
    args = _read_argv(sys.argv[1:] if argv is None else argv)
    if args is None:
        from .usage import build_argparser
        try:
            args = build_argparser(INPUT_OPTIONS, OUTPUT_OPTIONS,
                                   COMMANDS).parse_args(argv)
        except SystemExit as exc:
            return USAGE_ERROR if exc.code else 0

    try:
        return _dispatch(args, Analysis(args.lexicon, args.resolutions))
    except (OSError, ValueError) as exc:
        print(f"lexigraph: {exc}", file=sys.stderr)
        return DATA_ERROR


def _dispatch(args, a: Analysis) -> int:
    command = args.command
    lexicon = a.lexicon
    ambiguous = False
    if command == "ingest":
        from .manifest import verify_fixture
        report = verify_fixture(lexicon)
        _emit(args, report.to_text())
        if not report.ok:
            raise ValueError("manifest mismatch")
        return 0

    if command in ("graph", "scc"):
        from .defgraph import (
            components_tsv,
            strongly_connected_components,
            to_dot,
        )
        text = (to_dot(a.graph) if command == "graph" and args.format != "tsv"
                else components_tsv(strongly_connected_components(
                    a.graph, "resolved-only" if args.mode == "resolved"
                    else "optimistic")))
    elif command == "primitives":
        from .defgraph import primitive_candidates
        text = primitive_candidates(a.graph).to_tsv()
    elif command == "autoresolve":
        from .autoresolve import autoresolve_all
        text = "\n".join(p.render() for p in autoresolve_all(
            lexicon, a.frames, a.rules)) + "\n"
    elif command == "reduce":
        from .reduction import reduce_fixpoint
        report = reduce_fixpoint(lexicon, None, a.frames, a.rules)
        text = report.to_tsv() + ("" if args.format == "tsv"
                                  else "\n" + report.summary())
    elif command == "frames":
        from .frames import frame_to_text
        frames = a.frames
        keys = [k for k in lexicon._by_headword.get(args.word, ())
                if args.label is None or k.label == args.label]
        if not keys:
            label = "" if args.label is None else f" with label {args.label!r}"
            raise ValueError(f"no frames for {args.word!r}{label}")
        text = "\n".join(frame_to_text(frames[k]) for k in keys)
    elif command == "ssn":
        from .ssn import to_dot, to_text
        if args.word not in a.networks:
            raise ValueError(f"no senses for {args.word!r}")
        net = a.networks[args.word]
        text = to_dot(net) if args.format == "dot" else to_text(net)
    else:  # parse or discourse, the last commands the table admits
        from .parser import run_command
        text, ambiguous = run_command(args, a)
    _emit(args, text)
    return AMBIGUITY_REMAINING if ambiguous else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

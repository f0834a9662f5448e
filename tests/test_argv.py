"""The CLI reads argv from its command table: ``cli._read_argv`` gives the
namespace that the hand-written argparse parser of ``support`` gives, or
declines the argv; a declined argv goes to the parser that ``usage`` builds
from the same table, which prints the same help and the same usage errors,
with the same exit codes, as the hand-written one.  Help and errors are
compared in-process against that reference, not against golden text, so
the checks hold on every Python whose argparse words them its own way."""
from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import reference_build_argparser
from test_golden_cli import golden_commands
from lexigraph import cli
from lexigraph.usage import build_argparser

NAMES = ("ingest", "graph", "scc", "primitives", "autoresolve", "reduce",
         "frames", "ssn", "parse", "discourse")
INPUT_FLAGS = ("--lexicon", "--resolutions")
OUTPUT_FLAGS = ("--format", "--output")
# each command's own options, the required one first
OWN_FLAGS = {"graph": ("--mode",), "scc": ("--mode",),
             "frames": ("--word", "--label"), "ssn": ("--word",),
             "parse": ("--text", "--strict"), "discourse": ("--file",)}
REQUIRED = ("--word", "--text", "--file")
FLAGS = INPUT_FLAGS + OUTPUT_FLAGS + ("--mode", "--word", "--label",
                                      "--text", "--strict", "--file")
ABBREVIATIONS = ("--lex", "--res", "--form", "--fo", "--f", "--out", "--mo",
                 "--w", "--lab", "--te", "--str", "--fi")
EQUALS = ("--format=tsv", "--format=xml", "--word=change", "--lexicon=a.lexf",
          "--mode=resolved", "--strict=1", "--text=", "--output=out.txt")
HELP_AND_ENDS = ("-h", "--help", "--")
VALUES = ("dot", "tsv", "text", "optimistic", "resolved", "xml", "change",
          "The wind changed", "a.lexf", "1e", "", "graph")
DASH_VALUES = ("-", "-1", "-x", "-h", "-1e", "--", "-- x", "--word")
TOKENS = (NAMES + FLAGS + ABBREVIATIONS + EQUALS + HELP_AND_ENDS + VALUES
          + DASH_VALUES)


# a value drawn for a flag: mostly one the flag may take
_VALUE = st.one_of(st.sampled_from(VALUES), st.sampled_from(VALUES),
                   st.sampled_from(DASH_VALUES))


def _options(draw, flags) -> list[str]:
    tokens = []
    for flag in draw(st.lists(st.sampled_from(flags), max_size=3)):
        tokens.append(flag)
        if flag != "--strict":
            tokens.append(draw(_VALUE))
    return tokens


@st.composite
def shaped_argvs(draw) -> list[str]:
    """Options before a command, the command, its required option or not,
    and its options, some of them another command's; then up to two
    tokens of any kind put in, and the last token left out or not."""
    name = draw(st.sampled_from(NAMES))
    own = OWN_FLAGS.get(name, ())
    required = [token for flag in own[:1] if flag in REQUIRED
                and draw(st.integers(0, 3)) > 0
                for token in (flag, draw(st.sampled_from(VALUES)))]
    argv = [*_options(draw, INPUT_FLAGS + OUTPUT_FLAGS), name, *required,
            *_options(draw, own + OUTPUT_FLAGS + draw(
                st.sampled_from([(), (), FLAGS])))]
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(TOKENS)))
    return argv[:len(argv) - draw(st.sampled_from((0, 0, 0, 1)))]


ARGVS = st.one_of(shaped_argvs(),
                  st.lists(st.sampled_from(TOKENS), max_size=6))


def outcome(parser, argv: list[str]) -> tuple:
    """(the namespace's vars or None, the exit code or None, stdout,
    stderr) of ``parser.parse_args(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            values, code = vars(parser.parse_args(argv)), None
        except SystemExit as exc:
            values, code = None, exc.code
    return values, code, out.getvalue(), err.getvalue()


def run_outcome(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def table_argparser():
    return build_argparser(cli.INPUT_OPTIONS, cli.OUTPUT_OPTIONS,
                           cli.COMMANDS)


@settings(max_examples=400, deadline=None)
@given(ARGVS)
def test_reader_and_table_parser_agree_with_the_reference(argv):
    expected = outcome(reference_build_argparser(), argv)
    assert outcome(table_argparser(), argv) == expected
    values, code, out, err = expected
    read = cli._read_argv(argv)
    if code is None:
        assert read is None or vars(read) == values
    else:
        assert read is None
        # argparse prints and exits before any command runs
        assert run_outcome(argv) == (cli.USAGE_ERROR if code else 0, out, err)


def _documented_argvs() -> list[list[str]]:
    return [argv for _, _, argv in golden_commands()] + [
        ["--lexicon", "a.lexf", "--lexicon", "b.lexf", "--resolutions",
         "r.lexf", "graph", "--output", "g.dot", "--format", "tsv"],
        ["--format", "tsv", "frames", "--label", "1e", "--word", "change",
         "--word", "turn"],
        ["scc", "--mode", "resolved", "--mode", "optimistic"],
        ["parse", "--strict", "--text", "", "--strict"]]


@pytest.mark.parametrize("argv", _documented_argvs(), ids=" ".join)
def test_documented_commands_are_read_from_the_table(argv):
    """No command the documentation shows pays for argparse."""
    read = cli._read_argv(argv)
    assert read is not None
    assert vars(read) == outcome(reference_build_argparser(), argv)[0]


@pytest.mark.parametrize("argv", [["--help"], ["parse", "--help"]],
                         ids=" ".join)
def test_help_is_the_reference_help(argv):
    _, code, out, err = outcome(reference_build_argparser(), argv)
    assert code == 0 and out.startswith("usage: lexigraph") and not err
    assert run_outcome(argv) == (0, out, "")


@pytest.mark.parametrize("argv", [["parse", "--nonsense", "x"], [],
                                  ["--format", "xml", "graph"], ["ssn"]],
                         ids=lambda argv: " ".join(argv) or "empty")
def test_usage_error_is_the_reference_error(argv):
    _, code, out, err = outcome(reference_build_argparser(), argv)
    assert code == 2 and not out and " error: " in err
    assert run_outcome(argv) == (cli.USAGE_ERROR, "", err)


@pytest.mark.parametrize("argv", [
    ["graph", "--lexicon", "a.lexf"],     # an input option after the command
    ["--mode", "resolved", "graph"],      # a command's option before it
    ["ingest", "--strict"],               # another command's option
    ["graph", "scc"],                     # a second command
    ["frames", "--word"],                 # a missing value
    ["ssn", "--word", "-x"],              # a value that begins with "-"
    ["graph", "--mode", "both"],          # a choice not listed
    ["--format", "xml", "graph"],
    ["parse", "--text"],
    ["discourse", "story.txt"],           # a stray positional
    ["-h", "graph"],
], ids=" ".join)
def test_reader_declines_what_the_reference_rejects(argv):
    _, code, out, err = outcome(reference_build_argparser(), argv)
    assert code is not None
    assert cli._read_argv(argv) is None
    assert run_outcome(argv) == (cli.USAGE_ERROR if code else 0, out, err)


@pytest.mark.parametrize("argv", [
    ["--form", "tsv", "graph"],           # an abbreviation
    ["--format=tsv", "graph"],            # an "=" form
    ["graph", "--mode=resolved"],
    ["parse", "--text", "-5"],            # a value that begins with "-"
    ["parse", "--text", "-- x"],
    ["ingest", "--output", "-"],
], ids=" ".join)
def test_argparse_reads_what_the_reader_declines(argv):
    values, code, _, _ = outcome(reference_build_argparser(), argv)
    assert code is None
    assert cli._read_argv(argv) is None
    assert outcome(table_argparser(), argv)[0] == values


def test_a_declined_argv_still_runs(capsys):
    assert cli.run(["--form", "tsv", "graph"]) == 0
    declined = capsys.readouterr()
    assert cli.run(["--format", "tsv", "graph"]) == 0
    assert capsys.readouterr() == declined

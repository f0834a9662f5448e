"""Reachability: the functions of ``src/lexigraph`` that nothing lexigraph
is run for calls.  Under ``sys.setprofile``, a fresh interpreter runs
every row of ``golden/commands.tsv`` in process through ``cli.run`` (in
``golden/``, where story.txt is), perfbench's ``analyse`` and
``summarise`` on the generated x4 lexicon of seed 7, and 60 sentences of
its ``sentence_stream`` through ``parse_sentence``.  The functions it
never calls must be those of ``NEVER_CALLED``, each with the reason it
stays: noise, a real path the bundled inputs do not reach, or a name
that perfbench or a planned reader reads.  A library form that only
tests call fails this test.

The interpreter is a fresh one, so that nothing an earlier test did (a
``functools.cache`` filled, a module imported, a name a module
``__getattr__`` has resolved) hides a call.  A function is named by its
module and its qualified name in the source's AST, not by its line:
Python 3.10 has no ``co_qualname``.

    PYTHONPATH=src python tests/test_reachability.py

prints the functions never called, one ``module<TAB>name`` a line."""
from __future__ import annotations

import ast
import contextlib
import importlib
import io
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src"

_NOISE_DUNDER = "noise: a dunder method"
_NOISE_IMPORT = "noise: runs at import, before the trace starts"
_NOISE_MAKE = ("noise: namedtuple's _replace calls it, to build a new value "
               "through __new__")

NEVER_CALLED = {
    ("__init__", "__dir__"): _NOISE_DUNDER,
    ("__init__", "__getattr__"): _NOISE_DUNDER,
    ("cli", "main"): "real path: the console script, which calls cli.run",
    ("lexicon", "LexfError.__init__"): "noise: an error on a bad LEXF line",
    ("lexicon", "PartOfSpeech.__init__"): _NOISE_IMPORT,
    ("lexicon", "Lexicon._make"): _NOISE_MAKE,
    ("lexicon", "Phrase._make"): _NOISE_MAKE,
    ("lexicon", "Sense._make"): _NOISE_MAKE,
    ("lexicon", "SenseLabel.__str__"): _NOISE_DUNDER,
    ("lexicon", "SenseLabel._make"): _NOISE_MAKE,
    ("lexicon", "_LineBlind.__eq__"): _NOISE_DUNDER,
    ("lexicon", "_LineBlind.__hash__"): _NOISE_DUNDER,
    ("lexicon", "_LineBlind.__ne__"): _NOISE_DUNDER,
    ("reduction", "run_rule"): (
        "read by the planned explain --sense, to re-run the rule behind a "
        "sense's evidence (ROADMAP.md)"),
    ("ssn", "SSN.questions"): "read by perfbench, for ssn.questions",
    ("ssn", "_collapse"): (
        "real path: sibling senses with identical canonical frames"),
    ("usage", "build_argparser"): "real path: --help and usage errors",
}
KINDS = ("noise: ", "real path: ", "read by ")


def defined_functions() -> dict[tuple[str, int], tuple[str, str]]:
    """(file, first line) -> (module, qualified name) of every function
    of ``src/lexigraph``.  A decorated function's first line is its first
    decorator's, as in its code's ``co_firstlineno``."""
    found = {}
    for path in sorted((SRC / "lexigraph").glob("*.py")):
        def visit(node, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    found[str(path), first] = (path.stem,
                                               prefix + child.name)
                    visit(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)
        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def never_called() -> set[tuple[str, str]]:
    """The runs the module docstring names, traced in this process; the
    (module, qualified name) of each function of ``src/lexigraph`` that
    they never call."""
    from test_golden_cli import GOLDEN, golden_commands
    from lexigraph import cli
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import run as bench  # as perfbench/test_perfbench.py imports it
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    L = SimpleNamespace(**{m: importlib.import_module("lexigraph." + m)
                           for m in bench.MODULES})
    gen = bench.lexgen.generate(4, 7)

    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    cwd = os.getcwd()
    sys.setprofile(profile)
    try:
        os.chdir(GOLDEN)
        for stem, code, argv in golden_commands():
            with contextlib.redirect_stdout(io.StringIO()):
                got = cli.run(argv)
            if got != code:  # not an assert: -O would skip the call
                raise AssertionError(f"{stem}: exit {got}, not {code}")
        os.chdir(cwd)
        a = bench.analyse(L, gen.texts(), L.corpus.load_rules(), bench.NULL)
        bench.summarise(a)
        stream = bench.sentence_stream(gen, random.Random(7))
        for _ in range(60):
            text, _ = next(stream)
            bench.parse_sentence(L, a, text, bench.NULL)
    finally:
        sys.setprofile(None)
        os.chdir(cwd)
    return {name for where, name in defined_functions().items()
            if where not in called}


def test_the_never_called_functions_are_the_listed_ones():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, __file__], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    found = {tuple(line.split("\t")) for line in proc.stdout.splitlines()}
    assert found == set(NEVER_CALLED)


def test_each_listed_function_says_why_it_stays():
    assert all(reason.startswith(KINDS) for reason in NEVER_CALLED.values())


if __name__ == "__main__":
    for module, name in sorted(never_called()):
        print(f"{module}\t{name}")

"""Import footprint: ``import lexigraph`` loads no submodule, every public
name still resolves, and each CLI command loads only the modules it uses
and none of the slow standard modules below.  The child interpreters run
with ``-S``: ``site`` can load some of them by itself (a ``.pth`` file of
an installed package, such as certifi's, imports ``importlib.resources``)."""
from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src"
# what every command loads: the CLI, the bundled corpus and the lexicon
BASE = {"lexigraph", "cli", "corpus", "lexicon"}
# what every command that derives frames loads
FRAMES = {"frames", "prep_rules"}

# standard modules a command must not load: dataclasses costs about 10 ms
# at start-up with the inspect, ast, dis and tokenize it imports,
# importlib.resources loads pathlib, zipfile and tempfile, argparse
# loads gettext, whose first message lookup loads locale (the CLI reads
# argv from its command table and builds argparse's parser only for help
# and usage errors), and typing costs about 4 ms (value types are
# collections.namedtuple classes, and annotation-only names are imported
# under a TYPE_CHECKING guard)
SLOW = ("dataclasses", "inspect", "importlib.resources", "pathlib",
        "zipfile", "tempfile", "argparse", "gettext", "locale", "typing")

REPORT = f"""\
import contextlib, io, sys
from lexigraph.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    code = run(sys.argv[1:])
print(code, *sorted(m.partition(".")[2] or m for m in sys.modules
                    if m == "lexigraph" or m.startswith("lexigraph.")),
      *[m for m in {SLOW!r} if m in sys.modules])
"""


def loaded_modules(code: str, *argv: str) -> tuple[str, set[str]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-S", "-c", code, *argv], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=120).stdout.split()
    return out[0], set(out[1:])


# each command, and the modules it loads beyond BASE: only ingest loads
# the manifest check, only the commands that derive frames load the rule
# table, autoresolve loads neither the sentence parser nor the networks,
# and parse and discourse do not load autoresolve
COMMANDS = [
    (["ingest"], {"manifest"}),
    (["graph"], {"defgraph"}),
    (["scc"], {"defgraph"}),
    (["primitives"], {"defgraph"}),
    (["frames", "--word", "change"], FRAMES),
    (["ssn", "--word", "change"], FRAMES | {"ssn"}),
    (["reduce"], FRAMES | {"reduction"}),
    (["autoresolve"], FRAMES | {"autoresolve"}),
    (["parse", "--text", "The milk changed into curd"],
     FRAMES | {"ssn", "parser"}),
]


def _argv_id(value):
    return " ".join(value) if isinstance(value, list) else None


@pytest.mark.parametrize("argv,extra", COMMANDS, ids=_argv_id)
def test_command_loads_only_what_it_uses(argv, extra):
    code, modules = loaded_modules(REPORT, *argv)
    assert code == "0"
    assert modules == BASE | extra


def test_discourse_loads_only_what_it_uses(tmp_path):
    doc = tmp_path / "story.txt"
    doc.write_text("The milk changed.\n", encoding="utf-8")
    code, modules = loaded_modules(REPORT, "discourse", "--file", str(doc))
    assert code == "0"
    assert modules == BASE | FRAMES | {"ssn", "parser"}


RUN_AS_MAIN = """\
import atexit, contextlib, io, runpy
atexit.register(lambda: print(0, *sorted(
    m for m in __import__("sys").modules if m.startswith("lexigraph"))))
with contextlib.redirect_stdout(io.StringIO()):
    runpy.run_module("lexigraph.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("argv,code", [(["--help"], "0"),
                                       (["graph", "--mode", "both"], "1")],
                         ids=_argv_id)
def test_help_and_usage_errors_build_the_argparser(argv, code):
    """Help and a usage error load ``usage``, the parser built from the
    command table, and argparse with it."""
    exit_code, modules = loaded_modules(REPORT, *argv)
    assert exit_code == code
    assert modules - set(SLOW) == BASE | {"usage"}
    assert "argparse" in modules


@pytest.mark.parametrize("command", ["parse", "discourse"])
def test_the_running_cli_is_not_imported_again(tmp_path, command):
    """Run as ``python -m lexigraph.cli`` runs it, as perfbench's CLI_MAIN
    does too, the CLI is ``__main__``: importing ``lexigraph.cli`` would
    compile and execute it a second time."""
    doc = tmp_path / "story.txt"
    doc.write_text("The milk changed.\n", encoding="utf-8")
    argv = (["parse", "--text", "The milk changed into curd"]
            if command == "parse" else ["discourse", "--file", str(doc)])
    code, modules = loaded_modules(RUN_AS_MAIN, *argv)
    assert code == "0"
    assert "lexigraph.parser" in modules
    assert "lexigraph.cli" not in modules


def test_bare_start_loads_no_slow_module():
    """So the checks above see what lexigraph loads, not what ``site``
    or the interpreter loads."""
    _, modules = loaded_modules(
        f"import sys; print(0, *[m for m in {SLOW!r} if m in sys.modules])")
    assert modules == set()


def test_package_import_loads_no_submodule():
    _, modules = loaded_modules(
        "import sys, lexigraph; print(0, *sorted(m for m in sys.modules "
        "if m.startswith('lexigraph')))")
    assert modules == {"lexigraph"}


def test_every_public_name_resolves():
    lexigraph = importlib.import_module("lexigraph")
    for name in lexigraph.__all__:
        value = getattr(lexigraph, name)
        assert getattr(value, "__name__", name) == name
    assert set(lexigraph.__all__) <= set(dir(lexigraph))
    with pytest.raises(AttributeError):
        lexigraph.no_such_name


# the AST nodes of the modules each command loads: where no bytecode is
# cached, a call compiles every one of them (about 1.7 us a node in a
# fresh process on a 2-vCPU VM); discourse loads the modules parse does.
# The count is the same on Python 3.10 to 3.13; a change may lower a
# ceiling, not raise it.  README states each command's count and each
# module's, as the source has them.
AST_CEILINGS = {"ingest": 7891, "graph": 9420, "scc": 9420,
                "primitives": 9420, "frames": 11313, "ssn": 15040,
                "reduce": 13094, "autoresolve": 12437, "parse": 19472}


def _ast_nodes(module: str) -> int:
    name = "__init__" if module == "lexigraph" else module
    source = (SRC / "lexigraph" / f"{name}.py").read_text(encoding="utf-8")
    return sum(1 for _ in ast.walk(ast.parse(source)))


@pytest.mark.parametrize("argv,extra", COMMANDS, ids=_argv_id)
def test_command_compiles_at_most_its_ceiling(argv, extra):
    nodes = sum(_ast_nodes(module) for module in BASE | extra)
    assert nodes <= AST_CEILINGS[argv[0]]


README = Path(__file__).parents[1] / "README.md"


def readme_ast_counts() -> tuple[dict[str, tuple[set[str], int]],
                                 dict[str, int]]:
    """README's command table, each command with the modules it loads
    beyond BASE and their AST nodes, and its AST nodes by module."""
    text = README.read_text(encoding="utf-8")
    table = text.partition("| command | modules beyond")[2]
    commands = {}
    for row in table.splitlines()[2:]:
        if not row.startswith("|"):
            break
        names, modules, nodes = row.strip("|").split("|")
        for name in re.findall(r"`(\w+)`", names):
            commands[name] = (set(re.findall(r"`(\w+)`", modules)),
                              int(nodes.replace(",", "")))
    by_module = text.partition("By module: ")[2].partition(" set.")[0]
    return commands, {name: int(nodes.replace(",", "")) for name, nodes
                      in re.findall(r"`(\w+)`\s+\(?([0-9,]+)", by_module)}


def test_readme_states_the_ast_nodes_of_the_source():
    """README's table holds every command, the modules it loads and the
    nodes they compile, and its by-module counts each module a command
    loads, and ``usage``; a count must match the source."""
    commands, by_module = readme_ast_counts()
    loads = {argv[0]: extra for argv, extra in COMMANDS}
    # what test_discourse_loads_only_what_it_uses pins
    loads["discourse"] = loads["parse"]
    assert commands == {
        name: (extra, sum(_ast_nodes(module) for module in BASE | extra))
        for name, extra in loads.items()}
    modules = set().union(BASE, *loads.values(), {"usage"})
    assert by_module == {
        "__init__" if module == "lexigraph" else module: _ast_nodes(module)
        for module in modules}


def _typing_imports(nodes) -> list[int]:
    """The lines of the imports of typing among ``nodes`` and under them,
    outside an ``if TYPE_CHECKING:`` block."""
    found = []
    for node in nodes:
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            found += _typing_imports(node.orelse)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.Import)
                     else [node.module] if node.level == 0 else [])
            if any(name.partition(".")[0] == "typing" for name in names):
                found.append(node.lineno)
        else:
            found += _typing_imports(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("path", sorted((SRC / "lexigraph").glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_imports_typing_at_run_time(path):
    """Only type checkers, for which ``TYPE_CHECKING`` is true, read an
    import of typing; a module sets the name to False itself, since ``from
    typing import TYPE_CHECKING`` is an import of typing."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _typing_imports(tree.body) == []


def _cli_imports(tree: ast.Module) -> list[int]:
    """The lines of the imports of ``lexigraph.cli`` in a module of the
    package, wherever they stand, under a ``TYPE_CHECKING`` guard too."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            package = "lexigraph." if node.level else ""
            base = (package + (node.module or "")).rstrip(".")
            names = [base, *(f"{base}.{alias.name}" for alias in node.names)]
        else:
            continue
        if "lexigraph.cli" in names:
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("source,lines", [
    ("from .cli import run", [1]),
    ("from . import cli, corpus", [1]),
    ("import lexigraph.cli as c", [1]),
    ("from lexigraph import cli", [1]),
    ("TYPE_CHECKING = False\nif TYPE_CHECKING:\n    from .cli import A", [3]),
    ("def f():\n    from .cli import run", [2]),
    ("from .corpus import Analysis\nimport lexigraph.client", []),
])
def test_cli_imports_are_found(source, lines):
    assert _cli_imports(ast.parse(source)) == lines


@pytest.mark.parametrize(
    "path", [path for path in sorted((SRC / "lexigraph").glob("*.py"))
             if path.name != "cli.py"], ids=lambda path: path.name)
def test_no_module_but_the_cli_imports_it(path):
    """The library does not depend on its command line: what a command
    reads (``corpus.Analysis`` among it) lives below ``cli``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _cli_imports(tree) == []


# perfbench/run.py reads lexigraph through ``L``, one attribute per module
# of its MODULES: a name moved out of one of them must still resolve there
PERFBENCH = Path(__file__).parents[1] / "perfbench" / "run.py"
# (module perfbench reads it from, name, the module that defines it)
FORWARDED = [("parser", "autoresolve_all", "autoresolve"),
             ("corpus", "verify_fixture", "manifest")]


def perfbench_reads() -> tuple[tuple[str, ...], set[tuple[str, str]]]:
    """perfbench's MODULES and every ``L.<module>.<name>`` it reads."""
    tree = ast.parse(PERFBENCH.read_text(encoding="utf-8"))
    modules = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["MODULES"])
    reads = {(node.value.attr, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Attribute)
             and isinstance(node.value.value, ast.Name)
             and node.value.value.id == "L"}
    return modules, reads


CONTRACT = """\
import importlib, sys
modules, reads, forwarded = eval(sys.argv[1])
L = {m: importlib.import_module("lexigraph." + m) for m in modules}
# the set-up import compiles neither module a name is forwarded to
bad = ["loaded:" + home for _, _, home in forwarded
       if "lexigraph." + home in sys.modules]
bad += [m + "." + n for m, n in sorted(reads)
        if m not in L or not hasattr(L[m], n)]
for m, n, home in forwarded:
    value = getattr(L[m], n)
    moved = getattr(importlib.import_module("lexigraph." + home), n)
    if value is not moved or vars(L[m]).get(n) is not value:
        bad.append("not-kept:" + m + "." + n)
import lexigraph
value = lexigraph.compile_ssn
if (value is not sys.modules["lexigraph.ssn"].compile_ssn
        or vars(lexigraph).get("compile_ssn") is not value):
    bad.append("not-kept:lexigraph.compile_ssn")
print(0, *bad)
"""


def test_perfbench_reads_resolve_in_a_fresh_import():
    """Each ``L.<module>.<name>`` of perfbench/run.py resolves, the set-up
    import of its MODULES compiles neither ``autoresolve`` nor ``manifest``,
    and a forwarded name is the moved object, kept in the module's globals
    after its first read."""
    modules, reads = perfbench_reads()
    assert {"cli", "corpus", "parser"} <= set(modules)
    assert {(m, n) for m, n, _ in FORWARDED} <= reads
    code, bad = loaded_modules(CONTRACT, repr((modules, reads, FORWARDED)))
    assert (code, bad) == ("0", set())

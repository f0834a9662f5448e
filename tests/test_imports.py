"""Import footprint: ``import lexigraph`` loads no submodule, every public
name still resolves, and each CLI command loads only the modules it uses
and none of the slow standard modules below.  The child interpreters run
with ``-S``: ``site`` can load some of them by itself (a ``.pth`` file of
an installed package, such as certifi's, imports ``importlib.resources``)."""
from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src"
# what every command loads: the CLI, the bundled corpus, the lexicon and
# the rule tables
BASE = {"lexigraph", "cli", "corpus", "lexicon", "prep_rules"}

# standard modules a command must not load: dataclasses costs about 10 ms
# at start-up with the inspect, ast, dis and tokenize it imports, and
# importlib.resources loads pathlib, zipfile and tempfile
SLOW = ("dataclasses", "inspect", "importlib.resources", "pathlib",
        "zipfile", "tempfile")

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


# each command, and the modules it loads beyond BASE
COMMANDS = [
    (["ingest"], set()),
    (["graph"], {"defgraph"}),
    (["scc"], {"defgraph"}),
    (["primitives"], {"defgraph"}),
    (["frames", "--word", "change"], {"frames"}),
    (["ssn", "--word", "change"], {"frames", "ssn"}),
    (["reduce"], {"frames", "reduction"}),
    (["autoresolve"], {"frames", "parser"}),
    (["parse", "--text", "The milk changed into curd"],
     {"frames", "ssn", "parser"}),
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
    assert modules == BASE | {"frames", "ssn", "parser"}


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
# cached, a call compiles every one of them (about 1.2 us a node on a
# 2-vCPU VM); discourse loads the modules parse does.  The count is the
# same on Python 3.10 to 3.13; a change may lower a ceiling, not raise it.
AST_CEILINGS = {"ingest": 9490, "graph": 12051, "scc": 12051,
                "primitives": 12051, "frames": 13711, "ssn": 17522,
                "reduce": 15582, "autoresolve": 19524, "parse": 23335}


def _ast_nodes(module: str) -> int:
    name = "__init__" if module == "lexigraph" else module
    source = (SRC / "lexigraph" / f"{name}.py").read_text(encoding="utf-8")
    return sum(1 for _ in ast.walk(ast.parse(source)))


@pytest.mark.parametrize("argv,extra", COMMANDS, ids=_argv_id)
def test_command_compiles_at_most_its_ceiling(argv, extra):
    nodes = sum(_ast_nodes(module) for module in BASE | extra)
    assert nodes <= AST_CEILINGS[argv[0]]

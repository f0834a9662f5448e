"""Import footprint: ``import lexigraph`` loads no submodule, every public
name still resolves, and each CLI command loads only the modules it uses
and neither ``dataclasses`` nor ``inspect``."""
from __future__ import annotations

import functools
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src"
# what every command loads: the CLI, the bundled corpus and its data
# package, the lexicon and the rule tables
BASE = {"lexigraph", "cli", "corpus", "data", "lexicon", "prep_rules"}

# standard modules a command must not load: dataclasses costs about 10 ms
# at start-up with the inspect, ast, dis and tokenize it imports
SLOW = ("dataclasses", "inspect")

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
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=120).stdout.split()
    return out[0], set(out[1:])


@pytest.mark.parametrize("argv,extra", [
    (["ingest"], set()),
    (["graph"], {"defgraph"}),
    (["scc"], {"defgraph"}),
    (["primitives"], {"defgraph"}),
    (["frames", "--word", "change"], {"frames"}),
    (["ssn", "--word", "change"], {"frames", "ssn"}),
    (["reduce"], {"defgraph", "frames", "reduction"}),
    (["autoresolve"], {"frames", "parser"}),
    (["parse", "--text", "The milk changed into curd"],
     {"frames", "ssn", "parser"}),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_command_loads_only_what_it_uses(argv, extra):
    code, modules = loaded_modules(REPORT, *argv)
    assert code == "0"
    assert modules == BASE | extra | slow_loaded_by_resources()


def test_discourse_loads_only_what_it_uses(tmp_path):
    doc = tmp_path / "story.txt"
    doc.write_text("The milk changed.\n", encoding="utf-8")
    code, modules = loaded_modules(REPORT, "discourse", "--file", str(doc))
    assert code == "0"
    assert modules == (BASE | {"frames", "ssn", "parser"}
                       | slow_loaded_by_resources())


@functools.cache
def slow_loaded_by_resources() -> set[str]:
    """The SLOW modules that ``importlib.resources``, which reads the
    bundled corpus, loads by itself: inspect from Python 3.12 on."""
    _, modules = loaded_modules(
        f"import sys, importlib.resources; "
        f"print(0, *[m for m in {SLOW!r} if m in sys.modules])")
    return modules


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

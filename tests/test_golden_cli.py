"""The CLI's output on the bundled corpus is fixed: every command listed in
``golden/commands.tsv`` runs in a fresh interpreter, as ``python -m
lexigraph.cli``, and must exit with its listed code and write exactly its
golden stdout file.

When a change alters that output on purpose, rewrite the files with
``PYTHONPATH=src python tests/test_golden_cli.py --update`` and review the
diff.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parents[1] / "src"


def golden_commands() -> list[tuple[str, int, list[str]]]:
    """(golden file stem, exit code, arguments) per line of commands.tsv."""
    rows = []
    for line in (GOLDEN / "commands.tsv").read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            stem, code, *argv = line.split("\t")
            rows.append((stem, int(code), argv))
    return rows


def run_cli(argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "lexigraph.cli", *argv],
                          cwd=GOLDEN, env=env, capture_output=True, timeout=120)


@pytest.mark.parametrize("stem,code,argv", [
    pytest.param(*row, id=" ".join(row[2])) for row in golden_commands()])
def test_cli_output_matches_golden(stem, code, argv):
    proc = run_cli(argv)
    assert proc.returncode == code, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{stem}.stdout").read_bytes()


if __name__ == "__main__" and sys.argv[1:] == ["--update"]:
    for stem, code, argv in golden_commands():
        proc = run_cli(argv)
        if proc.returncode != code:
            sys.exit(f"{' '.join(argv)}: exit {proc.returncode}, listed {code}")
        (GOLDEN / f"{stem}.stdout").write_bytes(proc.stdout)

"""Smoke test: every script under ``demos/`` runs to completion; and the
library's runtime checks are explicit raises, never ``assert`` statements,
which ``python -O`` strips."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
LIBRARY = sorted((ROOT / "src" / "simplegames").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


def test_library_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in LIBRARY
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert LIBRARY and not found, found

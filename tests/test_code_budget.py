"""A size ratchet over every module of the package.

Each ``src/repro/**/*.py`` file stays under ``MAX_FILE_LINES`` lines and
holds no function (or method) over ``MAX_FUNCTION_LINES`` lines, counted
from its ``def`` (decorators excluded) to its last line, docstring
included.  A new module is covered the moment it exists.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

BUDGETED = sorted(
    path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py")
)

MAX_FILE_LINES = 1000
MAX_FUNCTION_LINES = 150


def _function_lengths(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.lineno, node.end_lineno - node.lineno + 1


def test_every_module_is_budgeted():
    assert len(BUDGETED) > 50
    assert "core/engine.py" in BUDGETED and "core/sharding.py" in BUDGETED


@pytest.mark.parametrize("relative", BUDGETED)
def test_file_within_budget(relative):
    source = (SRC / relative).read_text(encoding="utf-8")
    lines = len(source.splitlines())
    assert lines <= MAX_FILE_LINES, f"{relative}: {lines} lines"
    over = [
        f"{name} (line {line}): {length} lines"
        for name, line, length in _function_lengths(ast.parse(source))
        if length > MAX_FUNCTION_LINES
    ]
    assert not over, f"{relative}: " + "; ".join(over)

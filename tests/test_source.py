"""Properties of the library source itself."""

import ast
from pathlib import Path

import ccodes

SOURCES = sorted(Path(ccodes.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # python -O strips assert; invariants must raise real exceptions
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found

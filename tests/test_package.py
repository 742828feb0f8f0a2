"""Properties of the shipped package as a whole."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sfiber"


def test_no_assert_statements():
    """`python -O` strips assert, so internal invariants are explicit checks
    in the library and properties in the tests."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []

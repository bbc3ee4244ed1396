"""Static rules on the library source."""

import ast
from pathlib import Path

import fringelab

SOURCE = Path(fringelab.__file__).parent


def test_no_assert_statements_in_library():
    # python -O strips assert statements, so they cannot guard runtime checks
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []

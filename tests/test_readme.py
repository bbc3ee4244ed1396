"""The Python examples of README.md run, and the values their comments
give as ``# Fraction(...)`` are the values they compute."""

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
COMMENTED = re.compile(r"#\s*(Fraction\([^)]*\))")


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_example_runs_and_commented_values_hold(block):
    lines = block.splitlines()
    namespace = {}
    checked = 0
    for node in ast.parse(block).body:
        comment = COMMENTED.search(lines[node.end_lineno - 1])
        if not (comment and isinstance(node, ast.Expr)):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        expected = eval(comment.group(1), {"Fraction": Fraction})
        line = lines[node.lineno - 1]
        assert type(value) is Fraction and value == expected, f"{line!r} gives {value!r}"
        checked += 1
    # every commented value sits on an expression line, so none goes unchecked
    assert checked == len(COMMENTED.findall(block))

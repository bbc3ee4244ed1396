"""The Python examples of README.md run, and the values their comments
give as ``# Fraction(...)`` are the values they compute; its experiment
config section lists the keys the config reader takes, and its CLI
sections name only flags the parser takes."""

import argparse
import ast
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from fringelab.cli import build_parser
from fringelab.mc_harness import ExperimentConfig

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


def test_experiment_config_section_matches_the_reader():
    # the key table lists exactly the keys ExperimentConfig.from_dict reads,
    # and the example config is one it accepts
    text = README.read_text(encoding="utf-8")
    section = text[text.index("An experiment config file") : text.index("Built-in profile families")]
    keys = re.findall(r"^\| `(\w+)` \|", section, re.M)
    example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    raw = json.loads(example)
    assert sorted(keys) == sorted(raw)
    ExperimentConfig.from_dict(raw)
    with pytest.raises(ValueError, match="unknown experiment config keys"):
        ExperimentConfig.from_dict({**raw, "unlisted": 1})


def test_cli_sections_name_only_parser_flags():
    # a flag the parser dropped must leave the README too
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick start (CLI)") : text.index("## Tests")]
    (subparsers,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    known = {flag for sub in subparsers.choices.values() for flag in sub._option_string_actions}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    assert named and named <= known, sorted(named - known)

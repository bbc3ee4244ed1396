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


def _tree(name):
    return ast.parse((SOURCE / name).read_text(encoding="utf-8"))


def test_law_kind_and_params_read_only_in_distributions():
    # distributions.py is the one module that knows the per-kind params
    # layout; mc_harness's StatFamily.params is not a law, so that name
    # stays allowed there
    allowed = {
        "distributions.py": {"kind", "params"},
        "mc_harness.py": {"params"},
    }
    found = [
        f"{path.name}:{node.lineno}:{node.attr}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(_tree(path.name))
        if isinstance(node, ast.Attribute)
        and node.attr in {"kind", "params"} - allowed.get(path.name, set())
    ]
    assert found == []


def test_lgamma_only_in_distributions():
    # the Poisson log-weight is written once, in distributions.py
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "distributions.py"
        for node in ast.walk(_tree(path.name))
        if (isinstance(node, ast.Attribute) and node.attr == "lgamma")
        or (isinstance(node, ast.Name) and node.id == "lgamma")
        or (isinstance(node, ast.alias) and node.name == "lgamma")
    ]
    assert found == []


def test_every_lru_cache_is_bounded():
    # an unbounded cache keyed by a law grows with every fresh law for the
    # life of the process, so each cache states an integer maxsize
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(_tree(path.name)):
            for decorator in getattr(node, "decorator_list", []):
                call = decorator if isinstance(decorator, ast.Call) else None
                func = call.func if call else decorator
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name not in {"lru_cache", "cache"}:
                    continue
                sizes = [k.value for k in call.keywords if k.arg == "maxsize"] + call.args if call else []
                if not (sizes and isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int):
                    found.append(f"{path.name}:{node.lineno}:{node.name}")
    assert found == []

"""Module boundaries: no module reaches into a sibling's private names, and
one function builds every LP.

Helpers that several modules share live in ``onlinelp._core``; every other
``from .<sibling> import _name`` couples a module to another's internals.
"""

import ast
from pathlib import Path

import onlinelp

SHARED = "_core"


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module != SHARED:
            found += [
                f"{path.name}: from .{node.module} import {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    return found


def test_no_private_cross_module_imports():
    modules = sorted(Path(onlinelp.__file__).parent.glob("*.py"))
    found = [line for path in modules for line in _private_imports(path)]
    assert found == []


def _boxed_lp_calls(path: Path) -> list[str]:
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "BoxedLp"
    ]


def test_one_lp_builder():
    """Every LP the package solves is built in one place outside the solver."""
    modules = sorted(Path(onlinelp.__file__).parent.glob("*.py"))
    calls = [site for path in modules if path.name != "lp.py" for site in _boxed_lp_calls(path)]
    assert len(calls) == 1, calls

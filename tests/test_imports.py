"""Module boundaries: no module reaches into a sibling's private names.

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

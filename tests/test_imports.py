"""Module boundaries: no module reaches into a sibling's private names or
imports a sibling at call time, instance generation does not import the
policy, one function builds every LP, and the schedule is computed in one
place.

Every ``from .<sibling> import _name``, and every import from a private
``._module``, couples a module to another's internals.
"""

import ast
from pathlib import Path

import onlinelp


def _relative_imports(path: Path) -> list[ast.ImportFrom]:
    return [
        node
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level == 1
    ]


def _private_imports(path: Path) -> list[str]:
    return [
        f"{path.name}: from .{node.module} import {alias.name}"
        for node in _relative_imports(path)
        for alias in node.names
        if node.module.startswith("_") or alias.name.startswith("_")
    ]


def test_no_private_cross_module_imports():
    modules = sorted(Path(onlinelp.__file__).parent.glob("*.py"))
    found = [line for path in modules for line in _private_imports(path)]
    assert found == []


def test_generators_import_only_errors_and_model():
    """Building an instance needs its types and errors, not the policy or the solver."""
    path = Path(onlinelp.__file__).parent / "generators.py"
    siblings = {node.module for node in _relative_imports(path)}
    assert siblings == {"errors", "model"}


def test_no_imports_inside_functions():
    """A relative import inside a function hides an import cycle."""
    modules = sorted(Path(onlinelp.__file__).parent.glob("*.py"))
    found = sorted({
        f"{path.name}:{node.lineno}"
        for path in modules
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    })
    assert found == []


def _calls(path: Path, name: str) -> list[str]:
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
    ]


def test_one_lp_builder():
    """Every LP the package solves is built in one place outside the solver."""
    modules = sorted(Path(onlinelp.__file__).parent.glob("*.py"))
    calls = [site for path in modules if path.name != "lp.py" for site in _calls(path, "BoxedLp")]
    assert len(calls) == 1, calls


def test_one_schedule():
    """The checkpoints and their shrink are computed at one site each."""
    modules = sorted(Path(onlinelp.__file__).parent.glob("*.py"))
    for name in ("h_factor", "geometric_schedule"):
        calls = [site for path in modules for site in _calls(path, name)]
        assert len(calls) == 1, (name, calls)

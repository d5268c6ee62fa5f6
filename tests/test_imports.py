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
        f"{path.name}: from .{node.module or ''} import {alias.name}"
        for node in _relative_imports(path)
        for alias in node.names
        if (node.module or "").startswith("_") or alias.name.startswith("_")
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


def test_package_surface_is_the_modules_all():
    """The package lists no names of its own: it re-exports each module's __all__."""
    from onlinelp import engine, errors, generators, harness, lp, model, multi

    modules = (errors, model, lp, engine, multi, generators, harness)
    expected = [name for module in modules for name in module.__all__]
    assert onlinelp.__all__ == expected
    assert len(set(expected)) == len(expected)
    assert [name for name in expected if not hasattr(onlinelp, name)] == []


def test_benchmark_aliases_stay_off_the_public_surface():
    """The benchmark's alias attributes exist on their modules, not on the package."""
    from onlinelp import cli, harness, lp, multi

    assert multi.flatten_lp is onlinelp.sample_lp and harness.flatten_lp is onlinelp.sample_lp
    assert lp.perturb_rewards_multi is onlinelp.perturb_rewards
    assert cli.run_trials is onlinelp.run_trials
    assert callable(multi.learn_price_multi)
    for name in ("flatten_lp", "learn_price_multi", "perturb_rewards_multi"):
        assert not hasattr(onlinelp, name), name

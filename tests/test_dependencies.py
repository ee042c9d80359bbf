"""The package runs on the standard library alone: every import in
``src/superkoszul`` is relative or names a standard-library module, and
``pyproject.toml`` declares no runtime dependency."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def absolute_imports(path):
    """The top-level names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "superkoszul").glob("*.py")), ids=lambda p: p.name
)
def test_every_import_is_relative_or_standard_library(path):
    outside = {name for name in absolute_imports(path) if name not in sys.stdlib_module_names}
    assert not outside


def unused_imports(path):
    """The names bound by the top-level imports of one source file that no
    other line of it reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize(
    "path",
    sorted(p for p in (ROOT / "src" / "superkoszul").glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_every_import_is_used(path):
    # a deletion must take the imports that only it read along
    assert not unused_imports(path)


def unreferenced_private_functions(paths):
    """The underscore-named, non-dunder functions and methods defined in
    ``paths`` whose name no line of ``paths`` reads outside their own def."""
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in paths]
    defs = [
        node
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]

    def reads(node, skip):
        if node is skip:
            return
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        for child in ast.iter_child_nodes(node):
            yield from reads(child, skip)

    return sorted(
        node.name
        for node in defs
        if not any(node.name in set(reads(tree, node)) for tree in trees)
    )


def test_every_private_function_is_referenced():
    # a deletion must take the private helpers that only it called along
    assert not unreferenced_private_functions(sorted((ROOT / "src" / "superkoszul").glob("*.py")))


MATH_NAMES = {"gcd", "lcm", "comb"}


def float_uses(path):
    """The float literals, ``float(...)`` calls and imports from ``math``
    beyond the integer functions gcd, lcm and comb in one source file, as
    (line, text) pairs."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, repr(node.value)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            yield node.lineno, "float(...)"
        elif isinstance(node, ast.Import) and any(a.name == "math" for a in node.names):
            yield node.lineno, "import math"
        elif isinstance(node, ast.ImportFrom) and node.module == "math" and node.level == 0:
            extra = {alias.name for alias in node.names} - MATH_NAMES
            if extra:
                yield node.lineno, f"from math import {', '.join(sorted(extra))}"


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "superkoszul").glob("*.py")), ids=lambda p: p.name
)
def test_no_floats(path):
    # every number the engine computes is an int or a Fraction
    assert not list(float_uses(path))


def test_the_float_guard_catches_each_kind(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "import math\nfrom math import gcd, sqrt\nx = 0.5\ny = float(3)\nz: float = 1\n"
    )
    assert sorted(line for line, _ in float_uses(path)) == [1, 2, 3, 4]


def test_pyproject_declares_no_runtime_dependencies():
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    declared = [line.strip() for line in lines if line.strip().startswith("dependencies")]
    assert declared == ["dependencies = []"]

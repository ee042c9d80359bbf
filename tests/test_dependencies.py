"""The package runs on the standard library alone: every import in
``src/superkoszul`` is relative or names one of a pinned set of
standard-library modules, and ``pyproject.toml`` declares no runtime
dependency.  Static guards on the source ride along: no unused import or
private function, no float, and every name that the README or a docstring
gives for code resolves."""

import ast
import builtins
import importlib
import inspect
import re
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


# a new import costs every start-up of the package: adding one is a
# deliberate edit of this set
STANDARD_LIBRARY_IMPORTS = {
    "__future__", "argparse", "dataclasses", "fractions", "functools", "itertools", "math",
    "sys", "time", "typing",
}


def test_the_standard_library_imports_are_the_pinned_set():
    paths = sorted((ROOT / "src" / "superkoszul").glob("*.py"))
    assert {name for path in paths for name in absolute_imports(path)} == STANDARD_LIBRARY_IMPORTS


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


def unused_parameters(path):
    """The parameters, apart from ``self`` and ``cls``, of the functions in
    one source file that their body never reads, as ``function.parameter``.
    Lambdas are left out, and so are the ``cli._cmd_*`` handlers, which share
    the dispatch signature."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if path.stem == "cli" and node.name.startswith("_cmd_"):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a]
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for name in params:
            if name not in read and name not in ("self", "cls"):
                yield f"{node.name}.{name}"


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "superkoszul").glob("*.py")), ids=lambda p: p.name
)
def test_every_parameter_is_read(path):
    # a parameter that nothing reads is API that only misleads its callers
    assert not list(unused_parameters(path))


def test_the_parameter_guard_reads_nested_bodies_and_skips_lambdas(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "def f(a, b, *c, d, **e):\n    def g():\n        return a\n    b = 1\n    return g\n"
        "class K:\n    def m(self, x):\n        return lambda y: 0\n"
    )
    assert sorted(unused_parameters(path)) == ["f.b", "f.c", "f.d", "f.e", "m.x"]


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


# -- names that the docs give for code -----------------------------------------

SRC = ROOT / "src" / "superkoszul"
PACKAGE = importlib.import_module("superkoszul")
MODULES = {
    path.stem: importlib.import_module(f"superkoszul.{path.stem}")
    for path in sorted(SRC.glob("*.py"))
    if path.stem not in ("__init__", "__main__")
}


def classes(*modules):
    return [obj for module in modules for obj in vars(module).values() if inspect.isclass(obj)]


def walk(obj, attrs):
    """Whether the chain of attributes ``attrs`` resolves from ``obj``."""
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def resolves(token, home=None):
    """Whether a dotted name resolves in the package: a module, a name of a
    module (``home`` first), an attribute chain from either, a builtin, or a
    bare attribute of one of ``home``'s classes (of any package class without
    ``home``); a name under a standard-library module resolves by import."""
    if token == "superkoszul":
        return True
    first, *rest = token.removeprefix("superkoszul.").split(".")
    if first in MODULES:
        return walk(MODULES[first], rest)
    for module in ([home] if home else []) + list(MODULES.values()):
        if hasattr(module, first):
            return walk(getattr(module, first), rest)
    if not rest:
        owners = classes(home) if home else classes(*MODULES.values())
        return hasattr(builtins, first) or any(hasattr(cls, first) for cls in owners)
    if first in sys.stdlib_module_names:
        return walk(importlib.import_module(first), rest)
    return False


IDENTIFIER = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def readme_code_names(text):
    """The backticked spans of ``text`` outside fenced blocks that look like
    code names: an identifier or dotted chain with ``_`` or ``.`` in it or an
    upper-case first letter; builtins, CLI family and command names, test
    names and all-caps words are left out."""
    cli = MODULES["cli"]
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    return sorted(
        {
            span
            for span in spans
            if IDENTIFIER.fullmatch(span)
            and ("_" in span or "." in span or span[0].isupper())
            and not (span.isupper() or span.startswith("test_") or hasattr(builtins, span))
            and span not in cli.FAMILIES + cli.COMMANDS
        }
    )


def test_every_code_name_in_the_readme_resolves():
    # a rename or deletion must take the README's mentions along
    names = readme_code_names((ROOT / "README.md").read_text())
    assert names and not [name for name in names if not resolves(name)]


ROLE = re.compile(r":(?:func|meth|class|data):`~?\.?([^`]+)`")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_docstring_cross_reference_resolves(path):
    home = MODULES.get(path.stem, PACKAGE)
    targets = ROLE.findall(path.read_text())
    assert not [target for target in targets if not resolves(target, home)]


def test_the_name_guard_tells_names_apart():
    text = "`hecke._act` `fractions.Fraction` `HomogAlgebra._nf_ints` `rank` `s_RN` `ValueError`"
    assert readme_code_names(text + " `Nope` `hecke.nope` `no_such_name` `PASS`") == [
        "HomogAlgebra._nf_ints", "Nope", "fractions.Fraction", "hecke._act", "hecke.nope",
        "no_such_name",
    ]
    assert [name for name in readme_code_names(text) if not resolves(name)] == []
    assert not any(map(resolves, ["Nope", "hecke.nope", "no_such_name", "fractions.nope"]))

"""Package boundaries: no reaching into another package's privates.

A module under ``repro/serve`` or ``repro/plan`` may read an attribute
whose name starts with a single underscore only when its own package
defines that name.  Reading a private that only some other package
defines (``executor._batch_size_for``, ``pipeline._dispatcher``) couples
the drivers to an executor's internals — the staged executor contract
exists so they never need to.  The same goes for importing a private
name from another package.

``repro.udf`` sits below ``repro.plan`` in the layer order, so no UDF
module imports ``repro.plan`` — not at module level, not inside a
function, not under ``TYPE_CHECKING``.
"""

import ast
import pathlib

import pytest

import repro

SRC = pathlib.Path(repro.__file__).parent
#: packages whose modules are checked for private reads
DRIVERS = ("serve", "plan")


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _package(path: pathlib.Path) -> str:
    """The top-level subpackage a module belongs to ('' for repro/*.py)."""
    parts = path.relative_to(SRC).parts
    return parts[0] if len(parts) > 1 else ""


def _defined(tree: ast.AST) -> set[str]:
    """Private names a module defines: defs, classes, assignments, slots."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # ``__slots__`` entries and ``setattr`` targets
            names.add(node.value)
    return {name for name in names if _private(name)}


def _trees() -> dict[pathlib.Path, ast.AST]:
    return {path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}


TREES = _trees()


def _defined_by_package(trees) -> dict[str, set[str]]:
    defined: dict[str, set[str]] = {}
    for path, tree in trees.items():
        defined.setdefault(_package(path), set()).update(_defined(tree))
    return defined


def private_reads(package: str, trees=TREES) -> list[str]:
    """``module:line name`` for every foreign private one package reads."""
    defined = _defined_by_package(trees)
    own = defined.get(package, set())
    foreign = set().union(
        *(names for pkg, names in defined.items() if pkg != package)
    )
    violations = []
    for path, tree in trees.items():
        if _package(path) != package:
            continue
        where = path.relative_to(SRC)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and _private(node.attr)
                and node.attr not in own
                and node.attr in foreign
            ):
                violations.append(f"{where}:{node.lineno} .{node.attr}")
            elif (
                isinstance(node, ast.ImportFrom)
                and node.level == 0
                and (node.module or "").startswith("repro.")
                and node.module.split(".")[1] != package
            ):
                for alias in node.names:
                    if _private(alias.name):
                        violations.append(
                            f"{where}:{node.lineno} import {alias.name}"
                        )
    return violations


def imported_modules(tree: ast.AST) -> set[str]:
    """Every absolute module name a tree imports, wherever the import sits."""
    modules: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module or "")
    return modules


class TestPrivateAccess:
    @pytest.mark.parametrize("package", DRIVERS)
    def test_no_foreign_private_reads(self, package):
        assert private_reads(package) == []

    def test_the_check_sees_a_foreign_read(self):
        """The walk flags what it is meant to flag (guards a vacuous pass)."""
        trees = {
            SRC / "udf" / "engine.py": ast.parse(
                "class Engine:\n"
                "    def __init__(self):\n"
                "        self._own = 1\n"
                "    def _size_for(self, call):\n"
                "        return 5\n"
            ),
            SRC / "serve" / "driver.py": ast.parse(
                "from repro.udf.engine import _helper\n"
                "class Driver:\n"
                "    def __init__(self):\n"
                "        self._own = 2\n"
                "    def run(self, engine):\n"
                "        return engine._size_for(None), engine._own\n"
            ),
        }
        assert private_reads("serve", trees) == [
            "serve/driver.py:1 import _helper",
            "serve/driver.py:6 ._size_for",
        ]


class TestLayerOrder:
    def test_udf_never_imports_plan(self):
        offenders = [
            f"{path.relative_to(SRC)}: {module}"
            for path, tree in TREES.items()
            if _package(path) == "udf"
            for module in sorted(imported_modules(tree))
            if module == "repro.plan" or module.startswith("repro.plan.")
        ]
        assert offenders == []

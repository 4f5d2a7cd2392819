"""Package boundaries: one declared layer order, and no foreign privates.

``TIERS`` is the layer order of ``src/repro``, lowest tier first.  Every
``repro.*`` import points to a strictly lower tier than the importing
module's package — at module level, inside a function, or under
``TYPE_CHECKING`` alike — so no two packages depend on each other and
the graph has no cycle.  Every package must be listed.

No module reads an attribute whose name starts with a single underscore
unless its own package defines that name.  Reading a private that only
some other package defines (``executor._batch_size_for``,
``pipeline._dispatcher``) couples a caller to another package's
internals.  The same goes for importing a private name from another
package.

Deferred imports (function-local or under ``TYPE_CHECKING``) only run
when their function does; every one must still name a module and
attribute that exist.
"""

import ast
import importlib
import pathlib

import pytest

import repro

SRC = pathlib.Path(repro.__file__).parent

#: The layer order, lowest tier first.  ``""`` is the root package
#: (``repro.errors``, ``repro.stable``).  Packages sharing a tier may not
#: import each other.
TIERS = (
    ("",),  # errors, stable: the error hierarchy and stable hashing
    ("sqlparser", "sqlengine"),  # SQL front end; SQLite storage
    ("swan",),  # the benchmark's worlds, questions and databases
    ("obs",),  # tracing, metrics, provenance, SLOs
    ("llm",),  # the simulated model and its client stack
    ("retrieval",),  # embedding index over world rows
    ("pipeline",),  # the staged contract both pipelines implement
    ("core", "udf"),  # the two pipelines: HQDL and hybrid-query UDFs
    ("plan", "auto"),  # call planning; NL-to-hybrid-query planning
    ("eval",),  # EX, factuality F1, costs, miss attribution, tables
    ("serve",),  # the online query server
    ("harness",),  # runners, benches, CLI targets
)
PACKAGES = tuple(package for tier in TIERS for package in tier)


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
    packages = set(defined)
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
                and _target(node.module, packages) != package
            ):
                for alias in node.names:
                    if _private(alias.name):
                        violations.append(
                            f"{where}:{node.lineno} import {alias.name}"
                        )
    return violations


def _node_modules(node: ast.AST) -> list[str]:
    """The absolute module names one import statement names."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module or ""]
    return []


def _repro_modules(node: ast.AST) -> list[str]:
    return [
        module for module in _node_modules(node)
        if module == "repro" or module.startswith("repro.")
    ]


def imported_modules(tree: ast.AST) -> set[str]:
    """Every absolute module name a tree imports, wherever the import sits."""
    return {
        module for node in ast.walk(tree) for module in _node_modules(node)
    }


def _target(module: str, packages: set[str]) -> str:
    """The package a ``repro.*`` module name belongs to ('' for the root)."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 and parts[1] in packages else ""


def unlisted_packages(trees=TREES, tiers=TIERS) -> list[str]:
    """Packages with modules under ``src/repro`` that no tier lists."""
    listed = {package for tier in tiers for package in tier}
    return sorted({_package(path) for path in trees} - listed)


def layer_violations(trees=TREES, tiers=TIERS) -> list[str]:
    """``module:line importer -> imported`` for every import of another
    package that is not in a strictly lower tier."""
    rank = {package: index for index, tier in enumerate(tiers) for package in tier}
    packages = {_package(path) for path in trees}
    violations = []
    for path, tree in trees.items():
        package = _package(path)
        for node in ast.walk(tree):
            for module in _repro_modules(node):
                target = _target(module, packages)
                if target == package:
                    continue
                if rank.get(target, len(tiers)) >= rank.get(package, -1):
                    violations.append(
                        f"{path.relative_to(SRC)}:{node.lineno} "
                        f"{package or 'repro'} -> {target or 'repro'}"
                    )
    return violations


def deferred_imports(trees=TREES) -> list[tuple[str, ast.AST]]:
    """``(module:line, node)`` for every ``repro.*`` import that is not a
    plain module-level statement: function-local, class-level, or under
    ``if TYPE_CHECKING:``."""
    found = []
    for path, tree in trees.items():
        top = {id(node) for node in tree.body}
        found.extend(
            (f"{path.relative_to(SRC)}:{node.lineno}", node)
            for node in ast.walk(tree)
            if id(node) not in top and _repro_modules(node)
        )
    return found


def _exists(module: str, name: str = "") -> bool:
    try:
        loaded = importlib.import_module(module)
    except ImportError:
        return False
    if not name or hasattr(loaded, name):
        return True
    return _exists(f"{module}.{name}")  # ``from repro.obs import export``


def unresolved(node: ast.AST) -> list[str]:
    """The modules or names an import statement asks for that do not exist."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names if not _exists(alias.name)]
    return [
        f"{node.module}.{alias.name}"
        for alias in node.names
        if not _exists(node.module, alias.name)
    ]


class TestPrivateAccess:
    @pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p or "repro")
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

    def test_imports_point_down(self):
        assert layer_violations() == []

    def test_every_package_is_listed_once(self):
        assert unlisted_packages() == []
        assert sorted(PACKAGES) == sorted({_package(path) for path in TREES})

    def test_the_check_sees_a_function_local_upward_import(self):
        trees = {
            SRC / "udf" / "executor.py": ast.parse("class Executor: ...\n"),
            SRC / "swan" / "check.py": ast.parse(
                "from repro.errors import ReproError\n"
                "def check():\n"
                "    from repro.udf.executor import Executor\n"
                "    return Executor\n"
            ),
            SRC / "errors.py": ast.parse("class ReproError(Exception): ...\n"),
        }
        assert layer_violations(trees) == ["swan/check.py:3 swan -> udf"]

    def test_the_check_sees_a_type_checking_upward_import(self):
        trees = {
            SRC / "harness" / "runner.py": ast.parse("class Run: ...\n"),
            SRC / "eval" / "breakdown.py": ast.parse(
                "from typing import TYPE_CHECKING\n"
                "if TYPE_CHECKING:\n"
                "    from repro.harness.runner import Run\n"
            ),
        }
        assert layer_violations(trees) == ["eval/breakdown.py:3 eval -> harness"]

    def test_the_check_sees_an_unlisted_package(self):
        trees = {
            SRC / "extras" / "thing.py": ast.parse("from repro.swan import World\n"),
            SRC / "swan" / "__init__.py": ast.parse("World = object\n"),
        }
        assert unlisted_packages(trees) == ["extras"]
        assert layer_violations(trees) == ["extras/thing.py:1 extras -> swan"]


class TestDeferredImports:
    def test_every_deferred_import_resolves(self):
        missing = [
            f"{where} {name}"
            for where, node in deferred_imports()
            for name in unresolved(node)
        ]
        assert missing == []

    def test_the_walk_finds_the_cli_targets_deferred_imports(self):
        """The CLI targets reach their modules only through deferred imports."""
        modules = {
            module
            for where, node in deferred_imports()
            if where.startswith("harness/__main__.py")
            for module in _node_modules(node)
        }
        assert {"repro.harness.validate", "repro.harness.breakdown"} <= modules

    def test_the_check_sees_a_missing_name(self):
        trees = {
            SRC / "harness" / "cli.py": ast.parse(
                "from repro.errors import ReproError\n"
                "def run():\n"
                "    from repro.errors import ReproError, NoSuchError\n"
                "    import repro.no_such_module\n"
            ),
        }
        found = deferred_imports(trees)
        assert [where for where, _ in found] == ["harness/cli.py:3", "harness/cli.py:4"]
        assert [name for _, node in found for name in unresolved(node)] == [
            "repro.errors.NoSuchError",
            "repro.no_such_module",
        ]

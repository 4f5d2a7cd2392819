"""Repository-wide API quality checks."""

import ast
import importlib
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).parent


def _all_modules():
    names = ["repro"]
    for module in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(module.name)
    return names


MODULES = _all_modules()
#: every subpackage, plus the two modules whose import cycle went unnoticed
FIRST_IMPORTS = sorted(
    {".".join(name.split(".")[:2]) for name in MODULES if "." in name}
    | {"repro.serve.server", "repro.obs.sampler"}
)


class TestDocumentation:
    @pytest.mark.parametrize("name", MODULES)
    def test_every_module_has_a_docstring(self, name):
        module = importlib.import_module(name)
        assert module.__doc__ and module.__doc__.strip(), name

    def test_every_substantial_public_function_documented(self):
        """Public functions/classes with non-trivial bodies need docstrings;
        one-line properties and accessors may speak for themselves."""
        undocumented = []
        for path in SRC.rglob("*.py"):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    if node.name.startswith("_"):
                        continue
                    if len(node.body) <= 3 and not isinstance(node, ast.ClassDef):
                        continue
                    if not ast.get_docstring(node):
                        undocumented.append(f"{path.name}:{node.name}")
        assert not undocumented, undocumented

    def test_readme_points_at_real_files(self):
        root = SRC.parent.parent
        readme = (root / "README.md").read_text()
        for needed in ("DESIGN.md", "EXPERIMENTS.md", "examples/quickstart.py"):
            assert needed in readme
            assert (root / needed).exists()


class TestImportHygiene:
    @pytest.mark.parametrize("name", MODULES)
    def test_modules_import_cleanly(self, name):
        importlib.import_module(name)

    @pytest.mark.parametrize("name", FIRST_IMPORTS)
    def test_first_import_of_a_fresh_interpreter(self, name):
        """No module may rely on a sibling package having been imported first."""
        done = subprocess.run(
            [sys.executable, "-c", f"import {name}"],
            env={"PYTHONPATH": str(SRC.parent)},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr

    def test_no_runtime_third_party_dependencies(self):
        """The library itself must run on the stdlib alone."""
        stdlib_ok = {"__future__", "bisect", "concurrent", "csv",
                     "dataclasses", "enum", "functools", "hashlib", "heapq",
                     "io", "itertools", "json", "math", "pathlib", "re",
                     "sqlite3", "sys", "tempfile", "threading", "time",
                     "typing",
                     "collections"}
        violations = []
        for path in SRC.rglob("*.py"):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                roots = []
                if isinstance(node, ast.Import):
                    roots = [alias.name.split(".")[0] for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    roots = [(node.module or "").split(".")[0]]
                for root in roots:
                    if root and root not in stdlib_ok and root != "repro":
                        violations.append(f"{path.name}: {root}")
        assert not violations, violations

"""Both pipelines implement one staged protocol, and the server drives it.

``QueryServer`` may branch on the kind of work a plan holds (keys or
whole prompts) but never on the pipeline: ``serve/server.py`` reads no
``request.pipeline``, parses no call label, and reaches a database's
state only through ``DatabaseStates.of``.
"""

import ast
import pathlib

import repro.serve.server
from repro.core.hqdl import HQDL
from repro.pipeline import Pipeline
from repro.swan.build import build_curated_database
from repro.udf.executor import HybridQueryExecutor
from tests.conftest import make_model

SERVER = ast.parse(pathlib.Path(repro.serve.server.__file__).read_text())


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for a chain of names and attributes, else ''."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    return ".".join([node.id, *reversed(parts)])


def _attributes() -> list[str]:
    return [
        _dotted(node) for node in ast.walk(SERVER) if isinstance(node, ast.Attribute)
    ]


class TestServerHasNoPipelineFork:
    def test_reads_no_request_pipeline(self):
        assert not [a for a in _attributes() if a.endswith("request.pipeline")]

    def test_parses_no_label(self):
        calls = [
            node.func.attr
            for node in ast.walk(SERVER)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        ]
        assert not {"startswith", "split", "partition"} & set(calls)
        labels = [
            node.value
            for node in ast.walk(SERVER)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.startswith(("udf:", "hqdl:"))
        ]
        assert labels == []

    def test_builds_no_pipeline_state_by_name(self):
        assert not [
            a for a in _attributes()
            if a.endswith(("states.udf", "states.hqdl"))
        ]


def test_both_pipelines_are_pipelines(superhero_world):
    model = make_model(superhero_world)
    assert isinstance(HQDL(superhero_world, model), Pipeline)
    with build_curated_database(superhero_world) as db:
        assert isinstance(HybridQueryExecutor(db, model, superhero_world), Pipeline)

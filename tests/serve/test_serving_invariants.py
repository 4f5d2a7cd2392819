"""Invariants of every serving path: right answers, and nothing left over.

The golden files pin what the server *does*; these tests pin what it must
get *right*, whatever it does.  Over a grid of batching off/on ×
``max_concurrent`` 1/3/8, fault-free, at scale 1, with the ``perfect``
model profile:

- every SERVED answer's rows equal those of the same query run alone on
  fresh state — ``HybridQueryExecutor.execute`` over a freshly built
  curated database, or ``HQDL.execute_with_report`` on a fresh pipeline —
  so no sharing, coalescing, store reuse or release order may change an
  answer;
- after ``run`` the batcher holds no item and has no release pending:
  every piece of enqueued work was flushed and landed;
- every flushed map group is cut into calls of the ``Work.chunk_size``
  its members' plans carry for that ingredient: the plan is the one
  place a served query's keys per call is decided.  This one is checked
  on the same tenants routed to UDF alone, whose maps reach the batcher
  (a warmed database's expansion face serves every key under
  ``perfect``).
"""

import math
from dataclasses import replace
from functools import lru_cache

import pytest

from repro.core.hqdl import HQDL
from repro.harness.benchserve import default_tenants, offered_rps
from repro.llm.chat import MockChatModel
from repro.llm.oracle import KnowledgeOracle
from repro.llm.profiles import get_profile
from repro.serve.batcher import BatchingConfig
from repro.serve.request import SERVED
from repro.serve.server import QueryServer, ServerConfig
from repro.serve.traffic import generate_traffic
from repro.swan.benchmark import load_benchmark_subset
from repro.swan.build import build_curated_database
from repro.udf.executor import HybridQueryExecutor

DATABASES = ("superhero", "formula_1")

GRID = [
    (batched, max_concurrent)
    for batched in (False, True)
    for max_concurrent in (1, 3, 8)
]

MODEL = "perfect"
SHOTS = ServerConfig().shots


def _grid_id(row) -> str:
    batched, max_concurrent = row
    return f"batching-{'on' if batched else 'off'}-mc{max_concurrent}"


@pytest.fixture(scope="module")
def serve_swan():
    return load_benchmark_subset(1, list(DATABASES))


def _traffic(swan, *, hqdl_share=None):
    tenants = default_tenants(DATABASES)
    if hqdl_share is not None:
        tenants = [replace(t, hqdl_share=hqdl_share) for t in tenants]
    scaled = [t.scaled(0.8 / offered_rps(tenants)) for t in tenants]
    policies = {t.name: t.policy() for t in scaled}
    requests = generate_traffic(swan, scaled, horizon=90.0, seed=5)
    return requests, policies


@pytest.fixture(scope="module")
def traffic(serve_swan):
    return _traffic(serve_swan)


@pytest.fixture(scope="module")
def udf_traffic(serve_swan):
    """The same tenants routing every request to UDF: no database is
    warmed, so every map key flows through the batcher (on a warmed one
    the expansion face serves them all under ``perfect``)."""
    return _traffic(serve_swan, hqdl_share=0.0)


def _serve(swan, requests, policies, row, monkeypatch):
    """Serve ``requests``; the report, the server, and each request's rows.

    Rows are read where finalize runs the pipeline: ``_finalize`` names
    the request, the pipeline's ``run`` yields its result.
    """
    batched, max_concurrent = row
    rows: dict[int, list] = {}
    current: list[int] = []
    finalize = QueryServer._finalize

    def tracking_finalize(self, member, land):
        current.append(member.request.request_id)
        try:
            return finalize(self, member, land)
        finally:
            current.pop()

    def recording(run):
        def wrapper(self, plan, fillings):
            result, report = run(self, plan, fillings)
            if current:
                rows[current[-1]] = list(result.rows)
            return result, report

        return wrapper

    monkeypatch.setattr(QueryServer, "_finalize", tracking_finalize)
    for cls in (HybridQueryExecutor, HQDL):
        monkeypatch.setattr(cls, "run", recording(cls.run))
    config = ServerConfig(
        model_name=MODEL, workers=4, queue_limit=24,
        max_concurrent=max_concurrent,
        batching=BatchingConfig() if batched else None,
    )
    server = QueryServer(swan, config, policies=policies)
    with server:
        report = server.run(requests)
    monkeypatch.undo()
    return report, server, rows


@pytest.fixture(scope="module")
def reference(serve_swan):
    """The rows of one query run alone on fresh state, memoized."""

    hqdl: dict[str, HQDL] = {}

    def model(database):
        world = serve_swan.world(database)
        return world, MockChatModel(KnowledgeOracle(world), get_profile(MODEL))

    @lru_cache(maxsize=None)
    def udf_rows(database: str, sql: str) -> list:
        world, client = model(database)
        with build_curated_database(world) as db:
            executor = HybridQueryExecutor(db, client, world, shots=SHOTS)
            return list(executor.execute(sql).rows)

    @lru_cache(maxsize=None)
    def hqdl_rows(database: str, qid: str) -> list:
        # one fresh pipeline per database: its expansion is the same for
        # every question, so building it once per question would only
        # repeat the same generation
        pipeline = hqdl.get(database)
        if pipeline is None:
            world, client = model(database)
            pipeline = hqdl[database] = HQDL(world, client, shots=SHOTS)
        result, _ = pipeline.execute_with_report(serve_swan.question(qid))
        return list(result.rows)

    def rows_of(request) -> list:
        if request.pipeline == "udf":
            return udf_rows(request.database, request.sql)
        return hqdl_rows(request.database, request.qid)

    yield rows_of
    for pipeline in hqdl.values():
        pipeline.close()


@pytest.mark.parametrize("row", GRID, ids=_grid_id)
class TestServingInvariants:
    def test_served_rows_equal_a_fresh_run(
        self, serve_swan, traffic, reference, row, monkeypatch
    ):
        requests, policies = traffic
        report, _, rows = _serve(serve_swan, requests, policies, row, monkeypatch)
        served = [o for o in report.outcomes if o.status == SERVED]
        assert len(served) >= 20, "the grid must serve enough to test"
        assert {o.request.pipeline for o in served} == {"udf", "hqdl"}
        for outcome in served:
            request = outcome.request
            assert rows[request.request_id] == reference(request), (
                f"request {request.request_id} ({request.pipeline}, "
                f"{request.database}) answered differently from a fresh run"
            )

    def test_batcher_drains(self, serve_swan, traffic, row, monkeypatch):
        requests, policies = traffic
        report, server, _ = _serve(
            serve_swan, requests, policies, row, monkeypatch
        )
        assert report.accounted()
        batcher = server.batcher
        if batcher is None:
            assert report.batching is None
            return
        assert batcher.stats()["items"] > 0
        assert not any(
            group.items or group.later for group in batcher._groups.values()
        )
        assert not batcher.has_due(math.inf)

    def test_flushed_groups_are_cut_at_the_plans_chunk_size(
        self, serve_swan, udf_traffic, row, monkeypatch
    ):
        requests, policies = udf_traffic
        cuts: list[tuple[int, set]] = []
        flush_group = QueryServer._flush_group

        def recording(self, group, *args):
            if group.kind == "map":
                signature = group.call.signature()
                planned = {
                    work.chunk_size
                    for member in group.members
                    for work in member.plan.work()
                    if work.prompt is None
                    and work.call.signature() == signature
                }
                cuts.append((group.chunk_size, planned))
            return flush_group(self, group, *args)

        monkeypatch.setattr(QueryServer, "_flush_group", recording)
        _serve(serve_swan, requests, policies, row, monkeypatch)
        batched, _ = row
        if not batched:
            assert not cuts
            return
        assert cuts
        for chunk_size, planned in cuts:
            assert planned == {chunk_size}

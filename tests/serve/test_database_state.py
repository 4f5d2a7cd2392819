"""One state per served database: one client stack, one disk cache.

A database the stream routes to both pipelines is served by one
``DatabaseState``: the server builds its client stack once and, with
``cache_dir``, opens its disk-cache file once, however many pipelines
run over it.  Its pipelines dispatch on the event loop's thread, sinks
or none: ``ServerConfig.workers`` only sizes the makespan model.
"""

from collections import Counter

import pytest

from repro.harness.benchserve import (
    build_observability,
    default_config,
    default_tenants,
    offered_rps,
)
from repro.llm import parallel as llm_parallel
from repro.llm import stack as llm_stack
from repro.serve import state as serve_state
from repro.serve.request import QueryRequest
from repro.serve.server import QueryServer, ServerConfig
from repro.serve.traffic import generate_traffic
from repro.swan.benchmark import load_benchmark_subset


@pytest.fixture(scope="module")
def superhero_swan():
    return load_benchmark_subset(1, ["superhero"])


def _both_pipelines(swan):
    question = swan.question("superhero_q02")
    return [
        QueryRequest(
            request_id=index,
            tenant="t",
            database="superhero",
            sql=question.blend_sql,
            arrival=100.0 * index,
            pipeline=pipeline,
            qid=question.qid,
            deadline_seconds=1000.0,
        )
        for index, pipeline in enumerate(("udf", "hqdl"))
    ]


@pytest.fixture
def opened(monkeypatch):
    """Counts of client stacks built and disk-cache files opened."""
    counts: Counter = Counter()
    build = serve_state.build_client_stack
    disk = llm_stack.PersistentPromptCache

    def counting_build(world, *args, **kwargs):
        counts["stack", world.name] += 1
        return build(world, *args, **kwargs)

    def counting_disk(path, *args, **kwargs):
        counts["disk", path.name] += 1
        return disk(path, *args, **kwargs)

    monkeypatch.setattr(serve_state, "build_client_stack", counting_build)
    monkeypatch.setattr(llm_stack, "PersistentPromptCache", counting_disk)
    return counts


@pytest.mark.parametrize("cached", [False, True], ids=["memory", "disk"])
def test_one_stack_per_database(superhero_swan, opened, tmp_path, cached):
    requests = _both_pipelines(superhero_swan)
    config = ServerConfig(cache_dir=tmp_path if cached else None)
    with QueryServer(superhero_swan, config) as server:
        report = server.run(requests)
    assert [o.request.pipeline for o in report.outcomes] == ["udf", "hqdl"]
    assert all(o.answered for o in report.outcomes)
    expected = Counter({("stack", "superhero"): 1})
    if cached:
        expected["disk", "superhero.sqlite"] = 1
    assert opened == expected


def test_served_dispatch_starts_no_thread(superhero_swan, monkeypatch):
    """A ``workers=4`` server with observability sinks builds, warms and
    serves a mixed stream without a dispatch thread, and its record is
    the record of the same run without sinks."""
    tenants = default_tenants(("superhero",))
    scaled = [t.scaled(0.3 / offered_rps(tenants)) for t in tenants]
    policies = {t.name: t.policy() for t in scaled}
    requests = generate_traffic(superhero_swan, scaled, horizon=40.0, seed=0)
    assert {r.pipeline for r in requests} == {"udf", "hqdl"}
    pools = []

    def no_pool(*args, **kwargs):
        pools.append(kwargs)
        raise AssertionError("a served dispatch started a thread pool")

    monkeypatch.setattr(llm_parallel, "ThreadPoolExecutor", no_pool)
    config = default_config()
    assert config.workers == 4
    records = []
    for telemetry, tracker in ((None, None), build_observability()):
        with QueryServer(
            superhero_swan, config, policies=policies,
            telemetry=telemetry, slo_tracker=tracker,
        ) as server:
            records.append(server.run(requests).as_record())
    assert pools == []
    assert records[0] == records[1]

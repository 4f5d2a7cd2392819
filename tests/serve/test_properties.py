"""Serving-layer properties the ISSUE pins down.

Three invariants that must hold across configurations, not just on one
lucky trace: admission accounting balances, shed rate is monotone in
offered load, and a server with no contention is byte-identical to the
batch runner whose executor holds a mapping store, as every served
database's does — serving adds scheduling, never answer drift.
"""

import pytest

from repro.plan import MappingStore, adaptive_batch_size
from repro.serve.request import QueryRequest, SERVED
from repro.serve.server import QueryServer, ServerConfig
from repro.swan.benchmark import load_benchmark_subset
from repro.udf.executor import HybridQueryExecutor


@pytest.fixture(scope="module")
def serve_swan():
    return load_benchmark_subset(1, ["superhero"])


def _fixed_cost_requests(swan, *, rate, count):
    """``count`` arrivals of one repeated question at ``rate`` req/s.

    After the first (cache-filling) request every service takes exactly
    ``base_overhead`` virtual seconds — an M/D/1-style workload where
    shedding is a pure function of offered load, with no breaker or
    deadline dynamics confounding the curve.
    """
    question = swan.question("superhero_q10")
    return [
        QueryRequest(
            request_id=i,
            tenant="t",
            database="superhero",
            sql=question.blend_sql,
            arrival=i / rate,
            qid=question.qid,
            deadline_seconds=1_000_000.0,
        )
        for i in range(count)
    ]


class TestShedRateMonotone:
    def test_shed_rate_never_decreases_with_offered_load(self, serve_swan):
        # service is pinned at base_overhead=1.0s with max_concurrent=1,
        # so capacity is exactly 1 req/s; sweep from half to 4x that
        rates = (0.5, 1.0, 2.0, 4.0)
        shed_rates = []
        for rate in rates:
            config = ServerConfig(
                model_name="gpt-3.5-turbo", workers=2, max_concurrent=1,
                queue_limit=5, base_overhead=1.0,
                breaker_failure_threshold=1_000_000,
            )
            requests = _fixed_cost_requests(serve_swan, rate=rate, count=60)
            with QueryServer(serve_swan, config) as server:
                report = server.run(requests)
            assert report.accounted()
            assert report.shed == sum(report.shed_by_reason.values())
            shed_rates.append(report.shed / report.offered)
        assert shed_rates == sorted(shed_rates), (
            f"shed rate must be monotone in offered load: "
            f"{dict(zip(rates, shed_rates))}"
        )
        assert shed_rates[0] == 0.0, "below capacity nothing sheds"
        assert shed_rates[-1] > 0.5, "at 4x capacity most offers shed"


class _ExecutorWithStore(HybridQueryExecutor):
    """The batch runner's executor with the server's always-on store."""

    def __init__(self, *args, mapping_store=None, **kwargs):
        assert mapping_store is None
        super().__init__(*args, mapping_store=MappingStore(), **kwargs)


class TestZeroLoadByteIdentity:
    def test_unloaded_server_matches_the_batch_runner(
        self, serve_swan, monkeypatch
    ):
        from repro.harness import runner

        shots, batch_size, workers = 2, 5, 2

        def run_udf():
            # the server sizes its calls the same way
            chunk = adaptive_batch_size("gpt-3.5-turbo", shots, floor=batch_size)
            return runner.run_udf(
                serve_swan, "gpt-3.5-turbo", shots,
                batch_size=chunk, workers=workers,
            )

        plain = run_udf()
        monkeypatch.setattr(runner, "HybridQueryExecutor", _ExecutorWithStore)
        run = run_udf()
        questions = [q.qid for q in serve_swan.questions]
        requests = [
            QueryRequest(
                request_id=i,
                tenant="t",
                database="superhero",
                sql=serve_swan.question(qid).blend_sql,
                arrival=i * 10_000.0,  # strictly sequential: no queueing
                qid=qid,
                deadline_seconds=9_000.0,
            )
            for i, qid in enumerate(questions)
        ]
        config = ServerConfig(
            model_name="gpt-3.5-turbo", shots=shots, batch_size=batch_size,
            workers=workers,
        )
        with QueryServer(serve_swan, config) as server:
            report = server.run(requests)
        # the store answers questions that repeat an ingredient
        assert report.mapping_stats["hits"] > 0
        assert report.usage.calls < plain.usage.calls
        # byte identity: same token stream, same cache behaviour
        assert report.usage == run.usage
        assert (report.cache_hits, report.cache_misses) == (
            run.cache_hits, run.cache_misses
        )
        # and the same per-question answers
        run_rows = {o.qid: (o.actual_rows, o.error) for o in run.outcomes}
        assert len(report.outcomes) == len(run.outcomes)
        for outcome in report.outcomes:
            rows, error = run_rows[outcome.request.qid]
            if not error:
                assert outcome.status == SERVED
                assert outcome.rows == rows
            else:
                assert outcome.status != SERVED
                assert outcome.reason == "error"

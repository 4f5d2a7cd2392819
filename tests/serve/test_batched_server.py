"""Server-level tests for cross-request continuous batching.

The contract under test: with ``max_concurrent=1`` the batched server
is byte-identical to the unbatched one (no partner can ever share a
batch, so batching must change nothing), and with real concurrency it
coalesces overlapping work across tenants while never answering past a
deadline.
"""

import pytest

from repro.serve.batcher import BatchingConfig
from repro.serve.request import QueryRequest
from repro.serve.server import QueryServer, ServerConfig
from repro.serve.traffic import generate_traffic
from repro.harness.benchserve import default_tenants, offered_rps
from repro.swan.benchmark import load_benchmark_subset


@pytest.fixture(scope="module")
def serve_swan():
    return load_benchmark_subset(1, ["superhero"])


def _traffic(swan, *, horizon=40.0, rps=0.3, seed=0):
    tenants = default_tenants(("superhero",))
    scaled = [t.scaled(rps / offered_rps(tenants)) for t in tenants]
    policies = {t.name: t.policy() for t in scaled}
    return generate_traffic(swan, scaled, horizon=horizon, seed=seed), policies


def _run(swan, requests, policies, *, max_concurrent, batching):
    config = ServerConfig(
        workers=4, max_concurrent=max_concurrent, queue_limit=24,
        batching=batching,
    )
    with QueryServer(swan, config, policies=policies) as server:
        return server.run(requests)


def _twin_requests(swan, qid="superhero_q01", deadline=1000.0):
    """The same question offered by two tenants at the same instant."""
    question = swan.question(qid)
    return [
        QueryRequest(
            request_id=index,
            tenant=tenant,
            database="superhero",
            sql=question.blend_sql,
            arrival=0.0,
            qid=qid,
            deadline_seconds=deadline,
        )
        for index, tenant in enumerate(("alpha", "beta"))
    ]


class TestSerialByteIdentity:
    """max_concurrent=1, no faults: batching on == batching off, bit for bit.

    The contract is fault-free only.  Under ``fault_rate > 0`` the two
    arms spend their retry budgets differently (a flush retries under
    the wave's deadline, the replay then retries what is left under the
    request's), so paid calls and retry counts legitimately differ — on
    the traffic of ``test_one_lifecycle.py`` at ``fault_rate=0.3``,
    ``fault_seed=3``: 231 (off) vs 234 (on) paid calls, 53 vs 54 retries.
    """

    @pytest.mark.parametrize("persist", [True, False])
    def test_outcomes_and_usage_identical(self, serve_swan, persist):
        requests, policies = _traffic(serve_swan)
        off = _run(
            serve_swan, requests, policies, max_concurrent=1, batching=None,
        )
        on = _run(
            serve_swan, requests, policies, max_concurrent=1,
            batching=BatchingConfig(persist=persist),
        )
        assert [o.as_record() for o in on.outcomes] == [
            o.as_record() for o in off.outcomes
        ]
        assert on.usage.calls == off.usage.calls
        assert on.usage.input_tokens == off.usage.input_tokens
        assert on.usage.output_tokens == off.usage.output_tokens
        # the batched run still reports its (empty of coalescing) stats
        assert on.batching is not None
        assert off.batching is None
        assert on.batching["coalesced_calls"] == 0


class TestParsedOnce:
    """Planning hands its parsed statement to the finalize pass."""

    def test_batched_udf_request_is_parsed_once(self, serve_swan, monkeypatch):
        from repro.serve import server as server_module
        from repro.udf import executor as executor_module

        calls = {"server": 0, "executor": 0}

        def counting(where, parse):
            def wrapper(sql):
                calls[where] += 1
                return parse(sql)
            return wrapper

        monkeypatch.setattr(
            server_module, "parse", counting("server", server_module.parse)
        )
        monkeypatch.setattr(
            executor_module, "parse", counting("executor", executor_module.parse)
        )
        requests = _twin_requests(serve_swan)
        report = _run(
            serve_swan, requests, {}, max_concurrent=3,
            batching=BatchingConfig(),
        )
        assert all(o.answered for o in report.outcomes)
        assert calls == {"server": len(requests), "executor": 0}

    def test_unparseable_sql_still_degrades_with_an_error(self, serve_swan):
        bad = QueryRequest(
            request_id=0, tenant="alpha", database="superhero",
            sql="SELECT FROM WHERE {{", arrival=0.0, qid="superhero_q01",
            deadline_seconds=1000.0,
        )
        on = _run(
            serve_swan, [bad], {}, max_concurrent=3, batching=BatchingConfig(),
        )
        off = _run(serve_swan, [bad], {}, max_concurrent=3, batching=None)
        assert on.outcomes[0].reason == "error"
        assert on.outcomes[0].as_record() == off.outcomes[0].as_record()


class TestCrossTenantSingleFlight:
    def test_identical_queries_share_one_dispatch(self, serve_swan):
        requests = _twin_requests(serve_swan)
        solo = _run(
            serve_swan, requests[:1], {}, max_concurrent=3,
            batching=BatchingConfig(),
        )
        both = _run(
            serve_swan, requests, {}, max_concurrent=3,
            batching=BatchingConfig(),
        )
        assert all(o.answered for o in both.outcomes)
        # every work item was wanted by both tenants: the second request
        # rides the first's calls instead of paying again
        assert both.batching["coalesced_calls"] >= 1
        assert both.usage.calls == solo.usage.calls
        # shared-call tokens were attributed to both tenants, fairly
        shared = [o.shared_tokens for o in both.outcomes]
        assert all(s > 0 for s in shared)
        total = sum(o.input_tokens + o.output_tokens for o in both.outcomes)
        assert total == both.usage.input_tokens + both.usage.output_tokens

    def test_accounting_balances_under_batching(self, serve_swan):
        requests, policies = _traffic(serve_swan, rps=0.6)
        report = _run(
            serve_swan, requests, policies, max_concurrent=3,
            batching=BatchingConfig(),
        )
        assert report.accounted()
        assert (
            report.offered
            == report.served + report.degraded + report.rejected
        )

    def test_no_answer_lands_past_its_deadline(self, serve_swan):
        requests, policies = _traffic(serve_swan, rps=0.8)
        report = _run(
            serve_swan, requests, policies, max_concurrent=3,
            batching=BatchingConfig(),
        )
        for outcome in report.outcomes:
            if outcome.answered:
                assert (
                    outcome.finish_time
                    <= outcome.request.deadline_at + 1e-9
                )


class TestBatchingSavesWork:
    def test_concurrent_load_pays_fewer_calls(self, serve_swan):
        requests, policies = _traffic(serve_swan, rps=0.8)
        off = _run(
            serve_swan, requests, policies, max_concurrent=3, batching=None,
        )
        on = _run(
            serve_swan, requests, policies, max_concurrent=3,
            batching=BatchingConfig(),
        )
        assert on.usage.calls < off.usage.calls
        assert on.batching["batch_occupancy"] > 0

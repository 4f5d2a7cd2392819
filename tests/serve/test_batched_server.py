"""Server-level tests for cross-request continuous batching.

The contract under test: with ``max_concurrent=1`` the batched server
is byte-identical to the unbatched one (no partner can ever share a
batch, so batching must change nothing), and with real concurrency it
coalesces overlapping work across tenants while never answering past a
deadline.
"""

import pytest

from repro.serve.batcher import BatchingConfig
from repro.serve.request import DEGRADED, QueryRequest
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


def _count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` with a counting pass-through; the counter."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestParsedOnce:
    """Serving prepares each text once and fetches each key set once."""

    def test_batched_udf_request_is_parsed_once(self, serve_swan, monkeypatch):
        """Each distinct text is parsed once per executor per run."""
        from repro.udf import executor as executor_module

        parsed = _count_calls(monkeypatch, executor_module, "parse")
        requests, policies = _traffic(serve_swan, rps=0.6)
        report = _run(
            serve_swan, requests, policies, max_concurrent=3,
            batching=BatchingConfig(),
        )
        executed = {
            o.request.sql for o in report.outcomes
            if o.answered and o.request.pipeline == "udf"
            and o.reason != "breaker_open"
        }
        texts = [sql for (sql,) in parsed]
        assert len(executed) < sum(
            1 for o in report.outcomes
            if o.answered and o.request.pipeline == "udf"
        ), "the traffic must repeat texts for this to test anything"
        assert len(texts) == len(set(texts))  # no text parsed twice
        assert set(texts) == executed

    def test_finalize_neither_parses_nor_fetches_keys(
        self, serve_swan, monkeypatch
    ):
        """Finalize prepares nothing, fetches no keys, looks up no store.

        Each twin is prepared once, at dispatch: the first twin's
        preparation runs each key-fetch SQL, the second's is served by
        the connection's key memo, and both finalize passes generate
        from the answers their waves delivered.
        """
        from repro.plan import MappingStore
        from repro.sqlengine.database import Database
        from repro.udf import executor as executor_module
        from repro.udf.executor import HybridQueryExecutor

        parsed = _count_calls(monkeypatch, executor_module, "parse")
        fetched = _count_calls(monkeypatch, Database, "query_rows")
        spies = (
            parsed,
            fetched,
            _count_calls(monkeypatch, Database, "fetch_keys"),
            _count_calls(monkeypatch, MappingStore, "lookup"),
            _count_calls(monkeypatch, HybridQueryExecutor, "prepare"),
        )
        stages = []
        original = QueryServer._finalize

        def finalize(self, member, land):
            before = [len(spy) for spy in spies]
            outcome = original(self, member, land)
            stages.append((before, [len(spy) for spy in spies]))
            return outcome

        monkeypatch.setattr(QueryServer, "_finalize", finalize)
        report = _run(
            serve_swan, _twin_requests(serve_swan), {}, max_concurrent=3,
            batching=BatchingConfig(),
        )
        assert all(o.answered for o in report.outcomes)
        assert len(stages) == 2
        for before, after in stages:
            assert after == before  # no parse, fetch, lookup or prepare
        prepares, key_fetches = len(spies[-1]), len(spies[2])
        assert prepares == 2  # one per twin, at dispatch
        assert key_fetches > 0
        assert len(parsed) == 1  # the twins share one prepared statement
        texts = [sql for _, sql in fetched]
        assert texts and all("NOT INDEXED" in sql for sql in texts)
        assert len(texts) == len(set(texts))  # no key set fetched twice

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

    def test_a_failed_shared_batch_degrades_every_requester(
        self, serve_swan
    ):
        """Both twins want every key, and every upstream call fails.

        The second twin only ever waits beside the first's keys, so its
        degraded keys come from the later requesters of failed chunks.
        """
        config = ServerConfig(
            workers=4, max_concurrent=3, queue_limit=24, fault_rate=1.0,
            fault_seed=3, batching=BatchingConfig(),
        )
        with QueryServer(serve_swan, config) as server:
            report = server.run(_twin_requests(serve_swan))
        first, second = report.outcomes
        assert report.batching["coalesced_items"] > 0
        assert first.degraded_keys == second.degraded_keys > 0
        assert first.status == second.status == DEGRADED

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


class TestPersistNeedsSharedMappings:
    """``BatchingConfig.persist`` reaches the store only with shared mappings.

    With the default ``share_mappings=False`` no flush publishes, so the
    store planning peeks stays empty (1,153 keys stored and 951 served
    from it on this traffic when sharing is on).
    """

    def _serve(self, swan, share_mappings):
        requests, policies = _traffic(swan, horizon=60.0, rps=0.4)
        config = ServerConfig(
            workers=4, max_concurrent=3, queue_limit=24,
            share_mappings=share_mappings, batching=BatchingConfig(),
        )
        with QueryServer(swan, config, policies=policies) as server:
            report = server.run(requests)
            return server.mapping_store.stats()["keys"], report

    def test_default_server_never_touches_the_store(self, serve_swan):
        stored, report = self._serve(serve_swan, share_mappings=False)
        assert stored == 0
        assert report.batching["persist"] is True
        assert report.batching["keys_from_store"] == 0

    def test_shared_mappings_fill_and_serve_the_store(self, serve_swan):
        stored, report = self._serve(serve_swan, share_mappings=True)
        assert stored > 0
        assert report.batching["keys_from_store"] > 0


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

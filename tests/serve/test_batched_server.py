"""Server-level tests for cross-request continuous batching.

The contract under test: with ``max_concurrent=1`` the batched server
is byte-identical to the unbatched one (no partner can ever share a
batch, so batching must change nothing), and with real concurrency it
coalesces overlapping work across tenants while never answering past a
deadline.
"""

from dataclasses import replace

import pytest

from repro.plan import MappingStore
from repro.serve.batcher import BatchingConfig, CrossRequestBatcher
from repro.serve.request import DEGRADED, SERVED, QueryRequest
from repro.serve.server import QueryServer, ServerConfig
from repro.serve.traffic import generate_traffic
from repro.harness.benchserve import default_tenants, offered_rps
from repro.swan.benchmark import Swan, load_benchmark_subset
from repro.udf.ingredients import parse_map_answers


@pytest.fixture(scope="module")
def serve_swan():
    return load_benchmark_subset(1, ["superhero"])


def _traffic(swan, *, horizon=40.0, rps=0.3, seed=0, hqdl=True):
    tenants = default_tenants(("superhero",))
    if not hqdl:
        tenants = [replace(t, hqdl_share=0.0) for t in tenants]
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

    ``replay`` offers the same traffic a second time after the first pass
    has drained, so the second pass is answered from a warm mapping store
    in both arms: the store is always on, and identity must hold whether
    it is cold or already covers the work.  The replayed stream is
    UDF-only: on a warmed database the expansion face serves every map
    key, and the store would hold nothing to answer from.
    """

    @pytest.mark.parametrize("replay", [True, False])
    def test_outcomes_and_usage_identical(self, serve_swan, replay):
        requests, policies = _traffic(serve_swan, hqdl=not replay)
        if replay:
            offset = max(r.deadline_at for r in requests) + 1.0
            requests = requests + [
                replace(
                    r, request_id=len(requests) + r.request_id,
                    arrival=r.arrival + offset,
                )
                for r in requests
            ]
        off = _run(
            serve_swan, requests, policies, max_concurrent=1, batching=None,
        )
        on = _run(
            serve_swan, requests, policies, max_concurrent=1,
            batching=BatchingConfig(),
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
        if replay:  # the second pass really was answered from the store
            assert off.as_record()["mapping"]["keys_served"] > 0
            assert on.batching["keys_from_store"] > 0
            second = off.outcomes[len(off.outcomes) // 2:]
            assert all(o.llm_calls == 0 for o in second)


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


ARMS = pytest.mark.parametrize(
    "batching", [None, BatchingConfig()], ids=["unbatched", "batched"]
)


def _serve_with_store(swan, requests, *, batching, policies=None, **config):
    """Serve ``requests``; the report and the summed mapping-store stats."""
    config = ServerConfig(
        workers=4, max_concurrent=3, queue_limit=24, batching=batching,
        **config,
    )
    with QueryServer(swan, config, policies=policies) as server:
        return server.run(requests), server.states.mapping_stats()


class TestStoreServesCoveredRequests:
    """What one request generated, a later request reads from the store.

    The twin arrives long after the first request finished, so no wave
    or batch can share work between them: only the database's mapping
    store can answer it.  ``superhero_q02`` because every one of its keys
    gets a real answer; on ``superhero_q01`` one drifts to NULL, is not
    published, and the store covers that occurrence only partially.
    """

    @staticmethod
    def _sequential_twins(swan):
        first, second = _twin_requests(swan, qid="superhero_q02")
        return [first, replace(second, arrival=500.0)]

    @ARMS
    def test_a_covered_request_pays_nothing(
        self, serve_swan, monkeypatch, batching
    ):
        enqueued = [
            _count_calls(monkeypatch, CrossRequestBatcher, name)
            for name in ("enqueue_keys", "enqueue_prompt")
        ]
        report, stats = _serve_with_store(
            serve_swan, self._sequential_twins(serve_swan), batching=batching
        )
        first, second = report.outcomes
        assert first.status == second.status == SERVED
        assert first.llm_calls > 0
        assert second.llm_calls == 0
        assert second.input_tokens == second.output_tokens == 0
        assert second.service_seconds == pytest.approx(
            ServerConfig().base_overhead, abs=1e-9
        )
        assert stats["keys"] > 0
        members = [args[4] for calls in enqueued for args in calls]
        if batching is None:
            assert stats["hits"] > 0  # the executor's store-first lookup
            assert not members
        else:
            assert report.batching["keys_from_store"] > 0
            assert members
            assert {m.request.request_id for m in members} == {0}

    @ARMS
    def test_faults_never_publish_a_null(
        self, serve_swan, monkeypatch, batching
    ):
        from repro.serve import server as server_module
        from repro.udf import executor as executor_module

        decoded: list = []

        def decode(completion, expected):
            answers = parse_map_answers(completion, expected)
            decoded.extend(answers)
            return answers

        for module in (server_module, executor_module):
            monkeypatch.setattr(module, "parse_map_answers", decode)
        puts = _count_calls(monkeypatch, MappingStore, "put")
        # UDF-only: a warmed database's face serves its maps, so they
        # would publish nothing
        requests, policies = _traffic(
            serve_swan, horizon=60.0, rps=0.4, hqdl=False
        )
        report, stats = _serve_with_store(
            serve_swan, requests, batching=batching, policies=policies,
            fault_rate=0.2, fault_seed=3,
        )
        assert report.resilience.retries > 0  # faults did fire
        assert None in decoded  # and NULL answers were generated
        assert puts and stats["keys"] > 0
        for _, _, mapping in puts:
            assert None not in mapping.values()


class TestOneStorePerDatabase:
    """An ingredient signature names no database, so neither may the store.

    ``twin`` is the superhero world under a second name: the same SQL
    there has every signature of the original, and a shared store would
    answer it with the first database's values at zero calls (the store
    covers ``superhero_q02`` fully, see above).
    """

    @ARMS
    def test_colliding_signatures_stay_apart(self, serve_swan, batching):
        world = serve_swan.world("superhero")
        swan = Swan(
            worlds={"superhero": world, "twin": world},
            questions=serve_swan.questions,
        )
        first, second = _twin_requests(serve_swan, qid="superhero_q02")
        requests = [first, replace(second, database="twin", arrival=500.0)]
        config = ServerConfig(
            workers=4, max_concurrent=3, queue_limit=24, batching=batching
        )
        with QueryServer(swan, config) as server:
            report = server.run(requests)
            stores = [
                server.states[name].store for name in ("superhero", "twin")
            ]
            summed = server.states.mapping_stats()
        first, second = report.outcomes
        assert first.status == second.status == SERVED
        assert second.llm_calls == first.llm_calls > 0
        assert stores[0].stats() == stores[1].stats()
        assert report.as_record()["mapping"] == summed
        assert summed["keys"] == 2 * stores[0].stats()["keys"] > 0


class TestBatchingPaysAsUnbatched:
    def test_concurrent_load_pays_the_unbatched_calls(self, serve_swan):
        """Both arms cut a query's keys at its plan's chunk size, so under
        concurrent load batching pays the calls and tokens per-request
        dispatch pays, and answers alike.  Coalescing is pinned by
        ``golden_batched``'s burst row.

        On the mixed stream the resident HQDL expansion answers every map
        key the store lacks, so no wave forms; the UDF-only stream (no
        expansion) is where the batched arm dispatches waves."""
        for hqdl in (True, False):
            requests, policies = _traffic(serve_swan, rps=0.8, hqdl=hqdl)
            off = _run(
                serve_swan, requests, policies, max_concurrent=3,
                batching=None,
            )
            on = _run(
                serve_swan, requests, policies, max_concurrent=3,
                batching=BatchingConfig(),
            )
            assert on.usage == off.usage
            if hqdl:
                assert on.as_record()["mapping"]["expansion_keys"] > 0
            else:
                assert on.batching["batch_occupancy"] > 0
            assert [(o.status, o.rows) for o in on.outcomes] == [
                (o.status, o.rows) for o in off.outcomes
            ]
            # the arms sum a request's virtual time in different orders
            for a, b in zip(on.outcomes, off.outcomes):
                assert a.finish_time == pytest.approx(b.finish_time, abs=1e-9)

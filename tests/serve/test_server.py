"""Tests for the virtual-clock query server (`repro.serve.server`)."""

import pytest

from repro.obs.ledger import RunLedger
from repro.serve.admission import TenantPolicy
from repro.serve.request import DEGRADED, REJECTED, SERVED, QueryRequest
from repro.serve.server import QueryServer, ServerConfig, VirtualClock
from repro.serve.traffic import TenantSpec, generate_traffic
from repro.swan.benchmark import load_benchmark_subset


@pytest.fixture(scope="module")
def serve_swan():
    return load_benchmark_subset(1, ["superhero"])


def _requests_for(swan, qids, *, spacing, deadline=1000.0, tenant="t"):
    """Sequential requests over named questions, ``spacing`` seconds apart."""
    requests = []
    for index, qid in enumerate(qids):
        question = swan.question(qid)
        requests.append(
            QueryRequest(
                request_id=index,
                tenant=tenant,
                database="superhero",
                sql=question.blend_sql,
                arrival=index * spacing,
                qid=qid,
                deadline_seconds=deadline,
            )
        )
    return requests


class TestVirtualClock:
    def test_never_runs_backwards(self):
        clock = VirtualClock()
        clock.advance_to(5.0)
        clock.advance_to(3.0)
        assert clock.now() == 5.0
        clock.advance_to(7.0)
        assert clock.now() == 7.0

    def test_only_the_event_loop_moves_it(self):
        # backoff sleeps on a request's ServiceTimer; nothing may sleep here
        assert not hasattr(VirtualClock(), "sleep")


class TestServerConfig:
    def test_validates_knobs(self):
        for kwargs in (
            {"workers": 0},
            {"max_concurrent": 0},
            {"shots": -1},
            {"base_overhead": -1.0},
            {"fault_rate": 1.5},
        ):
            with pytest.raises(ValueError):
                ServerConfig(**kwargs)

    @pytest.mark.parametrize("batch_size", [0, 21])
    def test_batch_size_outside_the_policy_fails_at_construction(
        self, serve_swan, batch_size
    ):
        """``batch_size`` floors the adaptive chunk size (ceiling 20)."""
        config = ServerConfig(batch_size=batch_size)
        with pytest.raises(ValueError):
            QueryServer(serve_swan, config)


class TestUnloadedServing:
    def test_sequential_requests_all_serve(self, serve_swan):
        qids = ["superhero_q10", "superhero_q12", "superhero_q16"]
        requests = _requests_for(serve_swan, qids, spacing=500.0)
        with QueryServer(serve_swan, ServerConfig(
            model_name="gpt-3.5-turbo", workers=2,
        )) as server:
            report = server.run(requests)
        assert report.accounted()
        assert report.served == len(requests)
        assert report.rejected == report.degraded == 0
        for outcome in report.outcomes:
            assert outcome.status == SERVED
            assert outcome.queue_wait == 0.0
            assert outcome.service_seconds > 0.0
            assert outcome.llm_calls > 0

    def test_repeat_question_is_served_from_cache(self, serve_swan):
        requests = _requests_for(
            serve_swan, ["superhero_q10", "superhero_q10"], spacing=500.0
        )
        with QueryServer(serve_swan, ServerConfig(
            model_name="gpt-3.5-turbo", workers=2,
        )) as server:
            report = server.run(requests)
        first, second = report.outcomes
        assert second.llm_calls == 0
        assert second.service_seconds < first.service_seconds
        # the mapping store answers the repeat before any prompt is built,
        # so the prompt cache in front of the model is never consulted
        assert report.mapping_stats["hits"] > 0
        assert report.cache_hits == 0

    def test_run_is_deterministic(self, serve_swan):
        spec = TenantSpec(
            name="t", rate=0.3, databases=("superhero",), hqdl_share=0.2
        )
        requests = generate_traffic(serve_swan, [spec], horizon=40.0, seed=3)
        config = ServerConfig(model_name="gpt-3.5-turbo", workers=2)
        records = []
        for _ in range(2):
            with QueryServer(serve_swan, config) as server:
                records.append(server.run(requests).as_record())
        assert records[0] == records[1]


class TestOverload:
    @pytest.fixture(scope="class")
    def overload_report(self, serve_swan):
        spec = TenantSpec(
            name="flood", rate=2.0, deadline_seconds=20.0,
            databases=("superhero",),
        )
        requests = generate_traffic(serve_swan, [spec], horizon=60.0, seed=0)
        config = ServerConfig(
            model_name="gpt-3.5-turbo", workers=2, max_concurrent=2,
            queue_limit=4,
        )
        with QueryServer(serve_swan, config) as server:
            return server.run(requests)

    def test_trichotomy_holds_under_saturation(self, overload_report):
        report = overload_report
        assert report.offered >= 100  # well past 2x what the server sustains
        assert report.accounted()
        assert report.rejected > 0, "sustained overload must shed load"
        assert (
            report.served + report.degraded + report.rejected
            == report.offered
        )
        assert report.shed == sum(report.shed_by_reason.values())

    def test_rejections_carry_typed_reasons(self, overload_report):
        reasons = overload_report.rejected_by_reason()
        assert set(reasons) <= {
            "queue_full", "tenant_quota", "token_budget", "deadline_expired"
        }
        assert reasons.get("queue_full", 0) > 0
        for outcome in overload_report.outcomes:
            if outcome.status == REJECTED and outcome.reason == "queue_full":
                assert outcome.retry_after is not None
                assert outcome.retry_after > 0

    def test_deadlines_are_never_exceeded(self, overload_report):
        for outcome in overload_report.outcomes:
            assert (
                outcome.finish_time
                <= outcome.request.deadline_at + 1e-6
            ), f"request {outcome.request.request_id} finished late"
            if outcome.answered:
                assert outcome.latency <= (
                    outcome.request.deadline_seconds + 1e-6
                )

    def test_queue_expiry_rejects_at_the_deadline_instant(
        self, overload_report
    ):
        expired = [
            o for o in overload_report.outcomes
            if o.status == REJECTED and o.reason == "deadline_expired"
        ]
        for outcome in expired:
            assert outcome.finish_time == outcome.request.deadline_at

    def test_max_queue_depth_respects_the_limit(self, overload_report):
        assert 0 < overload_report.max_queue_depth <= 4


class TestGracefulDegradation:
    def test_breaker_sheds_quality_before_availability(self, serve_swan):
        # distinct uncached questions under an impossible deadline: each
        # miss is a breaker failure; after the third the breaker opens
        # and later requests get the cheap degraded answer instead
        qids = ["superhero_q10", "superhero_q12", "superhero_q16",
                "superhero_q01", "superhero_q02"]
        requests = _requests_for(
            serve_swan, qids, spacing=5.0, deadline=0.3
        )
        config = ServerConfig(
            model_name="gpt-3.5-turbo", workers=2,
            breaker_failure_threshold=3, breaker_cooldown=30.0,
        )
        with QueryServer(serve_swan, config) as server:
            report = server.run(requests)
        assert report.accounted()
        assert report.breaker_trips >= 1
        reasons = report.degraded_by_reason()
        assert reasons.get("deadline", 0) >= 3
        assert reasons.get("breaker_open", 0) >= 1
        # availability held: every request was answered, on time
        assert report.answered == len(requests)
        for outcome in report.outcomes:
            assert outcome.finish_time <= outcome.request.deadline_at + 1e-6

    def test_breaker_open_answers_skip_llm_work(self, serve_swan):
        qids = ["superhero_q10", "superhero_q12", "superhero_q16",
                "superhero_q01"]
        requests = _requests_for(
            serve_swan, qids, spacing=5.0, deadline=0.3
        )
        with QueryServer(serve_swan, ServerConfig(
            model_name="gpt-3.5-turbo", workers=2,
            breaker_failure_threshold=3,
        )) as server:
            report = server.run(requests)
        opened = [
            o for o in report.outcomes if o.reason == "breaker_open"
        ]
        assert opened
        for outcome in opened:
            assert outcome.llm_calls == 0
            assert outcome.service_seconds <= 0.3


class TestTenantPolicies:
    def test_token_budget_rejects_after_spend(self, serve_swan):
        requests = _requests_for(
            serve_swan, ["superhero_q10", "superhero_q12"], spacing=500.0
        )
        policies = {"t": TenantPolicy(name="t", token_budget=10)}
        with QueryServer(
            serve_swan,
            ServerConfig(model_name="gpt-3.5-turbo", workers=2),
            policies=policies,
        ) as server:
            report = server.run(requests)
        first, second = report.outcomes
        assert first.status == SERVED
        assert first.input_tokens + first.output_tokens > 10
        assert second.status == REJECTED
        assert second.reason == "token_budget"
        assert second.retry_after is None

    def test_concurrency_cap_queues_rather_than_sheds(self, serve_swan):
        # both requests arrive together; the cap serializes them, and
        # the second waits in queue instead of being rejected
        question = serve_swan.question("superhero_q10")
        requests = [
            QueryRequest(
                request_id=i, tenant="t", database="superhero",
                sql=question.blend_sql, arrival=0.0, qid=question.qid,
                deadline_seconds=1000.0,
            )
            for i in range(2)
        ]
        policies = {"t": TenantPolicy(name="t", max_concurrent=1)}
        with QueryServer(
            serve_swan,
            ServerConfig(model_name="gpt-3.5-turbo", workers=2),
            policies=policies,
        ) as server:
            report = server.run(requests)
        assert report.rejected == 0
        waits = sorted(o.queue_wait for o in report.outcomes)
        assert waits[0] == 0.0
        assert waits[1] > 0.0


class TestReporting:
    def test_per_tenant_stats_sum_to_offered(self, serve_swan):
        specs = [
            TenantSpec(name="a", rate=0.3, databases=("superhero",)),
            TenantSpec(name="b", rate=0.3, databases=("superhero",)),
        ]
        requests = generate_traffic(serve_swan, specs, horizon=30.0, seed=1)
        with QueryServer(serve_swan, ServerConfig(
            model_name="gpt-3.5-turbo", workers=2,
        )) as server:
            report = server.run(requests)
        tenants = report.per_tenant()
        assert sum(t["offered"] for t in tenants.values()) == report.offered
        assert 0.0 < report.fairness() <= 1.0
        record = report.as_record()
        assert record["accounting_ok"] is True
        assert record["offered"] == report.offered

    def test_run_appends_a_ledger_row(self, serve_swan, tmp_path):
        requests = _requests_for(
            serve_swan, ["superhero_q10"], spacing=500.0
        )
        with RunLedger(tmp_path / "ledger.sqlite") as ledger:
            with QueryServer(
                serve_swan,
                ServerConfig(model_name="gpt-3.5-turbo", workers=2),
                ledger=ledger,
            ) as server:
                report = server.run(requests)
            row = ledger.latest(label="serve")
        assert row is not None
        assert row["pipeline"] == "serve"
        assert row["payload"]["serve"]["offered"] == report.offered
        assert row["llm_calls"] == report.usage.calls

    def test_close_is_idempotent(self, serve_swan):
        server = QueryServer(
            serve_swan, ServerConfig(model_name="gpt-3.5-turbo")
        )
        server.run(_requests_for(serve_swan, ["superhero_q10"], spacing=1.0))
        server.close()
        server.close()

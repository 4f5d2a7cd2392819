"""Golden bytes of the per-request (``batching=None``) dispatch path.

``golden_unbatched.json`` holds one sha256 per server configuration,
generated on the commit *before* ``QueryServer._execute`` was folded into
the one finalize step (``PYTHONPATH=src python
tests/serve/test_one_lifecycle.py`` rewrites it).  The digest covers every
outcome, the report record and the resilience counters, so the fold — an
unbatched request is a pending request that rode zero waves — has to
reproduce the old body bit for bit, faults, shared mappings and the disk
tier included.

The ``fault_rate > 0`` rows were re-pinned once, by the commit after the
fold: retry backoff used to sleep on the server's global clock (pushing
every later event out and never depleting the request's own deadline);
it now sleeps on the request's / wave's ``ServiceTimer``.  The fault-free
rows are the parent's bytes.  ``TestBackoffOnRequestBudget`` covers what
the old rows could not.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.harness.benchserve import default_tenants, offered_rps
from repro.obs import MetricsRegistry, Telemetry
from repro.serve.batcher import BatchingConfig
from repro.serve.request import DEGRADED, QueryRequest
from repro.serve.server import (
    QueryServer,
    ServerConfig,
    ServiceTimer,
    VirtualClock,
)
from repro.serve.trace import ServeTraceLog
from repro.serve.traffic import generate_traffic
from repro.swan.benchmark import load_benchmark_subset

GOLDEN = Path(__file__).with_name("golden_unbatched.json")

MATRIX = [
    (max_concurrent, fault_rate, share_mappings)
    for max_concurrent in (1, 3)
    for fault_rate in (0.0, 0.2, 0.5)
    for share_mappings in (False, True)
]


def _matrix_id(max_concurrent, fault_rate, share_mappings) -> str:
    return f"mc{max_concurrent}-fault{fault_rate}-share{int(share_mappings)}"


def _traffic(swan, *, horizon=60.0, rps=0.4, seed=0):
    tenants = default_tenants(("superhero",))
    scaled = [t.scaled(rps / offered_rps(tenants)) for t in tenants]
    policies = {t.name: t.policy() for t in scaled}
    return generate_traffic(swan, scaled, horizon=horizon, seed=seed), policies


def _serve(swan, **config):
    requests, policies = _traffic(swan)
    server_config = ServerConfig(workers=4, queue_limit=24, **config)
    with QueryServer(swan, server_config, policies=policies) as server:
        return server.run(requests)


def digest(report) -> str:
    payload = {
        "outcomes": [
            (
                o.request.request_id, o.status, o.reason,
                round(o.finish_time, 9), o.queue_wait, o.llm_calls,
                o.input_tokens, o.output_tokens, o.degraded_keys, o.rows,
            )
            for o in report.outcomes
        ],
        "record": report.as_record(),
        "resilience": report.resilience.as_dict(),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _disk_pair(swan, cache_dir, batching):
    """(cold report, warm report) of two servers sharing one cache_dir."""
    return tuple(
        _serve(swan, max_concurrent=3, cache_dir=cache_dir, batching=batching)
        for _ in range(2)
    )


def compute_all(swan, scratch: Path) -> dict[str, str]:
    digests = {}
    for row in MATRIX:
        max_concurrent, fault_rate, share_mappings = row
        digests[_matrix_id(*row)] = digest(
            _serve(
                swan, max_concurrent=max_concurrent, fault_rate=fault_rate,
                fault_seed=3, share_mappings=share_mappings,
            )
        )
    for arm, batching in (("off", None), ("on", BatchingConfig())):
        cold, warm = _disk_pair(swan, scratch / arm, batching)
        digests[f"disk-cold-batching-{arm}"] = digest(cold)
        digests[f"disk-warm-batching-{arm}"] = digest(warm)
    return digests


@pytest.fixture(scope="module")
def serve_swan():
    return load_benchmark_subset(1, ["superhero"])


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


class TestGoldenUnbatched:
    @pytest.mark.parametrize("row", MATRIX, ids=lambda row: _matrix_id(*row))
    def test_matrix_row_matches_parent_bytes(self, serve_swan, golden, row):
        max_concurrent, fault_rate, share_mappings = row
        report = _serve(
            serve_swan, max_concurrent=max_concurrent, fault_rate=fault_rate,
            fault_seed=3, share_mappings=share_mappings,
        )
        assert digest(report) == golden[_matrix_id(*row)]

    @pytest.mark.parametrize(
        "arm,batching", [("off", None), ("on", BatchingConfig())]
    )
    def test_disk_tier_cold_then_warm(
        self, serve_swan, golden, tmp_path, arm, batching
    ):
        cold, warm = _disk_pair(serve_swan, tmp_path, batching)
        assert cold.usage.calls > 0
        assert warm.usage.calls == 0
        assert digest(cold) == golden[f"disk-cold-batching-{arm}"]
        assert digest(warm) == golden[f"disk-warm-batching-{arm}"]


class TestBackoffOnRequestBudget:
    """Retry backoff consumes the request's budget, not the server clock."""

    def _faulty_run(self, swan, monkeypatch, *, batching, fault_rate=0.3):
        sleeps: list[float] = []
        instants: list[float] = []
        timer_sleep = ServiceTimer.sleep
        advance_to = VirtualClock.advance_to

        def spy_sleep(timer, seconds):
            sleeps.append(seconds)
            timer_sleep(timer, seconds)

        def spy_advance(clock, when):
            instants.append(when)
            advance_to(clock, when)

        monkeypatch.setattr(ServiceTimer, "sleep", spy_sleep)
        monkeypatch.setattr(VirtualClock, "advance_to", spy_advance)
        requests, policies = _traffic(swan)
        telemetry = Telemetry(metrics=MetricsRegistry())
        trace = ServeTraceLog()
        config = ServerConfig(
            workers=4, queue_limit=24, max_concurrent=3,
            fault_rate=fault_rate, fault_seed=3, batching=batching,
        )
        with QueryServer(
            swan, config, policies=policies, telemetry=telemetry, trace=trace
        ) as server:
            report = server.run(requests)
            clock_end = server.clock.now()
        backoff_total = telemetry.metrics.snapshot()[
            "llm.retry.backoff_seconds_total"
        ]
        return report, trace, sleeps, instants, clock_end, backoff_total

    def test_traces_account_for_every_backoff_second(
        self, serve_swan, monkeypatch
    ):
        report, trace, sleeps, _, _, backoff_total = self._faulty_run(
            serve_swan, monkeypatch, batching=None
        )
        records = trace.records
        assert report.resilience.retries > 0
        # every backoff went to a ServiceTimer, one sleep per retry
        assert len(sleeps) == report.resilience.retries
        assert sum(r.retries for r in records) == report.resilience.retries
        traced = sum(r.backoff_seconds for r in records)
        assert traced > 0
        assert traced == pytest.approx(backoff_total)
        assert traced == pytest.approx(sum(sleeps))

    @pytest.mark.parametrize("batching", [None, BatchingConfig()])
    def test_clock_only_moves_to_event_instants(
        self, serve_swan, monkeypatch, batching
    ):
        report, _, sleeps, instants, clock_end, _ = self._faulty_run(
            serve_swan, monkeypatch, batching=batching
        )
        assert sleeps  # faults did fire
        assert instants == sorted(instants)
        assert clock_end == instants[-1]
        assert clock_end == max(o.finish_time for o in report.outcomes)
        for outcome in report.outcomes:
            assert outcome.finish_time <= outcome.request.deadline_at + 1e-9

    @pytest.mark.parametrize("batching", [None, BatchingConfig()])
    def test_backoff_past_the_budget_degrades_instead_of_overrunning(
        self, serve_swan, batching
    ):
        question = serve_swan.question("superhero_q01")
        request = QueryRequest(
            request_id=0, tenant="solo", database="superhero",
            sql=question.blend_sql, arrival=0.0, qid=question.qid,
            deadline_seconds=1.0,
        )
        config = ServerConfig(
            workers=1, max_concurrent=1, fault_rate=0.9, fault_seed=3,
            batching=batching,
        )
        with QueryServer(serve_swan, config) as server:
            report = server.run([request])
        (outcome,) = report.outcomes
        assert report.resilience.retries > 0
        assert outcome.status == DEGRADED
        assert outcome.finish_time <= request.deadline_at


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        digests = compute_all(
            load_benchmark_subset(1, ["superhero"]), Path(scratch)
        )
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")

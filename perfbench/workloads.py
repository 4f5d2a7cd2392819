"""The five workloads: inputs from a seed, one timed pass, checks, one traced pass.

Everything here calls ``repro`` through its public functions only; the
layers are timed from outside.  A workload object is used once, in this
order: ``prepare`` (set-up, counted in ``setup_s``), ``run_pass`` as often as
the run length allows, ``check``, ``end_to_end``, and for a traced run
``traced``.  Counts and virtual-clock numbers repeat exactly for a seed;
only ``perf_counter`` spans vary between runs.
"""

from __future__ import annotations

import json
import math
import random
import shutil
from contextlib import ExitStack
from dataclasses import replace
from pathlib import Path
from time import perf_counter

from repro.core.hqdl import HQDL
from repro.errors import ReproError
from repro.eval.execution import evaluate_question, failed_outcome
from repro.eval.factuality import database_factuality
from repro.harness.benchserve import (
    build_observability,
    default_config,
    default_tenants,
    offered_rps,
)
from repro.harness.runner import GoldResults, run_hqdl, run_udf
from repro.llm import (
    KnowledgeOracle,
    MockChatModel,
    PromptCache,
    ScriptedClient,
    UsageMeter,
    count_tokens,
    get_profile,
)
from repro.llm.batching import parallel_makespan
from repro.llm.diskcache import PersistentClient, PersistentPromptCache
from repro.obs import ProvenanceRecorder, Telemetry
from repro.serve import BatchingConfig, QueryServer, generate_traffic
from repro.serve.trace import ServeTraceLog
from repro.sqlparser import parse, render
from repro.swan import Swan, load_benchmark
from repro.swan.build import build_curated_database
from repro.udf import HybridQueryExecutor

import spans as sp
from proxy import ProxyClient

#: the paper's Table 3/5 configuration, fixed for all three batch workloads
MODEL = "gpt-3.5-turbo"
SHOTS = 5
BATCH_SIZE = 5
#: questions drawn per database (of 30), in drawn order, by ``--seed``
QUESTIONS_PER_DB = 27
#: connections the virtual makespan assumes; independent of how the
#: benchmark itself runs (one thread)
VIRTUAL_WORKERS = 4
#: virtual seconds of traffic per traffic seed
HORIZON = 600.0

#: per-layer time metrics that are the summed duration of one span name
SPAN_TOTALS = {
    "sqlparser.parse_s": "sqlparser.parse",
    "sqlparser.render_s": "sqlparser.render",
    "llm.model_busy_s": "llm.complete",
    "llm.count_tokens_s": "llm.count_tokens",
    "llm.disk_get_s": "llm.disk_get",
    "llm.disk_put_s": "llm.disk_put",
    "udf.execute_s": "udf.execute_with_report",
    "udf.plan_calls_s": "udf.plan_calls",
    "core.plan_calls_s": "core.plan_calls",
    "core.generate_s": "core.generate_all",
    "core.materialize_s": "core.build_expanded_database",
    "core.answer_s": "core.answer",
    "eval.compare_s": "eval.evaluate_question",
    "eval.factuality_s": "eval.database_factuality",
    "serve.run_s": "serve.run",
    "serve.pipeline_replay_s": "serve.pipeline_replay",
}
#: ... and those that are one span name's self time (span minus children)
SPAN_SELF = {
    "udf.self_s": "udf.execute_with_report",
    "core.generate_self_s": "core.generate_all",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def draw_questions(swan: Swan, seed: int) -> Swan:
    """The seeded subset: ``QUESTIONS_PER_DB`` questions of each database.

    The draw also fixes the order they are asked in, which moves cache hits
    between questions but not the totals a pass pays.
    """
    rng = random.Random(seed)
    questions = []
    for name in swan.database_names():
        questions.extend(rng.sample(swan.questions_for(name), QUESTIONS_PER_DB))
    return Swan(worlds=swan.worlds, questions=questions)


def _time_curated_build(swan: Swan) -> dict:
    """Build every curated database once, as each pass will, and count rows."""
    started = perf_counter()
    rows = 0
    for name in swan.database_names():
        with build_curated_database(swan.world(name)) as db:
            rows += sum(db.row_count(table) for table in db.table_names())
    return {
        "swan.build_curated_s": perf_counter() - started,
        "swan.curated_rows": rows,
    }


def _model(world, model_name: str, meter: UsageMeter, recorder, keep_prompts):
    return ProxyClient(
        MockChatModel(KnowledgeOracle(world), get_profile(model_name), meter=meter),
        recorder,
        keep_prompts=keep_prompts,
    )


def _llm_metrics(proxies: list[ProxyClient], busy_s: float) -> dict:
    sizes = [size for proxy in proxies for size in proxy.call_sizes]
    tokens_in = sum(i for i, _ in sizes)
    tokens_out = sum(o for _, o in sizes)
    return {
        "llm.model_calls": len(sizes),
        "llm.input_tokens": tokens_in,
        "llm.output_tokens": tokens_out,
        "llm.tokens_per_busy_s": ratio(tokens_in + tokens_out, busy_s),
    }


def _span_metrics(spans: list[sp.Span], wall_s: float) -> dict:
    """Layer times from span names; the first root span is the traced pass."""
    layer = {metric: sp.total(spans, name) for metric, name in SPAN_TOTALS.items()}
    layer.update(
        {metric: sp.self_total(spans, name) for metric, name in SPAN_SELF.items()}
    )
    layer["harness.unattributed_s"] = sp.self_times(spans)[0]
    layer["harness.trace_overhead_ratio"] = ratio(spans[0].duration, wall_s)
    return layer


class BatchWorkload:
    """``run_udf`` / ``run_hqdl`` over a seeded question subset at one scale."""

    def __init__(
        self, name: str, seed: int, scratch: Path, *, pipeline: str, scale: int,
        warm: bool = False,
    ) -> None:
        self.name = name
        self.seed = seed
        self.pipeline = pipeline
        self.scale = scale
        #: timed passes read a disk cache that set-up filled
        self.warm = warm
        self.cache_dir = scratch / "disk-cache" if warm else None
        self.scratch = scratch
        self.layer: dict[str, float] = {}
        self.last = None

    # -- set-up ----------------------------------------------------------------

    def prepare(self) -> None:
        started = perf_counter()
        self.swan = draw_questions(load_benchmark(self.scale), self.seed)
        self.layer["swan.load_s"] = perf_counter() - started

        self.layer.update(_time_curated_build(self.swan))

        started = perf_counter()
        self.gold = GoldResults(self.swan)
        self.layer["sqlengine.gold_query_s"] = perf_counter() - started
        self.layer["sqlengine.gold_rows"] = sum(
            len(self.gold.expected(q.qid)) for q in self.swan.questions
        )

        # The warm-up pass fills lazy imports and memoized demonstration
        # pools.  It also carries the size-recording proxy: HQDL reports no
        # call sizes of its own, and the timed passes must run without one.
        self._warmup_proxies: list[ProxyClient] = []
        self.warmup = self._run(
            MODEL, cache_dir=self.cache_dir, wrap_client=self._record_sizes
        )
        self.warmup_sizes = [
            size for proxy in self._warmup_proxies for size in proxy.call_sizes
        ]

    def _record_sizes(self, model):
        proxy = ProxyClient(model)
        self._warmup_proxies.append(proxy)
        return proxy

    def _run(self, model_name: str, **extra):
        runner = run_udf if self.pipeline == "udf" else run_hqdl
        if self.pipeline == "udf":
            extra.update(batch_size=BATCH_SIZE, pushdown=True)
        return runner(
            self.swan, model_name, SHOTS, gold=self.gold, workers=1, db_workers=1,
            parallelism="threads", ledger=None, **extra,
        )

    # -- timed pass --------------------------------------------------------------

    def run_pass(self):
        self.last = self._run(MODEL, cache_dir=self.cache_dir)
        return self._digest(self.last)

    def _digest(self, run) -> tuple:
        hits = getattr(run, "cache_hits", 0), getattr(run, "cache_misses", 0)
        return run.usage, tuple(run.outcomes), hits

    # -- checks ------------------------------------------------------------------

    def ops(self) -> tuple[int, int]:
        """(attempted, failed) questions of one pass."""
        outcomes = self.last.outcomes
        return len(outcomes), sum(1 for o in outcomes if o.error)

    def check(self, digests: list[tuple]) -> list[str]:
        failures = []
        if len(set(digests)) != 1:
            failures.append("timed passes disagree on usage, outcomes or cache hits")
        if self.warm:
            if self.last.usage.calls != 0 or self.last.persistent_misses != 0:
                failures.append(
                    f"warm pass paid {self.last.usage.calls} LLM calls and "
                    f"missed the disk cache {self.last.persistent_misses} times"
                )
            if self.last.outcomes != self.warmup.outcomes:
                failures.append("warm outcomes differ from the fill pass")
        elif digests[0] != self._digest(self.warmup):
            failures.append("the size-recording proxy changed the warm-up pass")
        perfect = self._run("perfect")
        if perfect.overall_ex != 1.0:
            wrong = [o.qid for o in perfect.outcomes if not o.correct]
            failures.append(
                f"perfect-profile EX is {perfect.overall_ex:.4f}, not 1.0: {wrong}"
            )
        return failures

    # -- metrics -----------------------------------------------------------------

    def _paid(self):
        """(usage, call sizes, questions answered) the spend metrics divide.

        Call sizes are the warm-up pass's, seen by its proxy: the same calls a
        timed cold pass pays, and for ``udf_warm`` the fill's, to which the
        timed rerun must add none.  ``udf_warm`` asks every question twice —
        the fill in set-up pays, the rerun must not — so its spend is per
        answer over both, which keeps it a non-zero number that a cache miss
        or a dearer fill raises.
        """
        answered = sum(1 for o in self.last.outcomes if not o.error)
        usage = self.last.usage
        if self.warm:
            answered += sum(1 for o in self.warmup.outcomes if not o.error)
            usage = usage + self.warmup.usage
        return usage, self.warmup_sizes, answered

    def end_to_end(self) -> dict:
        attempted, failed = self.ops()
        usage, sizes, answered = self._paid()
        return {
            "ok_ratio": ratio(attempted - failed, attempted),
            "tokens_per_op": ratio(usage.total_tokens(), answered),
            "llm_calls_per_op": ratio(usage.calls, answered),
            "virt_s_per_op": ratio(
                parallel_makespan(sizes, VIRTUAL_WORKERS), answered
            ),
        }

    def counts(self) -> dict:
        """Per-layer counts the untraced passes already returned."""
        run = self.last
        _, sizes, _ = self._paid()
        layer = dict(self.layer)
        layer["eval.ex"] = run.overall_ex
        layer["llm.virt_makespan_s"] = parallel_makespan(sizes, VIRTUAL_WORKERS)
        if self.pipeline == "udf":
            layer["llm.cache_hits"] = run.cache_hits
            layer["llm.cache_misses"] = run.cache_misses
            layer["llm.cache_hit_ratio"] = ratio(
                run.cache_hits, run.cache_hits + run.cache_misses
            )
            layer["udf.keys_generated"] = run.keys_generated
        else:
            layer["eval.f1"] = run.average_f1
            tables = [
                t for g in run.generations.values() for t in g.tables.values()
            ]
            layer["core.generated_cells"] = sum(t.generated_cells() for t in tables)
            layer["core.malformed_rows"] = sum(t.malformed for t in tables)
            layer["core.calls"] = sum(t.calls for t in tables)
        if self.warm:
            layer["llm.disk_hits"] = run.persistent_hits
            layer["llm.disk_misses"] = run.persistent_misses
            layer["llm.disk_stores"] = sum(
                s["stores"] for s in self.warmup.persistent.values()
            )
        return layer

    # -- traced pass -------------------------------------------------------------

    def traced(self, recorder: sp.SpanRecorder, wall_s: float) -> tuple[dict, list[str]]:
        failures = []
        meter = UsageMeter()
        proxies: list[ProxyClient] = []
        disk_proxies: list[ProxyClient] = []
        with recorder.span("pass"):
            if self.pipeline == "udf":
                outcomes, reports = self._traced_udf(
                    recorder, meter, proxies, disk_proxies
                )
            else:
                outcomes = self._traced_hqdl(recorder, meter, proxies)
        sizes = [size for proxy in proxies for size in proxy.call_sizes]
        if meter.total != self.last.usage or outcomes != self.last.outcomes:
            failures.append("traced pass changed usage or outcomes")
        if sizes != ([] if self.warm else self.warmup_sizes):
            failures.append("traced pass changed the paid call sizes")

        with recorder.span("replay"):
            prompts = [p for proxy in proxies for p, _ in proxy.prompts]
            with recorder.span("llm.count_tokens"):
                for prompt in prompts:
                    count_tokens(prompt)
            if self.pipeline == "udf":
                self._replay_parser(recorder)
                self._replay_udf_plan(recorder)
            else:
                self._replay_hqdl_plan(recorder)
            if self.warm:
                self._replay_disk(recorder, disk_proxies)

        layer = self.counts()
        layer.update(_span_metrics(recorder.spans, wall_s))
        layer.update(_llm_metrics(proxies, layer["llm.model_busy_s"]))
        if self.pipeline == "udf":
            per_question = sp.durations(recorder.spans, "udf.execute_with_report")
            layer["udf.q_ms_p50"] = 1e3 * percentile(per_question, 0.50)
            layer["udf.q_ms_p95"] = 1e3 * percentile(per_question, 0.95)
            layer["udf.llm_calls"] = sum(r.llm_calls for r in reports)
            layer["udf.degraded_batches"] = sum(r.degraded_batches for r in reports)
            layer["sqlparser.statements"] = len(self.swan.questions)
            if not self.warm:
                layer.update(self._price_sinks(wall_s))
        return layer, failures

    def _traced_udf(self, recorder, meter, proxies, disk_proxies):
        """``run_udf``'s per-database loop, with a span around each layer call."""
        outcomes, reports = [], []
        for name in self.swan.database_names():
            world = self.swan.world(name)
            with recorder.span("llm.build_model"):
                client = _model(world, MODEL, meter, recorder, keep_prompts=True)
            proxies.append(client)
            disk = None
            if self.warm:
                disk = PersistentPromptCache(self.cache_dir / f"{name}.sqlite")
                client = ProxyClient(
                    PersistentClient(client, disk, shots=SHOTS),
                    recorder, "llm.disk_client", keep_prompts=True,
                )
                disk_proxies.append(client)
            with recorder.span("swan.build_curated_database"):
                db = build_curated_database(world)
            with db:
                with recorder.span("udf.build_executor"):
                    executor = HybridQueryExecutor(
                        db, client, world, batch_size=BATCH_SIZE, pushdown=True,
                        shots=SHOTS, cache=PromptCache(), workers=1,
                    )
                for question in self.swan.questions_for(name):
                    expected = self.gold.expected(question.qid)
                    try:
                        with recorder.span("udf.execute_with_report", question.qid):
                            actual, report = executor.execute_with_report(
                                question.blend_sql
                            )
                    except ReproError as exc:
                        outcomes.append(failed_outcome(question, expected, str(exc)))
                        continue
                    with recorder.span("eval.evaluate_question", question.qid):
                        outcomes.append(evaluate_question(question, expected, actual))
                    reports.append(report)
            if disk is not None:
                disk.close()
        return outcomes, reports

    def _traced_hqdl(self, recorder, meter, proxies):
        """``run_hqdl``'s per-database loop, with a span around each layer call."""
        outcomes = []
        for name in self.swan.database_names():
            world = self.swan.world(name)
            with recorder.span("llm.build_model"):
                client = _model(world, MODEL, meter, recorder, keep_prompts=True)
            proxies.append(client)
            pipeline = HQDL(world, client, shots=SHOTS, workers=1)
            with recorder.span("core.generate_all"):
                generation = pipeline.generate_all()
            with recorder.span("eval.database_factuality"):
                database_factuality(world, generation)
            with recorder.span("core.build_expanded_database"):
                db = pipeline.build_expanded_database(generation)
            with db:
                for question in self.swan.questions_for(name):
                    expected = self.gold.expected(question.qid)
                    try:
                        with recorder.span("core.answer", question.qid):
                            actual = pipeline.answer(db, question)
                    except ReproError as exc:
                        outcomes.append(failed_outcome(question, expected, str(exc)))
                        continue
                    with recorder.span("eval.evaluate_question", question.qid):
                        outcomes.append(evaluate_question(question, expected, actual))
        return outcomes

    # -- standalone replays ------------------------------------------------------

    def _replay_parser(self, recorder) -> None:
        for question in self.swan.questions:
            with recorder.span("sqlparser.parse", question.qid):
                statement = parse(question.blend_sql)
            with recorder.span("sqlparser.render", question.qid):
                render(statement)

    def _replay_udf_plan(self, recorder) -> None:
        """Dry run: parse + pushdown + key fetch + prompt build, no model."""
        for name in self.swan.database_names():
            world = self.swan.world(name)
            with build_curated_database(world) as db:
                executor = HybridQueryExecutor(
                    db, ScriptedClient([]), world, batch_size=BATCH_SIZE,
                    pushdown=True, shots=SHOTS, workers=1,
                )
                for question in self.swan.questions_for(name):
                    with recorder.span("udf.plan_calls", question.qid):
                        executor.plan_calls(question.blend_sql)

    def _replay_hqdl_plan(self, recorder) -> None:
        for name in self.swan.database_names():
            pipeline = HQDL(
                self.swan.world(name), ScriptedClient([]), shots=SHOTS, workers=1
            )
            with recorder.span("core.plan_calls"):
                pipeline.plan_calls()

    def _replay_disk(self, recorder, disk_proxies) -> None:
        """``get`` on a copy of the filled cache, ``put`` into fresh files."""
        copy = self.scratch / "disk-cache-copy"
        shutil.copytree(self.cache_dir, copy)
        fresh = self.scratch / "disk-cache-fresh"
        fresh.mkdir()
        for name, proxy in zip(self.swan.database_names(), disk_proxies):
            with PersistentPromptCache(copy / f"{name}.sqlite") as cache:
                with recorder.span("llm.disk_get"):
                    for prompt, _ in proxy.prompts:
                        cache.get(MODEL, SHOTS, prompt)
            with PersistentPromptCache(fresh / f"{name}.sqlite") as cache:
                with recorder.span("llm.disk_put"):
                    for prompt, completion in proxy.prompts:
                        cache.put(MODEL, SHOTS, prompt, completion)

    def _price_sinks(self, wall_s: float) -> dict:
        """What each observability sink costs: one pass with it on ÷ plain."""
        started = perf_counter()
        self._run(MODEL, telemetry=Telemetry.on())
        telemetry_s = perf_counter() - started
        started = perf_counter()
        self._run(MODEL, provenance=ProvenanceRecorder())
        provenance_s = perf_counter() - started
        return {
            "obs.telemetry_ratio": ratio(telemetry_s, wall_s),
            "obs.provenance_ratio": ratio(provenance_s, wall_s),
        }


class ServeWorkload:
    """``QueryServer`` over seeded open-loop traffic at one fixed offered rate.

    The arrival schedule is a pure function of (rate, traffic seed) on the
    virtual clock, so the generator is never late and a faster server is not
    handed more load.  A pass is one round: every traffic seed served once,
    each by a fresh server.
    """

    def __init__(
        self, name: str, seed: int, scratch: Path, *, rate: float,
        seeds_per_round: int, horizon: float = HORIZON,
    ) -> None:
        self.name = name
        self.seed = seed
        self.rate = rate
        self.horizon = horizon
        self.traffic_seeds = [seed * 1000 + i for i in range(seeds_per_round)]
        self.layer: dict[str, float] = {}
        self.last: list = []

    def prepare(self) -> None:
        started = perf_counter()
        self.swan = load_benchmark(1)
        self.layer["swan.load_s"] = perf_counter() - started

        self.layer.update(_time_curated_build(self.swan))

        tenants = default_tenants(self.swan.database_names())
        factor = self.rate / offered_rps(tenants)
        self.tenants = [spec.scaled(factor) for spec in tenants]
        self.policies = {spec.name: spec.policy() for spec in self.tenants}
        self.config = replace(default_config(), batching=BatchingConfig())

        started = perf_counter()
        self.traffic = [self._traffic(seed) for seed in self.traffic_seeds]
        self.layer["serve.traffic_gen_s"] = perf_counter() - started
        self.layer["serve.requests"] = sum(len(r) for r in self.traffic)

        self.warmup = self._serve(self.traffic[0]).as_record()

    def _traffic(self, seed: int):
        return generate_traffic(self.swan, self.tenants, horizon=self.horizon, seed=seed)

    def _serve(self, requests, **sinks):
        with QueryServer(
            self.swan, self.config, policies=self.policies, ledger=None, **sinks
        ) as server:
            return server.run(requests)

    def run_pass(self):
        self.last = [self._serve(requests) for requests in self.traffic]
        return self._digest(self.last)

    @staticmethod
    def _digest(reports) -> tuple:
        return tuple(json.dumps(r.as_record(), sort_keys=True) for r in reports)

    def _outcomes(self):
        return [o for report in self.last for o in report.outcomes]

    def ops(self) -> tuple[int, int]:
        """(offered, errored) requests of one round.

        A shed or degraded request is an outcome the server chose; it lowers
        ``ok_ratio``.  Only a request whose execution raised counts as failed.
        """
        outcomes = self._outcomes()
        return len(outcomes), sum(1 for o in outcomes if o.reason == "error")

    def check(self, digests: list[tuple]) -> list[str]:
        failures = []
        if len(set(digests)) != 1:
            failures.append("two replays of the same traffic gave different records")
        if json.loads(digests[0][0]) != self.warmup:
            failures.append("the warm-up replay of the first seed differs")
        if not all(report.accounted() for report in self.last):
            failures.append("served + degraded + rejected != offered")
        late = [
            o.request.request_id for o in self._outcomes()
            if o.answered and o.latency > o.request.deadline_seconds + 1e-9
        ]
        if late:
            failures.append(f"answered after the deadline: requests {late[:5]}")
        return failures

    def latencies(self) -> list[float]:
        """Virtual seconds per offered request; a refusal misses every limit."""
        return [
            o.latency if o.answered else o.request.deadline_seconds
            for o in self._outcomes()
        ]

    def end_to_end(self) -> dict:
        offered = sum(r.offered for r in self.last)
        answered = sum(r.answered for r in self.last)
        service = sum(o.service_seconds for o in self._outcomes() if o.answered)
        return {
            "ok_ratio": ratio(sum(r.served for r in self.last), offered),
            "tokens_per_op": ratio(
                sum(r.usage.total_tokens() for r in self.last), answered
            ),
            "llm_calls_per_op": ratio(sum(r.usage.calls for r in self.last), answered),
            "virt_s_per_op": ratio(service, answered),
        }

    def counts(self) -> dict:
        reports = self.last
        dispatched = [o for o in self._outcomes() if o.answered]
        waits = [o.queue_wait for o in dispatched]
        services = [o.service_seconds for o in dispatched]
        latencies = self.latencies()
        hits = sum(r.cache_hits for r in reports)
        layer = dict(self.layer)
        layer.update({
            "serve.virt_p50_s": percentile(latencies, 0.50),
            "serve.virt_p95_s": percentile(latencies, 0.95),
            "serve.virt_p99_s": percentile(latencies, 0.99),
            "serve.admitted": sum(r.admitted for r in reports),
            "serve.shed": sum(r.shed for r in reports),
            "serve.degraded": sum(r.degraded for r in reports),
            "serve.max_queue_depth": max(r.max_queue_depth for r in reports),
            "serve.breaker_trips": sum(r.breaker_trips for r in reports),
            "serve.queue_wait_p50_s": percentile(waits, 0.50),
            "serve.queue_wait_p99_s": percentile(waits, 0.99),
            "serve.service_p50_s": percentile(services, 0.50),
            "serve.service_p99_s": percentile(services, 0.99),
            "serve.cache_hit_ratio": ratio(
                hits, hits + sum(r.cache_misses for r in reports)
            ),
            "serve.batch_formed_calls": sum(
                r.batching["formed_calls"] for r in reports
            ),
            "serve.batch_paid_calls": sum(r.batching["paid_calls"] for r in reports),
            "serve.batch_coalesced_calls": sum(
                r.batching["coalesced_calls"] for r in reports
            ),
        })
        return layer

    def traced(self, recorder: sp.SpanRecorder, wall_s: float) -> tuple[dict, list[str]]:
        failures = []
        meter = UsageMeter()
        proxies: list[ProxyClient] = []
        reports = []
        with recorder.span("pass"):
            for seed in self.traffic_seeds:
                with recorder.span("serve.generate_traffic"):
                    requests = self._traffic(seed)
                with recorder.span("serve.run"):
                    reports.append(self._serve(requests))
        if self._digest(reports) != self._digest(self.last):
            failures.append("traced round changed the serve records")
        with recorder.span("replay"):
            for report in reports:
                with recorder.span("serve.pipeline_replay"):
                    self._replay_pipelines(recorder, report, meter, proxies)
            statements = 0
            for report in reports:
                for outcome in report.outcomes:
                    with recorder.span("sqlparser.parse", outcome.request.trace_id):
                        statement = parse(outcome.request.sql)
                    with recorder.span("sqlparser.render", outcome.request.trace_id):
                        render(statement)
                    statements += 1

        layer = self.counts()
        layer.update(_span_metrics(recorder.spans, wall_s))
        layer.update(_llm_metrics(proxies, layer["llm.model_busy_s"]))
        # what the server adds around the pipelines: event loop, admission,
        # scheduler, batcher, settlement
        layer["serve.engine_s"] = (
            layer["serve.run_s"] - layer["serve.pipeline_replay_s"]
        )
        layer["serve.wall_ms_per_request"] = 1e3 * ratio(
            layer["serve.run_s"], layer["serve.requests"]
        )
        layer["sqlparser.statements"] = statements
        layer.update(self._price_sinks(wall_s))
        return layer, failures

    def _replay_pipelines(self, recorder, report, meter, proxies) -> None:
        """One seed's answered SQL, in arrival order, with no server around it:
        one executor and one HQDL per database, as the server keeps them."""
        config = self.config
        executors: dict[str, HybridQueryExecutor] = {}
        expanded: dict[str, tuple] = {}

        def model(world):
            proxies.append(_model(world, config.model_name, meter, recorder, False))
            return proxies[-1]

        def replay_udf(request, world) -> None:
            if request.database not in executors:
                executors[request.database] = HybridQueryExecutor(
                    databases.enter_context(build_curated_database(world)),
                    model(world), world, batch_size=config.batch_size,
                    pushdown=config.pushdown, shots=config.shots,
                    cache=PromptCache(), workers=1,
                )
            with recorder.span("udf.execute_with_report", request.trace_id):
                executors[request.database].execute_with_report(request.sql)

        def replay_hqdl(request, world) -> None:
            if request.database not in expanded:
                pipeline = HQDL(world, model(world), shots=config.shots, workers=1)
                with recorder.span("core.generate_all", request.trace_id):
                    generation = pipeline.generate_all()
                with recorder.span("core.build_expanded_database", request.trace_id):
                    db = databases.enter_context(
                        pipeline.build_expanded_database(generation)
                    )
                expanded[request.database] = db, pipeline
            db, pipeline = expanded[request.database]
            with recorder.span("core.answer", request.trace_id):
                pipeline.answer(db, self.swan.question(request.qid))

        answered = sorted(
            (o.request for o in report.outcomes if o.answered),
            key=lambda r: (r.arrival, r.request_id),
        )
        with ExitStack() as databases:
            for request in answered:
                replay = replay_udf if request.pipeline == "udf" else replay_hqdl
                try:
                    replay(request, self.swan.world(request.database))
                except ReproError:
                    # the server answered this one degraded; its spans stay
                    continue

    def _price_sinks(self, wall_s: float) -> dict:
        """One round with every serving sink on (windows, SLOs, flight
        recorder, request traces) ÷ the plain round."""
        records = 0
        started = perf_counter()
        for requests in self.traffic:
            telemetry, tracker = build_observability()
            trace = ServeTraceLog()
            self._serve(
                requests, telemetry=telemetry, slo_tracker=tracker, trace=trace
            )
            records += len(trace.records)
        return {
            "obs.serve_sinks_ratio": ratio(perf_counter() - started, wall_s),
            "obs.serve_trace_records": records,
        }


#: name -> (class, what makes it that workload); order is the report's
WORKLOADS = {
    "udf_cold": (BatchWorkload, dict(pipeline="udf", scale=10)),
    "hqdl_cold": (BatchWorkload, dict(pipeline="hqdl", scale=10)),
    "udf_warm": (BatchWorkload, dict(pipeline="udf", scale=2, warm=True)),
    "serve_steady": (ServeWorkload, dict(rate=0.2, seeds_per_round=10)),
    "serve_overload": (ServeWorkload, dict(rate=1.6, seeds_per_round=3)),
}


def make_workload(name: str, seed: int, scratch: Path):
    kind, settings = WORKLOADS[name]
    return kind(name, seed, scratch, **settings)

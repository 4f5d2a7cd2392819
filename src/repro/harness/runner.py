"""Experiment runners for the HQDL and HQ UDFs pipelines.

Each runner executes one (model, shots) configuration over the requested
SWAN databases, returning per-database EX, factuality (HQDL), and token
usage.  Gold results are computed once per benchmark via
:class:`GoldResults` and shared across configurations.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, TypeVar, Union

from repro.core.hqdl import HQDL, GenerationResult
from repro.errors import ReproError
from repro.llm.client import ChatClient
from repro.eval.execution import (
    ExecutionOutcome,
    evaluate_question,
    execution_accuracy,
    failed_outcome,
)
from repro.eval.factuality import database_factuality
from repro.llm.cache import PromptCache
from repro.llm.chat import MockChatModel
from repro.llm.diskcache import PersistentClient, PersistentPromptCache
from repro.llm.oracle import KnowledgeOracle
from repro.llm.faults import FaultInjector, FaultPlan, FaultyClient
from repro.llm.parallel import SimulatedClock
from repro.llm.procpool import SharedProcessPool
from repro.llm.profiles import get_profile
from repro.llm.resilience import (
    CircuitBreaker,
    ResilienceReport,
    RetryingClient,
    RetryPolicy,
)
from repro.llm.batching import parallel_makespan
from repro.llm.usage import Usage, UsageMeter
from repro.obs import NULL_PROVENANCE, NULL_TELEMETRY, MetricsRegistry, Telemetry
from repro.obs.ledger import RunLedger
from repro.obs.trace import NULL_SPAN
from repro.plan import CallPlanner, MappingStore
from repro.sqlengine.results import ResultSet
from repro.swan.benchmark import Swan
from repro.swan.build import build_curated_database, build_original_database
from repro.udf.executor import HybridQueryExecutor

_T = TypeVar("_T")


def _resolve_databases(
    swan: Swan, databases: Optional[Sequence[str]]
) -> list[str]:
    """Validate requested database names up front, with a clear error."""
    valid = swan.database_names()
    if databases is None:
        return valid
    names = list(databases)
    unknown = [name for name in names if name not in valid]
    if unknown:
        raise ReproError(
            f"unknown database name(s): {', '.join(repr(n) for n in unknown)}; "
            f"valid names are: {', '.join(valid)}"
        )
    return names


def _map_databases(
    names: Sequence[str],
    db_workers: int,
    task: Callable[[str], _T],
) -> list[_T]:
    """Run ``task`` per database, optionally in parallel, in name order.

    Results always come back in the order of ``names``, so aggregation
    downstream is deterministic regardless of completion order.
    """
    if db_workers < 1:
        raise ValueError(f"db_workers must be >= 1, got {db_workers}")
    if db_workers == 1 or len(names) <= 1:
        return [task(name) for name in names]
    with ThreadPoolExecutor(max_workers=min(db_workers, len(names))) as pool:
        futures = [pool.submit(task, name) for name in names]
        return [future.result() for future in futures]


class GoldResults:
    """Gold (expected) results for every question, computed once."""

    def __init__(self, swan: Swan) -> None:
        self.swan = swan
        self._by_qid: dict[str, ResultSet] = {}
        for name in swan.database_names():
            with build_original_database(swan.world(name)) as db:
                for question in swan.questions_for(name):
                    self._by_qid[question.qid] = db.query(question.gold_sql)

    def expected(self, qid: str) -> ResultSet:
        try:
            return self._by_qid[qid]
        except KeyError as exc:
            raise ReproError(f"no gold result for question {qid!r}") from exc


@dataclass
class HQDLRun:
    """Results of one HQDL configuration (model × shots)."""

    model: str
    shots: int
    ex_by_db: dict[str, float] = field(default_factory=dict)
    f1_by_db: dict[str, float] = field(default_factory=dict)
    outcomes: list[ExecutionOutcome] = field(default_factory=list)
    usage: Usage = field(default_factory=Usage)
    generations: dict[str, GenerationResult] = field(default_factory=dict)
    #: per-database PersistentPromptCache stats when ``cache_dir`` was set
    persistent: dict[str, dict] = field(default_factory=dict)

    @property
    def overall_ex(self) -> float:
        return execution_accuracy(self.outcomes)

    @property
    def average_f1(self) -> float:
        if not self.f1_by_db:
            return 0.0
        return sum(self.f1_by_db.values()) / len(self.f1_by_db)


@dataclass
class UDFRun:
    """Results of one HQ UDFs configuration."""

    model: str
    shots: int
    batch_size: int
    pushdown: bool
    ex_by_db: dict[str, float] = field(default_factory=dict)
    outcomes: list[ExecutionOutcome] = field(default_factory=list)
    usage: Usage = field(default_factory=Usage)
    cache_hits: int = 0
    cache_misses: int = 0
    #: which planning mode ran before the questions, if any
    plan: Optional[str] = None
    #: per-database PlanStats records (collection/dedup/dispatch accounting)
    plan_stats: dict[str, dict] = field(default_factory=dict)
    #: per-database PersistentPromptCache stats when ``cache_dir`` was set
    persistent: dict[str, dict] = field(default_factory=dict)
    #: (input, output) token sizes of every *paid* LLM call in the run —
    #: planner dispatch plus question-time calls — for virtual makespans
    call_sizes: list[tuple[int, int]] = field(default_factory=list)
    #: non-NULL mapping/join keys materialized across all questions —
    #: the denominator provenance completeness is checked against
    keys_generated: int = 0

    @property
    def overall_ex(self) -> float:
        return execution_accuracy(self.outcomes)

    @property
    def persistent_hits(self) -> int:
        return sum(s.get("hits", 0) for s in self.persistent.values())

    @property
    def persistent_misses(self) -> int:
        return sum(s.get("misses", 0) for s in self.persistent.values())


def _append_run(
    ledger: RunLedger,
    *,
    label: str,
    pipeline: str,
    config: dict,
    ex: float,
    f1: Optional[float],
    usage: Usage,
    makespan: Optional[float],
    telemetry: Optional[Telemetry],
    provenance,
) -> int:
    """Append one finished run to the ledger, with whatever context exists.

    The payload carries the telemetry counter snapshot and provenance
    stats when those subsystems ran enabled; the regression-gated scalars
    always land in typed columns.
    """
    payload: dict = {}
    snapshot = _metrics_snapshot(telemetry)
    if snapshot is not None:
        payload["metrics"] = snapshot
    if provenance is not None and provenance.enabled:
        payload["provenance"] = provenance.stats()
    return ledger.append(
        label=label,
        pipeline=pipeline,
        config=config,
        ex=round(ex, 6),
        f1=round(f1, 6) if f1 is not None else None,
        llm_calls=usage.calls,
        input_tokens=usage.input_tokens,
        output_tokens=usage.output_tokens,
        makespan=round(makespan, 6) if makespan is not None else None,
        payload=payload,
    )


def run_hqdl(
    swan: Swan,
    model_name: str,
    shots: int,
    *,
    databases: Optional[Sequence[str]] = None,
    gold: Optional[GoldResults] = None,
    workers: int = 1,
    db_workers: int = 1,
    wrap_client: Optional[Callable[[ChatClient], ChatClient]] = None,
    resilience: Optional[ResilienceReport] = None,
    telemetry: Optional[Telemetry] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    call_order: str = "collection",
    parallelism: str = "threads",
    provenance=None,
    ledger: Optional[RunLedger] = None,
    ledger_label: str = "hqdl",
) -> HQDLRun:
    """Run HQDL for one (model, shots) configuration.

    Generation happens once per database and is reused by all 30 of its
    questions (HQDL's materialization advantage, Section 5.5).

    ``workers`` parallelizes row-generation calls within each database;
    ``db_workers`` runs whole databases concurrently.  Results and token
    totals are identical at any setting — only wall-clock time changes.

    ``wrap_client`` decorates each database's model before the pipeline
    sees it (fault injection, retry layers); ``resilience`` collects the
    degraded-row accounting those layers produce; ``telemetry`` records
    spans and metrics without perturbing any result.

    ``cache_dir`` adds a per-database :class:`PersistentPromptCache` so
    a rerun with the same directory regenerates every table from disk
    with zero new LLM calls (generation is already once-per-database, so
    HQDL needs no planner).  ``call_order="lpt"`` dispatches generation
    calls longest-first (identical results, shorter parallel makespan).

    ``parallelism="processes"`` completes prompts in one
    :class:`~repro.llm.procpool.SharedProcessPool` of ``workers``
    processes serving every database of the run — byte-identical
    results, but the CPU-bound model simulation no longer serializes on
    the GIL, and ``db_workers`` composes without multiplying the process
    count.
    """
    if parallelism not in ("threads", "processes"):
        raise ReproError(
            f"parallelism must be 'threads' or 'processes', got {parallelism!r}"
        )
    gold = gold or GoldResults(swan)
    names = _resolve_databases(swan, databases)
    profile = get_profile(model_name)
    run = HQDLRun(model=model_name, shots=shots)
    meter = UsageMeter()
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    prov = provenance if provenance is not None else NULL_PROVENANCE
    shared_pool = (
        SharedProcessPool(processes=workers)
        if parallelism == "processes"
        else None
    )

    with (
        tel.tracer.span("run", pipeline="hqdl", model=model_name, shots=shots)
        if tel.enabled
        else NULL_SPAN
    ) as run_span:

        def _one_database(name: str):
            with (
                tel.tracer.span("database", parent=run_span, database=name)
                if tel.enabled
                else NULL_SPAN
            ), prov.context(pipeline="hqdl", database=name):
                world = swan.world(name)
                if shared_pool is not None:
                    model: ChatClient = shared_pool.client_for(
                        world, model_name, meter=meter
                    )
                else:
                    model = MockChatModel(
                        KnowledgeOracle(world), profile, meter=meter
                    )
                if wrap_client is not None:
                    model = wrap_client(model)
                disk_cache = None
                if cache_dir is not None:
                    disk_cache = PersistentPromptCache(
                        Path(cache_dir) / f"{name}.sqlite"
                    )
                    model = PersistentClient(
                        model, disk_cache, shots=shots, telemetry=tel,
                        provenance=prov,
                    )
                pipeline = HQDL(
                    world, model, shots=shots, workers=workers,
                    call_order=call_order, resilience=resilience,
                    telemetry=tel, provenance=prov,
                )
                generation = pipeline.generate_all()
                f1 = database_factuality(world, generation)
                db_outcomes: list[ExecutionOutcome] = []
                with pipeline.build_expanded_database(generation) as db:
                    for question in swan.questions_for(name):
                        expected = gold.expected(question.qid)
                        with (
                            tel.tracer.span("question", qid=question.qid)
                            if tel.enabled
                            else NULL_SPAN
                        ) as qspan, prov.context(qid=question.qid):
                            try:
                                actual = pipeline.answer(db, question)
                            except ReproError as exc:
                                outcome = failed_outcome(
                                    question, expected, str(exc)
                                )
                            else:
                                outcome = evaluate_question(
                                    question, expected, actual
                                )
                            qspan.set("correct", outcome.correct)
                        db_outcomes.append(outcome)
                disk_stats = None
                if disk_cache is not None:
                    disk_stats = disk_cache.stats()
                    disk_cache.close()
                return generation, f1, disk_stats, db_outcomes

        try:
            for name, (generation, f1, disk_stats, db_outcomes) in zip(
                names, _map_databases(names, db_workers, _one_database)
            ):
                run.generations[name] = generation
                run.f1_by_db[name] = f1
                if disk_stats is not None:
                    run.persistent[name] = disk_stats
                run.ex_by_db[name] = execution_accuracy(db_outcomes)
                run.outcomes.extend(db_outcomes)
        finally:
            if shared_pool is not None:
                shared_pool.close()
        run.usage = meter.total
        if tel.enabled:
            run_span.set("ex", round(run.overall_ex, 4))
    if ledger is not None:
        _append_run(
            ledger,
            label=ledger_label,
            pipeline="hqdl",
            config={
                "pipeline": "hqdl",
                "model": model_name,
                "shots": shots,
                "databases": sorted(names),
                "workers": workers,
                "call_order": call_order,
                **({"parallelism": parallelism} if parallelism != "threads" else {}),
            },
            ex=run.overall_ex,
            f1=run.average_f1,
            usage=run.usage,
            makespan=None,
            telemetry=telemetry,
            provenance=prov,
        )
    return run


def run_udf(
    swan: Swan,
    model_name: str,
    shots: int,
    *,
    batch_size: int = 5,
    pushdown: bool = True,
    databases: Optional[Sequence[str]] = None,
    gold: Optional[GoldResults] = None,
    workers: int = 1,
    db_workers: int = 1,
    wrap_client: Optional[Callable[[ChatClient], ChatClient]] = None,
    resilience: Optional[ResilienceReport] = None,
    telemetry: Optional[Telemetry] = None,
    plan: Optional[str] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    batch_policy: Optional[object] = None,
    parallelism: str = "threads",
    provenance=None,
    ledger: Optional[RunLedger] = None,
    ledger_label: str = "udf",
) -> UDFRun:
    """Run Hybrid Query UDFs for one configuration.

    One prompt cache per database is shared across its 30 questions —
    reuse happens only on byte-identical prompts, the BlendSQL semantics
    the paper's Section 5.5 cost analysis hinges on.

    ``workers`` parallelizes each executor's batched LLM calls;
    ``db_workers`` runs whole databases concurrently (each worker owns
    its database connection, model, and prompt cache).  Results and
    token totals are identical at any setting.

    ``wrap_client`` decorates each database's model before the executor
    wraps it in the prompt cache (fault injection, retry layers);
    ``resilience`` collects the degraded-batch accounting; ``telemetry``
    records spans and metrics without perturbing any result.

    ``plan`` runs a :class:`~repro.plan.CallPlanner` pass over all of a
    database's questions before executing any of them: ``"prompt"``
    pre-pays the exact execution prompts (results and Usage totals stay
    byte-identical to ``plan=None``); ``"pairs"`` unions (attribute,
    key) pairs across questions and serves executions from the shared
    mapping store (fewest calls, answers may drift within model noise).
    ``cache_dir`` adds a per-database :class:`PersistentPromptCache`
    under the executor's in-memory cache, so a rerun with the same
    directory issues zero new LLM calls.  ``batch_policy`` overrides the
    fixed ``batch_size`` (see :mod:`repro.plan.policy`).

    ``parallelism="processes"`` completes prompts in one
    :class:`~repro.llm.procpool.SharedProcessPool` of ``workers``
    processes serving every database of the run — byte-identical
    results, but the CPU-bound model simulation no longer serializes on
    the GIL, and ``db_workers`` composes without multiplying the process
    count.
    """
    if plan not in (None, "prompt", "pairs"):
        raise ReproError(
            f"plan must be None, 'prompt', or 'pairs', got {plan!r}"
        )
    if parallelism not in ("threads", "processes"):
        raise ReproError(
            f"parallelism must be 'threads' or 'processes', got {parallelism!r}"
        )
    gold = gold or GoldResults(swan)
    names = _resolve_databases(swan, databases)
    profile = get_profile(model_name)
    run = UDFRun(
        model=model_name, shots=shots, batch_size=batch_size,
        pushdown=pushdown, plan=plan,
    )
    meter = UsageMeter()
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    prov = provenance if provenance is not None else NULL_PROVENANCE
    shared_pool = (
        SharedProcessPool(processes=workers)
        if parallelism == "processes"
        else None
    )

    with (
        tel.tracer.span("run", pipeline="udf", model=model_name, shots=shots)
        if tel.enabled
        else NULL_SPAN
    ) as run_span:

        def _one_database(name: str):
            with (
                tel.tracer.span("database", parent=run_span, database=name)
                if tel.enabled
                else NULL_SPAN
            ), prov.context(pipeline="udf", database=name):
                world = swan.world(name)
                if shared_pool is not None:
                    model: ChatClient = shared_pool.client_for(
                        world, model_name, meter=meter
                    )
                else:
                    model = MockChatModel(
                        KnowledgeOracle(world), profile, meter=meter
                    )
                if wrap_client is not None:
                    model = wrap_client(model)
                disk_cache = None
                if cache_dir is not None:
                    disk_cache = PersistentPromptCache(
                        Path(cache_dir) / f"{name}.sqlite"
                    )
                    model = PersistentClient(
                        model, disk_cache, shots=shots, telemetry=tel,
                        provenance=prov,
                    )
                cache = PromptCache()
                store = MappingStore() if plan == "pairs" else None
                db_outcomes: list[ExecutionOutcome] = []
                call_sizes: list[tuple[int, int]] = []
                keys_generated = 0
                plan_record: Optional[dict] = None
                with build_curated_database(world) as db:
                    executor = HybridQueryExecutor(
                        db,
                        model,
                        world,
                        batch_size=batch_size,
                        pushdown=pushdown,
                        shots=shots,
                        cache=cache,
                        workers=workers,
                        resilience=resilience,
                        telemetry=tel,
                        batch_policy=batch_policy,
                        mapping_store=store,
                        provenance=prov,
                    )
                    questions = swan.questions_for(name)
                    if plan is not None:
                        planner = CallPlanner(
                            executor, mode=plan, telemetry=tel
                        )
                        planned = planner.plan_and_execute(
                            [q.blend_sql for q in questions]
                        )
                        call_sizes.extend(planned.stats.call_sizes)
                        plan_record = planned.stats.as_record()
                    for question in questions:
                        expected = gold.expected(question.qid)
                        with (
                            tel.tracer.span("question", qid=question.qid)
                            if tel.enabled
                            else NULL_SPAN
                        ) as qspan, prov.context(qid=question.qid):
                            try:
                                actual, question_report = (
                                    executor.execute_with_report(
                                        question.blend_sql
                                    )
                                )
                            except ReproError as exc:
                                outcome = failed_outcome(
                                    question, expected, str(exc)
                                )
                            else:
                                outcome = evaluate_question(
                                    question, expected, actual
                                )
                                call_sizes.extend(question_report.call_sizes)
                                keys_generated += (
                                    question_report.keys_generated
                                )
                            qspan.set("correct", outcome.correct)
                        db_outcomes.append(outcome)
                disk_stats = None
                if disk_cache is not None:
                    disk_stats = disk_cache.stats()
                    disk_cache.close()
                return (
                    cache, plan_record, disk_stats, call_sizes,
                    keys_generated, db_outcomes,
                )

        try:
            for name, (
                cache, plan_record, disk_stats, call_sizes, keys_generated,
                db_outcomes,
            ) in zip(names, _map_databases(names, db_workers, _one_database)):
                run.cache_hits += cache.hits
                run.cache_misses += cache.misses
                if plan_record is not None:
                    run.plan_stats[name] = plan_record
                if disk_stats is not None:
                    run.persistent[name] = disk_stats
                run.call_sizes.extend(call_sizes)
                run.keys_generated += keys_generated
                run.ex_by_db[name] = execution_accuracy(db_outcomes)
                run.outcomes.extend(db_outcomes)
        finally:
            if shared_pool is not None:
                shared_pool.close()
        run.usage = meter.total
        if tel.enabled:
            run_span.set("ex", round(run.overall_ex, 4))
    if ledger is not None:
        _append_run(
            ledger,
            label=ledger_label,
            pipeline="udf",
            config={
                "pipeline": "udf",
                "model": model_name,
                "shots": shots,
                "databases": sorted(names),
                "batch_size": batch_size,
                "pushdown": pushdown,
                "plan": plan,
                "workers": workers,
                **({"parallelism": parallelism} if parallelism != "threads" else {}),
            },
            ex=run.overall_ex,
            f1=None,
            usage=run.usage,
            makespan=parallel_makespan(run.call_sizes, max(workers, 1)),
            telemetry=telemetry,
            provenance=prov,
        )
    return run


# -- chaos engineering ------------------------------------------------------------


@dataclass
class ChaosRun:
    """One pipeline run under fault injection.

    ``ex``/``f1`` are the accuracy under faults; ``resilience`` accounts
    for every attempt (``attempts == successes + retries + exhausted +
    fatal``) and ``faults_injected`` breaks the injected faults down by
    kind.
    """

    pipeline: str
    fault_rate: float
    seed: int
    retries: bool
    ex: float
    f1: Optional[float]
    usage: Usage
    resilience: ResilienceReport
    faults_injected: dict[str, int]
    fault_decisions: int
    breaker_trips: int = 0
    #: telemetry snapshot (``MetricsRegistry.snapshot()``) when the run
    #: was executed with metrics enabled; None otherwise
    metrics: Optional[dict] = None

    def as_record(self) -> dict:
        """A flat dict for tables and BENCH JSON."""
        counters = self.resilience.as_dict()
        record = {
            "pipeline": self.pipeline,
            "fault_rate": round(self.fault_rate, 4),
            "retries": self.retries,
            "ex": round(self.ex, 4),
            "f1": round(self.f1, 4) if self.f1 is not None else None,
            "faults_injected": sum(self.faults_injected.values()),
            **counters,
        }
        if self.metrics is not None:
            record["cache_hits"] = self.metrics.get("llm.cache.hits", 0)
            record["cache_misses"] = self.metrics.get("llm.cache.misses", 0)
            record["single_flight_joins"] = self.metrics.get(
                "llm.cache.single_flight_joins", 0
            )
            record["max_in_flight"] = self.metrics.get("dispatch.in_flight.max", 0)
            record["backoff_seconds_total"] = round(
                float(self.metrics.get("llm.retry.backoff_seconds_total", 0)), 4
            )
        return record


def build_resilient_stack(
    model: ChatClient,
    *,
    plan: FaultPlan,
    injector: Optional[FaultInjector] = None,
    policy: Optional[RetryPolicy] = None,
    clock: Optional[SimulatedClock] = None,
    breaker: Optional[CircuitBreaker] = None,
    report: Optional[ResilienceReport] = None,
    telemetry: Optional[Telemetry] = None,
    provenance=None,
) -> RetryingClient:
    """model -> FaultyClient -> RetryingClient, the chaos-run stack.

    The cache layer goes *on top* (the executor adds it), so cache hits
    bypass both the faults and the retry budget — exactly the layering a
    production deployment would use.
    """
    injector = injector if injector is not None else FaultInjector(plan)
    faulty = FaultyClient(model, injector)
    return RetryingClient(
        faulty,
        policy,
        clock=clock if clock is not None else SimulatedClock(),
        breaker=breaker,
        report=report,
        telemetry=telemetry,
        provenance=provenance,
    )


def _metrics_snapshot(telemetry: Optional[Telemetry]) -> Optional[dict]:
    """The registry snapshot of an enabled telemetry handle, else None."""
    if telemetry is None or not getattr(telemetry.metrics, "enabled", False):
        return None
    return telemetry.metrics.snapshot()


def _chaos_pieces(
    fault_rate: float,
    seed: int,
    retries: bool,
    plan: Optional[FaultPlan],
    policy: Optional[RetryPolicy],
):
    """The shared injector/report/clock/policy of one chaos run."""
    plan = plan if plan is not None else FaultPlan.uniform(fault_rate, seed=seed)
    injector = FaultInjector(plan)
    report = ResilienceReport()
    clock = SimulatedClock()
    if policy is None:
        # without retries every transient failure exhausts immediately,
        # but the attempt accounting stays identical in shape
        policy = RetryPolicy(seed=seed) if retries else RetryPolicy(
            max_attempts=1, seed=seed
        )
    return plan, injector, report, clock, policy


def run_udf_chaos(
    swan: Swan,
    model_name: str,
    shots: int,
    *,
    fault_rate: float,
    seed: int = 0,
    retries: bool = True,
    plan: Optional[FaultPlan] = None,
    policy: Optional[RetryPolicy] = None,
    breaker: Optional[CircuitBreaker] = None,
    batch_size: int = 5,
    pushdown: bool = True,
    databases: Optional[Sequence[str]] = None,
    gold: Optional[GoldResults] = None,
    workers: int = 1,
    db_workers: int = 1,
    telemetry: Optional[Telemetry] = None,
    provenance=None,
    ledger: Optional[RunLedger] = None,
) -> ChaosRun:
    """Run HQ UDFs with fault injection and a resilient dispatch stack.

    At ``fault_rate=0`` the stack is a byte-exact pass-through: results,
    Usage totals, and cache statistics match :func:`run_udf` exactly.
    Backoff waits happen on a :class:`SimulatedClock` — no real sleeping.
    """
    plan, injector, report, clock, policy = _chaos_pieces(
        fault_rate, seed, retries, plan, policy
    )

    def wrap(model: ChatClient) -> ChatClient:
        return build_resilient_stack(
            model, plan=plan, injector=injector, policy=policy,
            clock=clock, breaker=breaker, report=report, telemetry=telemetry,
            provenance=provenance,
        )

    run = run_udf(
        swan, model_name, shots,
        batch_size=batch_size, pushdown=pushdown, databases=databases,
        gold=gold, workers=workers, db_workers=db_workers,
        wrap_client=wrap, resilience=report, telemetry=telemetry,
        provenance=provenance, ledger=ledger, ledger_label="udf-chaos",
    )
    return ChaosRun(
        pipeline="udf",
        fault_rate=fault_rate,
        seed=seed,
        retries=retries,
        ex=run.overall_ex,
        f1=None,
        usage=run.usage,
        resilience=report,
        faults_injected=injector.stats.snapshot(),
        fault_decisions=injector.stats.decisions,
        breaker_trips=breaker.trips if breaker is not None else 0,
        metrics=_metrics_snapshot(telemetry),
    )


def run_hqdl_chaos(
    swan: Swan,
    model_name: str,
    shots: int,
    *,
    fault_rate: float,
    seed: int = 0,
    retries: bool = True,
    plan: Optional[FaultPlan] = None,
    policy: Optional[RetryPolicy] = None,
    breaker: Optional[CircuitBreaker] = None,
    databases: Optional[Sequence[str]] = None,
    gold: Optional[GoldResults] = None,
    workers: int = 1,
    db_workers: int = 1,
    telemetry: Optional[Telemetry] = None,
    provenance=None,
    ledger: Optional[RunLedger] = None,
) -> ChaosRun:
    """Run HQDL with fault injection; degraded rows materialize as NULLs."""
    plan, injector, report, clock, policy = _chaos_pieces(
        fault_rate, seed, retries, plan, policy
    )

    def wrap(model: ChatClient) -> ChatClient:
        return build_resilient_stack(
            model, plan=plan, injector=injector, policy=policy,
            clock=clock, breaker=breaker, report=report, telemetry=telemetry,
            provenance=provenance,
        )

    run = run_hqdl(
        swan, model_name, shots,
        databases=databases, gold=gold, workers=workers,
        db_workers=db_workers, wrap_client=wrap, resilience=report,
        telemetry=telemetry,
        provenance=provenance, ledger=ledger, ledger_label="hqdl-chaos",
    )
    return ChaosRun(
        pipeline="hqdl",
        fault_rate=fault_rate,
        seed=seed,
        retries=retries,
        ex=run.overall_ex,
        f1=run.average_f1,
        usage=run.usage,
        resilience=report,
        faults_injected=injector.stats.snapshot(),
        fault_decisions=injector.stats.decisions,
        breaker_trips=breaker.trips if breaker is not None else 0,
        metrics=_metrics_snapshot(telemetry),
    )


def chaos_sweep(
    swan: Swan,
    model_name: str = "gpt-3.5-turbo",
    shots: int = 0,
    *,
    fault_rates: Sequence[float] = (0.0, 0.1, 0.3, 0.5),
    seed: int = 0,
    retries: bool = True,
    databases: Optional[Sequence[str]] = None,
    gold: Optional[GoldResults] = None,
    with_metrics: bool = False,
) -> list[ChaosRun]:
    """EX/F1 degradation vs fault intensity for both pipelines.

    Each (pipeline, rate) point gets a fresh injector and report so the
    points are independent; gold results are computed once and shared.
    With ``with_metrics=True`` every point also runs with its own
    :class:`~repro.obs.MetricsRegistry` and carries the snapshot in
    :attr:`ChaosRun.metrics` (cache, single-flight, occupancy, backoff).
    """
    gold = gold or GoldResults(swan)

    def _telemetry() -> Optional[Telemetry]:
        return Telemetry(metrics=MetricsRegistry()) if with_metrics else None

    runs: list[ChaosRun] = []
    for rate in fault_rates:
        runs.append(
            run_udf_chaos(
                swan, model_name, shots, fault_rate=rate, seed=seed,
                retries=retries, databases=databases, gold=gold,
                telemetry=_telemetry(),
            )
        )
        runs.append(
            run_hqdl_chaos(
                swan, model_name, shots, fault_rate=rate, seed=seed,
                retries=retries, databases=databases, gold=gold,
                telemetry=_telemetry(),
            )
        )
    return runs

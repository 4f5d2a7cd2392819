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
from repro.eval.execution import (
    ExecutionOutcome,
    evaluate_question,
    execution_accuracy,
    failed_outcome,
)
from repro.eval.factuality import database_factuality
from repro.llm.batching import parallel_makespan
from repro.llm.cache import PromptCache
from repro.llm.client import ChatClient
from repro.llm.faults import FaultInjector, FaultPlan
from repro.llm.parallel import SimulatedClock
from repro.llm.procpool import SharedProcessPool
from repro.llm.profiles import get_profile
from repro.llm.resilience import (
    CircuitBreaker,
    ResilienceReport,
    RetryPolicy,
)
from repro.llm.stack import build_client_stack, build_resilient_stack
from repro.llm.usage import Usage, UsageMeter
from repro.obs import NULL_PROVENANCE, NULL_TELEMETRY, MetricsRegistry, Telemetry
from repro.obs.ledger import RunLedger
from repro.obs.trace import NULL_SPAN
from repro.plan import CallPlanner, MappingStore
from repro.sqlengine.results import ResultSet
from repro.swan.base import Question, World
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


_Answer = Callable[[Question], ResultSet]
_Score = Callable[[Sequence[Question], _Answer], list[ExecutionOutcome]]
_Body = Callable[
    [World, ChatClient, Sequence[Question], _Score],
    tuple[list[ExecutionOutcome], _T],
]


def _run_pipeline(
    swan: Swan,
    run: Union[HQDLRun, UDFRun],
    pipeline: str,
    body: _Body,
    merge: Callable[[str, _T], None],
    *,
    databases: Optional[Sequence[str]],
    gold: Optional[GoldResults],
    workers: int,
    db_workers: int,
    wrap_client: Optional[Callable[[ChatClient], ChatClient]],
    telemetry: Optional[Telemetry],
    cache_dir: Optional[Union[str, Path]],
    parallelism: str,
    provenance,
    ledger: Optional[RunLedger],
    ledger_label: str,
    ledger_config: dict,
    ledger_scores: Callable[[], tuple[Optional[float], Optional[float]]],
) -> None:
    """The run loop both pipelines share; fills ``run`` in place.

    Per database (``db_workers`` at a time, merged in name order): open
    the spans and provenance context, build the client stack, hand
    ``body`` the world, the client, the questions and the ``score``
    function that answers and grades them, then close the disk tier.
    ``body`` returns the graded outcomes plus whatever ``merge`` folds
    into the run; ``ledger_scores`` yields the ``(f1, makespan)`` ledger
    columns.
    """
    if parallelism not in ("threads", "processes"):
        raise ReproError(
            f"parallelism must be 'threads' or 'processes', got {parallelism!r}"
        )
    gold = gold or GoldResults(swan)
    names = _resolve_databases(swan, databases)
    get_profile(run.model)  # an unknown model fails before any pool starts
    meter = UsageMeter()
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    prov = provenance if provenance is not None else NULL_PROVENANCE
    shared_pool = (
        SharedProcessPool(processes=workers)
        if parallelism == "processes"
        else None
    )

    with (
        tel.tracer.span("run", pipeline=pipeline, model=run.model, shots=run.shots)
        if tel.enabled
        else NULL_SPAN
    ) as run_span:

        def _score(questions: Sequence[Question], answer: _Answer):
            outcomes: list[ExecutionOutcome] = []
            for question in questions:
                expected = gold.expected(question.qid)
                with (
                    tel.tracer.span("question", qid=question.qid)
                    if tel.enabled
                    else NULL_SPAN
                ) as qspan, prov.context(qid=question.qid):
                    try:
                        actual = answer(question)
                    except ReproError as exc:
                        outcome = failed_outcome(question, expected, str(exc))
                    else:
                        outcome = evaluate_question(question, expected, actual)
                    qspan.set("correct", outcome.correct)
                outcomes.append(outcome)
            return outcomes

        def _one_database(name: str):
            with (
                tel.tracer.span("database", parent=run_span, database=name)
                if tel.enabled
                else NULL_SPAN
            ), prov.context(pipeline=pipeline, database=name):
                world = swan.world(name)
                stack = build_client_stack(
                    world, run.model, shots=run.shots, meter=meter,
                    pool=shared_pool, wrap=wrap_client, cache_dir=cache_dir,
                    telemetry=tel, provenance=prov,
                )
                try:
                    db_outcomes, extras = body(
                        world, stack.client, swan.questions_for(name), _score
                    )
                finally:
                    disk_stats = stack.close()
                return db_outcomes, extras, disk_stats

        try:
            for name, (db_outcomes, extras, disk_stats) in zip(
                names, _map_databases(names, db_workers, _one_database)
            ):
                merge(name, extras)
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
        # regression-gated scalars land in typed columns; the payload
        # carries whatever context ran enabled
        f1, makespan = ledger_scores()
        payload: dict = {}
        snapshot = _metrics_snapshot(telemetry)
        if snapshot is not None:
            payload["metrics"] = snapshot
        if prov.enabled:
            payload["provenance"] = prov.stats()
        ledger.append(
            label=ledger_label,
            pipeline=pipeline,
            config={
                "pipeline": pipeline,
                "model": run.model,
                "shots": run.shots,
                "databases": sorted(names),
                "workers": workers,
                **ledger_config,
                **({"parallelism": parallelism} if parallelism != "threads" else {}),
            },
            ex=round(run.overall_ex, 6),
            f1=round(f1, 6) if f1 is not None else None,
            llm_calls=run.usage.calls,
            input_tokens=run.usage.input_tokens,
            output_tokens=run.usage.output_tokens,
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
    run = HQDLRun(model=model_name, shots=shots)

    def _body(world: World, client: ChatClient, questions, score: _Score):
        pipeline = HQDL(
            world, client, shots=shots, workers=workers,
            call_order=call_order, resilience=resilience,
            telemetry=telemetry, provenance=provenance,
        )
        generation = pipeline.generate_all()
        f1 = database_factuality(world, generation)
        with pipeline.build_expanded_database(generation) as db:
            outcomes = score(questions, lambda q: pipeline.answer(db, q))
        return outcomes, (generation, f1)

    def _merge(name: str, extras) -> None:
        run.generations[name], run.f1_by_db[name] = extras

    _run_pipeline(
        swan, run, "hqdl", _body, _merge,
        databases=databases, gold=gold, workers=workers,
        db_workers=db_workers, wrap_client=wrap_client, telemetry=telemetry,
        cache_dir=cache_dir, parallelism=parallelism, provenance=provenance,
        ledger=ledger, ledger_label=ledger_label,
        ledger_config={"call_order": call_order},
        ledger_scores=lambda: (run.average_f1, None),
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
    run = UDFRun(
        model=model_name, shots=shots, batch_size=batch_size,
        pushdown=pushdown, plan=plan,
    )

    def _body(world: World, client: ChatClient, questions, score: _Score):
        cache = PromptCache()
        call_sizes: list[tuple[int, int]] = []
        keys_generated = 0
        plan_record: Optional[dict] = None
        with build_curated_database(world) as db:
            executor = HybridQueryExecutor(
                db,
                client,
                world,
                batch_size=batch_size,
                pushdown=pushdown,
                shots=shots,
                cache=cache,
                workers=workers,
                resilience=resilience,
                telemetry=telemetry,
                batch_policy=batch_policy,
                mapping_store=MappingStore() if plan == "pairs" else None,
                provenance=provenance,
            )
            if plan is not None:
                planned = CallPlanner(
                    executor, mode=plan, telemetry=telemetry
                ).plan_and_execute([q.blend_sql for q in questions])
                call_sizes.extend(planned.stats.call_sizes)
                plan_record = planned.stats.as_record()

            def _answer(question: Question) -> ResultSet:
                nonlocal keys_generated
                actual, report = executor.execute_with_report(
                    question.blend_sql
                )
                call_sizes.extend(report.call_sizes)
                keys_generated += report.keys_generated
                return actual

            outcomes = score(questions, _answer)
        return outcomes, (cache, plan_record, call_sizes, keys_generated)

    def _merge(name: str, extras) -> None:
        cache, plan_record, call_sizes, keys_generated = extras
        run.cache_hits += cache.hits
        run.cache_misses += cache.misses
        if plan_record is not None:
            run.plan_stats[name] = plan_record
        run.call_sizes.extend(call_sizes)
        run.keys_generated += keys_generated

    _run_pipeline(
        swan, run, "udf", _body, _merge,
        databases=databases, gold=gold, workers=workers,
        db_workers=db_workers, wrap_client=wrap_client, telemetry=telemetry,
        cache_dir=cache_dir, parallelism=parallelism, provenance=provenance,
        ledger=ledger, ledger_label=ledger_label,
        ledger_config={
            "batch_size": batch_size, "pushdown": pushdown, "plan": plan,
        },
        ledger_scores=lambda: (
            None, parallel_makespan(run.call_sizes, max(workers, 1))
        ),
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


def _run_chaos(
    runner: Callable[..., Union[HQDLRun, UDFRun]],
    pipeline: str,
    swan: Swan,
    model_name: str,
    shots: int,
    *,
    fault_rate: float,
    seed: int,
    retries: bool,
    plan: Optional[FaultPlan],
    policy: Optional[RetryPolicy],
    breaker: Optional[CircuitBreaker],
    telemetry: Optional[Telemetry],
    provenance,
    ledger: Optional[RunLedger],
    **pipeline_options,
) -> ChaosRun:
    """``runner`` behind a fresh fault-injecting, retrying client stack."""
    plan, injector, report, clock, policy = _chaos_pieces(
        fault_rate, seed, retries, plan, policy
    )

    def wrap(model: ChatClient) -> ChatClient:
        return build_resilient_stack(
            model, plan=plan, injector=injector, policy=policy,
            clock=clock, breaker=breaker, report=report, telemetry=telemetry,
            provenance=provenance,
        )

    run = runner(
        swan, model_name, shots,
        wrap_client=wrap, resilience=report, telemetry=telemetry,
        provenance=provenance, ledger=ledger,
        ledger_label=f"{pipeline}-chaos", **pipeline_options,
    )
    return ChaosRun(
        pipeline=pipeline,
        fault_rate=fault_rate,
        seed=seed,
        retries=retries,
        ex=run.overall_ex,
        f1=run.average_f1 if isinstance(run, HQDLRun) else None,
        usage=run.usage,
        resilience=report,
        faults_injected=injector.stats.snapshot(),
        fault_decisions=injector.stats.decisions,
        breaker_trips=breaker.trips if breaker is not None else 0,
        metrics=_metrics_snapshot(telemetry),
    )


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
    return _run_chaos(
        run_udf, "udf", swan, model_name, shots,
        fault_rate=fault_rate, seed=seed, retries=retries, plan=plan,
        policy=policy, breaker=breaker, telemetry=telemetry,
        provenance=provenance, ledger=ledger,
        batch_size=batch_size, pushdown=pushdown, databases=databases,
        gold=gold, workers=workers, db_workers=db_workers,
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
    return _run_chaos(
        run_hqdl, "hqdl", swan, model_name, shots,
        fault_rate=fault_rate, seed=seed, retries=retries, plan=plan,
        policy=policy, breaker=breaker, telemetry=telemetry,
        provenance=provenance, ledger=ledger,
        databases=databases, gold=gold, workers=workers,
        db_workers=db_workers,
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
        for run_chaos in (run_udf_chaos, run_hqdl_chaos):
            runs.append(
                run_chaos(
                    swan, model_name, shots, fault_rate=rate, seed=seed,
                    retries=retries, databases=databases, gold=gold,
                    telemetry=_telemetry(),
                )
            )
    return runs

"""Provenance bench: the recorder must observe without perturbing.

Three claims anchor the provenance subsystem at bench scale:

1. **NULL_PROVENANCE is free** — the default disabled recorder adds
   zero LLM calls and zero tokens: Usage is identical to a run that
   never heard of provenance.
2. **The enabled recorder is result-invisible** — same Usage, same EX,
   and the *virtual* makespan (SimulatedClock) is bit-identical, because
   recording happens outside the simulated latency path.
3. **Wall-clock overhead is bounded** — recording every call and cell
   of a full-database run costs a modest constant factor.  The tracked
   figure is perfbench's ``obs.provenance_ratio``, where noise is handled.
"""

import time

from repro.eval.attribution import attribute_misses, attribution_counts
from repro.harness.runner import run_udf
from repro.llm.batching import parallel_makespan
from repro.llm.parallel import SimulatedClock, SimulatedLatencyClient
from repro.obs import NULL_PROVENANCE, ProvenanceRecorder

DATABASES = ["superhero"]
MODEL = "gpt-3.5-turbo"
WORKERS = 4
#: generous bound — recording ~4k cells should cost far less than this
MAX_WALL_OVERHEAD = 1.75
#: wall-clock timing is noisy; take the best of N for each variant
REPEATS = 3


def _timed_run(swan, gold, make_provenance):
    """Best-of-N wall time; a fresh recorder per repeat so cells don't
    accumulate across timing runs."""
    best = float("inf")
    run = provenance = None
    for _ in range(REPEATS):
        provenance = make_provenance()
        started = time.perf_counter()
        run = run_udf(
            swan, MODEL, 0, databases=DATABASES, gold=gold,
            workers=WORKERS, provenance=provenance,
        )
        best = min(best, time.perf_counter() - started)
    return run, best, provenance


def test_provenance_overhead(swan, gold, show):
    # -- claim 1: the disabled recorder is exactly the plain run --------------
    plain, wall_plain, _ = _timed_run(swan, gold, lambda: None)
    nulled, wall_nulled, _ = _timed_run(swan, gold, lambda: NULL_PROVENANCE)
    assert nulled.usage == plain.usage  # zero added LLM calls and tokens
    assert nulled.ex_by_db == plain.ex_by_db

    # -- claim 2: the enabled recorder changes no result ----------------------
    recorded, wall_recorded, recorder = _timed_run(
        swan, gold, ProvenanceRecorder
    )
    assert recorded.usage == plain.usage
    assert recorded.ex_by_db == plain.ex_by_db
    virtual_plain = parallel_makespan(plain.call_sizes, WORKERS)
    virtual_recorded = parallel_makespan(recorded.call_sizes, WORKERS)
    assert virtual_recorded == virtual_plain

    # recording actually happened, and completeness holds at bench scale
    stats = recorder.stats()
    assert stats["cells"] > 0
    non_null = sum(1 for cell in recorder.cells() if not cell.null)
    assert non_null == recorded.keys_generated

    # -- claim 3: bounded wall-clock overhead ---------------------------------
    overhead = wall_recorded / wall_plain if wall_plain > 0 else 1.0
    assert overhead < MAX_WALL_OVERHEAD, (
        f"recorder overhead {overhead:.2f}x exceeds {MAX_WALL_OVERHEAD}x"
    )

    questions = {
        q.qid: q
        for name in DATABASES
        for q in swan.questions_for(name)
    }
    counts = attribution_counts(
        attribute_misses(recorder, recorded.outcomes, questions, pipeline="udf")
    )

    show(
        "Provenance recorder overhead "
        f"({MODEL}, {DATABASES[0]}, workers={WORKERS}):\n"
        f"  plain        {wall_plain:.3f}s wall, "
        f"virtual makespan {virtual_plain:.1f}s\n"
        f"  null recorder {wall_nulled:.3f}s wall (identical Usage)\n"
        f"  recording    {wall_recorded:.3f}s wall "
        f"({overhead:.2f}x, virtual makespan unchanged)\n"
        f"  recorded {stats['calls']} calls, {stats['cells']} cells "
        f"({stats['null_cells']} null); attribution {counts}"
    )


def test_virtual_clock_run_is_invisible_too(swan, gold):
    """Recording under the simulated-latency stack changes nothing either."""

    def _sim_run(provenance):
        clock = SimulatedClock(WORKERS)
        run = run_udf(
            swan, MODEL, 0, databases=DATABASES, gold=gold, workers=WORKERS,
            wrap_client=lambda model: SimulatedLatencyClient(model, clock),
            provenance=provenance,
        )
        return run, clock.now()

    plain, elapsed_plain = _sim_run(None)
    recorded, elapsed_recorded = _sim_run(ProvenanceRecorder())
    assert recorded.usage == plain.usage
    # clock.now() jitters ~0.5% run-to-run from thread scheduling even
    # without provenance; the deterministic virtual makespan (checked in
    # test_provenance_overhead) is the exact-equality claim
    assert abs(elapsed_recorded - elapsed_plain) / elapsed_plain < 0.02

"""Provenance completeness properties on full SWAN runs.

Three invariants anchor the provenance subsystem (PR 5 tentpole):

1. **Completeness** — every non-NULL materialized cell has exactly one
   producing call-id, and that id resolves to a recorded call; the cell
   count equals the pipeline's own materialization count.  Holds across
   both pipelines, worker counts 1 and 8, and plan on/off.
2. **Invisibility** — running with the recorder enabled changes nothing:
   byte-identical outcomes and Usage versus the plain run.
3. **Attribution exhaustiveness** — every miss lands in exactly one
   class, so the classified misses sum to the total misses.
"""

import pytest

from repro.eval.attribution import (
    MISS_CLASSES,
    attribute_misses,
    attribution_counts,
)
from repro.harness.runner import (
    GoldResults,
    run_hqdl,
    run_hqdl_chaos,
    run_udf,
    run_udf_chaos,
)
from repro.obs import ProvenanceRecorder


@pytest.fixture(scope="module")
def gold(swan):
    return GoldResults(swan)


def _assert_unique_producers(cells):
    """Each (qid, table, key, column) slot was recorded exactly once."""
    seen = set()
    for cell in cells:
        slot = (cell.pipeline, cell.qid, cell.table, cell.key, cell.column)
        assert slot not in seen, f"cell recorded twice: {slot}"
        seen.add(slot)


def _assert_resolvable(provenance, cells):
    """Every non-NULL cell names exactly one call the recorder knows."""
    for cell in cells:
        if cell.null:
            continue
        assert cell.call_id, f"non-NULL cell without a producer: {cell}"
        call = provenance.call(cell.call_id)
        assert call is not None, f"dangling call-id {cell.call_id}"
        assert call.dispatches >= 1


def _outcome_key(outcome):
    return (outcome.qid, outcome.correct, outcome.actual_rows, outcome.error)


class TestUDFCompleteness:
    @pytest.mark.parametrize("workers", [1, 8])
    @pytest.mark.parametrize("plan", [None, "pairs"])
    def test_full_swan_every_cell_accounted(self, swan, gold, workers, plan):
        prov = ProvenanceRecorder()
        run = run_udf(
            swan, "gpt-3.5-turbo", 0, gold=gold, workers=workers,
            plan=plan, provenance=prov,
        )
        cells = prov.cells()
        assert cells, "a full run must record cells"
        non_null = [cell for cell in cells if not cell.null]
        # the recorder and the pipeline agree on what materialized
        assert len(non_null) == run.keys_generated
        _assert_unique_producers(cells)
        _assert_resolvable(prov, cells)
        # no faults were injected, so nothing may be flagged degraded
        assert all(not cell.degraded for cell in cells)
        # planned runs mark planner-issued calls as planned
        if plan == "pairs":
            assert any(call.planned for call in prov.calls())

    def test_qa_calls_recorded(self, swan, gold):
        """LLMQA bypasses the dispatcher but still lands in provenance."""
        prov = ProvenanceRecorder()
        run_udf(
            swan, "gpt-3.5-turbo", 0, databases=["superhero"],
            gold=gold, provenance=prov,
        )
        assert any(call.label == "udf:qa" for call in prov.calls())


class TestHQDLCompleteness:
    @pytest.mark.parametrize("workers", [1, 8])
    def test_full_swan_every_cell_accounted(self, swan, gold, workers):
        prov = ProvenanceRecorder()
        run = run_hqdl(
            swan, "gpt-3.5-turbo", 0, gold=gold, workers=workers,
            provenance=prov,
        )
        cells = prov.cells()
        non_null = [cell for cell in cells if not cell.null]
        generated = sum(
            table.generated_cells()
            for result in run.generations.values()
            for table in result.tables.values()
        )
        assert len(non_null) == generated
        # HQDL generates once per database, before any question runs
        assert all(cell.qid == "" for cell in cells)
        _assert_unique_producers(cells)
        _assert_resolvable(prov, cells)
        assert all(not cell.degraded for cell in cells)


class TestInvisibility:
    def test_udf_run_identical_with_recorder_on(self, swan, gold):
        plain = run_udf(swan, "gpt-3.5-turbo", 0, gold=gold, workers=4)
        observed = run_udf(
            swan, "gpt-3.5-turbo", 0, gold=gold, workers=4,
            provenance=ProvenanceRecorder(),
        )
        assert plain.usage == observed.usage
        assert plain.ex_by_db == observed.ex_by_db
        assert list(map(_outcome_key, plain.outcomes)) == list(
            map(_outcome_key, observed.outcomes)
        )

    def test_hqdl_run_identical_with_recorder_on(self, swan, gold):
        plain = run_hqdl(
            swan, "gpt-3.5-turbo", 0, databases=["superhero"], gold=gold
        )
        observed = run_hqdl(
            swan, "gpt-3.5-turbo", 0, databases=["superhero"], gold=gold,
            provenance=ProvenanceRecorder(),
        )
        assert plain.usage == observed.usage
        assert plain.f1_by_db == observed.f1_by_db
        assert list(map(_outcome_key, plain.outcomes)) == list(
            map(_outcome_key, observed.outcomes)
        )


class TestDegradedFlagging:
    def test_udf_chaos_degraded_cells_flagged(self, swan, gold):
        prov = ProvenanceRecorder()
        chaos = run_udf_chaos(
            swan, "gpt-3.5-turbo", 0, fault_rate=0.4, retries=False,
            databases=["superhero"], gold=gold, provenance=prov,
        )
        degraded = [cell for cell in prov.cells() if cell.degraded]
        assert chaos.resilience.as_dict()["degraded_rows"] > 0
        assert degraded, "failed batches must flag their cells degraded"
        # degraded implies NULL; the producing call either stayed failed
        # or a later dispatch of the same prompt (another question, the
        # retry layer) succeeded and was served from cache
        for cell in degraded:
            assert cell.null
            call = prov.call(cell.call_id)
            assert call is not None
            assert call.failed or call.paid_calls > 0

    def test_hqdl_chaos_degraded_cells_flagged(self, swan, gold):
        prov = ProvenanceRecorder()
        chaos = run_hqdl_chaos(
            swan, "gpt-3.5-turbo", 0, fault_rate=0.4, retries=False,
            databases=["superhero"], gold=gold, provenance=prov,
        )
        degraded = [cell for cell in prov.cells() if cell.degraded]
        assert chaos.resilience.as_dict()["degraded_rows"] > 0
        assert degraded
        assert all(cell.null for cell in degraded)


class TestAttributionExhaustiveness:
    @pytest.mark.parametrize("pipeline", ["udf", "hqdl"])
    def test_every_miss_classified_exactly_once(self, swan, gold, pipeline):
        prov = ProvenanceRecorder()
        runner = run_udf if pipeline == "udf" else run_hqdl
        run = runner(swan, "gpt-3.5-turbo", 0, gold=gold, provenance=prov)
        questions = {
            question.qid: question
            for name in swan.database_names()
            for question in swan.questions_for(name)
        }
        attributions = attribute_misses(
            prov, run.outcomes, questions, pipeline=pipeline
        )
        misses = sum(1 for outcome in run.outcomes if not outcome.correct)
        assert misses > 0  # gpt-3.5-turbo is imperfect by construction
        assert len(attributions) == misses
        counts = attribution_counts(attributions)
        assert sum(counts.values()) == misses
        assert set(counts) == set(MISS_CLASSES)
        for attribution in attributions:
            assert attribution.miss_class in MISS_CLASSES

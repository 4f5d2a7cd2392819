"""One test per textual claim in the paper's evaluation narrative.

Each test quotes the claim it verifies (Section in parentheses).  These
complement the per-table benches: the benches pin numeric shapes, these
pin the *explanations* the paper gives for them.
"""

import pytest

from repro.harness.runner import GoldResults, run_hqdl, run_udf


@pytest.fixture(scope="module")
def gold(swan):
    return GoldResults(swan)


class TestSection51Metrics:
    def test_identical_results_is_the_bar(self, swan, gold):
        """(5.1) "EX measures the percentage of hybrid queries that produce
        identical results to the ground truth" — near-miss answers score 0."""
        run = run_hqdl(swan, "gpt-4-turbo", 5, databases=["superhero"],
                       gold=gold)
        for outcome in run.outcomes:
            assert outcome.correct in (True, False)  # no partial credit

    def test_f1_used_for_one_to_many(self):
        """(5.1) "Because of the one-to-many relationships ... we use the
        widely accepted F1 score"."""
        from repro.eval.factuality import cell_f1
        from repro.swan.base import KIND_MULTI, ExpansionColumn

        multi = ExpansionColumn("powers", KIND_MULTI, ("power",), "powers")
        partial = cell_f1("Flight", ("Flight", "Magic"), multi)
        assert 0.0 < partial < 1.0  # graded, not all-or-nothing


class TestSection53Analysis:
    def test_zero_shot_format_inconsistency(self, swan):
        """(5.3) "One major challenge in using zero-shot prompts ... LLMs
        sometimes return too few or too many fields and may occasionally
        return an empty string for a field"."""
        from repro.core.hqdl import HQDL
        from tests.conftest import make_model

        world = swan.world("superhero")
        pipeline = HQDL(world, make_model(world, "gpt-3.5-turbo"), shots=0)
        generation = pipeline.generate_all()
        assert generation.total_malformed() > 0

    def test_limit_clauses_mask_errors(self, swan, gold):
        """(5.3) "even when an LLM provides inaccurate answers for many
        schools, the top results may still appear correct, masking
        potential errors"."""
        from repro.harness.breakdown import analyze_run

        run = run_hqdl(swan, "gpt-3.5-turbo", 5, gold=gold)
        breakdown = analyze_run(swan, run)
        assert breakdown.limit_failure_rate() < breakdown.scan_failure_rate()

    def test_more_examples_more_accurate_data(self, swan, gold):
        """(5.3) "providing more examples in the input prompt increases the
        factuality of the generated output"."""
        zero = run_hqdl(swan, "gpt-4-turbo", 0, databases=["formula_1"],
                        gold=gold)
        five = run_hqdl(swan, "gpt-4-turbo", 5, databases=["formula_1"],
                        gold=gold)
        assert five.f1_by_db["formula_1"] > zero.f1_by_db["formula_1"]


class TestSection54UdfAnalysis:
    def test_full_row_beats_single_cell(self, swan, gold):
        """(5.4) "Predicting all column values may be more advantageous than
        predicting a single column value, as it mirrors a chain-of-thought
        process"."""
        hqdl = run_hqdl(swan, "gpt-3.5-turbo", 0, gold=gold)
        udf = run_udf(swan, "gpt-3.5-turbo", 0, gold=gold)
        assert hqdl.overall_ex > udf.overall_ex

    def test_batching_increases_error_potential(self, swan, gold):
        """(5.4) "Although batching reduces the number of LLM calls, it also
        increases the potential for errors"."""
        batched = run_udf(swan, "gpt-3.5-turbo", 0, databases=["superhero"],
                          gold=gold, batch_size=5)
        unbatched = run_udf(swan, "gpt-3.5-turbo", 0, databases=["superhero"],
                            gold=gold, batch_size=1)
        assert batched.usage.calls < unbatched.usage.calls
        assert unbatched.overall_ex >= batched.overall_ex


class TestSection55CostAnalysis:
    def test_udf_reuses_cache_poorly(self, swan, gold):
        """(5.5) "LLM-generated content is cached as a mapping from input
        prompts to LLM output answers, making it challenging for the system
        to efficiently reuse cached outputs"."""
        run = run_udf(swan, "gpt-3.5-turbo", 0, gold=gold)
        hit_rate = run.cache_hits / (run.cache_hits + run.cache_misses)
        # most prompts are unique (phrasing + batch composition); only
        # about half of lookups ever find a byte-identical prior prompt
        assert hit_rate < 0.6

    def test_hqdl_materialization_simplifies_reuse(self, swan, gold):
        """(5.5) "HQDL stores LLM-generated outputs directly as entities
        within relationships (schema expansion), simplifying reuse" — its
        call count is independent of the number of questions."""
        run = run_hqdl(swan, "gpt-3.5-turbo", 0, gold=gold)
        total_keys = sum(
            len(world.truth[e.name])
            for world in swan.worlds.values()
            for e in world.expansions
        )
        assert run.usage.calls == total_keys

    def test_udf_uses_more_tokens_overall(self, swan, gold):
        """(5.5) "Compared to HQDL, HQ UDFs uses [more] input tokens and
        [more] output tokens"."""
        hqdl = run_hqdl(swan, "gpt-3.5-turbo", 0, gold=gold)
        udf = run_udf(swan, "gpt-3.5-turbo", 0, gold=gold)
        assert udf.usage.input_tokens > hqdl.usage.input_tokens
        assert udf.usage.output_tokens > hqdl.usage.output_tokens

"""Tests for the experiment runners (restricted to one database for speed)."""

import pytest

from repro.harness.runner import GoldResults, run_hqdl, run_udf


@pytest.fixture(scope="module")
def gold(swan):
    return GoldResults(swan)


class TestGoldResults:
    def test_covers_all_questions(self, swan, gold):
        for question in swan.questions:
            result = gold.expected(question.qid)
            assert result.columns is not None

    def test_unknown_qid(self, gold):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            gold.expected("nope")


class TestRunHQDL:
    def test_perfect_model_gets_full_marks(self, swan, gold):
        run = run_hqdl(swan, "perfect", 0, databases=["superhero"], gold=gold)
        assert run.ex_by_db["superhero"] == 1.0
        assert run.f1_by_db["superhero"] == 1.0
        assert run.overall_ex == 1.0
        assert len(run.outcomes) == 30

    def test_real_model_is_imperfect_but_metered(self, swan, gold):
        run = run_hqdl(swan, "gpt-3.5-turbo", 0, databases=["superhero"], gold=gold)
        assert 0.0 < run.ex_by_db["superhero"] < 1.0
        assert 0.0 < run.f1_by_db["superhero"] < 1.0
        assert run.usage.calls == len(
            swan.world("superhero").truth["superhero_info"]
        )

    def test_generation_reused_across_questions(self, swan, gold):
        """30 questions, but generation calls = number of keys (once)."""
        run = run_hqdl(swan, "gpt-3.5-turbo", 0, databases=["superhero"], gold=gold)
        keys = len(swan.world("superhero").truth["superhero_info"])
        assert run.usage.calls == keys

    def test_average_f1_over_databases(self, swan, gold):
        run = run_hqdl(
            swan, "perfect", 0, databases=["superhero", "formula_1"], gold=gold
        )
        assert run.average_f1 == 1.0
        assert len(run.f1_by_db) == 2


class TestRunUDF:
    def test_perfect_model_gets_full_marks(self, swan, gold):
        run = run_udf(swan, "perfect", 0, databases=["superhero"], gold=gold)
        assert run.ex_by_db["superhero"] == 1.0

    def test_cache_stats_collected(self, swan, gold):
        run = run_udf(swan, "gpt-3.5-turbo", 0, databases=["superhero"], gold=gold)
        assert run.cache_misses > 0
        assert run.usage.calls == run.cache_misses

    def test_pushdown_flag_changes_cost(self, swan, gold):
        with_pd = run_udf(
            swan, "perfect", 0, databases=["formula_1"], gold=gold, pushdown=True
        )
        without_pd = run_udf(
            swan, "perfect", 0, databases=["formula_1"], gold=gold, pushdown=False
        )
        assert without_pd.usage.input_tokens > with_pd.usage.input_tokens

    def test_batch_size_changes_call_count(self, swan, gold):
        small = run_udf(
            swan, "perfect", 0, databases=["superhero"], gold=gold, batch_size=1
        )
        large = run_udf(
            swan, "perfect", 0, databases=["superhero"], gold=gold, batch_size=20
        )
        assert small.usage.calls > large.usage.calls


class TestDatabaseValidation:
    """`databases=` names are validated up front with a clear error."""

    def test_run_udf_unknown_database(self, swan, gold):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="'nope'.*superhero"):
            run_udf(swan, "perfect", 0, databases=["nope"], gold=gold)

    def test_run_hqdl_unknown_database_lists_valid_names(self, swan, gold):
        from repro.errors import ReproError

        with pytest.raises(ReproError) as excinfo:
            run_hqdl(swan, "perfect", 0, databases=["superhero", "typo"], gold=gold)
        message = str(excinfo.value)
        assert "'typo'" in message
        for name in swan.database_names():
            assert name in message

    def test_valid_names_still_accepted(self, swan, gold):
        run = run_udf(swan, "perfect", 0, databases=["superhero"], gold=gold)
        assert run.ex_by_db["superhero"] == 1.0


class TestParallelRunners:
    """db_workers / workers change wall-clock only, never results."""

    def test_run_udf_parallel_matches_sequential(self, swan, gold):
        sequential = run_udf(
            swan, "gpt-3.5-turbo", 0,
            databases=["superhero", "california_schools"], gold=gold,
        )
        parallel = run_udf(
            swan, "gpt-3.5-turbo", 0,
            databases=["superhero", "california_schools"], gold=gold,
            workers=8, db_workers=2,
        )
        assert parallel.usage == sequential.usage
        assert parallel.ex_by_db == sequential.ex_by_db
        assert parallel.cache_hits == sequential.cache_hits
        assert parallel.cache_misses == sequential.cache_misses
        assert [o.qid for o in parallel.outcomes] == [
            o.qid for o in sequential.outcomes
        ]

    def test_run_hqdl_parallel_matches_sequential(self, swan, gold):
        sequential = run_hqdl(
            swan, "gpt-3.5-turbo", 0, databases=["superhero"], gold=gold
        )
        parallel = run_hqdl(
            swan, "gpt-3.5-turbo", 0, databases=["superhero"], gold=gold,
            workers=8, db_workers=2,
        )
        assert parallel.usage == sequential.usage
        assert parallel.f1_by_db == sequential.f1_by_db
        assert parallel.ex_by_db == sequential.ex_by_db
        for name, generation in sequential.generations.items():
            other = parallel.generations[name]
            for table_name, table in generation.tables.items():
                assert other.tables[table_name].rows == table.rows

    def test_db_workers_validation(self, swan, gold):
        with pytest.raises(ValueError):
            run_udf(
                swan, "perfect", 0, databases=["superhero"], gold=gold,
                db_workers=0,
            )

    @pytest.mark.parametrize("runner", [run_udf, run_hqdl])
    def test_parallelism_accepts_only_threads(self, runner, swan, gold):
        from repro.errors import ReproError

        for value in ("processes", "fibers"):
            with pytest.raises(ReproError, match="must be 'threads'"):
                runner(
                    swan, "perfect", 0, databases=["superhero"], gold=gold,
                    parallelism=value,
                )


class TestRunUDFMemory:
    def test_a_finished_database_releases_its_prompt_cache(
        self, swan, gold, monkeypatch
    ):
        """No database's prompt cache outlives its own body: only the
        (hits, misses) counts travel to the merge."""
        import gc
        import weakref

        from repro.harness import runner
        from repro.llm.cache import PromptCache

        caches: list[weakref.ref] = []
        alive_at_start: list[int] = []

        class TrackedCache(PromptCache):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                caches.append(weakref.ref(self))

        def wrap(model):
            gc.collect()
            alive_at_start.append(sum(ref() is not None for ref in caches))
            return model

        monkeypatch.setattr(runner, "PromptCache", TrackedCache)
        run = run_udf(swan, "gpt-3.5-turbo", 0, gold=gold, wrap_client=wrap)
        assert len(caches) == 4
        assert alive_at_start == [0, 0, 0, 0]
        gc.collect()
        assert all(ref() is None for ref in caches)
        # pinned before the counts replaced the caches in the extras
        assert (run.cache_hits, run.cache_misses) == (1726, 1721)

"""Byte-identity tests for the optimized hot paths (tentpole PR 6).

Every ``optimize`` fast path promises byte-identity with the legacy
code it replaces; these tests hold it to that over adversarial inputs:

- the line-memoized :func:`count_tokens` vs the reference
  :func:`tokenize_text` it must agree with;
- :func:`det_sample_fast` vs the hash-sort original (tie handling
  included);
- the oracle's vectorized value generator vs the per-cell path, across
  profiles, shot counts, and batch shapes, and its memoized free-form
  confusion candidates vs a full scan of the truth map;
- the single-pass map-prompt parser vs the two-scan original;
- a full pipeline run with ``optimize=False`` vs the default.
"""

import pytest

from repro.harness.runner import GoldResults, run_udf
from repro.llm.chat import MockChatModel
from repro.llm.oracle import KnowledgeOracle, stable_choice
from repro.llm.profiles import get_profile, list_profiles
from repro.llm.tokenizer import count_tokens, tokenize_text
from repro.swan.base import KIND_MULTI, KIND_NUMERIC, KIND_SELECTION
from repro.swan.worlds.util import det_sample, det_sample_fast

TOKEN_SAMPLES = [
    "",
    "a",
    "hello world",
    "Spider-Man (II)",
    "12345 678 9",
    "x" * 57,
    "9" * 31,
    "CamelCaseRuns and    spaces\t\ttabs\nnewlines",
    "mixed123abc456def",
    "émigré naïve — café",
    "a|b|c||d",
    "   leading and trailing   ",
    "!@#$%^&*()",
    "word1word word2word 33a44b",
]


class TestCountTokensFast:
    """``count_tokens`` (the fast counter) vs ``tokenize_text`` (the legacy
    definition); the fuzz and memo cases live in ``test_tokenizer.py``."""

    @pytest.mark.parametrize("text", TOKEN_SAMPLES)
    def test_matches_legacy(self, text):
        assert count_tokens(text) == len(tokenize_text(text))

    def test_matches_on_benchmark_prompts(self, superhero_world):
        for expansion in superhero_world.expansions:
            for key in list(superhero_world.truth[expansion.name])[:20]:
                text = " ".join(str(part) for part in key)
                assert count_tokens(text) == len(tokenize_text(text))


class TestDetSampleFast:
    OPTIONS = [f"option {i}" for i in range(25)]

    @pytest.mark.parametrize("count", [0, 1, 5, 24, 25])
    def test_matches_legacy(self, count):
        parts = ("seed", 42, "x")
        assert det_sample_fast(self.OPTIONS, count, *parts) == det_sample(
            self.OPTIONS, count, *parts
        )

    def test_matches_without_parts(self):
        assert det_sample_fast(self.OPTIONS, 7) == det_sample(self.OPTIONS, 7)

    def test_rejects_oversampling(self):
        with pytest.raises(ValueError):
            det_sample_fast(self.OPTIONS, len(self.OPTIONS) + 1)

    def test_many_seeds(self):
        for seed in range(30):
            assert det_sample_fast(self.OPTIONS, 5, seed) == det_sample(
                self.OPTIONS, 5, seed
            )


class TestOracleFastPath:
    def test_generate_value_identical(self, superhero_world):
        slow = KnowledgeOracle(superhero_world, optimize=False)
        fast = KnowledgeOracle(superhero_world, optimize=True)
        profiles = [get_profile(name) for name in list_profiles()]
        checked = 0
        for expansion in superhero_world.expansions:
            keys = list(superhero_world.truth[expansion.name])
            for key in keys[:: max(1, len(keys) // 15)]:
                for column in expansion.columns:
                    for profile in profiles:
                        for shots in (0, 2):
                            for sc, bs in ((False, 1), (True, 5)):
                                args = (
                                    expansion.name, key, column.name,
                                    profile, shots,
                                )
                                assert slow.generate_value(
                                    *args, single_cell=sc, batch_size=bs
                                ) == fast.generate_value(
                                    *args, single_cell=sc, batch_size=bs
                                )
                                checked += 1
        assert checked > 100

    def test_freeform_distractor_matches_truth_scan(self, swan):
        """The memoized candidates yield the ``others`` a full scan builds."""
        checked = 0
        for name in swan.database_names():
            world = swan.world(name)
            oracle = KnowledgeOracle(world)
            for expansion in world.expansions:
                truth_map = world.truth[expansion.name]
                for column in expansion.columns:
                    if column.kind in (KIND_SELECTION, KIND_NUMERIC, KIND_MULTI):
                        continue
                    for key, entry in truth_map.items():
                        text = str(entry[column.name])
                        if "www." in text or text.endswith(
                            (".edu", ".org", ".com", ".net")
                        ):
                            continue
                        others = [
                            other[column.name]
                            for other_key, other in truth_map.items()
                            if other_key != key
                            and str(other[column.name]) != text
                            and other[column.name] is not None
                        ]
                        if not others:
                            continue
                        seed_parts = ("salt", name, expansion.name, key)
                        assert oracle._freeform_distractor(
                            expansion.name, key, column.name,
                            entry[column.name], seed_parts,
                        ) == stable_choice(others, "confuse", *seed_parts)
                        checked += 1
        assert checked > 100

    def test_map_generator_matches_per_cell(self, superhero_world):
        oracle = KnowledgeOracle(superhero_world, optimize=True)
        profile = get_profile("gpt-3.5-turbo")
        expansion = superhero_world.expansions[0]
        column = expansion.columns[0].name
        keys = list(superhero_world.truth[expansion.name])[:40]
        generate = oracle.map_value_generator(
            expansion.name, column, profile, 2, len(keys)
        )
        legacy = KnowledgeOracle(superhero_world, optimize=False)
        for key in keys:
            assert generate(key) == legacy.generate_value(
                expansion.name, key, column, profile, 2,
                single_cell=True, batch_size=len(keys),
            )


class TestMapPromptParserFast:
    def _model(self, superhero_world, optimize):
        return MockChatModel(
            KnowledgeOracle(superhero_world, optimize=optimize),
            get_profile("perfect"), optimize=optimize,
        )

    @pytest.mark.parametrize(
        "prompt",
        [
            (
                "Answer the question for each given key.\n"
                "Question: Which comic book publisher published this "
                "superhero?\n"
                "Keys:\n"
                "1. Batman|Bruce Wayne\n"
                "2. Spider-Man|Peter Parker\n"
                "Return one line per key in the format `index. answer`.\n"
                "Answer:"
            ),
            (
                "Example: demo\n"
                "Question: What is the eye color of this superhero?\n"
                "Keys:\n"
                "1. Superman|Clark Kent\n"
                "Answer:"
            ),
        ],
    )
    def test_fast_parse_matches_legacy_completion(
        self, superhero_world, prompt
    ):
        fast = self._model(superhero_world, True)
        slow = self._model(superhero_world, False)
        assert fast.complete(prompt).text == slow.complete(prompt).text
        assert fast.complete(prompt).usage == slow.complete(prompt).usage

    def test_fast_parse_components(self, superhero_world):
        model = self._model(superhero_world, True)
        prompt = (
            "Preamble Question: decoy is only matched on the first hit\n"
            "Keys:\n"
            "1. Batman|Bruce Wayne\n"
            "Answer:"
        )
        question, keys = model._parse_map_prompt_fast(prompt)
        assert question == model._line_after_marker(prompt, "Question:")
        assert keys == model._parse_map_keys(prompt)


class TestPipelineIdentity:
    def test_optimized_run_matches_legacy(self, swan):
        gold = GoldResults(swan)
        legacy = run_udf(
            swan, "gpt-3.5-turbo", 2, databases=["superhero"], gold=gold,
            optimize=False,
        )
        optimized = run_udf(
            swan, "gpt-3.5-turbo", 2, databases=["superhero"], gold=gold,
            optimize=True,
        )
        assert [
            (o.qid, o.correct, o.actual_rows, o.error)
            for o in legacy.outcomes
        ] == [
            (o.qid, o.correct, o.actual_rows, o.error)
            for o in optimized.outcomes
        ]
        assert legacy.usage == optimized.usage
        assert (legacy.cache_hits, legacy.cache_misses) == (
            optimized.cache_hits, optimized.cache_misses
        )

"""Byte-identity tests for the vectorized hot paths.

The hot paths were introduced in PR 6 next to the per-key code they
replaced; that legacy code is gone, so each one is now held to
byte-identity against something that cannot drift with it:

- the line-memoized :func:`count_tokens` vs the reference
  :func:`tokenize_text` it must agree with;
- :func:`det_sample` vs the hash-sort definition (tie handling
  included);
- the oracle's memoized value generator vs a cold oracle and the
  parts-based :meth:`KnowledgeOracle.knows` draw, its per-batch closure
  vs the per-cell method, and its memoized free-form confusion
  candidates vs a full scan of the truth map;
- the single-pass map-prompt parser vs the literal question and keys of
  its prompts;
- every prompt, completion and Usage of both pipelines vs digests frozen
  from the legacy (``optimize=False``) code before it was deleted
  (``golden_completions.json``).
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from repro.core.hqdl import HQDL
from repro.llm.chat import MockChatModel
from repro.llm.oracle import KnowledgeOracle, stable_choice
from repro.llm.profiles import get_profile, list_profiles
from repro.llm.tokenizer import count_tokens, tokenize_text
from repro.llm.usage import Usage
from repro.swan.base import KIND_MULTI, KIND_NUMERIC, KIND_SELECTION
from repro.swan.benchmark import load_benchmark_subset
from repro.swan.build import build_curated_database
from repro.swan.worlds import util
from repro.swan.worlds.util import det_sample, det_uniform
from repro.udf.executor import HybridQueryExecutor

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


def _hash_sort_sample(options, count, *parts):
    """The definition ``det_sample`` must reproduce: rank every index by
    its ``det_uniform`` draw (stable sort), keep the ``count`` lowest."""
    scored = sorted(
        range(len(options)), key=lambda i: det_uniform("sample", i, *parts)
    )
    return [options[i] for i in sorted(scored[:count])]


class TestDetSampleFast:
    OPTIONS = [f"option {i}" for i in range(25)]

    @pytest.mark.parametrize("count", [0, 1, 5, 24, 25])
    def test_matches_legacy(self, count):
        parts = ("seed", 42, "x")
        assert det_sample(self.OPTIONS, count, *parts) == _hash_sort_sample(
            self.OPTIONS, count, *parts
        )

    def test_matches_without_parts(self):
        assert det_sample(self.OPTIONS, 7) == _hash_sort_sample(self.OPTIONS, 7)

    def test_rejects_oversampling(self):
        with pytest.raises(ValueError):
            det_sample(self.OPTIONS, len(self.OPTIONS) + 1)

    def test_many_seeds(self):
        for seed in range(30):
            assert det_sample(self.OPTIONS, 5, seed) == _hash_sort_sample(
                self.OPTIONS, 5, seed
            )

    def test_tied_draws_resolve_by_index(self, monkeypatch):
        """Draws that collide keep the stable (lowest index first) order."""

        class _CoarseHashlib:
            @staticmethod
            def sha256(payload):
                bucket = hashlib.sha256(payload).digest()[0] % 3
                return hashlib.sha256(bytes([bucket]))

        monkeypatch.setattr(util, "hashlib", _CoarseHashlib)
        draws = {det_uniform("sample", i, "tie") for i in range(25)}
        assert len(draws) <= 3  # the patch really does force ties
        for count in (1, 4, 9, 20):
            assert det_sample(self.OPTIONS, count, "tie") == _hash_sort_sample(
                self.OPTIONS, count, "tie"
            )


class TestOracleFastPath:
    def test_generate_value_identical(self, superhero_world):
        """A warm oracle (every memo populated by interleaved profiles,
        shots and batch shapes) answers like a cold one, and a cell is
        answered truthfully whenever :meth:`KnowledgeOracle.knows` — the
        parts-based definition of the draw — says the model knows it."""
        world = superhero_world
        warm = KnowledgeOracle(world)
        cells = [
            (expansion.name, key, column)
            for expansion in world.expansions
            for key in world.keys_for(expansion.name)[
                :: max(1, len(world.keys_for(expansion.name)) // 15)
            ]
            for column in expansion.columns
        ]
        configs = list(
            itertools.product(
                [get_profile(name) for name in list_profiles()],
                (0, 2),
                ((False, 1), (True, 5)),
            )
        )
        wrong = 0
        for table, key, column in cells:
            truth = warm.format_value(
                world.truth_value(table, key, column.name), column
            )
            for profile, shots, (single_cell, batch_size) in configs:
                mode = dict(single_cell=single_cell, batch_size=batch_size)
                args = (table, key, column.name, profile, shots)
                value = warm.generate_value(*args, **mode)
                assert value == KnowledgeOracle(world).generate_value(
                    *args, **mode
                )
                accuracy = profile.knowledge_accuracy(
                    world.name, column.name, column.kind, shots, **mode
                )
                if accuracy < 1.0:
                    accuracy = min(
                        profile.max_accuracy,
                        accuracy * world.key_popularity(table, key),
                    )
                if warm.knows(table, key, column.name, accuracy):
                    assert value == truth
                else:
                    wrong += value != truth
        assert len(cells) * len(configs) > 100
        assert wrong > 10

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
        oracle = KnowledgeOracle(superhero_world)
        profile = get_profile("gpt-3.5-turbo")
        for expansion in superhero_world.expansions:
            keys = list(superhero_world.truth[expansion.name])[:40]
            for column in expansion.columns:
                generate = oracle.map_value_generator(
                    expansion.name, column.name, profile, 2, len(keys)
                )
                for key in keys:
                    assert generate(key) == oracle.generate_value(
                        expansion.name, key, column.name, profile, 2,
                        single_cell=True, batch_size=len(keys),
                    )


PUBLISHER_QUESTION = "Which comic book publisher published this superhero?"
EYE_QUESTION = "What is the eye color of this superhero?"


class TestMapPromptParserFast:
    @pytest.mark.parametrize(
        "prompt, question, keys, completion",
        [
            (
                "Answer the question for each given key.\n"
                "Question: Which comic book publisher published this "
                "superhero?\n"
                "Keys:\n"
                "1. Batman|Bruce Wayne\n"
                "2. Spider-Man|Peter Parker\n"
                "Return one line per key in the format `index. answer`.\n"
                "Answer:",
                PUBLISHER_QUESTION,
                [("Batman", "Bruce Wayne"), ("Spider-Man", "Peter Parker")],
                "1. DC Comics\n2. Marvel Comics",
            ),
            (
                "Example: demo\n"
                "Question: What is the eye color of this superhero?\n"
                "Keys:\n"
                "1. Superman|Clark Kent\n"
                "Answer:",
                EYE_QUESTION,
                [("Superman", "Clark Kent")],
                "1. Blue",
            ),
        ],
    )
    def test_fast_parse_matches_legacy_completion(
        self, perfect_model, prompt, question, keys, completion
    ):
        assert perfect_model._parse_map_prompt(prompt) == (question, keys)
        response = perfect_model.complete(prompt)
        assert response.text == completion
        assert response.usage == Usage(
            len(tokenize_text(prompt)), len(tokenize_text(completion)), 1
        )

    def test_fast_parse_components(self, perfect_model):
        prompt = (
            "Preamble Question: decoy is only matched on the first hit\n"
            "Keys:\n"
            "1. Batman|Bruce Wayne\n"
            "Question: the real one comes second and must lose\n"
            "Keys:\n"
            "1. Superman|Clark Kent\n"
            "Answer:"
        )
        question, keys = perfect_model._parse_map_prompt(prompt)
        assert question == "decoy is only matched on the first hit"
        assert question == perfect_model._line_after_marker(prompt, "Question:")
        # the keys block closes at the first non-key line after it
        assert keys == [("Batman", "Bruce Wayne")]


# -- golden bytes ---------------------------------------------------------------

GOLDEN_PATH = Path(__file__).with_name("golden_completions.json")
GOLDEN_WORLDS = [
    ("california_schools", 1),
    ("superhero", 1),
    ("formula_1", 1),
    ("european_football", 1),
    ("superhero", 10),  # replica keys carry " (II)"-style suffixes
]
GOLDEN_PROFILES = ("gpt-3.5-turbo", "gpt-4-turbo", "perfect")
GOLDEN_SHOTS = (0, 2)


def pipeline_digest(world, questions, profile_name, shots):
    """sha256 over every planned prompt of both pipelines, each followed
    by the simulated model's completion text and Usage for it."""
    digest = hashlib.sha256()
    model = MockChatModel(KnowledgeOracle(world), get_profile(profile_name))

    responses = {}  # questions of one database repeat ~1/3 of their prompts

    def feed(calls):
        for prompt, label in calls:
            response = responses.get(prompt)
            if response is None:
                response = responses[prompt] = model.complete(prompt, label=label)
            usage = response.usage
            for part in (
                label, prompt, response.text,
                f"{usage.input_tokens},{usage.output_tokens},{usage.calls}",
            ):
                digest.update(part.encode("utf-8"))
                digest.update(b"\x1e")

    feed(HQDL(world, model, shots=shots).plan_calls())
    with build_curated_database(world) as db:
        executor = HybridQueryExecutor(db, model, world, shots=shots)
        for question in questions:
            feed(executor.plan_calls(question.blend_sql))
    return digest.hexdigest()


def golden_digests(database, scale):
    """``{config id: digest}`` for one world rung, all profiles and shots."""
    subset = load_benchmark_subset(scale, [database])
    world = subset.world(database)
    return {
        f"{database}@{scale}/{profile}/{shots}": pipeline_digest(
            world, subset.questions, profile, shots
        )
        for profile in GOLDEN_PROFILES
        for shots in GOLDEN_SHOTS
    }


class TestGoldenBytes:
    """The only path reproduces the bytes the deleted legacy path produced.

    ``golden_completions.json`` was generated from ``optimize=False`` at
    the last commit that still had it (c7f000f); regenerate it only for
    a deliberate change of prompt or model behaviour.
    """

    @pytest.mark.parametrize("database, scale", GOLDEN_WORLDS)
    def test_only_path_matches_frozen_legacy_bytes(self, database, scale):
        golden = json.loads(GOLDEN_PATH.read_text())
        digests = golden_digests(database, scale)
        assert digests == {key: golden[key] for key in digests}

    def test_fixture_has_no_stray_entries(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        assert len(golden) == (
            len(GOLDEN_WORLDS) * len(GOLDEN_PROFILES) * len(GOLDEN_SHOTS)
        )

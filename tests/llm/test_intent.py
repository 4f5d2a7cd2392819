"""Prompts carry their intent: the property that makes reading it honest.

Every builder returns a :class:`~repro.llm.intent.Prompt` — the exact
text plus the intent it was rendered from — and :class:`MockChatModel`
answers from the intent.  That is only the same as reading the text if
:func:`intent_of` (the text-only path) recovers the very same intent,
so these tests hold four things:

- *the property*: for every planned prompt of all four worlds × scales
  1 and 10 × shots 0–5, over all four protocols, ``intent_of(text) ==
  prompt.intent``, and the model answers the ``Prompt`` and its bare
  text with the same completion and Usage;
- *the fallback*: inputs that do not survive the render (a ``|`` in a
  key, a line break, a marker inside a question or option) get no
  intent, and the model reads the text;
- *transport*: intents pickle, and nothing that outlives a call keeps
  one;
- *the intent reaches the model* through a client that forwards only
  ``(prompt, label)`` — the shape of the benchmark's probe — for both
  batch runners.
"""

import pickle

import pytest

from repro.core.hqdl import HQDL
from repro.core.prompts import RowPromptBuilder
from repro.harness.runner import run_hqdl, run_udf
from repro.llm import chat as chat_module
from repro.llm.cache import PromptCache
from repro.llm.chat import MockChatModel
from repro.llm.client import ScriptedClient
from repro.llm.intent import (
    EquivalenceIntent,
    MapHeader,
    MapIntent,
    Prompt,
    QaIntent,
    RowIntent,
    intent_of,
)
from repro.llm.oracle import KnowledgeOracle
from repro.llm.profiles import get_profile
from repro.swan.benchmark import load_benchmark
from repro.swan.build import build_curated_database
from repro.udf.executor import HybridQueryExecutor
from repro.udf.fewshot import cosine_similarity, embed
from repro.udf.ingredients import IngredientCall
from repro.udf.store import SHORTLIST_THRESHOLD, equivalence_prompt

DATABASES = ["california_schools", "european_football", "formula_1", "superhero"]
SHOTS = range(6)
#: at scale 10 every prompt's intent is checked, and every STRIDE-th
#: prompt is also completed both ways: equal intents make the two
#: completions one computation, so the sample guards only the dispatch
STRIDE = {1: 1, 10: 16}

PUBLISHER = "Which comic book publisher published this superhero?"


def gpt35(world, meter=None):
    return MockChatModel(
        KnowledgeOracle(world), get_profile("gpt-3.5-turbo"), meter=meter
    )


def planned_prompts(world, questions, shots) -> dict:
    """Every unique planned prompt of both pipelines, text -> Prompt."""
    prompts: dict = {}
    for prompt, _ in HQDL(world, ScriptedClient([]), shots=shots).plan_calls():
        prompts.setdefault(str(prompt), prompt)
    with build_curated_database(world) as db:
        executor = HybridQueryExecutor(db, ScriptedClient([]), world, shots=shots)
        for question in questions:
            for prompt, _ in executor.plan_calls(question.blend_sql):
                prompts.setdefault(str(prompt), prompt)
    return prompts


def assert_read_as_written(model, prompts, stride=1):
    """The property, over one collection of prompts."""
    for index, prompt in enumerate(prompts):
        text = str(prompt)
        assert type(text) is str
        assert prompt.intent is not None, text[:200]
        assert intent_of(text) == prompt.intent, text[:200]
        if index % stride == 0:
            assert model.complete(prompt) == model.complete(text), text[:200]


@pytest.fixture(scope="module")
def swan10():
    return load_benchmark(10)


@pytest.mark.parametrize("scale", [1, 10])
@pytest.mark.parametrize("database", DATABASES)
def test_every_planned_prompt_reads_as_written(swan, swan10, database, scale):
    bench = swan if scale == 1 else swan10
    world = bench.world(database)
    model = gpt35(world)
    protocols = set()
    for shots in SHOTS:
        prompts = planned_prompts(world, bench.questions_for(database), shots)
        assert_read_as_written(model, prompts.values(), STRIDE[scale])
        protocols.update(type(p.intent) for p in prompts.values())
    # superhero's one LLMQA question brings the QA protocol along
    qa = {QaIntent} if database == "superhero" else set()
    assert protocols == {RowIntent, MapIntent} | qa


@pytest.mark.parametrize("database", DATABASES)
def test_every_equivalence_candidate_reads_as_written(swan, database):
    """The rewrite lookup's candidate pairs: every earlier question of the
    world close enough to be worth an equivalence call."""
    world = swan.world(database)
    questions: list[str] = []
    with build_curated_database(world) as db:
        executor = HybridQueryExecutor(db, ScriptedClient([]), world)
        for question in swan.questions_for(database):
            work = executor.prepare(question.blend_sql).work()
            for text in [w.call.question for w in work if w.prompt is None] + [
                w.prompt.intent.question for w in work if w.prompt is not None
            ]:
                if text not in questions:
                    questions.append(text)
    vectors = [embed(q) for q in questions]
    pairs = [
        equivalence_prompt(questions[i], questions[j])
        for i in range(len(questions))
        for j in range(i)
        if cosine_similarity(vectors[i], vectors[j]) > SHORTLIST_THRESHOLD
    ]
    assert pairs
    assert_read_as_written(gpt35(world), pairs)
    assert {type(p.intent) for p in pairs} == {EquivalenceIntent}


def test_context_rows_read_as_written(swan):
    """HQDL with retrieved context rows: the context flag rides along."""
    world = swan.world("superhero")
    pipeline = HQDL(world, ScriptedClient([]), shots=2, context_rows=3)
    prompts = [prompt for prompt, _ in pipeline.plan_calls()]
    assert all(p.intent.context for p in prompts)
    assert_read_as_written(gpt35(world), prompts)


# -- the fallback: lossy inputs get no intent -----------------------------------


@pytest.fixture()
def executor(superhero_world):
    with build_curated_database(superhero_world) as db:
        yield HybridQueryExecutor(db, ScriptedClient([]), superhero_world, shots=2)


def map_call(question=PUBLISHER, options=()):
    return IngredientCall(
        kind="LLMMap", question=question, source_table="superhero",
        key_columns=("superhero_name",), options=options,
    )


def assert_read_from_text(model, prompt, lost):
    """No intent, a text reading that differs from the inputs, one answer."""
    assert prompt.intent is None
    assert intent_of(str(prompt)) != lost
    assert model.complete(prompt) == model.complete(str(prompt))


class TestLossyRenders:
    @pytest.mark.parametrize(
        "key", [("Bat|man",), ("Bat\nman",), ("Example: x",), ()],
        ids=["pipe", "newline", "marker", "empty"],
    )
    def test_map_keys(self, executor, superhero_world, key):
        batch = [("Batman",), key]
        prompt = executor.map_prompt(map_call(), batch)
        header = MapHeader(PUBLISHER, len(executor._demo_lines(PUBLISHER)))
        assert_read_from_text(
            gpt35(superhero_world), prompt, MapIntent(header, batch)
        )

    @pytest.mark.parametrize(
        "call",
        [
            map_call(question=PUBLISHER + " Example: Marvel"),
            map_call(question=" " + PUBLISHER),
            map_call(options=(("options", "Example: Marvel"),)),
        ],
        ids=["question-marker", "question-space", "option-marker"],
    )
    def test_map_header(self, executor, superhero_world, call):
        prompt = executor.map_prompt(call, [("Batman",)])
        shots = len(executor._demo_lines(call.question))
        lost = MapIntent(MapHeader(call.question, shots), [("Batman",)])
        assert_read_from_text(gpt35(superhero_world), prompt, lost)

    def test_qa_question(self, executor, superhero_world):
        question = "Example: who publishes 'Batman'?"
        prompt = executor._qa_prompt(question)
        lost = QaIntent(question, len(executor._demo_lines(question)))
        assert_read_from_text(gpt35(superhero_world), prompt, lost)

    @pytest.mark.parametrize(
        "part", [" Batman", "Example Entry: x"], ids=["space", "marker"]
    )
    def test_row_key(self, superhero_world, part):
        expansion = superhero_world.expansions[0]
        real = next(iter(superhero_world.truth[expansion.name]))
        key = (part,) + real[1:]
        builder = RowPromptBuilder(superhero_world, expansion, shots=1)
        lost = RowIntent(expansion.name, key, len(expansion.columns), 1, False)
        assert_read_from_text(gpt35(superhero_world), builder.build(key), lost)

    def test_equivalence_question(self, superhero_world):
        first, second = "Q2: which publisher?", PUBLISHER
        prompt = equivalence_prompt(first, second)
        assert_read_from_text(
            gpt35(superhero_world), prompt, EquivalenceIntent(first, second)
        )

    def test_plain_inputs_keep_theirs(self, executor):
        """The controls: the same builders, readable inputs."""
        assert executor.map_prompt(map_call(), [("Batman",)]).intent is not None
        assert executor._qa_prompt("Who publishes 'Batman'?").intent is not None
        assert equivalence_prompt("a?", "b?").intent is not None


# -- transport -------------------------------------------------------------------


@pytest.mark.parametrize(
    "intent",
    [
        RowIntent("superhero", ("Batman",), 1, 2, True),
        MapIntent(MapHeader(PUBLISHER, 1), [("Batman", "Bruce Wayne")]),
        QaIntent(PUBLISHER, 0),
        EquivalenceIntent("a?", "b?"),
        None,
    ],
    ids=["row", "map", "qa", "equivalence", "none"],
)
@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
def test_prompts_pickle_with_their_intent(intent, protocol):
    """A pickled prompt keeps its intent, not just the text (at every
    protocol ``pickle`` offers)."""
    prompt = Prompt("the text", intent)
    copy = pickle.loads(pickle.dumps(prompt, protocol))
    assert type(copy) is Prompt
    assert copy == prompt == "the text"
    assert copy.intent == intent


def test_intents_share_the_callers_keys(executor, superhero_world):
    """An intent holds references, not copies: the batch a map prompt was
    rendered for, one header per ingredient, the row builder's key."""
    batch = [("Batman",), ("Superman",)]
    first = executor.map_prompt(map_call(), batch)
    second = executor.map_prompt(map_call(), [("Robin",)])
    assert first.intent.keys is batch
    assert first.intent.header is second.intent.header
    expansion = superhero_world.expansions[0]
    key = next(iter(superhero_world.truth[expansion.name]))
    row = RowPromptBuilder(superhero_world, expansion).build(key)
    assert row.intent.key is key


def test_the_prompt_cache_keeps_text_only():
    cache = PromptCache()
    cache.put(Prompt("p", QaIntent("q", 0)), "completion")
    (key,) = cache.entries
    assert type(key) is str
    assert cache.get(Prompt("p")) == "completion"


class _Forwarder:
    """Forwards ``(prompt, label)`` and nothing else, like the benchmark's
    probe: an intent on a side channel would be dropped here."""

    def __init__(self, inner):
        self.inner = inner
        self.model_name = inner.model_name

    def complete(self, prompt, *, label=""):
        return self.inner.complete(prompt, label=label)


def test_the_intent_reaches_the_model(swan, monkeypatch):
    reads = []

    def counting_intent_of(text):
        reads.append(text)
        return intent_of(text)

    caches = []
    put = PromptCache.put

    def recording_put(self, prompt, completion):
        caches.append(self)
        put(self, prompt, completion)

    monkeypatch.setattr(chat_module, "intent_of", counting_intent_of)
    monkeypatch.setattr(PromptCache, "put", recording_put)
    kwargs = dict(databases=["superhero"], wrap_client=_Forwarder)
    udf = run_udf(swan, "gpt-3.5-turbo", 2, **kwargs)
    hqdl = run_hqdl(swan, "gpt-3.5-turbo", 2, **kwargs)
    assert udf.usage.calls > 0 and hqdl.usage.calls > 0
    assert reads == []
    assert caches and all(
        type(key) is str for cache in caches for key in cache.entries
    )

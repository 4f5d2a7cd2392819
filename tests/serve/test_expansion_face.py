"""The expansion face: UDF maps served from a resident HQDL expansion.

A server that expands a database for HQDL faces that database's UDF
mapping store at the cells the build extracted
(``MappingStore.attach_expansion``).  An LLMMap there pays one
``udf:expansion`` equivalence check per (signature, candidate column) at
most, ruling which column its question asks for, and then no map call
for any key the column holds a servable cell for.  The warm build is
the one producer of those cells: it asks each malformed row once more
(``HQDL.repair``), and a row still malformed is served as NULL, as HQDL
reads it.  A degraded row's key (its call failed) or a cell outside the
ingredient's ``options=`` list (for a multi-valued cell: any part
outside it) is paid for through a map chunk as before.  Without a
resident expansion nothing changes: a UDF-only stream keeps the
outcomes, calls and finish times of the server before the face existed.
"""

import hashlib
import json
from collections import Counter
from dataclasses import replace

import pytest

from repro.core.hqdl import HQDL
from repro.errors import LLMError, TransientLLMError
from repro.harness.benchserve import default_config, default_tenants, offered_rps
from repro.llm.chat import MockChatModel
from repro.llm.faults import GARBAGE_COMPLETION
from repro.llm.oracle import KnowledgeOracle
from repro.llm.profiles import get_profile
from repro.serve.batcher import BatchingConfig
from repro.serve.request import DEGRADED, SERVED, QueryRequest
from repro.serve.server import QueryServer
from repro.serve.traffic import generate_traffic
from repro.swan.benchmark import load_benchmark_subset
from repro.swan.build import build_curated_database
from repro.udf.executor import HybridQueryExecutor
from repro.udf.store import EXPANSION_LABEL, MappingStore

DATABASES = ("superhero", "formula_1")

ARMS = pytest.mark.parametrize(
    "batching", [None, BatchingConfig()], ids=["unbatched", "batched"]
)

#: outcome digests of the UDF-only stream below (batching arm, fault
#: rate), computed by the server before the expansion face existed
PARENT_UDF_ONLY = {
    ("off", 0.0): "69faba193c7b29f1",
    ("off", 0.2): "5ae58886eab95756",
    ("on", 0.0): "69faba193c7b29f1",
    ("on", 0.2): "5ae58886eab95756",
}


@pytest.fixture(scope="module")
def swan():
    return load_benchmark_subset(1, list(DATABASES))


@pytest.fixture(scope="module")
def superhero(swan):
    """The superhero world, its perfect model and its fully generated
    expansion (every cell the truth)."""
    world = swan.world("superhero")
    model = MockChatModel(KnowledgeOracle(world), get_profile("perfect"))
    generation = HQDL(world, model, shots=2).generate_all()
    return world, model, generation


def _rows(generation) -> dict:
    return {name: dict(t.rows) for name, t in generation.tables.items()}


def _signature(question: str) -> tuple:
    return ("LLMMap", question, "superhero", ("superhero_name", "full_name"))


def _never(prompt, label):
    raise AssertionError(f"paid a {label} call for a judged signature")


def _judge(model, asked: list):
    """A paying function that records each prompt and asks the model."""

    def pay(prompt, label):
        asked.append((str(prompt), label))
        return model.complete(prompt, label=label).text

    return pay


class TestStoreFace:
    EYES = "What is the eye color of this superhero?"

    def test_one_check_per_signature_and_column(self, superhero):
        world, model, generation = superhero
        store = MappingStore()
        store.attach_expansion(world.expansions, _rows(generation))
        keys = [tuple(map(str, k)) for k in world.keys_for("superhero_info")]
        asked: list = []
        first = store.expansion_lookup(_signature(self.EYES), keys, _judge(model, asked))
        again = store.expansion_lookup(_signature(self.EYES), keys, _judge(model, asked))
        assert first == again
        assert len(first) == len(keys)
        truth = world.truth["superhero_info"]
        assert all(first[key] == truth[key]["eye_color"] for key in keys)
        assert len(asked) == 1  # the best-ranked column answered yes
        assert {label for _, label in asked} == {EXPANSION_LABEL}
        stats = store.stats()
        assert stats["expansion_calls"] == 1
        assert stats["expansion_matched"] == 1
        assert stats["expansion_keys"] == 2 * len(keys)

    def test_a_question_no_column_answers_is_judged_once(self, superhero):
        world, model, generation = superhero
        store = MappingStore()
        store.attach_expansion(world.expansions, _rows(generation))
        asked: list = []
        signature = _signature("How many movies has this superhero been in?")
        for _ in range(2):
            assert store.expansion_lookup(
                signature, [("Thor", "Thor Odinson")], _judge(model, asked)
            ) == {}
        columns = len(world.expansion("superhero_info").columns)
        assert len(asked) == len(set(asked)) == columns
        assert store.expansion_lookup(
            signature, [("Thor", "Thor Odinson")], _never
        ) == {}
        assert store.stats()["expansion_matched"] == 0

    def test_null_and_out_of_options_cells_are_not_served(self, superhero):
        world, model, generation = superhero
        rows = _rows(generation)
        table = rows["superhero_info"]
        nulled, off_list, kept = list(table)[:3]
        table[nulled] = None
        eye = world.expansion("superhero_info").generated_column_names().index(
            "eye_color"
        )
        table[off_list] = list(table[off_list])
        table[off_list][eye] = "Plaid"
        store = MappingStore()
        store.attach_expansion(world.expansions, rows)
        served = store.expansion_lookup(
            _signature(self.EYES), [nulled, off_list, kept],
            _judge(model, []), world.value_lists["colours"],
        )
        assert set(served) == {kept}
        # without an options list the off-list value is a cell like any other
        assert set(store.expansion_lookup(
            _signature(self.EYES), [nulled, off_list, kept], _never
        )) == {off_list, kept}

    def test_a_failed_check_decides_nothing(self, superhero):
        """A skipped or failed check (None) and a corrupted completion (a
        truncated ``yes``, the fault injector's garbage) rule nothing out."""
        world, model, generation = superhero
        keys = [("Thor", "Thor Odinson")]
        signature = _signature(self.EYES)
        for answer in (None, "y", GARBAGE_COMPLETION):
            store = MappingStore()
            store.attach_expansion(world.expansions, _rows(generation))
            assert store.expansion_lookup(
                signature, keys, lambda p, l: answer
            ) == {}
            asked: list = []
            served = store.expansion_lookup(signature, keys, _judge(model, asked))
            assert served != {}
            assert len(asked) == 1  # the best-ranked column, asked again
            assert store.expansion_lookup(signature, keys, _never) == served

    def test_a_store_without_a_face_never_calls(self):
        store = MappingStore()

        def pay(prompt, label):
            raise AssertionError("paid a call with no expansion attached")

        signature = _signature(self.EYES)
        keys = [("Thor", "Thor Odinson")]
        assert store.expansion_lookup(signature, keys, pay) == {}


class TestExecutorFace:
    def test_only_the_misses_reach_map_chunks(
        self, swan, superhero, monkeypatch
    ):
        """superhero_q04 (eye colour, ``options='colours'``) over a face with
        one NULL row and one off-list cell pays map calls for those two
        keys only, and still answers as a run with no face."""
        world, model, generation = superhero
        question = swan.question("superhero_q04")
        with build_curated_database(world) as db:
            plain = HybridQueryExecutor(db, model, world, shots=2)
            expected = plain.execute(question.blend_sql)
            plan = plain.prepare(question.blend_sql)
            (keys,) = [work.keys for work in plan.work()]
        rows = _rows(generation)
        table = rows["superhero_info"]
        nulled, off_list = keys[0], keys[1]
        table[nulled] = None
        eye = world.expansion("superhero_info").generated_column_names().index(
            "eye_color"
        )
        table[off_list] = list(table[off_list])
        table[off_list][eye] = "Plaid"
        store = MappingStore()
        store.attach_expansion(world.expansions, rows)
        mapped: list = []
        map_prompt = HybridQueryExecutor.map_prompt

        def spy(self, call, batch):
            mapped.extend(batch)
            return map_prompt(self, call, batch)

        monkeypatch.setattr(HybridQueryExecutor, "map_prompt", spy)
        with build_curated_database(world) as db:
            executor = HybridQueryExecutor(
                db, model, world, shots=2, mapping_store=store
            )
            result, report = executor.execute_with_report(question.blend_sql)
        assert sorted(mapped) == sorted([nulled, off_list])
        assert result.rows == expected.rows
        assert report.llm_calls == 2  # one check, one map chunk


def _served_traffic(swan, *, rps=1.5, hqdl=True):
    tenants = default_tenants(DATABASES)
    if not hqdl:
        tenants = [replace(t, hqdl_share=0.0) for t in tenants]
    scaled = [t.scaled(rps / offered_rps(tenants)) for t in tenants]
    policies = {t.name: t.policy() for t in scaled}
    return generate_traffic(swan, scaled, horizon=60.0, seed=7), policies


class TestServedFace:
    @ARMS
    def test_at_most_one_check_per_signature_and_column(
        self, swan, monkeypatch, batching
    ):
        checks: Counter = Counter()
        complete = MockChatModel.complete

        def counting(self, prompt, *, label=""):
            if label == EXPANSION_LABEL:
                checks[(self.oracle.world.name, str(prompt))] += 1
            return complete(self, prompt, label=label)

        monkeypatch.setattr(MockChatModel, "complete", counting)
        requests, policies = _served_traffic(swan)
        config = replace(default_config(), batching=batching)
        with QueryServer(swan, config, policies=policies) as server:
            report = server.run(requests)
            stats = server.states.mapping_stats()
            by_label = dict(server.meter.by_label)
        assert checks and set(checks.values()) == {1}
        assert by_label[EXPANSION_LABEL].calls == len(checks)
        assert stats["expansion_calls"] == len(checks)
        assert stats["expansion_matched"] > 0
        assert stats["expansion_keys"] > 0
        assert report.as_record()["mapping"] == stats

    @staticmethod
    def _twice(swan, qid):
        """An HQDL request on superhero (so it is warmed), then ``qid``
        as a UDF request twice, far apart."""
        question = swan.question(qid)
        warmer = swan.questions_for("superhero")[0]
        return [
            QueryRequest(
                request_id=0, tenant="t", database="superhero",
                sql=warmer.blend_sql, qid=warmer.qid, arrival=0.0,
                deadline_seconds=1000.0, pipeline="hqdl",
            ),
            *(
                QueryRequest(
                    request_id=i, tenant="t", database="superhero",
                    sql=question.blend_sql, qid=question.qid,
                    arrival=100.0 * i, deadline_seconds=1000.0,
                )
                for i in (1, 2)
            ),
        ]

    @ARMS
    def test_a_judged_signature_pays_no_map_call(self, swan, batching):
        """Under ``perfect`` every eye-colour cell is servable: the first
        request pays its check, the next pays nothing."""
        requests = self._twice(swan, "superhero_q04")
        config = replace(
            default_config(), model_name="perfect", batching=batching
        )
        with QueryServer(swan, config) as server:
            report = server.run(requests)
            stats = server.states.mapping_stats()
            by_label = dict(server.meter.by_label)
        _, first, second = report.outcomes
        assert [o.status for o in report.outcomes] == [SERVED] * 3
        assert first.llm_calls == stats["expansion_calls"] == 1
        assert second.llm_calls == 0
        assert second.input_tokens == second.output_tokens == 0
        assert "udf:map" not in by_label

    @ARMS
    def test_the_first_requests_misses_are_stored(
        self, swan, monkeypatch, batching
    ):
        """superhero_q17's first request pays its check and one map chunk
        for the keys the face cannot serve (three rows whose build call
        failed), and the store keeps those answers on both arms (the
        batched one pays them in finalize, holding ``known``), so a later
        request finds them there."""
        keys = swan.world("superhero").keys_for("superhero_info")
        failing = set(list(keys)[:3])
        complete = MockChatModel.complete

        def flaky(self, prompt, *, label=""):
            if label == "hqdl:superhero_info" and prompt.intent.key in failing:
                raise TransientLLMError("row call failed")
            return complete(self, prompt, label=label)

        monkeypatch.setattr(MockChatModel, "complete", flaky)
        requests = self._twice(swan, "superhero_q17")
        config = replace(default_config(), batching=batching)
        with QueryServer(swan, config) as server:
            first = server.run(requests[:2]).outcomes[1]
            stats = server.states.mapping_stats()
            by_label = dict(server.meter.by_label)
        assert first.llm_calls == 2
        assert by_label["udf:map"].calls == by_label[EXPANSION_LABEL].calls == 1
        assert stats["signatures"] == 1 and stats["keys"] > 0
        with QueryServer(swan, config) as server:
            second = server.run(requests).outcomes[2]
        assert second.llm_calls == 0

    @ARMS
    def test_a_broken_client_degrades_the_request(
        self, swan, monkeypatch, batching
    ):
        """A non-degradable LLMError on the check (a broken client)
        degrades each request that meets it, reason ``error``, and the
        server goes on; batched, the check is met at dispatch."""
        complete = MockChatModel.complete

        def broken(self, prompt, *, label=""):
            if label == EXPANSION_LABEL:
                raise LLMError("broken client")
            return complete(self, prompt, label=label)

        monkeypatch.setattr(MockChatModel, "complete", broken)
        requests = self._twice(swan, "superhero_q04")
        config = replace(
            default_config(), model_name="perfect", batching=batching
        )
        with QueryServer(swan, config) as server:
            report = server.run(requests)
        warm, first, second = report.outcomes
        assert warm.status == SERVED
        for outcome in (first, second):
            assert (outcome.status, outcome.reason) == (DEGRADED, "error")

    @pytest.mark.parametrize("fault_rate", [0.0, 0.2])
    @pytest.mark.parametrize("arm", ["off", "on"])
    def test_a_udf_only_stream_keeps_the_parents_outcomes(
        self, swan, arm, fault_rate
    ):
        requests, policies = _served_traffic(swan, hqdl=False)
        config = replace(
            default_config(),
            batching=BatchingConfig() if arm == "on" else None,
            fault_rate=fault_rate, fault_seed=3,
        )
        with QueryServer(swan, config, policies=policies) as server:
            report = server.run(requests)
        payload = [
            (
                o.request.request_id, o.status, o.reason,
                round(o.finish_time, 9), o.llm_calls, o.input_tokens,
                o.output_tokens, o.degraded_keys, o.rows,
            )
            for o in report.outcomes
        ] + [
            report.usage.calls, report.usage.input_tokens,
            report.usage.output_tokens,
        ]
        blob = json.dumps(payload).encode()
        digest = hashlib.sha256(blob).hexdigest()[:16]
        assert digest == PARENT_UDF_ONLY[(arm, fault_rate)]
        assert report.as_record()["mapping"]["expansion_calls"] == 0


class TestFailedRows:
    """Rows the warm build left NULL are counted; a degraded one is
    never served, a malformed one is served as NULL."""

    @pytest.fixture(scope="class")
    def faulty(self):
        swan = load_benchmark_subset(1, ["superhero"])
        config = replace(default_config(), fault_rate=0.5, fault_seed=3)
        with QueryServer(swan, config) as server:
            startup = server.states.warm(["superhero"])
            yield swan, server, startup

    def test_startup_counts_the_failed_rows(self, faulty):
        _, server, startup = faulty
        assert startup.degraded_rows == 3
        assert startup.malformed_rows > 0
        generation = server.states["superhero"].hqdl.generation
        nulls = sum(
            row is None for row in generation.tables["superhero_info"].rows.values()
        )
        assert nulls == startup.degraded_rows + startup.malformed_rows

    def test_a_udf_request_pays_for_exactly_the_unservable_keys(
        self, faulty, monkeypatch
    ):
        swan, server, _ = faulty
        world = swan.world("superhero")
        state = server.states["superhero"]
        generation = state.hqdl.generation
        question = swan.question("superhero_q04")
        plan = state.udf.prepare(question.blend_sql)
        (work,) = plan.work()
        eye = world.expansion("superhero_info").generated_column_names().index(
            "eye_color"
        )
        colours = set(world.value_lists["colours"])
        table = generation.tables["superhero_info"]
        rows = table.rows
        # a malformed row is served as NULL: only a degraded one is a miss
        unservable = {
            key for key in work.keys
            if (rows[key] is None and key not in table.parse_errors)
            or (rows[key] is not None and rows[key][eye] not in colours)
        }
        assert any(rows[key] is None for key in unservable)
        mapped: list = []
        map_prompt = HybridQueryExecutor.map_prompt

        def spy(self, call, batch):
            mapped.extend(batch)
            return map_prompt(self, call, batch)

        monkeypatch.setattr(HybridQueryExecutor, "map_prompt", spy)
        state.udf.generate(plan)
        assert sorted(mapped) == sorted(unservable)


POWERS = "What are the superpowers of this superhero?"


class TestMultiValuedCells:
    def test_a_cell_with_one_part_off_the_list_is_not_served(self, superhero):
        """A ``powers`` cell is served when every comma-separated part is
        in ``options=``, and not when one part is outside it."""
        world, model, generation = superhero
        rows = _rows(generation)
        table = rows["superhero_info"]
        listed, off_list = [
            key for key, row in table.items() if "," in row[-1]
        ][:2]
        table[off_list] = [*table[off_list][:-1], table[off_list][-1] + ", Plaid"]
        store = MappingStore()
        store.attach_expansion(
            world.expansions, rows, value_lists=world.value_lists
        )
        served = store.expansion_lookup(
            _signature(POWERS), [listed, off_list], _judge(model, []),
            world.value_lists["powers"],
        )
        assert served == {listed: table[listed][-1]}

    def test_a_powers_signature_pays_one_check(self, superhero):
        """The column whose value list is the ingredient's ``options=``
        is checked first (cosine alone ranks it last of seven)."""
        world, model, generation = superhero
        store = MappingStore()
        store.attach_expansion(
            world.expansions, _rows(generation), value_lists=world.value_lists
        )
        keys = [tuple(map(str, k)) for k in world.keys_for("superhero_info")]
        asked: list = []
        served = store.expansion_lookup(
            _signature(POWERS), keys, _judge(model, asked),
            world.value_lists["powers"],
        )
        assert len(asked) == 1
        assert len(served) == len(keys)


class TestOneProducer:
    """On a server the warm build produces every cell both pipelines read.

    One superhero row is broken, under ``perfect`` so that no other row
    is: a malformed one gets a garbage completion on its first ``times``
    row calls (the repair prompt is the second), a degraded one a
    transient error on its row call.
    """

    EYES = "What is the eye color of this superhero?"

    @pytest.fixture
    def key(self, swan):
        return next(iter(swan.world("superhero").keys_for("superhero_info")))

    @staticmethod
    def _garble(monkeypatch, key, times):
        asked: Counter = Counter()
        complete_row = MockChatModel._complete_row

        def garbling(self, intent, prompt):
            asked[intent.key] += 1
            if intent.key == key and asked[intent.key] <= times:
                return GARBAGE_COMPLETION
            return complete_row(self, intent, prompt)

        monkeypatch.setattr(MockChatModel, "_complete_row", garbling)

    def _serve(self, swan, monkeypatch, key):
        """The warm build's record; HQDL's and UDF's eye colour of
        ``key``; the key batches UDF paid map chunks for.

        HQDL materializes no row for a NULL row's key, so its query
        reads the hero through the curated table, as a UDF map does.
        """
        config = replace(default_config(), model_name="perfect")
        with QueryServer(swan, config) as server:
            startup = server.states.warm(["superhero"])
            state = server.states["superhero"]
            name, full = key
            where = (
                f"WHERE s.superhero_name = '{name}' AND s.full_name = '{full}'"
            )
            hqdl = state.hqdl.db.query(
                "SELECT i.eye_color FROM superhero s LEFT JOIN superhero_info i "
                "ON i.superhero_name = s.superhero_name "
                f"AND i.full_name = s.full_name {where}"
            )
            mapped: list = []
            map_prompt = HybridQueryExecutor.map_prompt

            def spy(self, call, batch):
                mapped.append(batch)
                return map_prompt(self, call, batch)

            monkeypatch.setattr(HybridQueryExecutor, "map_prompt", spy)
            udf = state.udf.execute(
                f"SELECT {{{{LLMMap('{self.EYES}', 'superhero::superhero_name', "
                f"'superhero::full_name', options='colours')}}}} "
                f"FROM superhero s {where}"
            )
        return startup, hqdl.rows, udf.rows, mapped

    def test_a_repaired_row_is_resident_and_pays_no_map_call(
        self, swan, monkeypatch, key
    ):
        self._garble(monkeypatch, key, times=1)
        startup, hqdl, udf, mapped = self._serve(swan, monkeypatch, key)
        assert (startup.repaired_rows, startup.malformed_rows) == (1, 0)
        assert hqdl == udf and hqdl[0][0] is not None
        assert mapped == []

    def test_a_row_still_malformed_reads_null_in_both_pipelines(
        self, swan, monkeypatch, key
    ):
        self._garble(monkeypatch, key, times=2)
        startup, hqdl, udf, mapped = self._serve(swan, monkeypatch, key)
        assert (startup.repaired_rows, startup.malformed_rows) == (0, 1)
        assert hqdl == udf == [(None,)]
        assert mapped == []

    def test_a_degraded_row_is_still_paid_through_a_chunk(
        self, swan, monkeypatch, key
    ):
        complete = MockChatModel.complete

        def failing(self, prompt, *, label=""):
            if label == "hqdl:superhero_info" and prompt.intent.key == key:
                raise TransientLLMError("row call failed")
            return complete(self, prompt, label=label)

        monkeypatch.setattr(MockChatModel, "complete", failing)
        startup, hqdl, udf, mapped = self._serve(swan, monkeypatch, key)
        assert (startup.degraded_rows, startup.repaired_rows) == (1, 0)
        assert hqdl == [(None,)]
        assert udf[0][0] is not None  # the map chunk answered it
        assert mapped == [[key]]

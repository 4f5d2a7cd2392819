"""Tests for the cross-request batch former (`repro.serve.batcher`)."""

import dataclasses
import random
from itertools import chain
from types import SimpleNamespace

import pytest

from repro.serve.batcher import (
    BatchingConfig,
    CrossRequestBatcher,
    PendingRequest,
    split_fairly,
)
from repro.serve.request import QueryRequest


class _Call:
    def __init__(self, sig="map:hero:alignment"):
        self._sig = sig

    def signature(self):
        return self._sig


def _member(rid, *, arrival=0.0, deadline=60.0, tenant="t"):
    request = QueryRequest(
        request_id=rid,
        tenant=tenant,
        database="superhero",
        sql="SELECT 1",
        arrival=arrival,
        deadline_seconds=deadline,
    )
    return PendingRequest(request, start=arrival, queue_wait=0.0)


class TestSplitFairly:
    def test_conserves_total_exactly(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 6)
            members = [_member(i) for i in range(n)]
            weights = [rng.random() for _ in range(n)]
            total = rng.randint(0, 10_000)
            split = split_fairly(members, weights, total)
            assert sum(split) == total
            assert all(s >= 0 for s in split)

    def test_zero_weights_split_evenly(self):
        members = [_member(0), _member(1)]
        assert sum(split_fairly(members, [0.0, 0.0], 7)) == 7

    def test_deterministic(self):
        members = [_member(i) for i in range(3)]
        weights = [1.0, 2.0, 3.0]
        assert split_fairly(members, weights, 100) == split_fairly(
            members, weights, 100
        )


class TestBatchingConfig:
    def test_defaults(self):
        """Batching is on or off; it has no knob of its own."""
        assert dataclasses.fields(BatchingConfig) == ()
        assert BatchingConfig() == BatchingConfig()


class TestChunkSize:
    def test_the_enqueue_sets_the_chunk_size(self):
        """A map group is cut at the chunk size its first enqueue carries
        (the request's plan), per signature."""
        batcher = CrossRequestBatcher()
        a = _member(0)
        batcher.enqueue_keys("superhero", _Call("sig1"), [("x",)], a,
                             chunk_size=3, now=0.0)
        batcher.enqueue_keys("superhero", _Call("sig2"), [("x",)], a,
                             chunk_size=8, now=0.0)
        flushed = batcher.collect_due(0.0)
        assert [(g.call.signature(), g.chunk_size) for g in flushed] == [
            ("sig1", 3), ("sig2", 8),
        ]


class TestSingleFlight:
    def test_same_key_from_two_requests_is_one_item(self):
        batcher = CrossRequestBatcher()
        call = _Call()
        a, b = _member(0), _member(1)
        # two requests dispatched at the same instant share its wave
        batcher.enqueue_keys("superhero", call, [("x",)], a,
                             chunk_size=8, now=0.5)
        batcher.enqueue_keys("superhero", call, [("x",)], b,
                             chunk_size=8, now=0.5)
        assert batcher.items_enqueued == 1
        assert a.outstanding == 1 and b.outstanding == 1
        (flushed,) = batcher.collect_due(0.5)
        # one owner per key; the second requester waits beside it
        assert flushed.payloads == [("x",)]
        assert flushed.owners == [a]
        assert flushed.later == {("x",): [b]}
        assert list(flushed.members.items()) == [(a, 1), (b, 1)]
        assert batcher.items_coalesced == 1

    def test_same_request_twice_attaches_once(self):
        batcher = CrossRequestBatcher()
        a = _member(0)
        call = _Call()
        batcher.enqueue_keys("superhero", call, [("x",)], a,
                             chunk_size=8, now=0.0)
        batcher.enqueue_keys("superhero", call, [("x",)], a,
                             chunk_size=8, now=0.0)
        assert a.outstanding == 1

    def test_different_signatures_do_not_merge(self):
        batcher = CrossRequestBatcher()
        a = _member(0)
        batcher.enqueue_keys("superhero", _Call("sig1"), [("x",)], a,
                             chunk_size=8, now=0.0)
        batcher.enqueue_keys("superhero", _Call("sig2"), [("x",)], a,
                             chunk_size=8, now=0.0)
        assert batcher.items_enqueued == 2


class TestReleasePolicy:
    def test_released_at_the_enqueue_instant(self):
        """Whatever the group's size, its work is due when it is enqueued."""
        batcher = CrossRequestBatcher()
        batcher.enqueue_keys("superhero", _Call(), [("x",)], _member(0),
                             chunk_size=8, now=1.0)
        assert not batcher.has_due(0.9)
        assert batcher.has_due(1.0)
        (flushed,) = batcher.collect_due(1.0)
        assert flushed.payloads == [("x",)]
        assert not batcher.has_due(1.0)
        assert batcher.collect_due(1.0) == []

    def test_size_trigger_releases_immediately(self):
        """A group holding whole chunk-sized calls is released at once,
        as every group is: size no longer decides when, only how the
        flush is cut into calls."""
        batcher = CrossRequestBatcher()
        batcher.enqueue_keys("superhero", _Call(), [("x",), ("y",), ("z",)],
                             _member(0), chunk_size=2, now=1.0)
        assert batcher.has_due(1.0)
        (flushed,) = batcher.collect_due(1.0)
        assert flushed.payloads == [("x",), ("y",), ("z",)]
        assert flushed.chunk_size == 2

    def test_no_release_ever_exceeds_a_member_deadline(self):
        """Property: a group is due at its first enqueue, never later.

        Randomized enqueue sequences (arrivals move forward, deadlines
        are always in each member's future) must find every group that
        holds items already due — so no member ever waits on a release,
        let alone one past its deadline.
        """
        rng = random.Random(17)
        for trial in range(50):
            batcher = CrossRequestBatcher()
            chunk_size = rng.choice([2, 4, 8])
            calls = [_Call(f"sig{i}") for i in range(3)]
            now = 0.0
            for step in range(30):
                now += rng.choice([0.0, rng.random() * 2.0])
                member = _member(
                    1000 * trial + step,
                    arrival=now,
                    deadline=0.1 + rng.random() * 20.0,
                )
                keys = [(f"k{rng.randint(0, 9)}",) for _ in range(
                    rng.randint(1, 4)
                )]
                batcher.enqueue_keys(
                    "superhero", rng.choice(calls), keys, member,
                    chunk_size=chunk_size, now=now,
                )
                for group in batcher._groups.values():
                    if not group.items:
                        continue
                    earliest = min(
                        m.request.deadline_at
                        for m in chain(
                            group.items.values(), *group.later.values()
                        )
                    )
                    assert group.release_at <= now + 1e-9
                    assert group.release_at <= earliest + 1e-9
                if rng.random() < 0.3:
                    for flushed in batcher.collect_due(now):
                        assert flushed.payloads
                    assert not batcher.has_due(now)


class TestTailRetention:
    def test_retention_disabled_flushes_everything(self):
        """A flush takes a group's partial tail along with its full chunks."""
        batcher = CrossRequestBatcher()
        keys = [(f"k{i}",) for i in range(6)]
        batcher.enqueue_keys("superhero", _Call(), keys, _member(0),
                             chunk_size=4, now=0.0)
        (flushed,) = batcher.collect_due(0.0)
        assert len(flushed.payloads) == 6
        assert not batcher.has_due(0.0)


class TestSettlement:
    def test_tokens_split_fairly_and_conserved(self):
        batcher = CrossRequestBatcher()
        a, b = _member(0), _member(1)
        usage = SimpleNamespace(calls=1, input_tokens=101, output_tokens=11)
        # ("x",) is wanted by a and b, ("y",) by a alone
        batcher.settle_call(
            [("x",), ("y",)], [a, a], {("x",): [b]}, usage, fill=0.5
        )
        assert a.input_tokens + b.input_tokens == 101
        assert a.output_tokens + b.output_tokens == 11
        assert a.llm_calls + b.llm_calls == 1
        assert a.llm_calls == 1  # heaviest member carries the call
        assert a.shared_tokens + b.shared_tokens == 112
        assert batcher.coalesced_calls == 1
        assert batcher.paid_calls == 1
        assert batcher.batch_occupancy() == pytest.approx(0.5)

    def test_solo_member_charged_in_full(self):
        batcher = CrossRequestBatcher()
        a = _member(0)
        usage = SimpleNamespace(calls=1, input_tokens=50, output_tokens=5)
        batcher.settle_call([("x",)], [a], {}, usage)
        assert (a.input_tokens, a.output_tokens, a.llm_calls) == (50, 5, 1)
        assert a.shared_tokens == 0
        assert batcher.coalesced_calls == 0

    def test_free_call_counts_formed_not_paid(self):
        batcher = CrossRequestBatcher()
        batcher.settle_call([("x",)], [_member(0)], {}, None)
        assert batcher.formed_calls == 1
        assert batcher.paid_calls == 0

    def test_stats_shape(self):
        batcher = CrossRequestBatcher()
        stats = batcher.stats()
        assert set(stats) == {
            "items", "coalesced_items",
            "formed_calls", "paid_calls", "coalesced_calls",
            "batch_occupancy", "flushes", "keys_from_store",
            "prompts_from_cache", "fanout_tokens_saved",
        }
        assert stats["flushes"] == 0


# -- differential: the columnar former vs the per-key one it replaced -------


class _RefItem:
    """One unit of LLM work and every request waiting on it."""

    __slots__ = ("payload", "requesters")

    def __init__(self, payload):
        self.payload = payload
        self.requesters = {}  # attach order


class _RefGroup:
    def __init__(self, gid, chunk_size):
        self.gid = gid
        self.chunk_size = chunk_size
        self.items = {}
        self.release_at = None


class _ReferenceFormer:
    """The per-key former (one ``_Item`` with a requester dict per key).

    A copy of the batching math the columnar groups replaced: attach,
    release at the enqueue instant, drain, and settlement.
    """

    def __init__(self):
        self.groups = {}
        self.items_enqueued = 0
        self.items_coalesced = 0
        self.formed_calls = 0
        self.paid_calls = 0
        self.coalesced_calls = 0
        self.flushes = 0
        self.occupancy_sum = 0.0
        self.fanout_tokens_saved = 0.0

    def enqueue(self, gid, call, payloads, member, *, chunk_size, now):
        group = self.groups.get(gid)
        if group is None:
            group = _RefGroup(gid, chunk_size)
            self.groups[gid] = group
        attached = 0
        for payload in payloads:
            item = group.items.get(payload)
            if item is None:
                if not group.items:
                    group.release_at = now
                item = _RefItem(payload)
                group.items[payload] = item
                self.items_enqueued += 1
            if member in item.requesters:
                continue
            item.requesters[member] = None
            member.outstanding += 1
            attached += 1
        return attached

    def collect_due(self, now):
        wave = []
        for group in self.groups.values():
            if not group.items or group.release_at > now + 1e-9:
                continue
            items = list(group.items.values())
            wave.append((
                group.gid, group.chunk_size,
                [(item.payload, list(item.requesters)) for item in items],
            ))
            self.flushes += 1
            self.items_coalesced += sum(
                1 for item in items if len(item.requesters) >= 2
            )
            group.items = {}
            group.release_at = None
        return wave

    def settle_call(self, item_requesters, usage=None, *, fill=None):
        self.formed_calls += 1
        if fill is not None:
            self.occupancy_sum += fill
        weights = {}
        for requesters in item_requesters:
            share = 1.0 / len(requesters)
            for member in requesters:
                weights[member] = weights.get(member, 0.0) + share
        members = sorted(weights, key=lambda m: m.request.request_id)
        if len(members) >= 2:
            self.coalesced_calls += 1
        if usage is None or not usage.calls:
            return
        self.paid_calls += 1
        member_weights = [weights[m] for m in members]
        in_split = split_fairly(members, member_weights, usage.input_tokens)
        out_split = split_fairly(members, member_weights, usage.output_tokens)
        shared = len(members) >= 2
        for member, w_in, w_out in zip(members, in_split, out_split):
            member.input_tokens += w_in
            member.output_tokens += w_out
            if shared:
                member.shared_tokens += w_in + w_out
        heaviest = max(
            members, key=lambda m: (weights[m], -m.request.request_id)
        )
        heaviest.llm_calls += usage.calls
        if shared:
            call_tokens = usage.input_tokens + usage.output_tokens
            n_items = max(1, len(item_requesters))
            for requesters in item_requesters:
                extra = len(requesters) - 1
                if extra > 0:
                    self.fanout_tokens_saved += (
                        extra * call_tokens / n_items
                    )


def _ledger(member):
    return (
        member.outstanding, member.llm_calls, member.input_tokens,
        member.output_tokens, member.shared_tokens,
    )


class TestDifferentialFormer:
    """Seeded enqueue sequences: the columnar former == the per-key one.

    Both formers see the same enqueues and drains, on twin members (same
    request id and deadline); every drained group is settled chunk by
    chunk with the same random usage on both sides.
    """

    def _usage(self, rng):
        roll = rng.random()
        if roll < 0.15:
            return None  # the call failed
        if roll < 0.5:
            return SimpleNamespace(calls=0, input_tokens=0, output_tokens=0)
        return SimpleNamespace(
            calls=1,
            input_tokens=rng.randint(1, 4000),
            output_tokens=rng.randint(0, 400),
        )

    def _drain(self, rng, ref, new, ref_of, now):
        ref_wave = ref.collect_due(now)
        new_wave = new.collect_due(now)
        assert [(g.gid, g.chunk_size) for g in new_wave] == [
            (gid, chunk) for gid, chunk, _ in ref_wave
        ]
        for (_, chunk_size, items), group in zip(ref_wave, new_wave):
            # flushed payload order, and requesters in attach order
            assert group.payloads == [payload for payload, _ in items]
            assert [
                [ref_of[m] for m in (owner, *group.later.get(payload, ()))]
                for payload, owner in zip(group.payloads, group.owners)
            ] == [requesters for _, requesters in items]
            counts = {}
            for _, requesters in items:
                for member in requesters:
                    counts[member] = counts.get(member, 0) + 1
            assert [
                (ref_of[m], n) for m, n in group.members.items()
            ] == list(counts.items())
            for start in range(0, len(items), chunk_size):
                end = start + chunk_size
                usage = self._usage(rng)
                fill = len(items[start:end]) / chunk_size
                ref.settle_call(
                    [requesters for _, requesters in items[start:end]],
                    usage, fill=fill,
                )
                new.settle_call(
                    group.payloads[start:end], group.owners[start:end],
                    group.later, usage, fill=fill,
                )

    def _trial(self, seed, coverage):
        rng = random.Random(seed)
        new = CrossRequestBatcher()
        ref = _ReferenceFormer()
        chunk_size = rng.choice([1, 2, 3, 4, 5, 8])
        calls = [_Call(f"sig{i}") for i in range(rng.randint(1, 3))]
        keys = [(f"k{i}",) for i in range(rng.randint(3, 16))]
        members = []  # (new member, reference twin)
        ref_of = {}
        now = 0.0
        for step in range(rng.randint(10, 60)):
            now += rng.choice([0.0, 0.0, rng.random() * 2.0])
            roll = rng.random()
            if roll < 0.65:
                if members and rng.random() < 0.3:
                    member, twin = rng.choice(members)
                    coverage["same member again"] += 1
                else:
                    rid = len(members)
                    deadline = rng.choice([0.3, 1.0, 2.5, 30.0])
                    member = _member(rid, arrival=now, deadline=deadline)
                    twin = _member(rid, arrival=now, deadline=deadline)
                    members.append((member, twin))
                    ref_of[member] = twin
                if rng.random() < 0.2:
                    prompt = f"prompt {rng.randint(0, 4)}"
                    attached = new.enqueue_prompt(
                        "superhero", "udf:qa", prompt, member, now=now
                    )
                    assert attached == ref.enqueue(
                        ("prompt", "superhero", "udf:qa"), None, [prompt],
                        twin, chunk_size=1, now=now,
                    )
                else:
                    call = rng.choice(calls)
                    wanted = [
                        rng.choice(keys) for _ in range(rng.randint(1, 8))
                    ]
                    attached = new.enqueue_keys(
                        "superhero", call, wanted, member,
                        chunk_size=chunk_size, now=now,
                    )
                    assert attached == ref.enqueue(
                        ("map", "superhero", call.signature()), call,
                        wanted, twin, chunk_size=chunk_size, now=now,
                    )
            else:
                self._drain(rng, ref, new, ref_of, now)
            for member, twin in members:
                assert _ledger(member) == _ledger(twin)
        # drain everything left
        self._drain(rng, ref, new, ref_of, now)
        for member, twin in members:
            assert _ledger(member) == _ledger(twin)
        assert (new.items_enqueued, new.items_coalesced) == (
            ref.items_enqueued, ref.items_coalesced
        )
        assert (new.formed_calls, new.paid_calls, new.coalesced_calls) == (
            ref.formed_calls, ref.paid_calls, ref.coalesced_calls
        )
        assert new.flushes == ref.flushes
        assert new._occupancy_sum == ref.occupancy_sum
        assert new._fanout_tokens_saved == ref.fanout_tokens_saved
        coverage["coalesced items"] += ref.items_coalesced
        coverage["fan-out tokens saved"] += ref.fanout_tokens_saved > 0

    def test_columnar_former_matches_the_per_key_former(self):
        coverage = dict.fromkeys(
            (
                "same member again", "coalesced items",
                "fan-out tokens saved",
            ),
            0,
        )
        for seed in range(300):
            self._trial(seed, coverage)
        # every path the sequences are meant to reach was reached
        assert all(coverage.values()), coverage

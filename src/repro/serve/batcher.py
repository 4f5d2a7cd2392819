"""Cross-request batch forming for the serving layer.

The batch runners amortize LLM cost across *rows of one query*; the
:class:`CrossRequestBatcher` lets the server do the same across
*requests*.  It collects the LLM work items of every dispatched request
— (signature, key) pairs for LLMMap/LLMJoin, whole prompts for LLMQA —
into groups keyed by database and ingredient signature or label:

- **Release at dispatch.**  A request's work is released at the instant
  the request is dispatched; nothing waits on a timer.  The server
  flushes every group then holding items as one *wave*, so requests
  dispatched at the same instant (a burst admitted together, or several
  slots freed by one event) share it.  This is continuous batching in
  Orca's sense (OSDI '22): work joins when capacity frees, not when a
  window expires.
- **Same-instant single-flight.**  The same key (or the same prompt)
  wanted by several requests of one wave is dispatched once, and the
  result fans out to every requester.  Work an earlier wave already
  answered never reaches the batcher: the server serves it per key from
  the database's :class:`~repro.udf.store.MappingStore` and per prompt
  from the prompt cache, and enqueues only what they do not cover.
- **Plan-sized calls.**  A map group is cut into formed calls of the
  ``chunk_size`` its members' plans carry (``Work.chunk_size``, which
  the executor's batch policy fixes at prepare), so a key is asked in a
  call of the same size whether batching is on or off.
- Shared-call tokens are attributed **fairly** across the member
  requests (largest-remainder split over per-item shares, so totals are
  conserved exactly), feeding the existing per-tenant accounting.

The batcher is pure bookkeeping: it never touches clients, caches, or
the clock.  :class:`~repro.serve.server.QueryServer` drives it — plans
each dispatched request's items, schedules a flush at the dispatch
instant, executes flushed groups, and reports each call's usage back via
:meth:`CrossRequestBatcher.settle_call`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.serve.request import QueryRequest

#: release-time comparison slack (floats accumulate through the heap)
_EPS = 1e-9


@dataclass(frozen=True)
class BatchingConfig:
    """Cross-request batching, switched on by setting
    :attr:`~repro.serve.server.ServerConfig.batching` to one.

    It has no fields: a batched call's size comes from the plans, and
    work the server's per-database
    :class:`~repro.udf.store.MappingStore` already covers never reaches
    the batcher.
    """


class PendingRequest:
    """One dispatched request waiting on cross-request batch landings.

    Holds the request's ``plan`` (prepared once, at dispatch), what it
    still owes (``outstanding`` work items), what it has been charged so
    far (attributed calls/tokens from shared batches), and the flushed
    ``answers`` (signature → key → value) its finalize generates from.
    """

    __slots__ = (
        "request", "start", "queue_wait", "plan", "answers", "outstanding",
        "llm_calls", "input_tokens", "output_tokens", "shared_tokens",
        "degraded_keys", "waves", "call_sizes", "backoff",
    )

    def __init__(
        self, request: QueryRequest, *, start: float, queue_wait: float
    ) -> None:
        self.request = request
        self.start = start
        self.queue_wait = queue_wait
        self.plan = None
        self.answers: dict[tuple, dict[tuple, Optional[str]]] = {}
        self.outstanding = 0
        self.llm_calls = 0
        self.input_tokens = 0
        self.output_tokens = 0
        #: tokens attributed from calls shared with *other* requests
        self.shared_tokens = 0
        #: keys degraded by failed flush calls (merged into the outcome)
        self.degraded_keys = 0
        #: ids of the batch waves this request's items rode on (trace
        #: bookkeeping only — never read by the batching math)
        self.waves: list[str] = []
        #: sizes and retry backoff of the calls planning paid on its own
        #: (the store's expansion checks), until a wave or finalize
        #: charges them to virtual time
        self.call_sizes: list[tuple[int, int]] = []
        self.backoff = 0.0


class _Group:
    """One batchable stream: same database and ingredient/label.

    Columnar: ``items`` maps each payload, in enqueue order, to its
    *owner* (the first request that asked for it), and ``later`` holds
    the rare payload's further requesters in attach order.
    ``release_at`` is the dispatch instant of the request that opened
    the group (None while it is empty).
    """

    __slots__ = (
        "gid", "kind", "database", "call", "label", "chunk_size",
        "items", "later", "release_at",
    )

    def __init__(
        self,
        gid: tuple,
        *,
        kind: str,
        database: str,
        call=None,
        label: str = "",
        chunk_size: int = 1,
    ) -> None:
        self.gid = gid
        self.kind = kind  # "map" (keyed items) or "prompt" (whole prompts)
        self.database = database
        self.call = call
        self.label = label
        self.chunk_size = chunk_size
        self.items: dict[object, PendingRequest] = {}
        self.later: dict[object, list[PendingRequest]] = {}
        self.release_at: Optional[float] = None


@dataclass
class FlushedGroup:
    """One group drained by :meth:`CrossRequestBatcher.collect_due`."""

    gid: tuple
    kind: str
    database: str
    call: object
    label: str
    chunk_size: int
    #: payloads in enqueue order, and each one's owner
    payloads: list
    owners: list[PendingRequest]
    #: payload -> its requesters after the owner, in attach order (only
    #: the payloads several requests want)
    later: dict[object, list[PendingRequest]]
    #: items owed per requester, in first appearance over (payload,
    #: requester)
    members: Counter


def count_requesters(
    payloads: Sequence, owners: Sequence[PendingRequest], later: dict
) -> Counter:
    """Items owed per requester, first appearance over (payload, requester)."""
    if not later:
        return Counter(owners)
    counts: Counter = Counter()
    for payload, owner in zip(payloads, owners):
        counts[owner] += 1
        counts.update(later.get(payload, ()))
    return counts


def split_fairly(
    members: Sequence[PendingRequest],
    weights: Sequence[float],
    total: int,
) -> list[int]:
    """Split ``total`` integer tokens proportionally to ``weights``.

    Largest-remainder rounding, ties broken by request id, so the split
    is deterministic and sums to ``total`` exactly — attribution never
    mints or loses a token.
    """
    if total <= 0 or not members:
        return [0] * len(members)
    scale = sum(weights)
    if scale <= 0:
        shares = [total / len(members)] * len(members)
    else:
        shares = [total * w / scale for w in weights]
    floors = [int(math.floor(s)) for s in shares]
    remainder = total - sum(floors)
    order = sorted(
        range(len(members)),
        key=lambda i: (floors[i] - shares[i], members[i].request.request_id),
    )
    for i in order[:remainder]:
        floors[i] += 1
    return floors


class CrossRequestBatcher:
    """Forms shared LLM batches across every in-service request."""

    def __init__(self) -> None:
        self._groups: dict[tuple, _Group] = {}
        # -- statistics (the BENCH/dash batching panel) -------------------
        self.items_enqueued = 0
        self.items_coalesced = 0
        self.formed_calls = 0
        self.paid_calls = 0
        self.coalesced_calls = 0
        #: groups flushed (a wave flushes every group holding items)
        self.flushes = 0
        self.keys_from_store = 0
        self.prompts_from_cache = 0
        self._occupancy_sum = 0.0
        self._occupancy_calls = 0
        self._fanout_tokens_saved = 0.0

    # -- enqueue ------------------------------------------------------------------

    def enqueue_keys(
        self,
        database: str,
        call,
        keys: Sequence[tuple],
        member: PendingRequest,
        *,
        chunk_size: int,
        now: float,
    ) -> int:
        """Add one request's (ingredient, key) demand; returns new items owed."""
        gid = ("map", database, call.signature())
        group = self._groups.get(gid)
        if group is None:
            group = _Group(
                gid, kind="map", database=database, call=call,
                label="udf:map", chunk_size=chunk_size,
            )
            self._groups[gid] = group
        return self._attach(group, keys, member, now)

    def enqueue_prompt(
        self,
        database: str,
        label: str,
        prompt: str,
        member: PendingRequest,
        *,
        now: float,
    ) -> int:
        """Add one whole-prompt work item (an LLMQA prompt)."""
        gid = ("prompt", database, label)
        group = self._groups.get(gid)
        if group is None:
            group = _Group(gid, kind="prompt", database=database, label=label)
            self._groups[gid] = group
        return self._attach(group, [prompt], member, now)

    def _attach(
        self,
        group: _Group,
        payloads: Sequence,
        member: PendingRequest,
        now: float,
    ) -> int:
        items, later = group.items, group.later
        fresh = dict.fromkeys(payloads, member)
        attached = len(fresh)
        if not items.keys().isdisjoint(fresh):
            # single-flight: some payloads already have an owner
            for payload in [p for p in fresh if p in items]:
                del fresh[payload]
                waiting = later.get(payload, [])
                if items[payload] is member or member in waiting:
                    attached -= 1  # the same request asked twice
                else:
                    later[payload] = [*waiting, member]
        if fresh:
            if not items:
                group.release_at = now
            items.update(fresh)
            self.items_enqueued += len(fresh)
        member.outstanding += attached
        return attached

    # -- flush --------------------------------------------------------------------

    def has_due(self, now: float) -> bool:
        """True when some group holds items released at (or before) ``now``."""
        return any(
            g.items and g.release_at <= now + _EPS
            for g in self._groups.values()
        )

    def collect_due(self, now: float) -> list[FlushedGroup]:
        """Drain every group released by ``now`` — one *wave*, flushed together.

        Groups flushed in the same wave share one makespan pool in the
        server's cost model, exactly as their calls would share the
        worker fan-out of a single request.
        """
        wave: list[FlushedGroup] = []
        for group in self._groups.values():
            if not group.items or group.release_at > now + _EPS:
                continue
            payloads = list(group.items)
            owners = list(group.items.values())
            wave.append(
                FlushedGroup(
                    gid=group.gid, kind=group.kind, database=group.database,
                    call=group.call, label=group.label,
                    chunk_size=group.chunk_size,
                    payloads=payloads, owners=owners, later=group.later,
                    members=count_requesters(payloads, owners, group.later),
                )
            )
            self.flushes += 1
            self.items_coalesced += len(group.later)
            group.items, group.later, group.release_at = {}, {}, None
        return wave

    # -- settlement ---------------------------------------------------------------

    def settle_call(
        self,
        payloads: Sequence,
        owners: Sequence[PendingRequest],
        later: dict[object, list[PendingRequest]],
        usage=None,
        *,
        fill: Optional[float] = None,
    ) -> None:
        """Account one formed call and attribute its cost to its members.

        The call covered ``payloads``; ``owners`` are their first
        requesters and ``later`` maps a payload to its further ones (a
        payload absent from it has one).  Each item's cost share splits
        evenly across its requesters; token totals split across members by
        largest remainder; the call count lands on the heaviest member
        (ties to the lowest request id) so integer call accounting stays
        conserved — a call with one requester charges it in full, exactly
        as the unbatched path would.
        """
        self.formed_calls += 1
        if fill is not None:
            self._occupancy_sum += fill
            self._occupancy_calls += 1
        # a lone requester's weight is a sum of 1.0s: an exact count
        weights: Counter = Counter(owners)
        extras: list[int] = []
        if later:
            # items of n requesters weigh 1/n each; floats are summed in
            # item order, since the order changes the last bit
            weights = Counter()
            for payload, owner in zip(payloads, owners):
                requesters = (owner, *later.get(payload, ()))
                share = 1.0 / len(requesters)
                for member in requesters:
                    weights[member] += share
                if len(requesters) > 1:
                    extras.append(len(requesters) - 1)
        shared = len(weights) >= 2
        if shared:
            self.coalesced_calls += 1
        if usage is None or not usage.calls:
            return
        self.paid_calls += 1
        members = sorted(weights, key=lambda m: m.request.request_id)
        member_weights = [weights[m] for m in members]
        in_split = split_fairly(members, member_weights, usage.input_tokens)
        out_split = split_fairly(members, member_weights, usage.output_tokens)
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
            n_items = max(1, len(payloads))
            for extra in extras:
                self._fanout_tokens_saved += extra * call_tokens / n_items

    # -- reporting ----------------------------------------------------------------

    def batch_occupancy(self) -> float:
        """Mean fill fraction of formed key-batched calls (0.0 when none)."""
        if not self._occupancy_calls:
            return 0.0
        return self._occupancy_sum / self._occupancy_calls

    def stats(self) -> dict:
        """A JSON-stable summary for BENCH_serve.json and the dashboard."""
        return {
            "items": self.items_enqueued,
            "coalesced_items": self.items_coalesced,
            "formed_calls": self.formed_calls,
            "paid_calls": self.paid_calls,
            "coalesced_calls": self.coalesced_calls,
            "batch_occupancy": round(self.batch_occupancy(), 6),
            "flushes": self.flushes,
            "keys_from_store": self.keys_from_store,
            "prompts_from_cache": self.prompts_from_cache,
            "fanout_tokens_saved": int(round(self._fanout_tokens_saved)),
        }

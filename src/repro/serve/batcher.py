"""Cross-request continuous batching for the serving layer.

The batch runners amortize LLM cost across *rows of one query*; PR 7's
server still paid per request — concurrent tenants asking overlapping
questions each paid full price, and the makespan cost model ran per
request over its own calls.  This module adds the standard serving-stack
optimization (Orca/vLLM-style continuous batch forming) on the virtual
clock:

- :class:`CrossRequestBatcher` collects the LLM work items of every
  in-service request — (signature, key) pairs for LLMMap/LLMJoin,
  whole prompts for LLMQA and HQDL generation — into groups keyed by
  ingredient signature or label, and releases each group under a
  **size-or-window policy**: a group flushes as soon as it holds a
  policy-sized batch (:class:`~repro.plan.policy.AdaptiveBatchPolicy`
  decides "full"), when its window expires, or — unconditionally —
  before the earliest member request's deadline.  A coalesced call is
  therefore *never* held past any member's deadline, by construction:
  ``release_at = max(now, min(opened_at + window, min member
  deadline))`` (see :meth:`_Group.retarget`).
- Items are **cross-request single-flight**: the same key (or the same
  prompt) wanted by several requests is dispatched once, and the result
  fans out to every requester — which is what turns the shared caches
  into genuinely sublinear cost per concurrent user.
- Shared-call tokens are attributed **fairly** across the member
  requests (largest-remainder split over per-item shares, so totals are
  conserved exactly), feeding the existing per-tenant accounting.

The batcher is pure bookkeeping: it never touches clients, caches, or
the clock.  :class:`~repro.serve.server.QueryServer` drives it — plans
each dispatched request's items, schedules flush events at the release
times this module computes, executes flushed groups, and reports each
call's usage back via :meth:`CrossRequestBatcher.settle_call`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

from repro.serve.request import QueryRequest

#: release-time comparison slack (floats accumulate through the heap)
_EPS = 1e-9

#: why a group flushed
WINDOW_EXPIRED = "window"
SIZE_TRIGGERED = "size"
DEADLINE_FORCED = "deadline"


@dataclass(frozen=True)
class BatchingConfig:
    """Knobs of one :class:`CrossRequestBatcher`.

    ``window`` is the longest a group waits for co-batchable work, in
    virtual seconds from the instant it opened; ``max_batch`` overrides
    the adaptive policy's size trigger when set.  Work the server's
    per-database :class:`~repro.udf.store.MappingStore` already covers
    never reaches the batcher: planning answers a fully covered
    occurrence from the store, and every flushed map group publishes its
    real answers there.
    """

    window: float = 2.0
    max_batch: Optional[int] = None

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError(f"window must be > 0, got {self.window}")
        if self.max_batch is not None and self.max_batch < 1:
            raise ValueError(
                f"max_batch must be >= 1 or None, got {self.max_batch}"
            )


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
        "degraded_keys", "waves",
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


class _Group:
    """One batchable stream: same database and ingredient/label.

    Columnar: ``items`` maps each payload, in enqueue order, to its
    *owner* (the first request that asked for it), and ``later`` holds
    the rare payload's further requesters in attach order.
    """

    __slots__ = (
        "gid", "kind", "database", "call", "label", "chunk_size",
        "threshold", "items", "later", "opened_at",
        "deadline_min", "release_at", "release_reason", "epoch",
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
        threshold: int = 1,
    ) -> None:
        self.gid = gid
        self.kind = kind  # "map" (keyed items) or "prompt" (whole prompts)
        self.database = database
        self.call = call
        self.label = label
        self.chunk_size = chunk_size
        self.threshold = threshold
        self.items: dict[object, PendingRequest] = {}
        self.later: dict[object, list[PendingRequest]] = {}
        self.opened_at: Optional[float] = None
        self.deadline_min = math.inf
        self.release_at: Optional[float] = None
        self.release_reason = WINDOW_EXPIRED
        self.epoch = 0

    def retarget(self, now: float, window: float) -> None:
        """Recompute when (and why) this group must flush.

        The deadline clamp is the safety invariant: a group's release
        can only ever move *earlier* than ``opened_at + window``, and
        never past the earliest member deadline.
        """
        if not self.items:
            self.release_at = None
            return
        if len(self.items) >= self.threshold:
            self.release_at = now
            self.release_reason = SIZE_TRIGGERED
            return
        window_at = self.opened_at + window
        if self.deadline_min < window_at - _EPS:
            self.release_at = max(now, self.deadline_min)
            self.release_reason = DEADLINE_FORCED
        else:
            self.release_at = max(now, window_at)
            self.release_reason = WINDOW_EXPIRED

    def reset(self) -> None:
        """Clear to an empty group; the next attach opens a new epoch."""
        self.items = {}
        self.later = {}
        self.opened_at = None
        self.deadline_min = math.inf
        self.release_at = None
        self.release_reason = WINDOW_EXPIRED
        self.epoch += 1


@dataclass
class FlushedGroup:
    """One group drained by :meth:`CrossRequestBatcher.collect_due`."""

    gid: tuple
    kind: str
    database: str
    call: object
    label: str
    chunk_size: int
    trigger: str
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

    def __init__(self, config: BatchingConfig, policy) -> None:
        self.config = config
        #: object with ``batch_size(call)`` — the "full enough to
        #: release" threshold (AdaptiveBatchPolicy in the server)
        self.policy = policy
        self._groups: dict[tuple, _Group] = {}
        #: release times set since the last drain (the server turns
        #: each into one flush event; stale ones are skipped)
        self._new_releases: list[float] = []
        # -- statistics (the BENCH/dash batching panel) -------------------
        self.items_enqueued = 0
        self.items_coalesced = 0
        self.formed_calls = 0
        self.paid_calls = 0
        self.coalesced_calls = 0
        self.flushes = {WINDOW_EXPIRED: 0, SIZE_TRIGGERED: 0,
                        DEADLINE_FORCED: 0}
        self.keys_from_store = 0
        self.prompts_from_cache = 0
        self._occupancy_sum = 0.0
        self._occupancy_calls = 0
        self._fanout_tokens_saved = 0.0

    # -- enqueue ------------------------------------------------------------------

    def _threshold(self, call) -> int:
        if self.config.max_batch is not None:
            return self.config.max_batch
        return self.policy.batch_size(call)

    def chunk_size_for(self, call) -> int:
        """Keys per formed call — the policy-sized batch the former fills.

        This is where continuous batching beats the per-request path on
        cost: the executor chunks each occurrence alone at its fixed
        size, while the former sees every co-resident request's keys and
        fills :class:`~repro.plan.policy.AdaptiveBatchPolicy`-sized
        batches (bounded by ``max_batch`` when set).
        """
        return self._threshold(call)

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
                threshold=self._threshold(call),
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
        """Add one whole-prompt work item (LLMQA / HQDL generation)."""
        gid = ("prompt", database, label)
        group = self._groups.get(gid)
        if group is None:
            group = _Group(
                gid, kind="prompt", database=database, label=label,
                chunk_size=1, threshold=self._threshold(None),
            )
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
                group.opened_at = now
            items.update(fresh)
            self.items_enqueued += len(fresh)
        if attached:
            member.outstanding += attached
            before = group.release_at
            group.deadline_min = min(
                group.deadline_min, member.request.deadline_at
            )
            group.retarget(now, self.config.window)
            if group.release_at is not None and group.release_at != before:
                self._new_releases.append(group.release_at)
        return attached

    def expedite(self, now: float) -> None:
        """Release every open group at ``now`` (no coalescing possible).

        Used when at most one request can ever be in service
        (``max_concurrent=1``): waiting a window could never find a
        partner, and releasing at dispatch keeps the batched path
        byte-identical to the unbatched one.
        """
        for group in self._groups.values():
            if group.items and (
                group.release_at is None or group.release_at > now
            ):
                group.release_at = now
                group.release_reason = SIZE_TRIGGERED

    def drain_releases(self) -> list[float]:
        """Release times needing flush events since the last drain."""
        releases, self._new_releases = self._new_releases, []
        return releases

    # -- flush --------------------------------------------------------------------

    def has_due(self, now: float) -> bool:
        """True when some group must flush at (or before) ``now``."""
        return any(
            g.items and g.release_at is not None and g.release_at <= now + _EPS
            for g in self._groups.values()
        )

    def collect_due(
        self, now: float, *, retain_tails: bool = True
    ) -> list[FlushedGroup]:
        """Drain every group due at ``now`` — one *wave*, flushed together.

        Groups flushed in the same wave share one makespan pool in the
        server's cost model, exactly as their calls would share the
        worker fan-out of a single request.

        With ``retain_tails`` (the continuous-batching behaviour), a
        group released by its **size** trigger flushes only its full
        chunks; the partial tail stays pending on a fresh window so
        later requests' keys can fill it — window and deadline releases
        always flush everything.  The server disables retention at
        ``max_concurrent=1``, where no partner can ever arrive.
        """
        wave: list[FlushedGroup] = []
        for group in self._groups.values():
            if not group.items or group.release_at is None:
                continue
            if group.release_at > now + _EPS:
                continue
            payloads = list(group.items)
            owners = list(group.items.values())
            full = len(payloads)
            if (
                retain_tails
                and group.release_reason == SIZE_TRIGGERED
                and group.chunk_size > 1
            ):
                full -= full % group.chunk_size
            if not full:
                # a stale release (e.g. re-targeted past us): leave the
                # group exactly as it is
                continue
            kept = dict(zip(payloads[full:], owners[full:]))
            later, kept_later = group.later, {}
            if later and kept:
                kept_later = {p: r for p, r in later.items() if p in kept}
                later = {p: r for p, r in later.items() if p not in kept}
            del payloads[full:], owners[full:]
            wave.append(
                FlushedGroup(
                    gid=group.gid, kind=group.kind, database=group.database,
                    call=group.call, label=group.label,
                    chunk_size=group.chunk_size,
                    trigger=group.release_reason,
                    payloads=payloads, owners=owners, later=later,
                    members=count_requesters(payloads, owners, later),
                )
            )
            self.flushes[group.release_reason] += 1
            self.items_coalesced += len(later)
            group.reset()
            if kept:
                # the tail re-opens on a fresh window at ``now``; its
                # deadline floor is recomputed from the remaining waiters
                group.items, group.later = kept, kept_later
                group.opened_at = now
                group.deadline_min = min(
                    member.request.deadline_at
                    for member in chain(
                        dict.fromkeys(kept.values()), *kept_later.values()
                    )
                )
                group.retarget(now, self.config.window)
                if group.release_at is not None:
                    self._new_releases.append(group.release_at)
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
        conserved — at ``max_concurrent=1`` everything lands on the sole
        member, byte-identical to the unbatched path.
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
            "window": round(self.config.window, 6),
            "max_batch": self.config.max_batch,
            "items": self.items_enqueued,
            "coalesced_items": self.items_coalesced,
            "formed_calls": self.formed_calls,
            "paid_calls": self.paid_calls,
            "coalesced_calls": self.coalesced_calls,
            "batch_occupancy": round(self.batch_occupancy(), 6),
            "flushes": {
                WINDOW_EXPIRED: self.flushes[WINDOW_EXPIRED],
                SIZE_TRIGGERED: self.flushes[SIZE_TRIGGERED],
                DEADLINE_FORCED: self.flushes[DEADLINE_FORCED],
            },
            "keys_from_store": self.keys_from_store,
            "prompts_from_cache": self.prompts_from_cache,
            "fanout_tokens_saved": int(round(self._fanout_tokens_saved)),
        }

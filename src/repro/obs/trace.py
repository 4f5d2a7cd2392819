"""Hierarchical spans over an injectable clock.

The tracing half of :mod:`repro.obs`.  A :class:`Tracer` produces
:class:`Span` trees — run → database → question → dispatch → LLM call →
retry attempt — with timestamps read from whatever clock it was given.
Production hands it :class:`~repro.vtime.MonotonicClock`; traced runs
hand it the :class:`~repro.vtime.ServiceTimer` their simulated LLM
latency sleeps on, and dispatch on one thread, so spans lie on one
sequential virtual timeline and whole traces are *exactly
reproducible*: two runs of the same seed produce identical span trees,
timestamps included.

Span nesting is tracked per thread (a thread-local stack), with an
explicit ``parent=`` escape hatch for work that hops threads — the
dispatcher captures its own span before fanning out and parents each
worker-side call span under it.

Disabled mode is :class:`NullTracer`: ``span()`` returns a shared no-op
context manager, so the off path costs one attribute check and no locks
or allocations.  Components should guard span creation with
``telemetry.enabled`` so attribute dicts are never built when tracing
is off.
"""

from __future__ import annotations

import threading
from typing import Iterator, Optional

from repro.vtime import MonotonicClock

_UNSET = object()


class Span:
    """One timed operation, with attributes and child spans."""

    __slots__ = ("name", "span_id", "parent_id", "start", "end",
                 "attributes", "children", "lane")

    def __init__(
        self,
        name: str,
        span_id: str,
        parent_id: Optional[str],
        start: float,
        lane: int = 0,
        attributes: Optional[dict] = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        self.attributes: dict[str, object] = attributes if attributes else {}
        self.children: list[Span] = []
        self.lane = lane

    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set(self, key: str, value: object) -> None:
        """Attach one attribute to the span."""
        self.attributes[key] = value

    def self_time(self) -> float:
        """Duration not covered by child spans (clamped at zero).

        With sequential children this is an exact decomposition: the
        self times of a tree sum to the root's duration.  Overlapping
        (parallel) children can exceed the parent, hence the clamp.
        """
        return max(0.0, self.duration - sum(c.duration for c in self.children))

    def walk(self) -> Iterator["Span"]:
        """This span and all descendants, depth-first in start order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def tree(self) -> tuple:
        """A structural fingerprint for exact-equality assertions."""
        return (
            self.name,
            self.start,
            self.end,
            tuple(sorted((str(k), str(v)) for k, v in self.attributes.items())),
            tuple(child.tree() for child in self.children),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"start={self.start:g}, end={self.end}, "
            f"children={len(self.children)})"
        )


def closed_span(
    name: str,
    span_id: str,
    parent: Optional[Span],
    start: float,
    end: float,
    *,
    lane: int = 0,
    attributes: Optional[dict] = None,
) -> Span:
    """Build an already-finished span with explicit virtual timestamps.

    Post-hoc trace materialization (the serving layer reconstructs span
    trees from per-request numbers after the run) needs spans whose
    start/end are chosen, not read from a clock.  The span is attached
    to ``parent``'s children when one is given.
    """
    if end < start:
        raise ValueError(f"span end {end} precedes start {start}")
    span = Span(
        name,
        span_id,
        parent.span_id if parent is not None else None,
        start,
        lane=lane,
        attributes=dict(attributes) if attributes else None,
    )
    span.end = end
    if parent is not None:
        parent.children.append(span)
    return span


class _SpanContext:
    """Context manager that opens a span on entry, closes it on exit."""

    __slots__ = ("_tracer", "_name", "_parent", "_attributes", "_span")

    def __init__(self, tracer: "Tracer", name: str, parent, attributes: dict):
        self._tracer = tracer
        self._name = name
        self._parent = parent
        self._attributes = attributes
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        self._span = self._tracer._start(self._name, self._parent, self._attributes)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        assert self._span is not None
        if exc_type is not None and "error" not in self._span.attributes:
            self._span.set("error", exc_type.__name__)
        self._tracer._finish(self._span)
        return False


class _NullSpan:
    """A no-op Span/context-manager hybrid, shared by all callers."""

    __slots__ = ()

    name = ""
    span_id = ""
    parent_id = None
    start = 0.0
    end = 0.0
    duration = 0.0
    attributes: dict = {}
    children: list = []
    lane = 0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, key: str, value: object) -> None:
        pass

    def self_time(self) -> float:
        return 0.0

    def walk(self):
        return iter(())

    def tree(self) -> tuple:
        return ()


NULL_SPAN = _NullSpan()


class Tracer:
    """Produces span trees; thread-safe; deterministic under virtual time.

    Span ids are assigned in start order (``s1``, ``s2``, ...) and lanes
    (for Chrome-trace track layout) in thread-first-seen order, so a
    sequential run always yields the same ids and lanes.
    """

    enabled = True

    def __init__(self, clock=None) -> None:
        self.clock = clock if clock is not None else MonotonicClock()
        self.roots: list[Span] = []
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1
        self._lanes: dict[int, int] = {}

    # -- span API ----------------------------------------------------------------

    def span(self, name: str, parent=_UNSET, **attributes: object) -> _SpanContext:
        """A context manager that records one span.

        ``parent`` defaults to the calling thread's innermost open span;
        pass an explicit :class:`Span` to attach work that crosses
        threads, or ``None`` to force a new root.
        """
        return _SpanContext(self, name, parent, attributes)

    def current(self) -> Optional[Span]:
        """The calling thread's innermost open span, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    # -- internals ---------------------------------------------------------------

    def _start(self, name: str, parent, attributes: dict) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        if parent is _UNSET:
            resolved: Optional[Span] = stack[-1] if stack else None
        else:
            resolved = parent if isinstance(parent, Span) else None
        ident = threading.get_ident()
        now = self.clock.now()
        with self._lock:
            lane = self._lanes.get(ident)
            if lane is None:
                lane = len(self._lanes)
                self._lanes[ident] = lane
            span = Span(
                name,
                f"s{self._next_id}",
                resolved.span_id if resolved is not None else None,
                now,
                lane=lane,
                attributes=dict(attributes) if attributes else None,
            )
            self._next_id += 1
            if resolved is not None:
                resolved.children.append(span)
            else:
                self.roots.append(span)
            self.spans.append(span)
        stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.end = self.clock.now()
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:  # pragma: no cover - defensive
            stack.remove(span)


class NullTracer:
    """The disabled tracer: every span is the shared no-op."""

    enabled = False

    __slots__ = ()

    roots: list = []
    spans: list = []

    def span(self, name: str, parent=None, **attributes: object) -> _NullSpan:
        return NULL_SPAN

    def current(self) -> None:
        return None

"""Zero-dependency tracing + metrics for the hybrid-query pipelines.

The accounting story the paper tells — accuracy per token, per call,
per retry — needs per-stage visibility, not just end-of-run aggregates.
This package provides it without perturbing a single result byte:

- :mod:`repro.obs.trace` — hierarchical :class:`~repro.obs.trace.Span`
  trees from a :class:`~repro.obs.trace.Tracer`, timestamped by an
  injectable clock so traces are exactly reproducible under a
  :class:`~repro.vtime.ServiceTimer`.
- :mod:`repro.obs.metrics` — a thread-safe
  :class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges, and
  fixed-bucket histograms.
- :mod:`repro.obs.export` — JSONL span logs, Chrome ``trace_event``
  JSON, Prometheus text, and per-stage summary records.
- :mod:`repro.obs.timeseries` — a
  :class:`~repro.obs.timeseries.WindowedAggregator` rolling events into
  fixed virtual-time windows (rates, per-window percentiles) with
  bounded ring retention.
- :mod:`repro.obs.slo` — declarative SLOs with error-budget accounting
  and multi-window burn-rate alerts.
- :mod:`repro.obs.flightrec` — a bounded
  :class:`~repro.obs.flightrec.FlightRecorder` ring of server events,
  snapshotted to JSONL incidents when an alert fires.

The package sits below :mod:`repro.llm` in the layer order and imports
only :mod:`repro.stable`, :mod:`repro.vtime` and itself, so every pipeline can be watched
without the watcher depending on what it watches.

Components receive a :class:`Telemetry` handle bundling one tracer and
one registry.  The default, :data:`NULL_TELEMETRY`, is fully disabled:
``telemetry.enabled`` is ``False``, spans are a shared no-op, and
instruments are shared no-ops — the hot path pays one attribute check,
no locks, no allocations.  Instrumented code follows two rules:

1. bind instruments once at construction time
   (``self._hits = telemetry.metrics.counter("llm.cache.hits")``);
2. guard span creation with ``telemetry.enabled`` so attribute dicts
   are never built when tracing is off::

       with (tel.tracer.span("stage", qid=qid) if tel.enabled
             else NULL_SPAN) as span:
           ...
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
)
from repro.obs.ledger import (
    LEDGER_SCHEMA_VERSION,
    RunLedger,
    config_fingerprint,
)
from repro.obs.provenance import (
    NULL_PROVENANCE,
    CallProvenance,
    CellProvenance,
    NullProvenance,
    ProvenanceRecorder,
    call_id_for,
    resolve_provenance,
)
from repro.obs.flightrec import (
    NULL_FLIGHT_RECORDER,
    FlightEvent,
    FlightRecorder,
    NullFlightRecorder,
)
from repro.obs.sampler import (
    KEEP_HASH,
    KEEP_OUTCOME,
    KEEP_SLOWEST,
    TailSampler,
)
from repro.obs.timeseries import (
    NULL_TIMESERIES,
    NullWindowedAggregator,
    WindowedAggregator,
    WindowRow,
)
from repro.obs.trace import NULL_SPAN, NullTracer, Span, Tracer

_NULL_METRICS = NullMetrics()
_NULL_TRACER = NullTracer()


class Telemetry:
    """Tracer + metrics + windowed time series + flight recorder.

    One handle handed through the stack.  ``enabled`` is precomputed so
    hot paths pay a single attribute read.  ``Telemetry()`` with no
    arguments is fully disabled (and :data:`NULL_TELEMETRY` is a shared
    instance of exactly that); :meth:`on` builds an enabled handle over
    an optional clock.  ``timeseries`` and ``flight`` default to the
    shared no-ops, so only callers that want time-resolved serving
    telemetry (the serving benches and the ``dash`` target) pay for it.
    """

    __slots__ = ("tracer", "metrics", "timeseries", "flight", "enabled")

    def __init__(
        self, tracer=None, metrics=None, timeseries=None, flight=None
    ) -> None:
        self.tracer = tracer if tracer is not None else _NULL_TRACER
        self.metrics = metrics if metrics is not None else _NULL_METRICS
        self.timeseries = (
            timeseries if timeseries is not None else NULL_TIMESERIES
        )
        self.flight = flight if flight is not None else NULL_FLIGHT_RECORDER
        self.enabled = bool(
            getattr(self.tracer, "enabled", True)
            or getattr(self.metrics, "enabled", True)
            or getattr(self.timeseries, "enabled", True)
            or getattr(self.flight, "enabled", True)
        )

    @classmethod
    def on(cls, clock=None) -> "Telemetry":
        """An enabled handle: fresh tracer (over ``clock``) + registry."""
        return cls(Tracer(clock), MetricsRegistry())


#: The shared disabled handle every component defaults to.
NULL_TELEMETRY = Telemetry()


def resolve(telemetry: Optional[Telemetry]) -> Telemetry:
    """``telemetry`` or the shared null handle (never None)."""
    return telemetry if telemetry is not None else NULL_TELEMETRY


__all__ = [
    "CallProvenance",
    "CellProvenance",
    "Counter",
    "FlightEvent",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "KEEP_HASH",
    "KEEP_OUTCOME",
    "KEEP_SLOWEST",
    "LEDGER_SCHEMA_VERSION",
    "MetricsRegistry",
    "NullFlightRecorder",
    "NullMetrics",
    "NullProvenance",
    "NullTracer",
    "NullWindowedAggregator",
    "NULL_FLIGHT_RECORDER",
    "NULL_PROVENANCE",
    "NULL_SPAN",
    "NULL_TELEMETRY",
    "NULL_TIMESERIES",
    "ProvenanceRecorder",
    "RunLedger",
    "Span",
    "TailSampler",
    "Telemetry",
    "Tracer",
    "WindowedAggregator",
    "WindowRow",
    "call_id_for",
    "config_fingerprint",
    "resolve",
    "resolve_provenance",
]

"""One registry for every committed ``BENCH_*`` artifact.

Each entry maps an artifact name to its generator, run at the one
configuration its committed bytes came from, and to its files by class:

- **bytes** (``files``) — committed as-is; a regeneration must leave
  ``git diff`` clean;
- **digest** (``digests``) — large regenerable dumps, gitignored; their
  sha256 and byte size go into the committed :data:`MANIFEST`.

Every JSON payload is written by :func:`write_json`.  Span exports (the
Chrome trace, span JSONL and Prometheus text) and the flight recorder's
incident log keep their own exporters.

Entry point: ``python -m repro.harness artifacts [NAME ...]`` regenerates
the named artifacts (all by default) in place and rewrites the manifest.
Other configurations stay reachable through each bench's Python
functions and ``bench-scale``.

Wall-clock figures (``BENCH_cache.json``'s planner stages,
``BENCH_scale.json``'s UDF wall seconds, ``BENCH_parallel.json``'s
thread occupancy) are printed, never written: every committed number is
a function of the call list, so a regeneration reproduces it exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Union

#: The committed manifest of the digest-class files.
MANIFEST = "BENCH_digests.json"

#: Wall-clock fields of a stage-summary record; kept out of committed JSON.
WALL_FIELDS = ("total_s", "self_s", "share")


@dataclass(frozen=True)
class Artifact:
    """One registered artifact.

    ``generate`` receives one path per file, in ``files + digests``
    order, writes every one of them, and returns its console report.
    """

    generate: Callable[..., str]
    files: tuple[str, ...]
    digests: tuple[str, ...] = ()

    def write(self, directory: Union[str, Path], **config) -> str:
        """Run the generator into ``directory``; returns its report.

        ``config`` overrides the fixed configuration (tests pass a small
        one); the registry itself never does.
        """
        paths = [Path(directory) / name for name in self.files + self.digests]
        return self.generate(*paths, **config)


def _without(payload: dict, section: str, field: str) -> dict:
    """``payload`` minus ``field`` in every entry of ``payload[section]``."""
    return {**payload, section: {
        name: {k: v for k, v in entry.items() if k != field}
        for name, entry in payload[section].items()
    }}


def write_json(path: Union[str, Path], payload: dict) -> Path:
    """The one JSON writer: two-space indent, sorted keys, final newline."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _parallel(path: Path, **config) -> str:
    from repro.harness.benchjson import (
        format_parallel_report, measure_parallel_makespans,
    )

    payload = measure_parallel_makespans(**config)
    write_json(path, _without(payload, "workers", "max_in_flight"))
    return format_parallel_report(payload)


def _chaos(path: Path, **config) -> str:
    from repro.harness.benchjson import (
        format_chaos_report, measure_chaos_degradation,
    )

    payload = measure_chaos_degradation(**config)
    write_json(path, payload)
    return format_chaos_report(payload)


def _trace(
    path: Path, prometheus: Path, chrome: Path, spans: Path, **config
) -> str:
    from repro.harness.tracing import (
        format_trace_report, measure_trace, write_trace_exports,
    )

    payload, traces = measure_trace(**config)
    write_json(path, payload)
    write_trace_exports(
        traces, chrome=chrome, spans=spans, prometheus=prometheus
    )
    return format_trace_report(payload)


def _scale(path: Path, **config) -> str:
    from repro.harness.benchscale import format_scale_report, measure_scale

    payload = measure_scale(**config)
    write_json(path, _without(payload, "scales", "wall"))
    return format_scale_report(payload)


def _cache(path: Path, **config) -> str:
    from repro.harness.benchcache import (
        format_cache_report, measure_cache_bench,
    )
    from repro.harness.tracing import format_stage_summary

    payload = measure_cache_bench(**config)
    stages = payload["planner_stages"]
    write_json(path, {
        **payload,
        "planner_stages": [
            {k: v for k, v in record.items() if k not in WALL_FIELDS}
            for record in stages
        ],
    })
    return format_cache_report(payload) + "\n\n" + format_stage_summary(
        stages, title="Planner stages (wall clock; not written)."
    )


def _serve(
    serve: Path, slo: Path, incidents: Path,
    traces: Path, spans: Path, chrome: Path, **config,
) -> str:
    from repro.harness.benchserve import (
        format_serve_report, format_slo_report, format_trace_report,
        sweep_offered_load, trace_spans,
    )
    from repro.obs.export import write_chrome_trace, write_spans_jsonl
    from repro.obs.sampler import TailSampler

    sweep = sweep_offered_load(
        incident_sink=incidents, tracing=TailSampler(), **config
    )
    write_json(serve, sweep.serve)
    write_json(slo, sweep.slo)
    write_json(traces, sweep.traces)
    exported = trace_spans(sweep.forest)
    write_spans_jsonl(exported, spans)
    write_chrome_trace(exported, chrome)
    return "\n\n".join([
        format_serve_report(sweep.serve),
        format_slo_report(sweep.slo),
        format_trace_report(sweep.traces),
    ])


ARTIFACTS: dict[str, Artifact] = {
    "parallel": Artifact(_parallel, ("BENCH_parallel.json",)),
    "chaos": Artifact(_chaos, ("BENCH_chaos.json",)),
    "trace": Artifact(
        _trace,
        ("BENCH_trace.json", "BENCH_trace.prom"),
        digests=("BENCH_trace_chrome.json", "BENCH_trace_spans.jsonl"),
    ),
    "scale": Artifact(_scale, ("BENCH_scale.json",)),
    "cache": Artifact(_cache, ("BENCH_cache.json",)),
    "serve": Artifact(
        _serve,
        (
            "BENCH_serve.json", "BENCH_slo.json", "BENCH_incidents.jsonl",
            "BENCH_serve_traces.json", "BENCH_serve_trace_spans.jsonl",
            "BENCH_serve_trace_chrome.json",
        ),
    ),
}


def regenerate(
    names: Optional[Iterable[str]] = None,
    directory: Union[str, Path] = ".",
    *,
    registry: Mapping[str, Artifact] = ARTIFACTS,
) -> dict[str, str]:
    """Regenerate the named artifacts (all by default) into ``directory``.

    Rewrites the manifest there afterwards: regenerated digest files get
    fresh entries, the other registered ones keep theirs.  Returns each
    artifact's console report by name.
    """
    directory = Path(directory)
    names = list(registry) if names is None else list(names)
    unknown = [name for name in names if name not in registry]
    if unknown:
        raise ValueError(f"unknown artifacts: {', '.join(unknown)}")
    reports = {}
    for name in names:
        reports[name] = registry[name].write(directory)
    manifest_path = directory / MANIFEST
    old = (
        json.loads(manifest_path.read_text())
        if manifest_path.exists() else {}
    )
    manifest = {}
    for name, artifact in registry.items():
        for file in artifact.digests:
            if name in names:
                data = (directory / file).read_bytes()
                manifest[file] = {
                    "bytes": len(data),
                    "sha256": hashlib.sha256(data).hexdigest(),
                }
            elif file in old:
                manifest[file] = old[file]
    write_json(manifest_path, manifest)
    return reports

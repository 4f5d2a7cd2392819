"""CLI: regenerate any paper table or figure.

Usage::

    python -m repro.harness table1
    python -m repro.harness table2 table4
    python -m repro.harness all
    python -m repro.harness run-udf --databases=superhero --workers=4
    python -m repro.harness artifacts trace cache
"""

from __future__ import annotations

import functools
import math
import sys
import textwrap
from typing import Optional

from repro.harness import artifacts, tables


def _planner_report() -> tuple[list[dict], str]:
    """Coverage report for the automated planner (Section 6 future work)."""
    from repro.auto.planner import evaluate_planner
    from repro.eval.report import format_table
    from repro.swan.benchmark import load_benchmark

    report = evaluate_planner(load_benchmark())
    records = [
        {
            "total": report.total,
            "planned": report.planned,
            "coverage": report.coverage,
            "correct": report.correct,
            "planned_accuracy": report.planned_accuracy,
        }
    ]
    text = format_table(
        ["Questions", "Planned", "Coverage", "Correct", "Planned accuracy"],
        [[report.total, report.planned, f"{report.coverage * 100:.0f}%",
          report.correct, f"{report.planned_accuracy * 100:.0f}%"]],
        title="Automated NL -> hybrid query planner on SWAN (perfect model).",
    )
    return records, text


def _validation_report() -> tuple[list[dict], str]:
    """Benchmark self-check: gold/HQDL/UDF agreement under a perfect model."""
    from repro.harness.validate import validate_swan
    from repro.swan.benchmark import load_benchmark

    report = validate_swan(load_benchmark())
    records = [
        {
            "questions": report.questions,
            "consistent": report.consistent,
            "issues": len(report.issues),
        }
    ]
    return records, report.summary()


def _cost_report() -> tuple[list[dict], str]:
    """Section 5.5 style cost/latency/throughput for both pipelines."""
    from repro.eval.costs import estimate_costs
    from repro.harness.runner import GoldResults, run_hqdl, run_udf
    from repro.swan.benchmark import load_benchmark

    swan = load_benchmark()
    gold = GoldResults(swan)
    hqdl = run_hqdl(swan, "gpt-3.5-turbo", 0, gold=gold)
    udf = run_udf(swan, "gpt-3.5-turbo", 0, gold=gold)
    reports = {
        "HQDL": estimate_costs(hqdl.usage, "gpt-3.5-turbo", questions=120),
        "HQ UDFs": estimate_costs(udf.usage, "gpt-3.5-turbo", questions=120),
    }
    records = [
        {"algorithm": name, "dollars": r.dollars,
         "sequential_s": r.sequential_latency_s,
         "parallel_s": r.parallel_latency_s}
        for name, r in reports.items()
    ]
    text = "\n\n".join(f"== {name} ==\n{r.summary()}" for name, r in reports.items())
    return records, text


def _error_report() -> tuple[list[dict], str]:
    """Section 5.3-style failure analysis for the headline configuration."""
    from repro.harness.breakdown import analyze_run
    from repro.harness.runner import GoldResults, run_hqdl
    from repro.swan.benchmark import load_benchmark

    swan = load_benchmark()
    run = run_hqdl(swan, "gpt-4-turbo", 5, gold=GoldResults(swan))
    breakdown = analyze_run(swan, run)
    records = [
        {
            "model": breakdown.model,
            "shots": breakdown.shots,
            "failures": breakdown.failures,
            "limit_failure_rate": breakdown.limit_failure_rate(),
            "scan_failure_rate": breakdown.scan_failure_rate(),
        }
    ]
    return records, breakdown.render()


def _sweep_report() -> tuple[list[dict], str]:
    """The raw (method × model × shots × database) grid behind the tables."""
    from repro.eval.report import format_records
    from repro.harness.sweep import run_sweep, write_csv
    from repro.swan.benchmark import load_benchmark

    records = run_sweep(load_benchmark())
    rows = [record.as_row() for record in records]
    path = write_csv(records, "sweep.csv")
    text = format_records(rows, title=f"Full experiment grid (also written to {path}).")
    return rows, text


def _load_scaled(scale, databases):
    from repro.swan.benchmark import load_benchmark, load_benchmark_subset

    scale = scale or 1
    if databases:
        return load_benchmark_subset(scale, list(databases))
    return load_benchmark(scale)


def _run_report(
    pipeline: str, databases=None, workers=None, scale=None,
    **pipeline_options,
) -> tuple[list[dict], str]:
    """One pipeline run at the requested scale."""
    from repro.eval.report import format_table
    from repro.harness import runner

    swan = _load_scaled(scale, databases)
    scale = scale or 1
    run = getattr(runner, f"run_{pipeline}")(
        swan, "gpt-3.5-turbo", 2, gold=runner.GoldResults(swan),
        workers=workers or 1, **pipeline_options,
    )
    record = {
        "pipeline": pipeline, "scale": scale,
        "ex": run.overall_ex, "llm_calls": run.usage.calls,
    }
    rows = [
        [db, f"{ex * 100:.1f}%"] for db, ex in sorted(run.ex_by_db.items())
    ]
    rows.append(["overall", f"{run.overall_ex * 100:.1f}%"])
    usage = run.usage
    title = (
        f"{pipeline.upper()} run — {run.model}, {run.shots}-shot, "
        f"scale={scale}; {usage.calls} LLM calls, "
        f"{usage.input_tokens}/{usage.output_tokens} in/out tokens."
    )
    return [record], format_table(["Database", "EX"], rows, title=title)


def _bench_scale_report(
    workers=None, scale=None, batch_size: int = 5
) -> tuple[list[dict], str]:
    """Rows-vs-makespan scaling bench, printed (``artifacts scale``
    writes the committed ladder)."""
    from repro.harness.benchscale import (
        format_scale_report, measure_scale, scales_up_to,
    )

    payload = measure_scale(
        workers=workers or 4, batch_size=batch_size,
        scales=scales_up_to(scale or 100),
    )
    return [payload], format_scale_report(payload)


def _dash_report(
    seed=None, horizon=None, window=None, tracing="off", trace_sample=None,
) -> tuple[list[dict], str]:
    """Console serving dashboard: one instrumented 2x-overload run."""
    from repro.errors import ReproError
    from repro.harness.dash import run_dash
    from repro.obs.timeseries import DEFAULT_WINDOW_SECONDS

    try:
        payload, text = run_dash(
            seed=seed or 0,
            horizon=horizon or 120.0,
            window_seconds=window or DEFAULT_WINDOW_SECONDS,
            sampler=_trace_sampler(
                tracing, trace_sample, seed=seed or 0,
                window_seconds=window or DEFAULT_WINDOW_SECONDS,
            ),
        )
    except ReproError as exc:  # e.g. a horizon too short to probe
        raise ValueError(f"dash: {exc}") from None
    return [payload], text


def _explain_command(options) -> tuple[int, str]:
    """One-question provenance explanation (tentpole PR 5 CLI)."""
    from repro.errors import ReproError
    from repro.harness.explain import explain_question

    if not options["database"] or not options["question"]:
        raise ValueError("explain requires --database=NAME and --question=REF")
    try:
        text = explain_question(
            options["database"],
            options["question"],
            pipeline=options["pipeline"],
        )
    except ReproError as exc:
        raise ValueError(str(exc)) from None
    return 0, text


def _explain_request_command(options) -> tuple[int, str]:
    """One-request serving trace explanation (this PR's CLI)."""
    from repro.errors import ReproError
    from repro.harness.explain import explain_request

    if options["request"] is None:
        raise ValueError("explain-request requires --request=N")
    try:
        text = explain_request(
            options["request"],
            scale=options["scale"] or 1,
            seed=options["seed"] or 0,
            horizon=options["horizon"],
            multiplier=options["multiplier"] or 2.0,
            window_seconds=options["window"],
            trace_sample=options["trace_sample"],
        )
    except ReproError as exc:
        raise ValueError(str(exc)) from None
    return 0, text


def _regress_command(options) -> tuple[int, str]:
    """Ledger-backed regression gate (tentpole PR 5 CLI)."""
    from repro.harness.regress import run_regress

    return run_regress(
        ledger_path=options["ledger"],
        baseline_path=options["baseline"],
        update_baseline=options["update_baseline"],
        max_ex_drop=options["max_ex_drop"],
        max_token_growth=options["max_token_growth"],
        max_makespan_growth=options["max_makespan_growth"],
    )


def _artifacts_command(names: list[str]) -> tuple[int, str]:
    """Regenerate the named committed artifacts in place (all by default)."""
    blocks = []
    for name, text in artifacts.regenerate(names or None).items():
        artifact = artifacts.ARTIFACTS[name]
        written = ", ".join(artifact.files + artifact.digests)
        blocks.append(f"{text}\n(written: {written})")
    blocks.append(f"digest manifest rewritten: {artifacts.MANIFEST}")
    return 0, "\n\n".join(blocks)


#: Commands that do something other than render a report table, each
#: with the option names it reads: (function, required, optional).  The
#: function takes the parsed options and returns (exit code, text); a
#: command must be invoked alone — mixing it with report targets is a
#: usage error.
_COMMANDS = {
    "explain": (
        _explain_command, ("database", "question"), ("pipeline",),
    ),
    "explain-request": (
        _explain_request_command,
        ("request",),
        ("scale", "seed", "horizon", "multiplier", "window",
         "trace_sample"),
    ),
    "regress": (
        _regress_command,
        (),
        ("ledger", "baseline", "update_baseline", "max_ex_drop",
         "max_token_growth", "max_makespan_growth"),
    ),
}


_GENERATORS = {
    "table1": tables.table1,
    "table2": tables.table2,
    "table3": tables.table3,
    "table4": tables.table4,
    "table5": tables.table5,
    "figure1": tables.figure1,
    "planner": _planner_report,
    "validate": _validation_report,
    "costs": _cost_report,
    "errors": _error_report,
    "sweep": _sweep_report,
    "run-udf": functools.partial(_run_report, "udf"),
    "run-hqdl": functools.partial(_run_report, "hqdl"),
    "bench-scale": _bench_scale_report,
    "dash": _dash_report,
}

#: Extra targets excluded from `all` (sweep re-runs the whole grid and
#: writes a file, run-udf/run-hqdl are parameterized single runs,
#: bench-scale synthesizes 100x worlds, and
#: dash runs an instrumented overload and renders the console dashboard;
#: `all` should stay fast and side-effect free).
_EXCLUDED_FROM_ALL = ("sweep", "run-udf", "run-hqdl", "bench-scale", "dash")

#: Targets that honour CLI flags, and which option names each accepts.
_FLAG_TARGETS = {
    "run-udf": ("databases", "workers", "scale", "batch_size"),
    "run-hqdl": ("databases", "workers", "scale"),
    "bench-scale": ("workers", "scale", "batch_size"),
    "dash": ("seed", "horizon", "window", "tracing", "trace_sample"),
}


def _trace_sampler(tracing, trace_sample, *, seed, window_seconds):
    """The CLI's request-tracing choice: a tail sampler, or None for off."""
    from repro.harness.benchserve import DEFAULT_TRACE_SAMPLE
    from repro.obs.sampler import TailSampler

    if tracing == "off":
        return None
    return TailSampler(
        seed=seed,
        slowest_k=(
            trace_sample if trace_sample is not None else DEFAULT_TRACE_SAMPLE
        ),
        window_seconds=window_seconds,
    )


def _flag_text(option: str) -> str:
    """``--name=METAVAR`` (or the bare switch) for one option name."""
    name = "--" + option.replace("_", "-")
    kind, spec, metavar = _FLAGS[name]
    if kind == "switch":
        return name
    return f"{name}={'|'.join(spec) if kind == 'choice' else metavar}"


def _kind_text(kind: str, spec) -> str:
    """What one flag accepts, as its table entry states it."""
    if kind == "int":
        return f"integer >= {spec}"
    if kind == "float":
        return "number > 0" if spec else "number >= 0"
    if kind in ("choice", "switch"):
        return kind  # the metavar already spells out the choices
    return spec


def _wrap(text: str, indent: str, hang: str) -> str:
    return textwrap.fill(
        text, width=79, initial_indent=indent, subsequent_indent=hang,
        break_long_words=False, break_on_hyphens=False,
    )


def _usage() -> str:
    """The usage text, rendered from the flag, target and command tables."""
    lines = ["usage: python -m repro.harness [target ...] [--flag=VALUE ...]"]
    for command, (_, required, optional) in _COMMANDS.items():
        words = [command, *map(_flag_text, required)]
        words.extend(f"[{_flag_text(option)}]" for option in optional)
        lines.append(
            _wrap("python -m repro.harness " + " ".join(words), " " * 7, " " * 11)
        )
    lines.append(" " * 7 + "python -m repro.harness")
    lines.append(
        " " * 11
        + f"artifacts [{'|'.join(artifacts.ARTIFACTS)} ...]  (no flags)"
    )
    lines.append(_wrap(f"targets: {', '.join(_GENERATORS)} | all", "", " " * 9))
    lines.append(
        f"commands: {', '.join(_COMMANDS)}, artifacts (invoked alone)"
    )
    lines.append("flags (what each accepts; the targets and commands that read it):")
    readers = [
        *_FLAG_TARGETS.items(),
        *((name, required + optional)
          for name, (_, required, optional) in _COMMANDS.items()),
    ]
    for name, (kind, spec, _) in _FLAGS.items():
        option = name[2:].replace("-", "_")
        users = ", ".join(target for target, read in readers if option in read)
        lines.append(
            _wrap(
                f"{_flag_text(option)}  {_kind_text(kind, spec)}; {users}",
                " " * 2, " " * 6,
            )
        )
    return "\n".join(lines)


#: flag -> (kind, spec, metavar).  ``int``: the lower bound; ``float``:
#: whether zero is excluded; ``choice``: the two allowed values (which are
#: also its metavar); ``text`` / ``list``: what the error says the flag
#: requires; ``switch`` takes no value.  The option key is the flag name
#: with its dashes turned into underscores.
_FLAGS = {
    "--databases": ("list", "a comma-separated list", "a,b"),
    "--workers": ("int", 1, "N"),
    "--batch-size": ("int", 1, "N"),
    "--scale": ("int", 1, "N"),
    "--seed": ("int", 0, "N"),
    "--horizon": ("float", True, "SECONDS"),
    "--window": ("float", True, "SECONDS"),
    "--tracing": ("choice", ("on", "off"), None),
    "--trace-sample": ("int", 0, "K"),
    "--request": ("int", 0, "N"),
    "--multiplier": ("float", True, "F"),
    "--database": ("text", "a database name", "NAME"),
    "--question": ("text", "a qid or 1-based index", "REF"),
    "--pipeline": ("choice", ("udf", "hqdl"), None),
    "--ledger": ("text", "a file path", "PATH"),
    "--baseline": ("text", "a file path", "PATH"),
    "--update-baseline": ("switch", None, None),
    "--max-ex-drop": ("float", False, "F"),
    "--max-token-growth": ("float", False, "F"),
    "--max-makespan-growth": ("float", False, "F"),
}


def _float_option(name: str, value: str, *, positive: bool = False) -> float:
    """A finite float flag: ``> 0`` when ``positive``, else ``>= 0``.

    ``nan`` passes every ordering comparison and ``inf`` never ends a
    horizon, so non-finite values are rejected by name.
    """
    try:
        parsed = float(value)
    except ValueError:
        raise ValueError(f"{name} requires a number, got {value!r}") from None
    if not math.isfinite(parsed):
        raise ValueError(f"{name} requires a finite number, got {value}")
    if parsed < 0 or (positive and parsed == 0):
        bound = "> 0" if positive else ">= 0"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return parsed


def _flag_value(name: str, sep: str, value: str):
    """The validated value of one ``--name[=value]`` flag from the table."""
    if name not in _FLAGS:
        raise ValueError(f"unknown flag: {name}{sep}{value}")
    kind, spec, _ = _FLAGS[name]
    if kind == "switch":
        if sep:
            raise ValueError(f"{name} takes no value")
        return True
    if kind == "int":
        try:
            parsed = int(value)
        except ValueError:
            raise ValueError(
                f"{name} requires an integer, got {value!r}"
            ) from None
        if parsed < spec:
            raise ValueError(f"{name} must be >= {spec}, got {value}")
        return parsed
    if kind == "float":
        return _float_option(name, value, positive=spec)
    if kind == "choice":
        if value not in spec:
            raise ValueError(
                f"{name} must be {spec[0]!r} or {spec[1]!r}, got {value!r}"
            )
        return value
    if not value:
        raise ValueError(f"{name} requires {spec}")
    return [part for part in value.split(",") if part] if kind == "list" else value


def _parse_args(argv: list[str]):
    """(targets, options, given) from argv, ``given`` being the option
    names the flags set; raises ValueError with a message."""
    from repro.harness.regress import DEFAULT_BASELINE, DEFAULT_LEDGER

    targets: list[str] = []
    options = {
        # workers=None means "each target's own default" (the run
        # commands use 1, bench-scale 4)
        "databases": None, "workers": None, "batch_size": 5,
        "scale": None,
        "seed": None, "horizon": None, "window": None,
        "tracing": "off", "trace_sample": None,
        "request": None, "multiplier": None,
        "database": None, "question": None, "pipeline": "udf",
        "ledger": DEFAULT_LEDGER, "baseline": DEFAULT_BASELINE,
        "update_baseline": False, "max_ex_drop": 0.0,
        "max_token_growth": 0.10, "max_makespan_growth": 0.25,
    }
    given: list[str] = []
    for arg in argv:
        if not arg.startswith("-"):
            targets.append(arg)
        elif arg in ("-h", "--help"):
            raise _HelpRequested()
        else:
            name, sep, value = arg.partition("=")
            option = name[2:].replace("-", "_")
            options[option] = _flag_value(name, sep, value)
            given.append(option)
    return targets, options, given


class _HelpRequested(Exception):
    """Raised by the parser when -h/--help is seen."""


def _usage_error(message: str) -> int:
    """Print ``message`` and the usage to stderr; returns exit code 2."""
    print(f"error: {message}", file=sys.stderr)
    print(_usage(), file=sys.stderr)
    return 2


def _unread(given: list[str], read, targets: list[str]) -> Optional[str]:
    """The usage error for a flag none of ``targets`` reads, if any."""
    for option in given:
        if option not in read:
            flag = "--" + option.replace("_", "-")
            return f"{flag} is not read by {', '.join(targets)}"
    return None


def main(argv: list[str]) -> int:
    """Print the requested tables/figures; returns a process exit code."""
    try:
        targets, options, given = _parse_args(argv)
    except _HelpRequested:
        print(_usage())
        return 0
    except ValueError as exc:
        return _usage_error(str(exc))
    targets = targets or ["all"]
    if targets[0] == "artifacts":
        if len(targets) != len(argv):
            return _usage_error("artifacts takes no flags")
        try:
            code, text = _artifacts_command(targets[1:])
        except ValueError as exc:
            return _usage_error(str(exc))
        print(text)
        return code
    if any(t in _COMMANDS or t == "artifacts" for t in targets):
        if len(targets) != 1:
            return _usage_error(
                f"{'/'.join([*_COMMANDS, 'artifacts'])} must be invoked alone"
            )
        command, required, optional = _COMMANDS[targets[0]]
        error = _unread(given, required + optional, targets)
        if error:
            return _usage_error(error)
        try:
            code, text = command(options)
        except ValueError as exc:
            return _usage_error(str(exc))
        print(text)
        return code
    named = targets
    if targets == ["all"]:
        targets = [t for t in _GENERATORS if t not in _EXCLUDED_FROM_ALL]
    unknown = [t for t in targets if t not in _GENERATORS]
    if unknown:
        return _usage_error(f"unknown targets: {', '.join(unknown)}")
    error = _unread(
        given, {o for t in targets for o in _FLAG_TARGETS.get(t, ())}, named
    )
    if error:
        return _usage_error(error)
    for index, target in enumerate(targets):
        if index:
            print()
        generator = _GENERATORS[target]
        if target in _FLAG_TARGETS:
            kwargs = {
                option: options[option] for option in _FLAG_TARGETS[target]
            }
            try:
                _, text = generator(**kwargs)
            except ValueError as exc:  # a flag value the run cannot use
                return _usage_error(str(exc))
        else:
            _, text = generator()
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

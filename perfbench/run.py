"""perfbench: the two-clock benchmark every performance claim is measured with.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--out PATH] [--agree]

One workload runs in this process, single threaded.  Without ``--workload``
every workload (those of ``BENCHMARK.json`` and ``udf_warm``) runs in a
subprocess of its own, one after the other, so peak RSS and lazy imports never leak between them.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1`` the
per-layer ones).  A failed correctness check exits non-zero.

Metric names, units and bounds are read from ``BENCHMARK.json``; see
``perfbench/README.md`` for what each one means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

STARTED = perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: every metric but these repeats exactly for a seed
WALL_METRICS = ("setup_s", "wall_s", "peak_rss_mb")
#: a median that one slow episode cannot move needs three passes, however
#: short the run
MIN_PASSES = 3
#: measured, checked and reported like the rest, but not offered to the driver
#: in ``BENCHMARK.json``: 40% of a ``udf_warm`` pass is fsync wait, and this
#: sandbox's commit latency drifts by more than any allowed bound (see README)
UNGATED_WORKLOADS = ("udf_warm",)


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def header() -> list[str]:
    return [
        f"perfbench  python {platform.python_version()}  nproc {os.cpu_count()}"
        "  one process, one thread",
        "disk-cache times are this sandbox's filesystem (fsync included), "
        "not a device's",
    ]


def measure(workload, seconds: float, trace: bool, started: float) -> dict:
    """Set up, time passes for ``seconds``, check, and optionally trace."""
    import spans as sp

    workload.prepare()
    setup_s = perf_counter() - started

    walls, digests = [], []
    measuring = perf_counter()
    while len(walls) < MIN_PASSES or perf_counter() - measuring < seconds:
        gc.collect()
        began = perf_counter()
        digests.append(workload.run_pass())
        walls.append(perf_counter() - began)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = workload.check(digests)
    attempted, failed = workload.ops()
    wall_s = statistics.median(walls)
    result = {
        "workload": workload.name,
        "seed": workload.seed,
        "header": header(),
        "attempted": attempted * len(walls),
        "failed": failed * len(walls),
        "ops_per_pass": attempted,
        "wall_samples": walls,
        "end_to_end": {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "peak_rss_mb": peak_rss_mb,
            **workload.end_to_end(),
        },
        "per_layer": workload.counts(),
        "traced": trace,
        "span_table": [],
        "spans": [],
    }
    if trace:
        recorder = sp.SpanRecorder()
        result["per_layer"], traced_failures = workload.traced(recorder, wall_s)
        failures += traced_failures
        result["span_table"] = sp.summarize(recorder.spans)
        result["spans"] = recorder.as_records()
    result["failures"] = failures
    result["correct"] = not failures
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    # imported here so that set-up time includes importing the program
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import make_workload

    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=HERE) as scratch:
        workload = make_workload(name, seed, Path(scratch))
        return measure(workload, seconds, trace, STARTED)


def emitted(result: dict, contract: dict) -> dict:
    """The metrics of the result line: every contract metric, by name.

    A per-layer metric a workload never touches reads 0 — that absence is the
    prediction (no ``udf.*`` on ``hqdl_cold``, no model calls on ``udf_warm``).
    """
    if result["traced"]:
        listed, values = contract["per_layer"], result["per_layer"]
        unknown = set(values) - {m["name"] for m in listed}
        if unknown:
            raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
        values = {m["name"]: values.get(m["name"], 0) for m in listed}
    else:
        listed, values = contract["end_to_end"], result["end_to_end"]
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed
    }


def print_report(result: dict, contract: dict) -> None:
    walls = result["wall_samples"]
    print(f"== {result['workload']}  seed {result['seed']}")
    print(
        f"   {len(walls)} timed passes of {result['ops_per_pass']} ops: "
        + " ".join(f"{w:.3f}" for w in walls) + " s"
    )
    print(
        f"   percentiles below pool one pass: n={result['ops_per_pass']} ops "
        "(queue wait and service time: the answered ones)"
    )
    for metric in contract["end_to_end"]:
        value = result["end_to_end"][metric["name"]]
        print(f"   {metric['name']:<24}{value:>16.6f} {metric['unit']:<10} "
              f"{metric['better']} is better, may worsen {metric['bound']:.0%}")
    print("   -- per layer" + ("" if result["traced"] else " (counts; --trace 1 adds times)"))
    units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    for name in sorted(result["per_layer"]):
        print(f"   {name:<32}{result['per_layer'][name]:>16.6f} {units.get(name, '?')}")
    if result["traced"]:
        print("   -- traced pass: self time = span - children")
        print(f"   {'span':<32}{'count':>8}{'total_s':>12}{'self_s':>12}")
        for row in result["span_table"]:
            print(f"   {row['name']:<32}{row['count']:>8}{row['total_s']:>12.4f}"
                  f"{row['self_s']:>12.4f}")
    for failure in result["failures"]:
        print(f"   CHECK FAILED: {failure}")


def result_line(result: dict, contract: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": emitted(result, contract),
    })


def workload_names(contract: dict) -> list[str]:
    return [w["name"] for w in contract["workloads"]] + list(UNGATED_WORKLOADS)


def run_all(args, contract: dict) -> list[dict]:
    """Every workload, each in a subprocess of its own; their reports stream
    through, their full results come back through a scratch file."""
    results = []
    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=HERE) as scratch:
        for name in workload_names(contract):
            out = Path(scratch) / f"{name}.json"
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", str(out),
            ]
            finished = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            # the child's own result line is for the driver; drop it here
            sys.stdout.write("\n".join(finished.stdout.splitlines()[:-1]) + "\n")
            sys.stdout.flush()
            if not out.exists():
                raise SystemExit(
                    f"perfbench: {name} exited {finished.returncode} "
                    "without a result"
                )
            results.append(json.loads(out.read_text()))
    return results


def quartiles(values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.3f} [{q1:.3f} {q3:.3f}]"


def agree(args, contract: dict) -> bool:
    """Two full sets back to back: exact metrics identical, wall within bound."""
    first, second = run_all(args, contract), run_all(args, contract)
    ok = True
    print("== agreement: set A vs set B (median [q1 q3] of timed passes)")
    for a, b in zip(first, second):
        print(f"   {a['workload']}: wall_s A {quartiles(a['wall_samples'])} "
              f"n={len(a['wall_samples'])} | B {quartiles(b['wall_samples'])} "
              f"n={len(b['wall_samples'])}")
        for metric in contract["end_to_end"]:
            name = metric["name"]
            x, y = a["end_to_end"][name], b["end_to_end"][name]
            if name in WALL_METRICS:
                verdict = abs(y - x) <= metric["bound"] * x
                rule = f"within {metric['bound']:.0%}"
                # an ungated workload's clock is the disk's: shown, not failed
                counts = a["workload"] not in UNGATED_WORKLOADS
            else:
                verdict, rule, counts = x == y, "identical", True
            ok = ok and (verdict or not counts) and a["correct"] and b["correct"]
            print(f"      {name:<20}{x:>16.6f}{y:>16.6f} {metric['unit']:<10} "
                  f"{rule:<12}{'ok' if verdict else 'DISAGREE'}")
    return ok


def main() -> int:
    contract = load_contract()
    names = workload_names(contract)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: all, one subprocess each")
    parser.add_argument("--seed", type=int, default=0, help="the only input knob")
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"],
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 adds the decomposed pass and per-layer times")
    parser.add_argument("--out", type=Path, help="write full results and spans here")
    parser.add_argument("--agree", action="store_true",
                        help="run two full sets and compare them")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure at {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.agree:
        return 0 if agree(args, contract) else 1
    if args.workload is None:
        results = run_all(args, contract)
        if args.out is not None:
            args.out.write_text(json.dumps(results))
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{r['workload']}/{name}": entry
                for r in results for name, entry in emitted(r, contract).items()
            },
        }))
        return 0 if all(r["correct"] for r in results) else 1

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in header():
        print(line)
    print_report(result, contract)
    if args.out is not None:
        args.out.write_text(json.dumps(result))
    print(result_line(result, contract))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command line of the benchmark.

``one``      one pass of one workload in this process — what the driver
             runs (through ``run.py``) with ``--workload --seed --seconds
             --trace``; the last stdout line is the result object.
``run``      every workload, each pass in a fresh child process: the
             untraced pass (repeated ``--repeats`` times on consecutive
             seeds) for the end-to-end metrics, one traced pass for the
             per-layer metrics; prints every metric and writes a result
             file.
``compare``  two result files, one row per workload x end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

from .spec import (
    OUT_DIR,
    ROOT,
    Declaration,
    Metric,
    PassResult,
    load_declaration,
)
from .stats import machine_stamp

# ----------------------------------------------------------------------
# one
# ----------------------------------------------------------------------


def run_pass(workload: str, seed: int, seconds: float, trace: bool) -> PassResult:
    """Dispatch one pass to the workload's implementation."""
    if workload == "serve_ops":
        from .serve_ops import run_serve_pass

        return run_serve_pass(seed, seconds, trace)
    from .fleet import FLEET_WORKLOADS, run_fleet_pass

    spans = OUT_DIR / f"{workload}.spans.jsonl" if trace else None
    return run_fleet_pass(
        FLEET_WORKLOADS[workload], seed, seconds, trace, spans
    )


def cmd_one(args: argparse.Namespace, declared: Declaration) -> int:
    """One pass; detail line, then the result line, on stdout."""
    result = run_pass(args.workload, args.seed, args.seconds, bool(args.trace))
    wanted = declared.per_layer if args.trace else declared.end_to_end
    if not args.trace:
        missing = [m.name for m in wanted if m.name not in result.metrics]
        if missing:
            raise RuntimeError(f"pass did not measure {missing}")
    extra = {
        name: value
        for name, value in result.metrics.items()
        if name not in {m.name for m in wanted}
    }
    detail = {**result.detail, "checks": result.checks, "extra_metrics": extra}
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    # A layer the workload never enters reads 0.
                    m.name: {
                        "value": result.metrics.get(m.name, 0.0),
                        "unit": m.unit,
                    }
                    for m in wanted
                },
            }
        )
    )
    return 0 if result.correct else 1


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------


def _child_pass(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run ``one`` in a fresh interpreter; flatten its two JSON lines."""
    completed = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).with_name("run.py")),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(int(trace)),
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=900,
    )
    lines = completed.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(
            f"{workload} pass (trace={int(trace)}) printed no result "
            f"(exit {completed.returncode})"
        )
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    values = detail.pop("extra_metrics")
    values.update({k: v["value"] for k, v in result.pop("metrics").items()})
    return {**result, **detail, "seed": seed, "values": values}


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def _spread(values: list[float]) -> float | None:
    """Inter-quartile range as a share of the median (None under 2 runs)."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    center = statistics.median(values)
    return (q3 - q1) / center if center else 0.0


def _end_to_end(metrics: tuple[Metric, ...], runs: list[dict]) -> dict:
    """Collect and print each end-to-end metric over the untraced runs."""
    collected = {}
    for metric in metrics:
        values = [
            run["values"][metric.name]
            for run in runs
            if metric.name in run["values"]
        ]
        if not values:
            continue  # too few CAP ticks in every window
        collected[metric.name] = {
            "values": values,
            "unit": metric.unit,
            "better": metric.better,
            "bound": metric.bound,
        }
        spread = _spread(values)
        print(
            f"  {metric.name:<20} {_fmt(statistics.median(values)):>10} "
            f"{metric.unit:<8} {metric.better} is better, "
            f"bound {metric.bound:.0%}"
            + (f", spread {spread:.1%}" if spread is not None else "")
        )
    timing = runs[0].get("cycle_ms") or runs[0].get("request_ms") or {}
    if "tail_pct" in timing:
        print(
            f"  (seed {runs[0]['seed']}: p50 {_fmt(timing['p50'])} ms, "
            f"p{timing['tail_pct']:g} {_fmt(timing['tail'])} ms, "
            f"n={timing['n']})"
        )
    return collected


def _per_layer(declared: Declaration, untraced_p50: float, traced: dict) -> dict:
    """Print the traced pass's layers; add the tracing overhead."""
    layers = {
        name: traced["values"][name] for name in (m.name for m in declared.per_layer)
    }
    layers["trace.overhead_frac"] = (
        layers["driver.cycle_ms_p50"] / untraced_p50 - 1.0
    )
    units = {m.name: m.unit for m in declared.per_layer}
    for name, value in layers.items():
        if value:
            print(f"  {name:<36} {_fmt(value):>10} {units.get(name, 'frac')}")
    idle = [name for name, value in layers.items() if not value]
    print(f"  0 on this workload: {', '.join(idle)}")
    return layers


def cmd_run(args: argparse.Namespace, declared: Declaration) -> int:
    """Every requested workload, both passes; print and save."""
    seconds = args.seconds or declared.run_seconds
    report: dict = {
        "stamp": machine_stamp(ROOT),
        "seed": args.seed,
        "repeats": args.repeats,
        "seconds": seconds,
        "workloads": {},
    }
    failures: list[str] = []
    for workload in args.workload or list(declared.workloads):
        print(f"\n== {workload} — {declared.workloads[workload]}")
        runs = [
            _child_pass(workload, args.seed + r, seconds, trace=False)
            for r in range(args.repeats)
        ]
        entry: dict = {
            "end_to_end": _end_to_end(declared.bounded_metrics(workload), runs),
            "runs": runs,
        }
        if not args.no_trace:
            traced = _child_pass(workload, args.seed, seconds, trace=True)
            untraced_p50 = statistics.median(
                entry["end_to_end"]["op_ms_p50"]["values"]
            )
            entry["per_layer"] = _per_layer(declared, untraced_p50, traced)
            entry["traced_run"] = traced
            if traced.get("checkpoint") != runs[0].get("checkpoint"):
                failures.append(f"{workload}: passes diverged at the checkpoint")
            runs = [*runs, traced]
        failures += [
            f"{workload} seed {run['seed']}: {name}"
            for run in runs
            for name, passed in run["checks"].items()
            if not passed
        ]
        report["workloads"][workload] = entry
    print("\nchecks: " + ("all pass" if not failures else "FAILED"))
    for failure in failures:
        print(f"  {failure}")
    if args.out:
        Path(args.out).write_text(
            json.dumps(report, indent=1) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.out}")
    return 1 if failures else 0


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def compare_metric(
    metric: Metric, a: list[float], b: list[float]
) -> tuple[str, float]:
    """``ok`` / ``worse`` / ``unresolved`` and B's worsening over A.

    Worsening is the change of the median in the bad direction as a
    share of A's median.  A row is ``unresolved`` when the run-to-run
    spread of either side is wider than the bound, unless every run of
    B reads better than every run of A.
    """
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = -1.0 if metric.better == "higher" else 1.0
    change = sign * (med_b - med_a)
    if med_a == 0.0:  # failed_frac: any rise from zero is unbounded
        worsening = math.copysign(math.inf, change) if change else 0.0
    else:
        worsening = change / abs(med_a)
    bound = metric.bound or 0.0
    if worsening > bound:
        return "worse", worsening
    spread = max(_spread(a) or 0.0, _spread(b) or 0.0)
    if metric.better == "higher":
        b_always_better = min(b) > max(a)
    else:
        b_always_better = max(b) < min(a)
    if spread > bound and not b_always_better:
        return "unresolved", worsening
    return "ok", worsening


def cmd_compare(args: argparse.Namespace, declared: Declaration) -> int:
    """Print one row per workload x end-to-end metric; 1 if any is worse."""
    a = json.loads(Path(args.a).read_text(encoding="utf-8"))
    b = json.loads(Path(args.b).read_text(encoding="utf-8"))
    counts = {"ok": 0, "worse": 0, "unresolved": 0}
    print(
        f"{'workload':<14}{'metric':<20}{'A':>11}{'B':>11}  "
        f"{'change':>8}{'bound':>7}  status"
    )
    for workload in declared.workloads:
        runs_a = a["workloads"].get(workload, {}).get("end_to_end", {})
        runs_b = b["workloads"].get(workload, {}).get("end_to_end", {})
        for metric in declared.bounded_metrics(workload):
            if metric.name not in runs_a or metric.name not in runs_b:
                continue
            va = runs_a[metric.name]["values"]
            vb = runs_b[metric.name]["values"]
            status, worsening = compare_metric(metric, va, vb)
            counts[status] += 1
            print(
                f"{workload:<14}{metric.name:<20}"
                f"{_fmt(statistics.median(va)):>11}"
                f"{_fmt(statistics.median(vb)):>11}  "
                f"{worsening:>+8.1%}{metric.bound:>7.0%}  {status}"
            )
    print(
        f"\n{counts['ok']} ok, {counts['worse']} worse, "
        f"{counts['unresolved']} unresolved  "
        "(change: + is worse, as a share of A's median)"
    )
    return 1 if counts["worse"] else 0


# ----------------------------------------------------------------------
# entry
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    """Parse and dispatch."""
    declared = load_declaration()
    names = list(declared.workloads)
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    sub = parser.add_subparsers(dest="command", required=True)

    one = sub.add_parser("one", help="one pass of one workload (driver entry)")
    one.add_argument("--workload", required=True, choices=names)
    one.add_argument("--seed", type=int, default=0)
    one.add_argument("--seconds", type=float, default=declared.run_seconds)
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)

    run = sub.add_parser("run", help="all workloads, both passes")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--workload", action="append", choices=names)
    run.add_argument("--repeats", type=int, default=1)
    run.add_argument("--seconds", type=float, default=None)
    run.add_argument("--no-trace", action="store_true")
    run.add_argument("--out", default=None)

    compare = sub.add_parser("compare", help="compare two result files")
    compare.add_argument("a")
    compare.add_argument("b")

    args = parser.parse_args(argv)
    handler = {"one": cmd_one, "run": cmd_run, "compare": cmd_compare}
    return handler[args.command](args, declared)

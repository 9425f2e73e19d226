"""Command line of the macro benchmark.

Three ways in:

* **one run** (what the acceptance driver calls)::

      python3 -m macrobench --workload W --seed N --seconds S --trace 0|1

  measures one workload in this process and prints the result object as
  the last line of standard output;

* **everything** (``python3 -m macrobench --seed 11``): each workload in
  its own sequential subprocess, first untraced then traced, printing
  every end-to-end and per-layer metric with unit and sample count;

* **repeatability** (``--check-repeat N``): N untraced passes, each on
  another seed as the driver does it, then median, quartiles and spread of
  every end-to-end metric against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from . import catalog

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m macrobench",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(catalog.WORKLOADS),
                        help="measure this one workload in-process")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply population sizes (CI smoke: 0.05)")
    parser.add_argument("--only", choices=list(catalog.WORKLOADS),
                        help="restrict the full run or check to one workload")
    parser.add_argument("--check-repeat", type=int, nargs="?", const=5,
                        metavar="N", help="N untraced passes; fail on spread")
    parser.add_argument("--write-baseline", action="store_true",
                        help="after the full run, rewrite baseline.json")
    parser.add_argument("--manifest", action="store_true",
                        help="print BENCHMARK.json as the catalog defines it")
    parser.add_argument("--report", type=Path, help=argparse.SUPPRESS)
    return parser


# -- one run ------------------------------------------------------------------


def _print_report(report: dict) -> None:
    result = report["result"]
    print(
        f"# {report['workload']}  seed={report['seed']} scale={report['scale']}"
        f" trace={report['trace']} reps={report['reps']}"
        f" measured={report['measured_s']:.2f}s"
        f" attempted={result['attempted']} failed={result['failed']}"
    )
    for name, entry in result["metrics"].items():
        n = report["sample_counts"].get(name)
        samples = f"  n={n}" if n is not None else ""
        print(f"{name:40s} {entry['value']:>16.6g} {entry['unit']}{samples}")
    for failure in report["failures"]:
        print(f"FAILED {failure}")


def run_one(args) -> int:
    from . import harness, workloads

    workload = workloads.load(args.workload)
    report = harness.run_workload(
        workload, args.seed, args.seconds, bool(args.trace), args.scale,
        trace_path=OUT / f"trace_{args.workload}.json",
    )
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(json.dumps(report, indent=1, sort_keys=True))
    _print_report(report)
    print(json.dumps(report["result"]))
    for failure in report["failures"]:
        print(f"macrobench: {args.workload}: failed: {failure}",
              file=sys.stderr)
    return 1 if report["failures"] else 0


# -- subprocess orchestration ---------------------------------------------------


def _spawn(workload: str, seed: int, seconds: float, trace: int,
           scale: float) -> dict:
    """Run one workload in a child process; returns its report."""
    report_path = OUT / f"report_{workload}_trace{trace}.json"
    command = [
        sys.executable, "-m", "macrobench", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--scale", str(scale), "--report", str(report_path),
    ]
    done = subprocess.run(command, cwd=HERE.parent, stdout=subprocess.PIPE,
                          text=True, check=False)
    if not report_path.exists() or done.returncode not in (0, 1):
        sys.stdout.write(done.stdout)
        raise SystemExit(
            f"macrobench: {workload} (trace {trace}) exited "
            f"{done.returncode} without a report"
        )
    report = json.loads(report_path.read_text())
    report["stdout"] = done.stdout
    return report


def _selected(args) -> list[str]:
    return [args.only] if args.only else list(catalog.WORKLOADS)


def run_all(args) -> int:
    failed = False
    points = {}
    for workload in _selected(args):
        for trace in (0, 1):
            report = _spawn(workload, args.seed, args.seconds, trace,
                            args.scale)
            # The child's table, without its machine-readable last line.
            sys.stdout.write(report["stdout"].rsplit("\n", 2)[0] + "\n\n")
            failed |= bool(report["failures"])
            points.setdefault(workload, {})[f"trace{trace}"] = {
                key: report[key] for key in
                ("reps", "measured_s", "sample_counts", "deterministic",
                 "rep_raw_wall_s", "rep_slowdown")
            } | {"metrics": report["result"]["metrics"],
                 "attempted": report["result"]["attempted"],
                 "failed": report["result"]["failed"]}
    if args.write_baseline and not failed:
        import numpy

        baseline = {
            "seed": args.seed,
            "scale": args.scale,
            "seconds": args.seconds,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "workloads": points,
        }
        (HERE / "baseline.json").write_text(
            json.dumps(baseline, indent=1, sort_keys=True) + "\n"
        )
        print(f"wrote {HERE / 'baseline.json'}")
    return 1 if failed else 0


# -- repeatability --------------------------------------------------------------


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median), quartiles as the driver takes."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return mid, q1, q3, (q3 - q1) / mid if mid else 0.0


def check_repeat(args) -> int:
    passes = args.check_repeat
    if passes < 2:
        raise SystemExit("--check-repeat needs at least 2 passes")
    bounds = {m.name: m.bound for m in catalog.END_TO_END}
    exceeded = False
    wrong = False
    for workload in _selected(args):
        runs = [
            _spawn(workload, args.seed + i, args.seconds, 0, args.scale)
            for i in range(passes)
        ]
        wrong |= any(run["failures"] for run in runs)
        print(f"# {workload}: {passes} passes, seeds {args.seed}.."
              f"{args.seed + passes - 1}")
        print(f"{'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
              f" {'spread':>8s} {'bound':>6s} {'derived':>8s}")
        for name, bound in bounds.items():
            values = [run["result"]["metrics"][name]["value"] for run in runs]
            mid, q1, q3, rel = spread(values)
            derived = min(0.25, max(0.10, 2.0 * rel))
            # The driver does not hold set-up time to its spread.
            over = rel > bound and name != "setup_s"
            exceeded |= over
            print(f"{name:16s} {mid:12.6g} {q1:12.6g} {q3:12.6g}"
                  f" {rel:8.4f} {bound:6.2f} {derived:8.2f}"
                  f"{'  EXCEEDS BOUND' if over else ''}")
        # For the record: what the wall looks like before normalisation.
        raw = [statistics.median(run["rep_raw_wall_s"]) for run in runs]
        mid, q1, q3, rel = spread(raw)
        print(f"{'(raw wall_s)':16s} {mid:12.6g} {q1:12.6g} {q3:12.6g}"
              f" {rel:8.4f}")
        print()
    if wrong:
        print("macrobench: an oracle failed during the passes", file=sys.stderr)
    return 1 if exceeded or wrong else 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.manifest:
        print(json.dumps(catalog.manifest(), indent=2))
        return 0
    if args.workload is not None:
        return run_one(args)
    if args.check_repeat is not None:
        return check_repeat(args)
    return run_all(args)

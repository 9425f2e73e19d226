"""Paired parent/change macrobench runs, with the verdict on a gain.

Usage:  python benchmarks/paired_macro.py BASE_TREE HEAD_TREE --workload W
            [--seed 11] [--pairs 10] [--seconds 12] [--trace 0]

Runs ``python3 -m macrobench --workload W --seed S --scale 1 --seconds S
--trace T`` in each tree (each tree's own ``macrobench/`` against its own
``src/``), ``--pairs`` times, alternating which tree runs first: pair 0
runs the base first, pair 1 the head, and so on.  For every metric both
sides report whose direction ``BENCHMARK.json`` names, it prints each
side's median and quartiles, the change's relative move, its wins over
the pairs (ties count for neither side) and the verdict on a gain: the
change won at least nine tenths of all pairs, and its median is better
than the parent's by more than the parent's interquartile range.
Each end-to-end metric also gets the verdict on a regression against its
``bound`` in ``BENCHMARK.json`` (a relative change): inside the bound,
worse beyond it, or unresolved when the parent's interquartile range,
relative to its median, is wider than the bound.
A run that reports ``correct: false`` or failed operations is named.
Report-only: exits 0 unless a run itself fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

from compare_macro_counts import WORKLOADS, measure

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def directions(path: Path = BENCHMARK) -> dict[str, str]:
    """``{metric: "lower" | "higher"}``: which way each declared metric
    is better."""
    declared = json.loads(path.read_text())
    return {
        metric["name"]: metric["better"]
        for metric in declared["end_to_end"] + declared["per_layer"]
    }


def bounds(path: Path = BENCHMARK) -> dict[str, float]:
    """``{metric: bound}`` for every end-to-end metric: how far, as a
    fraction of the parent's value, the change may move it the wrong
    way."""
    declared = json.loads(path.read_text())
    return {metric["name"]: metric["bound"] for metric in declared["end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated linearly
    between order statistics (numpy's default percentile rule)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(base: list[float], head: list[float], better: str) -> dict:
    """The paired comparison of one metric; ``base[i]`` and ``head[i]``
    are pair ``i``.  ``gain`` holds when the head wins at least nine
    tenths of the pairs and its median beats the base's by more than the
    base's interquartile range."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
    losses = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    b_q1, b_median, b_q3 = quartiles(base)
    h_q1, h_median, h_q3 = quartiles(head)
    iqr = b_q3 - b_q1
    return {
        "base": (b_q1, b_median, b_q3),
        "head": (h_q1, h_median, h_q3),
        "change": (h_median - b_median) / b_median if b_median else 0.0,
        "wins": wins,
        "losses": losses,
        "pairs": len(base),
        "iqr": iqr,
        "gain": 10 * wins >= 9 * len(base)
        and sign * (b_median - h_median) > iqr,
    }


def regression(v: dict, better: str, bound: float) -> str:
    """The no-regression verdict on one metric's :func:`verdict`:
    ``"unresolved"`` when the parent's IQR is wider than ``bound`` of its
    median, else ``"worse beyond bound"`` when the median moved the
    wrong way by more than ``bound``, else ``"inside bound"``."""
    b_median = v["base"][1]
    if b_median and v["iqr"] > bound * abs(b_median):
        return "unresolved"
    worse = v["change"] if better == "lower" else -v["change"]
    return "worse beyond bound" if worse > bound else "inside bound"


def line(name: str, v: dict) -> str:
    """One report line for one metric's :func:`verdict`."""
    b_q1, b_median, b_q3 = v["base"]
    h_q1, h_median, h_q3 = v["head"]
    return (
        f"{name:28s} base {b_median:.6g} [{b_q1:.6g}, {b_q3:.6g}]"
        f"  head {h_median:.6g} [{h_q1:.6g}, {h_q3:.6g}]"
        f"  {100 * v['change']:+.1f} %  wins {v['wins']}/{v['pairs']}"
        f" (losses {v['losses']})  base IQR {v['iqr']:.3g}"
        f"  {'GAIN' if v['gain'] else 'no gain'}"
    )


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    extra = ["--seed", str(args.seed), "--scale", "1",
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trees = (args.base, args.head)
    base, head = runs = ([], [])
    for pair in range(args.pairs):
        for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
            runs[side].append(measure(trees[side], args.workload, extra))
    for side, results in zip(("base", "head"), runs):
        for pair, result in enumerate(results):
            if not result["correct"] or result["failed"]:
                print(f"{side} pair {pair}: correct={result['correct']} "
                      f"failed={result['failed']}")
    better, bound = directions(), bounds()
    print(f"{args.workload} seed={args.seed} pairs={args.pairs} "
          f"seconds={args.seconds} trace={args.trace}")
    for name in base[0]["metrics"]:
        if name in better and all(name in r["metrics"] for r in base + head):
            v = verdict(
                [r["metrics"][name]["value"] for r in base],
                [r["metrics"][name]["value"] for r in head],
                better[name],
            )
            text = line(name, v)
            if name in bound:
                text += (f"  {regression(v, better[name], bound[name])}"
                         f" (bound {100 * bound[name]:.0f} %)")
            print(text)


if __name__ == "__main__":
    main()

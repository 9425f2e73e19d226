"""Perf-regression gate for the committed benchmark baselines.

Usage:  python benchmarks/check_regression.py [--suite {e27,e28,e29,e30,e31,all}]
                                              [--baseline PATH] [--current PATH]

Re-measures each selected suite (or loads ``--current`` if given, valid
only with a single ``--suite``) and checks it against the committed
``BENCH_<suite>.json`` with the gates the suite's ``bench_*.py`` exports
as ``GATES``: ``(kind, name-glob[, bound])`` tuples, each with its reason
beside it.  Globs match the baseline's ``deterministic`` names; a bound
is ``"baseline"`` (the committed value of that name) or ``"meta:<key>"``
(the committed payload's ``meta``).  Kinds:

* ``flag`` — an invariant that is 1 in the baseline is still 1;
* ``floor`` / ``ceiling`` — current ``>=`` / ``<=`` bound;
* ``positive`` — current ``> 0`` (the drill still bites).

The baselines hold no wall-clock values: ``macrobench`` measures those
end to end.  Exits nonzero on any violated gate.
"""

from __future__ import annotations

import argparse
import io
import json
import operator
import sys
from fnmatch import fnmatchcase
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

SUITES = {
    "e27": "bench_hotpath",
    "e28": "bench_lifecycle",
    "e29": "bench_elasticity",
    "e30": "bench_geo",
    "e31": "bench_semantic",
}


def measure(suite: str, bench, artifacts_dir: str) -> dict:
    if suite == "e27":
        # Its full-run report() rewrites the committed baseline.
        payload = bench.bench_payload(*bench.collect(smoke=False), smoke=False)
    else:
        payload = bench.report(
            file=io.StringIO(), smoke=False, artifacts_dir=artifacts_dir
        )
    current_path = Path(artifacts_dir) / f"BENCH_{suite}_current.json"
    current_path.parent.mkdir(parents=True, exist_ok=True)
    current_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[current measurement: {current_path}]")
    return payload


_OPS = {">=": operator.ge, "<=": operator.le, ">": operator.gt}


def _bound(kind: str, spec: list, base: float, meta: dict):
    """(comparison, bound) of one non-flag gate."""
    if kind == "positive":
        return ">", 0
    bound = base if spec[0] == "baseline" else meta[spec[0].removeprefix("meta:")]
    return (">=" if kind == "floor" else "<="), bound


def check(gates: list, baseline: dict, current: dict) -> list[str]:
    """Every violated gate, as one message each."""
    base_values = baseline["deterministic"]
    cur_values = current["deterministic"]
    failures = []
    for kind, pattern, *spec in gates:
        names = [name for name in base_values if fnmatchcase(name, pattern)]
        if not names:
            failures.append(f"{pattern}: gate matches nothing in the baseline")
        for name in names:
            base, cur = base_values[name], cur_values.get(name)
            if kind == "flag":
                if base == 1 and cur != 1:
                    failures.append(f"{name}: invariant flag lost ({cur!r})")
                continue
            op, bound = _bound(kind, spec, base, baseline["meta"])
            ok = cur is not None and _OPS[op](cur, bound)
            _row(name, base, cur, f"bound {op} {bound:,.3f}  "
                                  f"[{'ok' if ok else 'REGRESSED'}]")
            if not ok:
                failures.append(f"{name}: {cur!r} violates {kind} {op} {bound}")
    return failures


def _row(name: str, base: float, cur: "float | None", verdict: str) -> None:
    cur = float("nan") if cur is None else cur
    print(f"{name:>40}: baseline {base:12,.3f}  current {cur:12,.3f}  {verdict}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON; defaults to the committed "
                             "BENCH_<suite>.json (single --suite only)")
    parser.add_argument("--current", default=None,
                        help="existing measurement JSON; re-measures if "
                             "omitted (single --suite only)")
    parser.add_argument("--artifacts-dir", default="benchmarks/artifacts")
    args = parser.parse_args()

    selected = list(SUITES) if args.suite == "all" else [args.suite]
    if (args.baseline or args.current) and len(selected) != 1:
        parser.error("--baseline/--current require a single --suite")

    sys.path[:0] = [str(REPO_ROOT / "benchmarks"), str(REPO_ROOT / "src")]
    failures: list[str] = []
    for suite in selected:
        bench = __import__(SUITES[suite])
        baseline_path = args.baseline or str(REPO_ROOT / f"BENCH_{suite}.json")
        baseline = json.loads(Path(baseline_path).read_text())
        if args.current is not None:
            current = json.loads(Path(args.current).read_text())
        else:
            current = measure(suite, bench, args.artifacts_dir)
        print(f"== {suite}: vs {baseline_path} ==")
        suite_failures = check(bench.GATES, baseline, current)
        failures += [f"[{suite}] {failure}" for failure in suite_failures]

    if failures:
        print(f"\n{len(failures)} regression(s):")
        for failure in failures:
            print(f"  - {failure}")
        sys.exit(1)
    print("\nno regressions vs committed baselines")


if __name__ == "__main__":
    main()

"""Perf-regression gate for the committed benchmark baselines.

Usage:  python benchmarks/check_regression.py [--suite {e27,e28,e29,e30,e31,all}]
                                              [--baseline PATH] [--current PATH]
                                              [--tolerance 0.2]

Re-measures each selected suite (or loads ``--current`` if given, valid
only with a single ``--suite``) and compares it against the committed
baseline at the repo root.

E27 (``BENCH_e27.json``, hot-path trajectory):

* every ``*.speedup_wall`` ratio must stay within ``tolerance`` (default
  20%) of the baseline — ratios are columnar-vs-per-record on the *same*
  machine and run, so they transfer across hosts where raw ops/sec
  numbers would not;
* every ``*.identical`` flag must still be 1 (a fast-but-wrong hot path
  is a regression, not an optimisation);
* the coalesced RPC count must not exceed the baseline's (O(nodes) is a
  property, not a measurement).

E28 (``BENCH_e28.json``, data-lifecycle recovery):

* every conservation / identity flag must still be 1 — checkpointing,
  compaction, and tiering may never lose a committed unit or corrupt a
  value;
* recovery replay work (snapshot + WAL suffix entries) and promotion
  replay entries must not exceed the baseline — recovery cost is a
  function of live state, so these counts are host-independent;
* the recovery wall-clock ratio (100x history / 1x history, same host)
  must stay flat: within the suite's 1.5x bound and within ``tolerance``
  of the committed ratio.

E29 (``BENCH_e29.json``, closed-loop elasticity):

* every identity / conservation / ``_ok`` flag must still be 1 —
  scaling may never change a purchase outcome, salting may never lose
  stock, and shedding may never drop a physical-space record;
* the elastic cluster's flash-spike SLO attainment must stay at or
  above the suite's absolute floor (``attainment_min`` in the payload
  meta) relative to the static 8-shard cluster;
* its diurnal node-hours must stay at or below the absolute ceiling
  (``node_hours_max``) relative to static provisioning — both are
  simulated-clock ratios, so they transfer across hosts exactly.

E30 (``BENCH_e30.json``, geo-distribution):

* every availability / conservation / identity flag must still be 1 —
  a region kill or WAN partition may never lose a committed unit of
  stock, leave replicas diverged after reconvergence, or let a
  linearizable read hang past its deadline;
* the linearizable fail-fast latency under partition must stay at or
  below the suite's absolute bound (``failfast_bound_s`` in the
  payload meta) — it is simulated-clock time, host-independent;
* replication lag and staleness must still *peak above zero* during
  the partition: a partition that no longer produces lag means the
  scenario stopped exercising the WAN.

E31 (``BENCH_e31.json``, sharded semantic retrieval):

* recall@10 against the exact brute-force oracle must stay at or above
  the suite's absolute floor (``recall_floor`` in the payload meta) and
  the distance-eval speedup at or above ``speedup_floor`` — both are
  counts over seeded streams, host-independent;
* the merged top-k must stay identical across 1-vs-2 and 1-vs-4 shard
  deployments (a shard-dependent answer is a correctness regression);
* the per-shard index-build makespan must still shrink monotonically
  as shards are added.

Exits nonzero on the first violated bound, so CI can gate on it.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

E28_RECOVERY_RATIO_BOUND = 1.5


def _write_current(payload: dict, artifacts_dir: str, basename: str) -> None:
    out = Path(artifacts_dir)
    out.mkdir(parents=True, exist_ok=True)
    current_path = out / basename
    current_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[current measurement: {current_path}]")


def _import_bench(module_name: str):
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    return __import__(module_name)


def measure_e27(artifacts_dir: str) -> dict:
    bench_hotpath = _import_bench("bench_hotpath")
    payload = bench_hotpath.bench_payload(
        *bench_hotpath.collect(smoke=False), smoke=False
    )
    _write_current(payload, artifacts_dir, "BENCH_e27_current.json")
    return payload


#: Suites whose bench module exposes ``report(file, smoke, artifacts_dir)``
#: returning the payload (E27 predates that shape and keeps its own
#: measure function above).
REPORT_MODULES = {
    "e28": "bench_lifecycle",
    "e29": "bench_elasticity",
    "e30": "bench_geo",
    "e31": "bench_semantic",
}


def measure_report(suite: str, artifacts_dir: str) -> dict:
    payload = _import_bench(REPORT_MODULES[suite]).report(
        file=io.StringIO(), smoke=False, artifacts_dir=artifacts_dir
    )
    _write_current(payload, artifacts_dir, f"BENCH_{suite}_current.json")
    return payload


def check_flags(baseline: dict, current: dict) -> list[str]:
    """Identity/conservation flags that were 1 in the baseline stay 1."""
    failures = []
    for name, base in baseline["deterministic"].items():
        flag = (name.endswith(".identical") or ".conserved" in name
                or name.endswith("_ok"))
        if not flag or base != 1:
            continue
        value = current["deterministic"].get(name)
        if value != 1:
            failures.append(f"{name}: invariant flag lost ({value!r})")
    return failures


def check_e27(baseline: dict, current: dict, tolerance: float) -> list[str]:
    failures = check_flags(baseline, current)

    base_rpcs = baseline["deterministic"]["storage.rpcs_coalesced"]
    cur_rpcs = current["deterministic"]["storage.rpcs_coalesced"]
    if cur_rpcs > base_rpcs:
        failures.append(
            f"storage.rpcs_coalesced: {cur_rpcs} > baseline {base_rpcs}"
        )

    for name, base in baseline["wall_clock"].items():
        if not name.endswith("speedup_wall"):
            continue
        cur = current["wall_clock"].get(name)
        if cur is None:
            failures.append(f"{name}: missing from current run")
            continue
        floor = base * (1.0 - tolerance)
        status = "ok" if cur >= floor else "REGRESSED"
        print(f"{name:>40}: baseline {base:6.2f}x  current {cur:6.2f}x  "
              f"floor {floor:6.2f}x  [{status}]")
        if cur < floor:
            failures.append(
                f"{name}: {cur:.2f}x below floor {floor:.2f}x "
                f"(baseline {base:.2f}x - {tolerance:.0%})"
            )
    return failures


def check_e28(baseline: dict, current: dict, tolerance: float) -> list[str]:
    failures = check_flags(baseline, current)

    # Replay work is a pure count of entries (snapshot + suffix, or
    # entries folded during replica promotion) — host-independent, and
    # growing it means recovery cost crept back toward history size.
    ceilinged = (
        "recovery.snapshot_entries",
        "recovery.wal_entries",
        "failover.promotion_replayed_grown",
    )
    for name in ceilinged:
        base = baseline["deterministic"][name]
        cur = current["deterministic"].get(name)
        status = "ok" if cur is not None and cur <= base else "REGRESSED"
        print(f"{name:>40}: baseline {base:9,.0f}  current "
              f"{cur if cur is not None else float('nan'):9,.0f}  [{status}]")
        if cur is None or cur > base:
            failures.append(f"{name}: {cur!r} > baseline {base}")

    base_ratio = baseline["wall_clock"]["recovery.time_ratio"]
    cur_ratio = current["wall_clock"].get("recovery.time_ratio")
    bound = min(E28_RECOVERY_RATIO_BOUND, base_ratio * (1.0 + tolerance))
    status = "ok" if cur_ratio is not None and cur_ratio <= bound else "REGRESSED"
    print(f"{'recovery.time_ratio':>40}: baseline {base_ratio:6.2f}x  current "
          f"{cur_ratio if cur_ratio is not None else float('nan'):6.2f}x  "
          f"bound {bound:6.2f}x  [{status}]")
    if cur_ratio is None or cur_ratio > bound:
        failures.append(
            f"recovery.time_ratio: {cur_ratio!r} above bound {bound:.2f}x "
            f"(min of {E28_RECOVERY_RATIO_BOUND}x flatness bound and "
            f"baseline {base_ratio:.2f}x + {tolerance:.0%})"
        )
    return failures


def check_e29(baseline: dict, current: dict, tolerance: float) -> list[str]:
    failures = check_flags(baseline, current)

    # Both ratios are computed on the simulated clock, so they are
    # host-independent: gate against the suite's absolute bounds (from
    # the baseline's meta), not a tolerance band around the baseline.
    bounds = (
        ("spike.attainment_ratio", baseline["meta"]["attainment_min"], ">="),
        ("diurnal.node_hours_ratio", baseline["meta"]["node_hours_max"], "<="),
    )
    for name, bound, op in bounds:
        base = baseline["deterministic"][name]
        cur = current["deterministic"].get(name)
        ok = cur is not None and (cur >= bound if op == ">=" else cur <= bound)
        status = "ok" if ok else "REGRESSED"
        print(f"{name:>40}: baseline {base:6.3f}  current "
              f"{cur if cur is not None else float('nan'):6.3f}  "
              f"bound {op} {bound:4.2f}  [{status}]")
        if not ok:
            failures.append(f"{name}: {cur!r} violates bound {op} {bound}")

    # The controller must still exercise its full range on the spike.
    for name in ("spike.elastic_max_shards", "purchases.scale_outs"):
        base = baseline["deterministic"][name]
        cur = current["deterministic"].get(name)
        if cur is None or cur < base:
            failures.append(f"{name}: {cur!r} < baseline {base}")
    return failures


def check_e30(baseline: dict, current: dict, tolerance: float) -> list[str]:
    failures = check_flags(baseline, current)

    # Fail-fast latency is simulated-clock time: gate against the
    # suite's absolute deadline bound, not a band around the baseline.
    bound = baseline["meta"]["failfast_bound_s"]
    base = baseline["deterministic"]["partition.failfast_latency_s"]
    cur = current["deterministic"].get("partition.failfast_latency_s")
    ok = cur is not None and cur <= bound
    status = "ok" if ok else "REGRESSED"
    print(f"{'partition.failfast_latency_s':>40}: baseline {base:6.3f}s  "
          f"current {cur if cur is not None else float('nan'):6.3f}s  "
          f"bound <= {bound:4.2f}s  [{status}]")
    if not ok:
        failures.append(
            f"partition.failfast_latency_s: {cur!r} above bound {bound}"
        )

    # The partition must still be load-bearing: lag and staleness peaked.
    for name in ("partition.lag_peak", "partition.staleness_peak_s",
                 "kill.rejected_failfast"):
        cur = current["deterministic"].get(name)
        if cur is None or cur <= 0:
            failures.append(f"{name}: {cur!r} — the drill stopped biting")
    return failures


def check_e31(baseline: dict, current: dict, tolerance: float) -> list[str]:
    failures = check_flags(baseline, current)

    # Recall and eval-speedup are counts over seeded streams — fully
    # host-independent — so gate against the suite's absolute floors
    # (from the baseline's meta), not a tolerance band.
    bounds = (
        ("recall_at_10", baseline["meta"]["recall_floor"], ">="),
        ("speedup_evals", baseline["meta"]["speedup_floor"], ">="),
    )
    for name, bound, op in bounds:
        base = baseline["deterministic"][name]
        cur = current["deterministic"].get(name)
        ok = cur is not None and cur >= bound
        status = "ok" if ok else "REGRESSED"
        print(f"{name:>40}: baseline {base:6.3f}  current "
              f"{cur if cur is not None else float('nan'):6.3f}  "
              f"bound {op} {bound:4.2f}  [{status}]")
        if not ok:
            failures.append(f"{name}: {cur!r} violates bound {op} {bound}")

    # Shard-invariance is exact: any divergence is a correctness bug.
    for name in ("identical_1v2", "identical_1v4"):
        cur = current["deterministic"].get(name)
        if cur != 1:
            failures.append(
                f"{name}: top-k no longer shard-invariant ({cur!r})"
            )
    return failures


SUITES = {
    "e27": ("BENCH_e27.json", check_e27),
    "e28": ("BENCH_e28.json", check_e28),
    "e29": ("BENCH_e29.json", check_e29),
    "e30": ("BENCH_e30.json", check_e30),
    "e31": ("BENCH_e31.json", check_e31),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON; defaults to the committed "
                             "BENCH_<suite>.json (single --suite only)")
    parser.add_argument("--current", default=None,
                        help="existing measurement JSON; re-measures if "
                             "omitted (single --suite only)")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed fractional regression (0.2 = 20%%)")
    parser.add_argument("--artifacts-dir", default="benchmarks/artifacts")
    args = parser.parse_args()

    selected = list(SUITES) if args.suite == "all" else [args.suite]
    if (args.baseline or args.current) and len(selected) != 1:
        parser.error("--baseline/--current require a single --suite")

    failures: list[str] = []
    for suite in selected:
        default_baseline, check = SUITES[suite]
        baseline_path = args.baseline or str(REPO_ROOT / default_baseline)
        baseline = json.loads(Path(baseline_path).read_text())
        if args.current is not None:
            current = json.loads(Path(args.current).read_text())
        elif suite in REPORT_MODULES:
            current = measure_report(suite, args.artifacts_dir)
        else:
            current = measure_e27(args.artifacts_dir)
        print(f"== {suite}: vs {baseline_path} ==")
        suite_failures = check(baseline, current, args.tolerance)
        failures += [f"[{suite}] {failure}" for failure in suite_failures]

    if failures:
        print(f"\n{len(failures)} regression(s):")
        for failure in failures:
            print(f"  - {failure}")
        sys.exit(1)
    print("\nno regressions vs committed baselines")


if __name__ == "__main__":
    main()

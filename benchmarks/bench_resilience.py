"""E23: throughput under a seeded 5% fault plan (repro.resilience).

Claim: resilience must be affordable — with a uniform 5% fault plan active
across storage, broker, and ingest sites, the flash-sale pipeline (MVCC
purchases, sale events through the broker, stock writes and reads through
the KV tier) keeps committing every accepted purchase exactly once, and
its wall-clock throughput stays within ``THROUGHPUT_FACTOR_BOUND``x of the
fault-free run: recovery is retries and shed events, not collapse.

Shape: same pipeline run fault-free and under ``FaultPlan.uniform(0.05)``,
wall-clock throughput of each, plus the injected-fault and recovery
counters that explain the gap.  The measured pair is written to
``benchmarks/artifacts`` as the E23 metrics snapshot.
"""

import gc
import sys
import time

from repro.core import DataKind, DataRecord, MetricsRegistry, Space
from repro.obs import write_snapshot
from repro.platform import MetaversePlatform
from repro.net import Publication
from repro.resilience import FaultInjector, FaultPlan
from repro.verify import exactly_once_violations, units_sold
from repro.workloads import FlashSaleConfig, MarketplaceWorkload

FAULT_RATE = 0.05
FAULT_SEED = 7
N_REQUESTS = 2000
SMOKE_REQUESTS = 150
THROUGHPUT_FACTOR_BOUND = 5.0


def make_requests(n, seed=3):
    workload = MarketplaceWorkload(
        FlashSaleConfig(
            n_products=64, initial_stock=10_000, zipf_skew=0.8,
            burst_rate=500.0, burst_start=0.0, burst_end=n / 500.0 + 1,
        ),
        seed=seed,
    )
    return workload, workload.requests_between(0.0, n / 500.0 + 1)[:n]


def run_pipeline(workload, requests, fault_rate):
    """One timed pipeline run; returns throughput plus recovery counters."""
    injector = (
        FaultInjector(FaultPlan.uniform(fault_rate, seed=FAULT_SEED))
        if fault_rate > 0 else None
    )
    platform = MetaversePlatform(n_executors=4, faults=injector)
    platform.load_catalog(workload.catalog_records())
    gc.collect()
    start = time.perf_counter()
    outcomes = platform.process_purchases(requests)
    successes = 0
    for outcome in outcomes:
        if outcome.success:
            successes += 1
            platform.publish(
                Publication(
                    topic="sale.completed",
                    payload={"product": outcome.request.product_id},
                    timestamp=outcome.request.timestamp,
                )
            )
    for i in range(workload.config.n_products):
        pid = workload.product_id(i)
        record = DataRecord(
            key=f"stock/{pid}",
            payload={"stock": platform.get_stock(pid)},
            space=Space.PHYSICAL,
            timestamp=0.0,
            kind=DataKind.STRUCTURED,
            source="audit",
        )
        platform.write_record(record)
        platform.read(f"stock/{pid}")
    elapsed = time.perf_counter() - start

    initial = {record.key: record.payload["stock"] for record in workload.catalog_records()}
    stocks = {pid: platform.get_stock(pid) for pid in initial}
    violations = exactly_once_violations(initial, units_sold(outcomes), stocks)
    assert not violations, f"inventory not conserved for {violations} under fault_rate={fault_rate}"

    counter = platform.metrics.counter
    return {
        "elapsed_s": elapsed,
        "throughput_rps": len(requests) / elapsed,
        "successes": successes,
        "faults_injected": injector.injected if injector else 0,
        "retries": counter("resilience.retries").value,
        "recovered": counter("resilience.retry.recovered").value,
        "stale_reads": counter("platform.stale_reads").value,
        "publish_failed": counter("platform.publish_failed").value,
        "publish_shed": counter("platform.publish_shed").value,
    }


def run_resilience(smoke=False):
    n = SMOKE_REQUESTS if smoke else N_REQUESTS
    workload, requests = make_requests(n)
    clean = run_pipeline(workload, requests, fault_rate=0.0)
    faulted = run_pipeline(workload, requests, fault_rate=FAULT_RATE)
    return {
        "n_requests": n,
        "clean": clean,
        "faulted": faulted,
        "slowdown": clean["throughput_rps"] / faulted["throughput_rps"],
    }


def check_resilience_bounds(out):
    """The acceptance bounds this experiment asserts.

    * the fault plan actually fired (otherwise the run proves nothing);
    * both runs accepted the same purchases — faults never leak into
      transaction outcomes (conservation itself is asserted per-run);
    * faulted throughput stays within THROUGHPUT_FACTOR_BOUND of clean.
    """
    assert out["faulted"]["faults_injected"] > 0, "fault plan never fired"
    assert out["faulted"]["successes"] == out["clean"]["successes"], (
        "fault plan changed purchase outcomes"
    )
    assert out["slowdown"] < THROUGHPUT_FACTOR_BOUND, (
        f"faulted run is {out['slowdown']:.1f}x slower; "
        f"bound is {THROUGHPUT_FACTOR_BOUND}x"
    )


def test_e23_resilient_throughput(benchmark):
    out = benchmark.pedantic(run_resilience, rounds=1, iterations=1)
    check_resilience_bounds(out)


def report(file=sys.stdout, smoke=False, artifacts_dir="benchmarks/artifacts"):
    out = run_resilience(smoke=smoke)
    clean, faulted = out["clean"], out["faulted"]
    print("== E23: flash-sale pipeline under a 5% fault plan ==", file=file)
    print(f"{'run':>10} {'throughput':>14} {'faults':>8} {'retries':>9} "
          f"{'stale':>7} {'shed+failed':>12}", file=file)
    for name, row in (("clean", clean), ("faulted", faulted)):
        shed = row["publish_shed"] + row["publish_failed"]
        print(f"{name:>10} {row['throughput_rps']:>10.0f} r/s "
              f"{row['faults_injected']:>8.0f} {row['retries']:>9.0f} "
              f"{row['stale_reads']:>7.0f} {shed:>12.0f}", file=file)
    print(f"\nslowdown under faults: {out['slowdown']:.2f}x "
          f"(bound {THROUGHPUT_FACTOR_BOUND:.0f}x); "
          f"recovered retries: {faulted['recovered']:.0f}; "
          "inventory conserved in both runs", file=file)
    check_resilience_bounds(out)
    print(f"bounds ok: slowdown < {THROUGHPUT_FACTOR_BOUND:.0f}x, "
          "identical purchase outcomes, exactly-once commits", file=file)

    metrics = MetricsRegistry()
    metrics.gauge("e23.n_requests").set(float(out["n_requests"]))
    metrics.gauge("e23.slowdown").set(out["slowdown"])
    for name, row in (("clean", clean), ("faulted", faulted)):
        for key, value in row.items():
            metrics.gauge(f"e23.{name}.{key}").set(float(value))
    prom_path, json_path = write_snapshot(
        metrics, artifacts_dir, basename="e23_resilience", prefix="repro"
    )
    print(f"[E23 artifact: {prom_path} and {json_path}]", file=file)


if __name__ == "__main__":
    report(smoke="--smoke" in sys.argv[1:])

"""E25: flash-sale survival of a mid-sale shard crash (repro.cluster.failover).

Claim: the paper's Section IV platform must keep serving the data deluge
*through* node failures, not just scale across nodes — availability under
partial failure is the other half of the scale-out argument E24 makes.
Shape: the same flash-sale stream runs twice on a 4-shard cluster with
replication (``n_replicas=2``) — once failure-free, once with one shard
killed abruptly (torn WAL tail included) mid-sale.  The killed shard's
purchases fail fast while it is down (never queued, so nothing can
double-execute), its keys are served from replicated op logs, a replica
is promoted after phi-accrual detection, and the sale finishes with
inventory exactly conserved: every unit is sold at most once and none
evaporate, at a bounded simulated recovery time and a bounded throughput
cost.

Artifact: ``e25_failover.{prom,json}``.  Every recorded gauge derives
from simulated time and seeded streams, so the artifact is byte-stable
across runs — the determinism regression tier diffs it.
"""

import sys

import pytest

from repro.cluster import ClusterConfig, PlatformCluster
from repro.cluster.failover import DOWN, RECOVERING, UP
from repro.core import MetricsRegistry
from repro.obs import write_snapshot
from repro.verify import exactly_once_violations, units_sold
from repro.workloads import FlashSaleConfig, MarketplaceWorkload

N_REQUESTS = 3000
SMOKE_REQUESTS = 400
N_PRODUCTS = 24
INITIAL_STOCK = 200
BATCH = 50
TICK_S = 0.05
KILL_AT_BATCH = 2
TORN_TAIL_BYTES = 3
MAX_DRAIN_TICKS = 300
RECOVERY_BOUND_S = 2.0     # acceptance: detection + promotion + reconvergence
THROUGHPUT_FACTOR = 3.0    # acceptance: failover run >= baseline / this

pytestmark = [pytest.mark.cluster, pytest.mark.failover]


def make_requests(n, seed=3, skew=0.2):
    workload = MarketplaceWorkload(
        FlashSaleConfig(
            n_products=N_PRODUCTS, initial_stock=INITIAL_STOCK, zipf_skew=skew,
            burst_rate=500.0, burst_start=0.0, burst_end=n / 500.0 + 1,
        ),
        seed=seed,
    )
    return workload, workload.requests_between(0.0, n / 500.0 + 1)[:n]


def run_sale(n, kill):
    """One flash sale in tick-sized batches; optionally crash a shard."""
    workload, requests = make_requests(n)
    cluster = PlatformCluster(config=ClusterConfig(
        n_shards=4, n_executors_per_shard=4, n_replicas=2, phi_threshold=4.0
    ))
    cluster.load_catalog(workload.catalog_records())
    pids = [workload.product_id(i) for i in range(N_PRODUCTS)]
    victim = cluster.router.owner_of(pids[0])

    batches = [requests[i:i + BATCH] for i in range(0, len(requests), BATCH)]
    outcomes = []
    served_while_recovering = False
    for i, batch in enumerate(batches):
        if kill and i == KILL_AT_BATCH:
            cluster.kill_shard(victim, torn_tail_bytes=TORN_TAIL_BYTES)
        outcomes += cluster.process_purchases(batch)
        cluster.tick(TICK_S)
        if kill and cluster.failover.state(victim) == DOWN:
            # The crashed shard's keys stay readable from replicated logs.
            assert cluster.get_stock(pids[0]) >= 0
        if kill and cluster.failover.state(victim) == RECOVERING:
            served_while_recovering = True
    if kill:
        # Short sales (smoke) can end inside the detection window: drain
        # ticks until the victim is back up, still observing the promoted
        # replica serve its keys before recovery completes.
        for _ in range(MAX_DRAIN_TICKS):
            state = cluster.failover.state(victim)
            if state == UP:
                break
            if state == RECOVERING:
                assert all(cluster.get_stock(pid) >= 0 for pid in pids)
                served_while_recovering = True
            cluster.tick(TICK_S)
        assert cluster.failover.state(victim) == UP, "recovery never finished"

    stocks = {pid: cluster.get_stock(pid) for pid in pids}
    conserved = not exactly_once_violations(
        dict.fromkeys(pids, INITIAL_STOCK), units_sold(outcomes), stocks
    )

    def counter(name):
        return float(cluster.metrics.counter(name).value)

    return {
        "throughput": cluster.compute_throughput(len(requests)),
        "makespan_s": cluster.compute_makespan(),
        "successes": float(sum(o.success for o in outcomes)),
        "conserved": conserved,
        "served_while_recovering": served_while_recovering,
        "recovery_time_s": (
            cluster.metrics.gauge("cluster.failover.recovery_time_s").value
            if kill else 0.0
        ),
        "rejected_purchases": counter("cluster.failover.rejected_purchases"),
        "replica_reads": counter("cluster.failover.replica_reads"),
        "promotions": counter("cluster.failover.promotions"),
        "recoveries": counter("cluster.failover.recoveries"),
    }


def run_failover_experiment(n=N_REQUESTS):
    """The same stream failure-free and with a mid-sale shard kill."""
    return {
        "baseline": run_sale(n, kill=False),
        "failover": run_sale(n, kill=True),
    }


def check_failover_bounds(out):
    """The acceptance bounds this experiment asserts.

    * both runs conserve inventory exactly (zero lost or duplicated units);
    * the kill is detected and a replica promoted exactly once, with the
      promoted replica serving the victim's keys before recovery completes;
    * simulated recovery time stays under RECOVERY_BOUND_S;
    * the failover run's throughput stays within THROUGHPUT_FACTOR of the
      failure-free baseline.
    """
    baseline, failover = out["baseline"], out["failover"]
    assert baseline["conserved"], "baseline run lost or duplicated units"
    assert failover["conserved"], "failover run lost or duplicated units"
    assert failover["promotions"] == 1.0 and failover["recoveries"] == 1.0
    assert failover["served_while_recovering"], (
        "promoted replica never observed serving before recovery completed"
    )
    assert 0.0 < failover["recovery_time_s"] <= RECOVERY_BOUND_S, (
        f"recovery took {failover['recovery_time_s']:.2f}s "
        f"(bound {RECOVERY_BOUND_S}s)"
    )
    assert failover["rejected_purchases"] > 0, (
        "the outage window rejected nothing - kill had no effect"
    )
    assert failover["throughput"] >= baseline["throughput"] / THROUGHPUT_FACTOR, (
        f"failover throughput {failover['throughput']:.0f}/s below "
        f"baseline {baseline['throughput']:.0f}/s / {THROUGHPUT_FACTOR}"
    )


def test_e25_mid_sale_kill_is_exactly_once(benchmark):
    out = benchmark.pedantic(run_failover_experiment, rounds=1, iterations=1)
    check_failover_bounds(out)


def test_e25_recovery_is_deterministic(benchmark):
    """Same seeds, same crash point -> bit-identical recovery trajectory."""
    first = benchmark.pedantic(
        lambda: run_sale(SMOKE_REQUESTS, kill=True), rounds=1, iterations=1
    )
    second = run_sale(SMOKE_REQUESTS, kill=True)
    assert first == second


def report(file=sys.stdout, smoke=False, artifacts_dir="benchmarks/artifacts"):
    n = SMOKE_REQUESTS if smoke else N_REQUESTS
    out = run_failover_experiment(n)
    baseline, failover = out["baseline"], out["failover"]
    print("== E25: flash sale across a mid-sale shard kill ==", file=file)
    print(f"{'run':>10} {'throughput':>14} {'successes':>10} "
          f"{'rejected':>9} {'conserved':>10}", file=file)
    for label, row in (("baseline", baseline), ("failover", failover)):
        print(f"{label:>10} {row['throughput']:>12,.0f}/s "
              f"{row['successes']:>10,.0f} {row['rejected_purchases']:>9,.0f} "
              f"{str(row['conserved']):>10}", file=file)
    check_failover_bounds(out)
    print(
        f"\nrecovery: {failover['recovery_time_s']:.2f}s simulated "
        f"(bound {RECOVERY_BOUND_S:.0f}s), {failover['promotions']:.0f} "
        f"promotion, {failover['replica_reads']:.0f} replica reads while "
        "down; inventory exactly conserved in both runs", file=file,
    )

    metrics = MetricsRegistry()
    metrics.gauge("e25.n_requests").set(float(n))
    for label, row in (("baseline", baseline), ("failover", failover)):
        for key, value in row.items():
            metrics.gauge(f"e25.{label}.{key}").set(float(value))
    metrics.gauge("e25.throughput_ratio").set(
        failover["throughput"] / baseline["throughput"]
    )
    prom_path, json_path = write_snapshot(
        metrics, artifacts_dir, basename="e25_failover", prefix="repro"
    )
    print(f"[E25 artifact: {prom_path} and {json_path}]", file=file)


if __name__ == "__main__":
    report(smoke="--smoke" in sys.argv[1:])

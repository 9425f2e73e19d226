"""E26: disaggregated compute scale-out over a fixed storage tier.

Claim: the paper's Fig. 7 architecture — *stateless* compute elastically
scaled over a shared storage/memory tier — lets compute capacity grow
independently of where the data lives.  Shape: the same flash-sale stream
processed at 1/2/4/8 compute nodes mounted on **2 fixed storage nodes**
(``ClusterConfig(n_storage_nodes=2)``) scales like the share-nothing
sweep of E24 while deciding every purchase identically to a single local
node — the storage tier's size never changes, only the compute fleet.
Because compute holds no state, elasticity is free: shard join/leave is a
pure ring remap with **zero entity migration**, and a compute-node crash
recovers by re-mounting the surviving storage nodes (no WAL replay, no
data movement) with exactly-once flash-sale conservation.

Artifact: ``e26_disagg.{prom,json}``.  All recorded gauges derive from
simulated time, seeded streams, and deterministic RPC counts, so the
artifact is byte-stable across runs — the determinism tier diffs it.
"""

import sys

from repro.cluster import ClusterConfig, PlatformCluster
from repro.core import MetricsRegistry
from repro.obs import write_snapshot
from repro.platform import MetaversePlatform
from repro.verify import exactly_once_violations, units_sold

from bench_cluster_scaleout import make_requests, outcome_signature

COMPUTE_COUNTS = [1, 2, 4, 8]
N_STORAGE_NODES = 2
N_REQUESTS = 3000
SMOKE_REQUESTS = 400
SCALEOUT_FACTOR_AT_4 = 2.0  # acceptance: >= 2x throughput at 4 compute nodes
KILLED_SHARD = "shard-1"


def make_cluster(n_compute):
    return PlatformCluster(config=ClusterConfig(
        n_shards=n_compute,
        n_executors_per_shard=4,
        n_storage_nodes=N_STORAGE_NODES,
    ))


def run_compute_sweep(n=N_REQUESTS):
    """The same stream at every compute count over 2 fixed storage nodes."""
    workload, requests = make_requests(n)
    baseline = MetaversePlatform(n_executors=4)  # local engine, one node
    baseline.load_catalog(workload.catalog_records())
    baseline_sig = outcome_signature(baseline.process_purchases(requests))

    rows = []
    for n_compute in COMPUTE_COUNTS:
        workload, requests = make_requests(n)
        cluster = make_cluster(n_compute)
        cluster.load_catalog(workload.catalog_records())
        outcomes = cluster.process_purchases(requests)
        rpc_calls = cluster.metrics.counter("storage.rpc.calls").value
        rows.append(
            {
                "compute": n_compute,
                "storage": N_STORAGE_NODES,
                "throughput": cluster.compute_throughput(len(requests)),
                "makespan_s": cluster.compute_makespan(),
                "successes": sum(o.success for o in outcomes),
                "identical": outcome_signature(outcomes) == baseline_sig,
                "storage_rpcs": rpc_calls,
            }
        )
    return rows


def run_elasticity(n=600):
    """Join/leave on a loaded cluster: the zero-migration claim."""
    workload, requests = make_requests(n)
    cluster = make_cluster(4)
    cluster.load_catalog(workload.catalog_records())
    sold_before = sum(o.success for o in cluster.process_purchases(requests))
    stocks_before = {
        record.key: cluster.get_stock(record.key)
        for record in workload.catalog_records()
    }
    moved_on_join = cluster.add_shard("shard-elastic")
    moved_on_leave = cluster.remove_shard("shard-elastic")
    stocks_after = {
        record.key: cluster.get_stock(record.key)
        for record in workload.catalog_records()
    }
    locations = cluster.entity_locations()
    return {
        "sold": sold_before,
        "moved_on_join": moved_on_join,
        "moved_on_leave": moved_on_leave,
        "stocks_preserved": stocks_before == stocks_after,
        "exactly_one_owner": all(len(v) == 1 for v in locations.values()),
    }


def run_crash_recovery(n=N_REQUESTS):
    """Kill a compute node mid-sale; recover by re-mounting the tier.

    Purchases routed to the dead node fail fast while it is down (never
    queued — queuing would risk double-execution); the next tick
    re-mounts the surviving storage nodes and the sale resumes with
    exactly-once conservation: every unit is sold once or still on the
    shelf, across the crash.
    """
    workload, requests = make_requests(n, seed=11)
    cluster = make_cluster(4)
    catalog = workload.catalog_records()
    cluster.load_catalog(catalog)
    initial = {record.key: record.payload["stock"] for record in catalog}
    third = len(requests) // 3

    outcomes = cluster.process_purchases(requests[:third])
    cluster.kill_shard(KILLED_SHARD)
    down_outcomes = cluster.process_purchases(requests[third:2 * third])
    failed_fast = sum(
        1 for o in down_outcomes if not o.success and o.reason == "shard down"
    )
    cluster.tick(0.1)  # recovery: re-mount, nothing replays, nothing moves
    outcomes += down_outcomes + cluster.process_purchases(requests[2 * third:])

    remaining = {pid: cluster.get_stock(pid) for pid in initial}
    # Exactly-once across the crash: every unit is either sold once or
    # still on the shelf — nothing double-sold, nothing lost.
    conserved = not exactly_once_violations(initial, units_sold(outcomes), remaining)
    counters = cluster.metrics.all_counters()

    def value(name):
        counter = counters.get(name)
        return counter.value if counter else 0.0

    return {
        "sold": sum(o.success for o in outcomes),
        "failed_fast_while_down": failed_fast,
        "remounts": value("cluster.disagg.remounts"),
        "moved_keys": value("cluster.rebalance.moved_keys"),
        "conserved": conserved,
        "rerouted_reads": value("cluster.disagg.rerouted_reads"),
    }


def check_sweep_bounds(rows):
    """The acceptance bounds this experiment asserts.

    * throughput is monotone non-decreasing in compute count (storage
      fixed at 2 nodes throughout);
    * 4 compute nodes deliver >= SCALEOUT_FACTOR_AT_4 x the 1-node
      throughput;
    * every topology decides every purchase identically to one local
      node — disaggregation changes where state lives, never outcomes.
    """
    by_compute = {row["compute"]: row for row in rows}
    for prev, nxt in zip(rows, rows[1:]):
        assert nxt["throughput"] >= prev["throughput"], (
            f"throughput regressed {prev['compute']} -> {nxt['compute']} "
            "compute nodes"
        )
    gain = by_compute[4]["throughput"] / by_compute[1]["throughput"]
    assert gain >= SCALEOUT_FACTOR_AT_4, (
        f"4-compute gain {gain:.2f}x below {SCALEOUT_FACTOR_AT_4}x bound"
    )
    assert all(row["identical"] for row in rows), (
        "disaggregation changed purchase outcomes vs one local node"
    )
    assert all(row["storage_rpcs"] > 0 for row in rows), (
        "no storage RPCs recorded — compute is not actually disaggregated"
    )


def check_recovery_bounds(out):
    assert out["remounts"] == 1.0, "expected exactly one re-mount"
    assert out["moved_keys"] == 0.0, "crash recovery moved data"
    assert out["failed_fast_while_down"] > 0, (
        "the killed shard served purchases while down"
    )
    assert out["conserved"], "flash-sale conservation violated across crash"


def test_e26_compute_scaleout_monotone_and_exact(benchmark):
    rows = benchmark.pedantic(run_compute_sweep, rounds=1, iterations=1)
    check_sweep_bounds(rows)


def test_e26_membership_changes_move_nothing(benchmark):
    out = benchmark.pedantic(run_elasticity, rounds=1, iterations=1)
    assert out["moved_on_join"] == 0 and out["moved_on_leave"] == 0
    assert out["stocks_preserved"] and out["exactly_one_owner"]


def test_e26_compute_crash_recovers_by_remount(benchmark):
    out = benchmark.pedantic(run_crash_recovery, rounds=1, iterations=1)
    check_recovery_bounds(out)


def report(file=sys.stdout, smoke=False, artifacts_dir="benchmarks/artifacts"):
    n = SMOKE_REQUESTS if smoke else N_REQUESTS
    rows = run_compute_sweep(n)
    print("== E26: flash-sale throughput vs compute count "
          f"({N_STORAGE_NODES} storage nodes fixed) ==", file=file)
    print(f"{'compute':>8} {'storage':>8} {'throughput':>14} {'makespan':>11} "
          f"{'identical':>10} {'rpcs':>8}", file=file)
    for row in rows:
        print(f"{row['compute']:>8} {row['storage']:>8} "
              f"{row['throughput']:>12,.0f}/s {row['makespan_s']:>9.4f}s "
              f"{str(row['identical']):>10} {row['storage_rpcs']:>8.0f}",
              file=file)
    check_sweep_bounds(rows)
    gain = rows[2]["throughput"] / rows[0]["throughput"]
    print(f"\n4-compute gain: {gain:.2f}x (bound {SCALEOUT_FACTOR_AT_4:.0f}x) "
          "with the storage tier unchanged; outcomes identical throughout",
          file=file)

    elastic = run_elasticity(n=min(n, 600))
    print("\n-- elasticity (join + leave on a loaded cluster) --", file=file)
    print(f"keys moved on join: {elastic['moved_on_join']}, on leave: "
          f"{elastic['moved_on_leave']}; stocks preserved: "
          f"{elastic['stocks_preserved']}; exactly-one owner: "
          f"{elastic['exactly_one_owner']}", file=file)
    assert elastic["moved_on_join"] == 0 and elastic["moved_on_leave"] == 0
    assert elastic["stocks_preserved"] and elastic["exactly_one_owner"]

    recovery = run_crash_recovery(n)
    print("\n-- compute-crash recovery (kill mid-sale, re-mount) --", file=file)
    print(f"re-mounts: {recovery['remounts']:.0f}; keys moved: "
          f"{recovery['moved_keys']:.0f}; failed-fast while down: "
          f"{recovery['failed_fast_while_down']}; conserved: "
          f"{recovery['conserved']}", file=file)
    check_recovery_bounds(recovery)

    metrics = MetricsRegistry()
    metrics.gauge("e26.n_requests").set(float(n))
    metrics.gauge("e26.storage_nodes").set(float(N_STORAGE_NODES))
    for row in rows:
        for key in ("throughput", "makespan_s", "successes", "storage_rpcs"):
            metrics.gauge(f"e26.compute_{row['compute']}.{key}").set(
                float(row[key])
            )
        metrics.gauge(f"e26.compute_{row['compute']}.identical").set(
            float(row["identical"])
        )
    for key in ("sold", "moved_on_join", "moved_on_leave"):
        metrics.gauge(f"e26.elastic.{key}").set(float(elastic[key]))
    for key in ("sold", "failed_fast_while_down", "remounts", "moved_keys",
                "rerouted_reads"):
        metrics.gauge(f"e26.recovery.{key}").set(float(recovery[key]))
    metrics.gauge("e26.recovery.conserved").set(float(recovery["conserved"]))
    prom_path, json_path = write_snapshot(
        metrics, artifacts_dir, basename="e26_disagg", prefix="repro"
    )
    print(f"[E26 artifact: {prom_path} and {json_path}]", file=file)


if __name__ == "__main__":
    report(smoke="--smoke" in sys.argv[1:])

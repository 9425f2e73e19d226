"""E30: geo-distribution — tunable consistency under WAN partitions.

Claim: the paper's geo-distribution argument (Sec. IV-E) is that a
metaverse platform spans regions, so its data layer must let each read
choose its place on the latency/consistency spectrum and must survive
WAN partitions and whole-region outages without losing a committed
unit of stock.  The :mod:`repro.geo` deployment (per-region home shard
spaces, async replica-log shipping with hinted handoff and Merkle
anti-entropy, per-call ``eventual`` / ``read_your_writes`` /
``linearizable`` reads, follow-the-user re-homing) must show:

* the consistency surface — eventual reads are local and free,
  linearizable reads pay the home round trip, read-your-writes upgrades
  only until replication catches up;
* exactly-once conservation through a mid-sale region kill (purchases
  against the dead home fail fast, never queue) and through a WAN
  partition + heal (hints and anti-entropy reconverge every replica);
* availability asymmetry under partition — eventual reads keep
  answering from every region while linearizable reads to the cut-off
  home fail inside their deadline;
* follow-the-user re-homing that moves authority without losing stock,
  and aborts atomically when the WAN is partitioned.

Artifact: ``BENCH_e30.json`` (+ ``e30_geo.{prom,json}``).  Every value
derives from seeded streams and the simulated clock.
"""

import sys

import pytest

from repro.core import (
    DataKind,
    DataRecord,
    MetricsRegistry,
    PartitionedError,
    Space,
)
from repro.core.errors import DeadlineExceededError
from repro.geo import (
    EVENTUAL,
    LINEARIZABLE,
    READ_YOUR_WRITES,
    GeoConfig,
    GeoDeployment,
    GeoSession,
)
from repro.obs import write_snapshot
from repro.verify import exactly_once_violations, units_sold
from repro.workloads import FlashSaleConfig, MarketplaceWorkload, PurchaseRequest

pytestmark = [pytest.mark.geo]

TICK_S = 0.5
REGIONS = ("us-east", "eu-west", "ap-south")
WAN_LATENCIES = {
    ("us-east", "eu-west"): 0.04,
    ("us-east", "ap-south"): 0.09,
    ("eu-west", "ap-south"): 0.07,
}
MIN_ONE_WAY_S = min(WAN_LATENCIES.values())
ALL_MODES = (EVENTUAL, READ_YOUR_WRITES, LINEARIZABLE)

# The linearizable fail-fast bound: deadline plus one RPC timeout of
# slack for the attempt already in flight when the deadline expires.
FAILFAST_BOUND_S = 0.25 + 0.06


def make_geo(**overrides) -> GeoDeployment:
    config = GeoConfig(
        regions=REGIONS, wan_latencies_s=dict(WAN_LATENCIES), **overrides
    )
    return GeoDeployment(config)


def make_workload(n_products: int, initial_stock: int, n_shoppers: int,
                  seed: int = 30) -> MarketplaceWorkload:
    return MarketplaceWorkload(
        FlashSaleConfig(
            n_products=n_products, n_shoppers=n_shoppers,
            initial_stock=initial_stock, burst_rate=120.0,
            burst_start=0.0, burst_end=60.0, zipf_skew=1.0,
        ),
        seed=seed,
    )


def player(key: str, payload: dict) -> DataRecord:
    return DataRecord(
        key=key, payload=payload, space=Space.VIRTUAL,
        timestamp=0.0, kind=DataKind.LOCATION, source="bench",
    )


def key_homed_at(geo: GeoDeployment, region: str, prefix: str = "player") -> str:
    for i in range(10_000):
        key = f"{prefix}-{i:05d}"
        if geo.home_of(key) == region:
            return key
    raise AssertionError(f"no {prefix} key homed at {region}")


def modes_identical(geo: GeoDeployment, pids) -> bool:
    """Every region and every consistency mode agree on every stock."""
    for pid in pids:
        values = {
            geo.get_stock(pid, mode, region=region)
            for region in REGIONS
            for mode in ALL_MODES
        }
        if len(values) != 1:
            return False
    return True


def run_sale(geo, workload, start, steps) -> list:
    """Drive ``steps`` half-second sale windows; return every outcome."""
    outcomes = []
    t = start
    for _ in range(steps):
        outcomes += geo.process_purchases(workload.requests_between(t, t + TICK_S))
        t += TICK_S
        geo.tick(TICK_S)
    return outcomes


# -- scenario 1: the consistency surface -------------------------------------


def run_consistency_surface(smoke=False) -> dict:
    """Per-mode read latency and the RYW upgrade-then-local transition."""
    n_products = 8 if smoke else 12
    reads = 10 if smoke else 25
    geo = make_geo()
    workload = make_workload(n_products, initial_stock=30, n_shoppers=40)
    geo.load_catalog(workload.catalog_records())
    geo.tick(TICK_S)
    run_sale(geo, workload, 0.0, 2)

    via = "eu-west"
    remote_pid = next(
        workload.product_id(i) for i in range(n_products)
        if geo.home_of(workload.product_id(i)) != via
    )
    session = GeoSession()
    session_key = key_homed_at(geo, "us-east")
    for i in range(reads):
        geo.get_stock(remote_pid, EVENTUAL, region=via)
        geo.get_stock(remote_pid, LINEARIZABLE, region=via)
        # A fresh session write read back from another region before the
        # entry replicates: RYW must upgrade to the home round trip.
        geo.write_record(player(session_key, {"n": i}), session=session)
        geo.read(session_key, READ_YOUR_WRITES, region=via, session=session)
        geo.tick(TICK_S)
        # ... and after the tick replicates it, RYW is served locally.
        geo.read(session_key, READ_YOUR_WRITES, region=via, session=session)

    for _ in range(4):
        geo.tick(TICK_S)

    def pct(mode, q):
        histogram = geo.metrics.histogram(f"geo.read.latency.{mode}")
        return getattr(histogram, q)()

    upgrades = geo.metrics.counter("geo.read.ryw_upgraded").value
    local = geo.metrics.counter("geo.read.ryw_local").value
    pids = [workload.product_id(i) for i in range(n_products)]
    return {
        "eventual_p95_s": pct(EVENTUAL, "p95"),
        "ryw_p95_s": pct(READ_YOUR_WRITES, "p95"),
        "linearizable_p50_s": pct(LINEARIZABLE, "p50"),
        "linearizable_p95_s": pct(LINEARIZABLE, "p95"),
        "ryw_upgrades": float(upgrades),
        "eventual_local_ok": int(pct(EVENTUAL, "p95") == 0.0),
        "lin_rtt_ok": int(pct(LINEARIZABLE, "p50") >= 2 * MIN_ONE_WAY_S),
        "ryw_upgrade_ok": int(upgrades >= reads and local >= reads),
        "modes_identical": int(modes_identical(geo, pids)),
    }


def check_consistency_surface(out: dict) -> None:
    """Acceptance: each mode sits where the design puts it.

    * eventual reads never leave the region (zero simulated latency);
    * linearizable reads pay at least the cheapest WAN round trip;
    * read-your-writes upgrades while the local copy lags the session's
      writes and serves locally once replication catches up;
    * after convergence all three modes agree in every region.
    """
    assert out["eventual_local_ok"] == 1, "an eventual read left the region"
    assert out["lin_rtt_ok"] == 1, (
        f"linearizable p50 {out['linearizable_p50_s']:.3f}s is under one "
        f"WAN round trip ({2 * MIN_ONE_WAY_S:.3f}s)"
    )
    assert out["ryw_upgrade_ok"] == 1, "RYW never exercised both paths"
    assert out["modes_identical"] == 1, "modes disagree after convergence"


# -- scenario 2: exactly-once through a mid-sale region kill ------------------


def run_region_kill(smoke=False) -> dict:
    """Kill the busiest home mid-sale; conservation must survive."""
    n_products = 8 if smoke else 12
    initial_stock = 20 if smoke else 30
    steps_before, steps_down, steps_after = (4, 4, 6) if smoke else (5, 6, 9)
    geo = make_geo()
    workload = make_workload(n_products, initial_stock, n_shoppers=60)
    geo.load_catalog(workload.catalog_records())
    geo.tick(TICK_S)
    pids = [workload.product_id(i) for i in range(n_products)]
    homes = {pid: geo.home_of(pid) for pid in pids}
    victim = max(REGIONS, key=lambda r: sum(h == r for h in homes.values()))

    outcomes = run_sale(geo, workload, 0.0, steps_before)
    geo.kill_region(victim)
    outcomes += run_sale(geo, workload, steps_before * TICK_S, steps_down)
    geo.restart_region(victim)
    outcomes += run_sale(
        geo, workload, (steps_before + steps_down) * TICK_S, steps_after
    )
    for _ in range(4):
        geo.tick(TICK_S)

    rejected = sum(
        1 for o in outcomes
        if not o.success and o.reason == f"region down: {victim}"
    )
    stocks = {pid: geo.get_stock(pid, LINEARIZABLE) for pid in pids}
    conserved = not exactly_once_violations(
        dict.fromkeys(pids, initial_stock), units_sold(outcomes), stocks
    )
    return {
        "victim_products": float(sum(h == victim for h in homes.values())),
        "requests": float(len(outcomes)),
        "successes": float(sum(o.success for o in outcomes)),
        "rejected_failfast": float(rejected),
        "hints_delivered": geo.metrics.counter("geo.repl.hints_delivered").value,
        "antientropy_repaired": geo.metrics.counter(
            "geo.antientropy.repaired_entries"
        ).value,
        "conserved": int(conserved),
        "modes_identical": int(modes_identical(geo, pids)),
    }


def check_region_kill(out: dict) -> None:
    """Acceptance: a dead home rejects, never queues.

    * purchases against the killed region failed fast (the rejection
      count is the proof the outage was load-bearing);
    * every unit of stock is accounted for after restart — sold plus
      remaining equals initial for every product;
    * hinted handoff actually carried the backlog and every region's
      replicas reconverged to identical stocks in all three modes.
    """
    assert out["rejected_failfast"] > 0, "the kill never rejected a purchase"
    assert out["successes"] > 0
    assert out["conserved"] == 1, "stock leaked through the region kill"
    assert out["hints_delivered"] > 0, "no hinted handoff occurred"
    assert out["modes_identical"] == 1, "replicas diverged after restart"


# -- scenario 3: WAN partition + heal ----------------------------------------


def run_partition_heal(smoke=False) -> dict:
    """Cut one region off mid-sale, keep selling, heal, reconverge."""
    n_products = 8 if smoke else 12
    initial_stock = 30 if smoke else 60
    steps = (3, 3, 4) if smoke else (4, 4, 6)
    geo = make_geo()
    workload = make_workload(n_products, initial_stock, n_shoppers=60)
    geo.load_catalog(workload.catalog_records())
    geo.tick(TICK_S)
    pids = [workload.product_id(i) for i in range(n_products)]
    isolated = "ap-south"
    cut_pid = next(pid for pid in pids if geo.home_of(pid) == isolated)

    outcomes = run_sale(geo, workload, 0.0, steps[0])
    geo.partition_regions([[isolated], [r for r in REGIONS if r != isolated]])
    outcomes += run_sale(geo, workload, steps[0] * TICK_S, steps[1])

    # Availability asymmetry, observed from a surviving region.
    eventual_reads = [
        geo.get_stock(cut_pid, EVENTUAL, region=r)
        for r in REGIONS if r != isolated
    ]
    eventual_available = all(isinstance(v, int) and v >= 0 for v in eventual_reads)
    started = geo.clock.now
    try:
        geo.get_stock(cut_pid, LINEARIZABLE, region="us-east")
        failfast, failfast_s = False, 0.0
    except DeadlineExceededError:
        failfast, failfast_s = True, geo.clock.now - started
    lag_peak = float(geo.max_replication_lag())
    staleness_peak = max(
        geo.replicator.staleness_s(h, d, geo.clock.now)
        for h in REGIONS for d in REGIONS if h != d
    )

    geo.heal_wan()
    outcomes += run_sale(geo, workload, (steps[0] + steps[1]) * TICK_S, steps[2])
    for _ in range(4):
        geo.tick(TICK_S)

    stocks = {pid: geo.get_stock(pid, LINEARIZABLE) for pid in pids}
    conserved = not exactly_once_violations(
        dict.fromkeys(pids, initial_stock), units_sold(outcomes), stocks
    )
    return {
        "eventual_available_ok": int(eventual_available),
        "linearizable_failfast_ok": int(failfast),
        "failfast_latency_s": failfast_s,
        "failfast_bounded_ok": int(failfast and failfast_s <= FAILFAST_BOUND_S),
        "lag_peak": lag_peak,
        "staleness_peak_s": staleness_peak,
        "hints_delivered": geo.metrics.counter("geo.repl.hints_delivered").value,
        "reconverged_ok": int(geo.max_replication_lag() == 0),
        "conserved": int(conserved),
        "modes_identical": int(modes_identical(geo, pids)),
    }


def check_partition_heal(out: dict) -> None:
    """Acceptance: partition-mode behavior matches the tunable contract.

    * eventual reads stayed available in every surviving region (served
      from local replicas, boundedly stale);
    * the linearizable read to the cut-off home failed inside its
      deadline rather than hanging;
    * replication lag and staleness actually grew while the WAN was cut
      (the partition was load-bearing), and healed back to zero;
    * stock is exactly conserved and all modes agree everywhere.
    """
    assert out["eventual_available_ok"] == 1, "an eventual read failed"
    assert out["linearizable_failfast_ok"] == 1, "linearizable did not fail"
    assert out["failfast_bounded_ok"] == 1, (
        f"fail-fast took {out['failfast_latency_s']:.3f}s "
        f"(bound {FAILFAST_BOUND_S:.2f}s)"
    )
    assert out["lag_peak"] > 0 and out["staleness_peak_s"] > 0
    assert out["reconverged_ok"] == 1, "lag never drained after the heal"
    assert out["conserved"] == 1, "stock leaked through partition+heal"
    assert out["modes_identical"] == 1, "replicas diverged after the heal"


# -- scenario 4: follow-the-user re-homing -----------------------------------


def run_follow_the_user(smoke=False) -> dict:
    """Move authority with the user; conservation and atomic aborts."""
    geo = make_geo()
    workload = make_workload(n_products=4, initial_stock=10, n_shoppers=20)
    geo.load_catalog(workload.catalog_records())
    geo.tick(TICK_S)

    # An avatar hops us-east -> eu-west -> ap-south; authority follows.
    key = key_homed_at(geo, "us-east")
    geo.write_record(player(key, {"x": 0.0}))
    geo.tick(TICK_S)
    hops_ok = True
    for hop in ("eu-west", "ap-south"):
        geo.rehome_entity(key, hop)
        for _ in range(2):
            geo.tick(TICK_S)
        hops_ok = hops_ok and geo.home_of(key) == hop and all(
            geo.read(key, mode, region=r) is not None
            for r in REGIONS for mode in ALL_MODES
        )

    # A product follows its sellers; stock moves with authority.
    pid = workload.product_id(0)
    outcomes = []
    quantities = (2, 3, 1)
    stops = ("eu-west", "ap-south", "us-east")
    for stop, quantity in zip(stops, quantities):
        if geo.home_of(pid) != stop:
            geo.rehome_product(pid, stop)
            for _ in range(2):
                geo.tick(TICK_S)
        outcomes += geo.process_purchases([PurchaseRequest(
            shopper_id="nomad", product_id=pid, space=Space.VIRTUAL,
            timestamp=geo.clock.now, quantity=quantity,
        )])
        geo.tick(TICK_S)
    for _ in range(4):
        geo.tick(TICK_S)
    sold = units_sold(outcomes)
    conserved = all(
        not exactly_once_violations({pid: 10}, sold, {pid: geo.get_stock(pid, mode, region=r)})
        for r in REGIONS for mode in ALL_MODES
    )

    # A re-home across a partitioned WAN must abort with nothing moved.
    final_home = geo.home_of(pid)
    target = next(r for r in REGIONS if r != final_home)
    geo.partition_regions([[target], [r for r in REGIONS if r != target]])
    stock_before = geo.get_stock(pid, LINEARIZABLE)
    try:
        geo.rehome_product(pid, target)
        aborted = False
    except PartitionedError:
        aborted = True
    abort_atomic = (
        aborted
        and geo.home_of(pid) == final_home
        and geo.get_stock(pid, LINEARIZABLE) == stock_before
    )
    geo.heal_wan()
    geo.tick(TICK_S)

    return {
        "rehomes": geo.metrics.counter("geo.rehomes").value,
        "aborted": geo.metrics.counter("geo.rehome.aborted").value,
        "sold": float(sold.get(pid, 0)),
        "hops_ok": int(hops_ok),
        "rehome_conserved": int(conserved),
        "abort_atomic_ok": int(abort_atomic),
    }


def check_follow_the_user(out: dict) -> None:
    """Acceptance: authority moves are lossless and partition-atomic.

    * every hop left the key readable in all regions and modes with the
      new region authoritative;
    * stock purchased at three different homes reconciles exactly;
    * the re-home attempted across a partition aborted with the home
      map, stock, and both logs untouched.
    """
    assert out["hops_ok"] == 1, "an avatar hop lost authority or data"
    assert out["rehome_conserved"] == 1, "stock leaked across re-homes"
    assert out["abort_atomic_ok"] == 1, "partitioned re-home was not atomic"
    assert out["rehomes"] >= 4 and out["sold"] > 0


# -- pytest entry points ------------------------------------------------------


def test_e30_consistency_surface(benchmark):
    out = benchmark.pedantic(
        lambda: run_consistency_surface(smoke=True), rounds=1, iterations=1
    )
    check_consistency_surface(out)


def test_e30_region_kill(benchmark):
    out = benchmark.pedantic(
        lambda: run_region_kill(smoke=True), rounds=1, iterations=1
    )
    check_region_kill(out)


def test_e30_partition_heal(benchmark):
    out = benchmark.pedantic(
        lambda: run_partition_heal(smoke=True), rounds=1, iterations=1
    )
    check_partition_heal(out)


def test_e30_follow_the_user(benchmark):
    out = benchmark.pedantic(
        lambda: run_follow_the_user(smoke=True), rounds=1, iterations=1
    )
    check_follow_the_user(out)


def test_e30_is_deterministic():
    """Same seeds, same simulated clock -> identical partition story."""
    assert run_partition_heal(smoke=True) == run_partition_heal(smoke=True)


# -- reporting ----------------------------------------------------------------


#: Regression gates for ``check_regression.py`` (kinds documented there).
GATES = [
    # A region kill or WAN partition may never lose a committed unit of
    # stock, leave replicas diverged, or hang a linearizable read.
    ("flag", "*.conserved"),
    ("flag", "*_ok"),
    # Simulated-clock time: gated on the suite's absolute deadline bound.
    ("ceiling", "partition.failfast_latency_s", "meta:failfast_bound_s"),
    # The partition must still be load-bearing: lag and staleness peaked.
    ("positive", "partition.lag_peak"),
    ("positive", "partition.staleness_peak_s"),
    ("positive", "kill.rejected_failfast"),
]


def bench_payload(consistency, kill, partition, rehome, smoke):
    """The BENCH_e30.json document: deterministic gates separated from
    wall-clock readings so the committed baseline diffs cleanly."""
    return {
        "meta": {
            "experiment": "E30",
            "smoke": int(smoke),
            "regions": list(REGIONS),
            "wan_latencies_s": {
                f"{a}<->{b}": s for (a, b), s in WAN_LATENCIES.items()
            },
            "failfast_bound_s": FAILFAST_BOUND_S,
        },
        "deterministic": {
            **{f"consistency.{k}": v for k, v in consistency.items()},
            **{f"kill.{k}": v for k, v in kill.items()},
            **{f"partition.{k}": v for k, v in partition.items()},
            **{f"rehome.{k}": v for k, v in rehome.items()},
        },
    }


def report(file=sys.stdout, smoke=False, artifacts_dir="benchmarks/artifacts"):
    consistency = run_consistency_surface(smoke=smoke)
    kill = run_region_kill(smoke=smoke)
    partition = run_partition_heal(smoke=smoke)
    rehome = run_follow_the_user(smoke=smoke)

    print("== E30: geo-distribution — tunable consistency under WAN "
          "partitions ==", file=file)
    print(f"{'mode':>18} {'p50':>8} {'p95':>8}", file=file)
    for mode, p50, p95 in (
        (EVENTUAL, 0.0, consistency["eventual_p95_s"]),
        (READ_YOUR_WRITES, 0.0, consistency["ryw_p95_s"]),
        (LINEARIZABLE, consistency["linearizable_p50_s"],
         consistency["linearizable_p95_s"]),
    ):
        print(f"{mode:>18} {p50 * 1e3:>6.1f}ms {p95 * 1e3:>6.1f}ms", file=file)
    check_consistency_surface(consistency)
    print(
        f"RYW upgraded {consistency['ryw_upgrades']:.0f} reads while the "
        "local copy lagged, then served locally; all modes identical after "
        "convergence", file=file,
    )

    check_region_kill(kill)
    print(
        f"region kill: {kill['rejected_failfast']:.0f} purchases failed "
        f"fast at the dead home, {kill['successes']:.0f} committed, stock "
        f"exactly conserved ({kill['hints_delivered']:.0f} hints, "
        f"{kill['antientropy_repaired']:.0f} anti-entropy repairs)",
        file=file,
    )

    check_partition_heal(partition)
    print(
        f"partition: eventual stayed available, linearizable failed in "
        f"{partition['failfast_latency_s']:.2f}s "
        f"(bound {FAILFAST_BOUND_S:.2f}s); lag peaked at "
        f"{partition['lag_peak']:.0f} entries / "
        f"{partition['staleness_peak_s']:.1f}s stale, healed to zero with "
        "stock conserved", file=file,
    )

    check_follow_the_user(rehome)
    print(
        f"follow-the-user: {rehome['rehomes']:.0f} re-homes across three "
        "regions conserved stock; the partitioned re-home aborted "
        "atomically", file=file,
    )

    payload = bench_payload(consistency, kill, partition, rehome, smoke)
    metrics = MetricsRegistry()
    for key, value in payload["deterministic"].items():
        metrics.gauge(f"e30.{key}").set(float(value))
    prom_path, json_path = write_snapshot(
        metrics, artifacts_dir, basename="e30_geo", prefix="repro"
    )
    print(f"[E30 artifact: {prom_path} and {json_path}]", file=file)
    return payload


if __name__ == "__main__":
    report(smoke="--smoke" in sys.argv[1:])

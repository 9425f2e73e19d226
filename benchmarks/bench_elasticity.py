"""E29: closed-loop elasticity — SLO attainment at a fraction of the node-hours.

Claim: the paper's elasticity argument (Sec. IV-E) is that a metaverse
platform must absorb order-of-magnitude load swings — diurnal cycles,
flash sales — without being provisioned for the peak.  The
:mod:`repro.cluster.elasticity` control loop (hysteresis + cooldown
autoscaling over windowed ingest-wait p95 and admission control, beside
explicit hot-key salting) must deliver the static peak cluster's SLO attainment on a
flash spike while spending a fraction of its node-hours on a diurnal
trace — and purchase outcomes must be *byte-identical* to the static
cluster's, because scaling is a pure ring remap over a globally ordered
purchase stream.

Shape: the same deterministic ingest traces run on an elastic cluster
(2..8 compute shards, controller on) and a statically provisioned
8-shard cluster.  Per tick, each cluster's worst shard ingest wait is
checked against the SLO; node-seconds integrate ``shards x dt``.
Acceptance: elastic flash-spike SLO attainment >= ATTAINMENT_MIN of the
static cluster's, diurnal node-hours <= NODE_HOURS_MAX of the static
cluster's, flash-sale purchase outcomes byte-identical while the
controller scales mid-sale, salting conserves stock exactly, and
admission control never sheds a physical-space record.

Artifact: ``BENCH_e29.json`` (+ ``e29_elasticity.{prom,json}``).  Every
value derives from seeded streams and simulated time.
"""

import json
import sys

import pytest

from repro.cluster import ClusterConfig, ElasticityConfig, PlatformCluster
from repro.core import DataRecord, MetricsRegistry, Space
from repro.obs import write_snapshot
from repro.verify import exactly_once_violations, units_sold
from repro.workloads import FlashSaleConfig, MarketplaceWorkload, PurchaseRequest

pytestmark = [pytest.mark.elasticity]

TICK_S = 0.5
DRAIN_RATE = 60.0            # records/s each shard drains (queue model)
SLO_WAIT_S = 0.5             # per-tick worst shard ingest wait SLO
MIN_SHARDS = 2
MAX_SHARDS = 8
N_STORAGE_NODES = 4

# Acceptance bounds (gated in CI via check_regression.py --suite e29).
ATTAINMENT_MIN = 0.95        # elastic/static SLO attainment on the spike
NODE_HOURS_MAX = 0.60        # elastic/static node-hours on the diurnal trace

# Trace shapes (records per tick).  Peaks stay under the static-8
# capacity (DRAIN_RATE * TICK_S * 8 = 240/tick) so the static cluster
# defines the attainable SLO ceiling.
DIURNAL_CALM = 40
DIURNAL_PEAK = 180
SPIKE_BASE = 20
SPIKE_PEAK = 210


def elasticity_config() -> ElasticityConfig:
    return ElasticityConfig(
        min_shards=MIN_SHARDS,
        max_shards=MAX_SHARDS,
        control_interval_s=TICK_S,
        cooldown_s=TICK_S,       # at most one scale action per tick
        slo_p95_wait_s=SLO_WAIT_S,
        clear_p95_wait_s=0.05,
        breach_evals=1,          # scale out on the first breached window
        clear_evals=4,           # scale in only after sustained slack
        window=4,
    )


def make_cluster(elastic: bool, n_shards: int) -> PlatformCluster:
    return PlatformCluster(config=ClusterConfig(
        n_shards=n_shards,
        n_storage_nodes=N_STORAGE_NODES,
        shard_drain_rate=DRAIN_RATE,
        elasticity=elasticity_config() if elastic else None,
    ))


def diurnal_trace(smoke: bool) -> list[int]:
    """Two load peaks over a calm baseline (a compressed day)."""
    scale = 1 if smoke else 2
    calm, peak = 30 * scale, 20 * scale
    trace = []
    for _ in range(2):
        trace += [DIURNAL_CALM] * calm + [DIURNAL_PEAK] * peak
    trace += [DIURNAL_CALM] * calm
    return trace


def spike_trace(smoke: bool) -> list[int]:
    """One abrupt flash spike inside a long calm baseline."""
    scale = 1 if smoke else 2
    before, spike, after = 30 * scale, 12 * scale, 60 * scale
    return (
        [SPIKE_BASE] * before + [SPIKE_PEAK] * spike + [SPIKE_BASE] * after
    )


def run_trace(cluster: PlatformCluster, trace: list[int], label: str) -> dict:
    """Drive one cluster through a trace; returns SLO/footprint accounting."""
    seq = 0
    slo_met = 0
    node_seconds = 0.0
    max_shards = 0
    for count in trace:
        for _ in range(count):
            cluster.ingest(DataRecord(
                key=f"{label}-{seq:06d}", source="sim", space=Space.VIRTUAL,
                payload={"n": seq}, timestamp=cluster.clock.now,
            ))
            seq += 1
        cluster.tick(TICK_S)
        node_seconds += len(cluster.shards) * TICK_S
        max_shards = max(max_shards, len(cluster.shards))
        # The SLO check reads this tick's worst shard wait (window=1:
        # the most recent observation per shard).
        if cluster.ingest_wait_p95(1) <= SLO_WAIT_S:
            slo_met += 1
    return {
        "slo_attainment": slo_met / len(trace),
        "node_seconds": node_seconds,
        "max_shards": max_shards,
        "final_shards": len(cluster.shards),
        "ticks": len(trace),
    }


def run_scaling_comparison(smoke=False) -> dict:
    """Elastic 2..8 vs static 8 on the diurnal and flash-spike traces."""
    diurnal = diurnal_trace(smoke)
    spike = spike_trace(smoke)

    d_elastic = run_trace(make_cluster(True, MIN_SHARDS), diurnal, "d")
    d_static = run_trace(make_cluster(False, MAX_SHARDS), diurnal, "d")
    s_elastic = run_trace(make_cluster(True, MIN_SHARDS), spike, "s")
    s_static = run_trace(make_cluster(False, MAX_SHARDS), spike, "s")

    return {
        "diurnal": {"elastic": d_elastic, "static": d_static},
        "spike": {"elastic": s_elastic, "static": s_static},
        "node_hours_ratio": (
            d_elastic["node_seconds"] / d_static["node_seconds"]
        ),
        "attainment_ratio": (
            s_elastic["slo_attainment"] / max(1e-9, s_static["slo_attainment"])
        ),
    }


def check_scaling_bounds(out: dict) -> None:
    """Acceptance: peak-grade SLO attainment at off-peak footprint.

    * on the flash spike, the elastic cluster attains at least
      ATTAINMENT_MIN of the static 8-shard cluster's SLO attainment;
    * across the diurnal trace it spends at most NODE_HOURS_MAX of the
      static cluster's node-hours;
    * the controller actually moved: it reached MAX_SHARDS under the
      spike and returned to MIN_SHARDS by the end of each trace.
    """
    assert out["attainment_ratio"] >= ATTAINMENT_MIN, (
        f"elastic spike SLO attainment is only "
        f"{out['attainment_ratio']:.3f} of static "
        f"(bound {ATTAINMENT_MIN})"
    )
    assert out["node_hours_ratio"] <= NODE_HOURS_MAX, (
        f"elastic diurnal footprint is {out['node_hours_ratio']:.2f} of "
        f"static node-hours (bound {NODE_HOURS_MAX})"
    )
    assert out["spike"]["elastic"]["max_shards"] == MAX_SHARDS
    assert out["spike"]["elastic"]["final_shards"] == MIN_SHARDS
    assert out["diurnal"]["elastic"]["final_shards"] == MIN_SHARDS
    assert out["diurnal"]["static"]["max_shards"] == MAX_SHARDS


# -- purchase byte-identity through mid-sale scaling -------------------------

N_PRODUCTS = 16
N_SHOPPERS = 200
INITIAL_STOCK = 30
SALE_TICKS = 24
SALE_REQUESTS_PER_TICK = 40
SALE_INGEST_PER_TICK = 120   # drives the controller to scale mid-sale


def canonical_outcomes(outcomes) -> str:
    return json.dumps(
        [
            [o.request.shopper_id, o.request.product_id, int(o.success),
             o.reason]
            for o in outcomes
        ],
        sort_keys=True, separators=(",", ":"),
    )


def sale_requests() -> list[list[PurchaseRequest]]:
    """A deterministic flash-sale stream, pre-split into per-tick batches."""
    workload = MarketplaceWorkload(
        FlashSaleConfig(
            n_products=N_PRODUCTS, n_shoppers=N_SHOPPERS, zipf_skew=1.3,
            base_rate=SALE_REQUESTS_PER_TICK / TICK_S, burst_rate=0.0,
            burst_start=1e9, burst_end=1e9, initial_stock=INITIAL_STOCK,
        ),
        seed=29,
    )
    return [
        workload.requests_between(i * TICK_S, (i + 1) * TICK_S)
        for i in range(SALE_TICKS)
    ]


def run_sale(cluster: PlatformCluster) -> tuple[list, dict]:
    workload = MarketplaceWorkload(
        FlashSaleConfig(n_products=N_PRODUCTS, initial_stock=INITIAL_STOCK),
        seed=29,
    )
    cluster.load_catalog(workload.catalog_records())
    outcomes = []
    seq = 0
    for batch in sale_requests():
        for _ in range(SALE_INGEST_PER_TICK):
            cluster.ingest(DataRecord(
                key=f"sale-{seq:06d}", source="sim", space=Space.VIRTUAL,
                payload={"n": seq}, timestamp=cluster.clock.now,
            ))
            seq += 1
        outcomes += cluster.process_purchases(batch)
        cluster.tick(TICK_S)
    stocks = {
        workload.product_id(i): cluster.get_stock(workload.product_id(i))
        for i in range(N_PRODUCTS)
    }
    return outcomes, stocks


def run_purchase_identity() -> dict:
    """The same sale on the elastic and static clusters, scaling mid-sale."""
    elastic = make_cluster(True, MIN_SHARDS)
    static = make_cluster(False, MAX_SHARDS)
    e_outcomes, e_stocks = run_sale(elastic)
    s_outcomes, s_stocks = run_sale(static)
    sold = sum(o.success for o in e_outcomes)
    conserved = not exactly_once_violations(
        dict.fromkeys(e_stocks, INITIAL_STOCK), units_sold(e_outcomes), e_stocks
    )
    return {
        "identical": int(
            canonical_outcomes(e_outcomes) == canonical_outcomes(s_outcomes)
        ),
        "stocks_identical": int(e_stocks == s_stocks),
        "conserved": int(conserved),
        "requests": float(len(e_outcomes)),
        "successes": float(sold),
        "scale_outs": float(
            elastic.metrics.counter("cluster.elasticity.scale_out").value
        ),
    }


def check_purchase_identity(out: dict) -> None:
    """Acceptance: scaling never changes a purchase decision.

    The purchase stream is globally ordered before sharding and every
    product is serialized on one shard, so the elastic cluster — even
    joining/leaving shards mid-sale — must produce byte-identical
    outcomes and final stocks to the static cluster, with stock exactly
    conserved.
    """
    assert out["identical"] == 1, "elastic sale outcomes diverged from static"
    assert out["stocks_identical"] == 1
    assert out["conserved"] == 1
    assert out["scale_outs"] > 0, "the sale never scaled mid-stream"


# -- hot-key salting and admission control -----------------------------------

SALT_BUCKETS = 4
HOT_SHOPPERS = 160


def run_salting() -> dict:
    """Salt one hot product; contention must spread with stock conserved."""
    cluster = make_cluster(False, 4)
    workload = MarketplaceWorkload(
        FlashSaleConfig(n_products=8, initial_stock=120), seed=7
    )
    cluster.load_catalog(workload.catalog_records())
    hot = workload.product_id(0)
    buckets = cluster.salt_product(hot, SALT_BUCKETS)
    bucket_shards = {cluster.router.owner_of(b) for b in buckets}
    requests = [
        PurchaseRequest(
            shopper_id=f"shopper-{i:05d}", product_id=hot,
            space=Space.VIRTUAL, timestamp=float(i),
        )
        for i in range(HOT_SHOPPERS)
    ]
    outcomes = cluster.process_purchases(requests)
    sold = sum(o.success for o in outcomes)
    merged = cluster.unsalt_product(hot)
    return {
        "buckets": float(len(buckets)),
        "bucket_shards": float(len(bucket_shards)),
        "successes": float(sold),
        "stock_after": float(merged),
        "conserved": int(
            not exactly_once_violations({hot: 120}, units_sold(outcomes), {hot: merged})
        ),
    }


def check_salting(out: dict) -> None:
    """Acceptance: salting spreads the hot key and conserves stock exactly."""
    assert out["conserved"] == 1, "salting lost or duplicated stock"
    assert out["bucket_shards"] >= 2, "salt buckets landed on one shard"
    assert out["buckets"] == SALT_BUCKETS


ADMISSION_RATE = 40.0
ADMISSION_OFFERED = 120      # per space, in one burst


def run_admission() -> dict:
    """Overrun the token bucket: virtual sheds, physical always lands."""
    cluster = PlatformCluster(config=ClusterConfig(
        n_shards=2,
        elasticity=ElasticityConfig(
            autoscale=False,
            admission_rate=ADMISSION_RATE,
            admission_burst=ADMISSION_RATE,
        ),
    ))
    for i in range(ADMISSION_OFFERED):
        cluster.ingest(DataRecord(
            key=f"adm-v-{i:04d}", source="sim", space=Space.VIRTUAL,
            payload={"n": i},
        ))
        cluster.ingest(DataRecord(
            key=f"adm-p-{i:04d}", source="sim", space=Space.PHYSICAL,
            payload={"n": i},
        ))
    cluster.tick(TICK_S)

    def counter(name):
        return float(cluster.metrics.counter(name).value)

    shed = counter("cluster.elasticity.shed_records")
    admitted = counter("cluster.elasticity.admitted")
    overdraft = counter("cluster.elasticity.physical_overdraft")
    buffered = counter("cluster.buffered_records")
    physical_stored = len(cluster.scan_prefix("adm-p-").items)
    return {
        "offered": float(2 * ADMISSION_OFFERED),
        "admitted": admitted,
        "shed": shed,
        "physical_overdraft": overdraft,
        "physical_stored": float(physical_stored),
        "accounted": int(
            admitted + overdraft == buffered
            and buffered + shed == 2 * ADMISSION_OFFERED
        ),
        "physical_ok": int(physical_stored == ADMISSION_OFFERED),
    }


def check_admission(out: dict) -> None:
    """Acceptance: shedding is priority-ordered and exactly accounted.

    * every physical-space record is stored — shedding never touches the
      top priority class;
    * virtual records were actually shed (the burst exceeded the bucket);
    * admitted + overdraft + shed exactly equals the offered load.
    """
    assert out["physical_ok"] == 1, "a physical record was shed"
    assert out["shed"] > 0, "the burst never overran the bucket"
    assert out["accounted"] == 1, "admission accounting leaked records"


# -- pytest entry points ------------------------------------------------------


def test_e29_scaling_slo_and_footprint(benchmark):
    out = benchmark.pedantic(
        lambda: run_scaling_comparison(smoke=True), rounds=1, iterations=1
    )
    check_scaling_bounds(out)


def test_e29_purchases_identical_through_scaling(benchmark):
    out = benchmark.pedantic(run_purchase_identity, rounds=1, iterations=1)
    check_purchase_identity(out)


def test_e29_salting_and_admission(benchmark):
    out = benchmark.pedantic(
        lambda: (run_salting(), run_admission()), rounds=1, iterations=1
    )
    salting, admission = out
    check_salting(salting)
    check_admission(admission)


def test_e29_is_deterministic():
    """Same traces, same controller -> identical scaling trajectory."""
    first = run_scaling_comparison(smoke=True)
    second = run_scaling_comparison(smoke=True)
    assert first == second


# -- reporting ----------------------------------------------------------------


#: Regression gates for ``check_regression.py`` (kinds documented there).
GATES = [
    # Scaling may never change a purchase outcome, salting may never lose
    # stock, shedding may never drop a physical-space record.
    ("flag", "*.identical"),
    ("flag", "*.conserved"),
    ("flag", "*_ok"),
    # Simulated-clock ratios against static provisioning: host-independent,
    # so gated on the suite's absolute bounds, not a band round the baseline.
    ("floor", "spike.attainment_ratio", "meta:attainment_min"),
    ("ceiling", "diurnal.node_hours_ratio", "meta:node_hours_max"),
    # The controller must still exercise its full range on the spike.
    ("floor", "spike.elastic_max_shards", "baseline"),
    ("floor", "purchases.scale_outs", "baseline"),
]


def bench_payload(scaling, purchases, salting, admission, smoke):
    """The BENCH_e29.json document: deterministic gates separated from
    wall-clock readings so the committed baseline diffs cleanly."""
    return {
        "meta": {
            "experiment": "E29",
            "smoke": int(smoke),
            "min_shards": MIN_SHARDS,
            "max_shards": MAX_SHARDS,
            "drain_rate": DRAIN_RATE,
            "slo_wait_s": SLO_WAIT_S,
            "attainment_min": ATTAINMENT_MIN,
            "node_hours_max": NODE_HOURS_MAX,
        },
        "deterministic": {
            "diurnal.node_hours_ratio": scaling["node_hours_ratio"],
            "diurnal.elastic_node_seconds": (
                scaling["diurnal"]["elastic"]["node_seconds"]
            ),
            "diurnal.static_node_seconds": (
                scaling["diurnal"]["static"]["node_seconds"]
            ),
            "diurnal.elastic_slo_attainment": (
                scaling["diurnal"]["elastic"]["slo_attainment"]
            ),
            "diurnal.elastic_max_shards": (
                scaling["diurnal"]["elastic"]["max_shards"]
            ),
            "diurnal.elastic_final_shards": (
                scaling["diurnal"]["elastic"]["final_shards"]
            ),
            "spike.attainment_ratio": scaling["attainment_ratio"],
            "spike.elastic_slo_attainment": (
                scaling["spike"]["elastic"]["slo_attainment"]
            ),
            "spike.static_slo_attainment": (
                scaling["spike"]["static"]["slo_attainment"]
            ),
            "spike.elastic_max_shards": (
                scaling["spike"]["elastic"]["max_shards"]
            ),
            "purchases.identical": purchases["identical"],
            "purchases.stocks_identical": purchases["stocks_identical"],
            "purchases.conserved": purchases["conserved"],
            "purchases.requests": purchases["requests"],
            "purchases.successes": purchases["successes"],
            "purchases.scale_outs": purchases["scale_outs"],
            "salting.conserved": salting["conserved"],
            "salting.bucket_shards": salting["bucket_shards"],
            "salting.successes": salting["successes"],
            "admission.physical_ok": admission["physical_ok"],
            "admission.accounted": admission["accounted"],
            "admission.shed": admission["shed"],
        },
    }


def report(file=sys.stdout, smoke=False, artifacts_dir="benchmarks/artifacts"):
    scaling = run_scaling_comparison(smoke=smoke)
    purchases = run_purchase_identity()
    salting = run_salting()
    admission = run_admission()

    print("== E29: closed-loop elasticity vs static peak provisioning ==",
          file=file)
    print(f"{'trace':>10} {'cluster':>9} {'SLO':>7} {'node-s':>8} "
          f"{'shards':>12}", file=file)
    for trace in ("diurnal", "spike"):
        for kind in ("elastic", "static"):
            row = scaling[trace][kind]
            shards = (
                f"{MIN_SHARDS}->{row['max_shards']}->{row['final_shards']}"
                if kind == "elastic" else f"{MAX_SHARDS} fixed"
            )
            print(
                f"{trace:>10} {kind:>9} {row['slo_attainment']:>6.1%} "
                f"{row['node_seconds']:>8.1f} {shards:>12}",
                file=file,
            )
    check_scaling_bounds(scaling)
    print(
        f"\nspike SLO attainment {scaling['attainment_ratio']:.3f} of static "
        f"(bound {ATTAINMENT_MIN}); diurnal footprint "
        f"{scaling['node_hours_ratio']:.2f} of static node-hours "
        f"(bound {NODE_HOURS_MAX})",
        file=file,
    )

    check_purchase_identity(purchases)
    print(
        f"mid-sale scaling ({purchases['scale_outs']:.0f} scale-outs): "
        f"{purchases['requests']:.0f} purchases byte-identical to static, "
        "stock exactly conserved", file=file,
    )
    check_salting(salting)
    print(
        f"hot-key salting: {SALT_BUCKETS} buckets across "
        f"{salting['bucket_shards']:.0f} shards, "
        f"{salting['successes']:.0f} sold, stock conserved through "
        "split+merge", file=file,
    )
    check_admission(admission)
    print(
        f"admission control: {admission['shed']:.0f} virtual records shed, "
        "0 physical lost, accounting exact", file=file,
    )

    payload = bench_payload(scaling, purchases, salting, admission, smoke)
    metrics = MetricsRegistry()
    for key, value in payload["deterministic"].items():
        metrics.gauge(f"e29.{key}").set(float(value))
    prom_path, json_path = write_snapshot(
        metrics, artifacts_dir, basename="e29_elasticity", prefix="repro"
    )
    print(f"[E29 artifact: {prom_path} and {json_path}]", file=file)
    return payload


if __name__ == "__main__":
    report(smoke="--smoke" in sys.argv[1:])

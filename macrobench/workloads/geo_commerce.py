"""``geo_commerce``: commerce and presence across three regions.

``GeoDeployment`` with its defaults: three regions, a two-shard cluster
each, 40 ms one-way WAN.  Each frame is one step: the purchases that
arrived in it, a batch of player records submitted from a rotating
region under a read-your-writes session, ``geo.tick`` (WAN shipping,
hinted hand-off, anti-entropy), then from ``us-east`` ten point reads and
one prefix query under each consistency mode.  The run ends with drain
ticks until no region lags.

Why it exists: the only workload where ``geo.deployment``,
``GeoReplicator`` and ``net.simnet`` carry the cost.  It guards the
replicator merge (ROADMAP item 3) from the geo side.
"""

from __future__ import annotations

import random
from collections import Counter
from types import SimpleNamespace

from repro import DataKind, DataRecord, GeoConfig, GeoDeployment, GeoSession, Space
from repro.geo import CONSISTENCY_MODES, LINEARIZABLE
from repro.query import prefix_query
from repro.workloads import FlashSaleConfig, MarketplaceWorkload

from . import kv_runs

NAME = "geo_commerce"
FRAMES = 50
PRODUCTS = 100
PURCHASE_RATE = 120.0     # per simulated second (~60 a frame)
INITIAL_STOCK = 25
PLAYERS = 300
WRITES_PER_FRAME = 30
READS_PER_MODE = 10
READ_REGION = "us-east"
MAX_DRAIN_TICKS = 40

HEADLINE = {
    "ingest_rec_s": ("rate", "records", ("ingest", "tick", "drain")),
    "purchase_ops_s": ("rate", "purchases", ("purchase",)),
    "point_read_p50_ms": ("pct", 50, ("read.eventual",)),
    "tick_p50_ms": ("pct", 50, ("tick",)),
    "tick_p95_ms": ("pct", 95, ("tick",)),
    **{
        f"geo.read.{mode}_p50_ms": ("pct", 50, (f"read.{mode}",))
        for mode in CONSISTENCY_MODES
    },
}


def generate(seed: int, scale: float):
    config = FlashSaleConfig(
        n_products=PRODUCTS,
        zipf_skew=1.1,
        burst_rate=PURCHASE_RATE * scale,
        base_rate=PURCHASE_RATE * scale,
        burst_start=0.0,
        burst_end=FRAMES * 0.5,
        initial_stock=max(2, round(INITIAL_STOCK * scale)),
    )
    market = MarketplaceWorkload(config, seed=seed)
    rng = random.Random(f"{seed}:{NAME}")
    n_players = max(20, round(PLAYERS * scale))
    n_writes = max(5, round(WRITES_PER_FRAME * scale))
    frames = []
    for f in range(FRAMES):
        t = f * 0.5
        writes = [
            DataRecord(
                key=f"player/{i:05d}",
                payload={"x": rng.uniform(0.0, 100.0),
                         "y": rng.uniform(0.0, 100.0)},
                space=Space.VIRTUAL, timestamp=t,
                kind=DataKind.LOCATION, source="client",
            )
            for i in rng.sample(range(n_players), n_writes)
        ]
        frames.append(SimpleNamespace(
            requests=market.requests_between(t, t + 0.5),
            writes=writes,
            reads=[w.key for w in writes[:READS_PER_MODE]],
            prefix=f"player/{rng.randrange(n_players) // 10:04d}",
        ))
    return SimpleNamespace(
        seed=seed, frames=frames, catalog=market.catalog_records(),
        initial_stock=config.initial_stock,
        product_ids=[market.product_id(i) for i in range(PRODUCTS)],
        user_bytes=sum(r.size_bytes() for f in frames for r in f.writes),
    )


def setup(inputs):
    geo = GeoDeployment(GeoConfig(seed=inputs.seed))
    geo.load_catalog(inputs.catalog)
    # The sale opens on a converged catalog.
    while geo.max_replication_lag() > 0:
        geo.tick(0.5)
    return SimpleNamespace(
        geo=geo, metrics=geo.metrics, clock=geo.clock,
        session=GeoSession(), sold=Counter(),
    )


def run(world, inputs, rec) -> None:
    geo = world.geo
    regions = geo.config.regions
    for f, frame in enumerate(inputs.frames):
        outcomes = rec.call("purchase", geo.process_purchases, frame.requests)
        rec.call(
            "ingest", geo.ingest_many, frame.writes,
            region=regions[f % len(regions)], session=world.session,
        )
        rec.call("tick", geo.tick, 0.5)
        for mode in CONSISTENCY_MODES:
            for key in frame.reads:
                rec.call(
                    f"read.{mode}", geo.read, key, mode,
                    region=READ_REGION, session=world.session,
                )
            result = rec.call(
                f"query.{mode}", geo.query, prefix_query(frame.prefix), mode,
                region=READ_REGION, session=world.session,
            )
            rec.own["query.prefix.rows_out"] += len(result.items)
            if result.failed_shards:
                rec.fail(f"partial_{mode}_query")
        rec.end_frame()

        for outcome in outcomes:
            if outcome.success:
                world.sold[outcome.request.product_id] += (
                    outcome.request.quantity
                )
        n_reads = len(CONSISTENCY_MODES) * (len(frame.reads) + 1)
        rec.ops(len(frame.requests) + len(frame.writes) + n_reads)
        rec.own["purchases"] += len(frame.requests)
        rec.own["records"] += len(frame.writes)
    for _ in range(MAX_DRAIN_TICKS):
        if geo.max_replication_lag() == 0:
            break
        rec.call("drain", geo.tick, 0.5)
    rec.own["user_bytes"] = inputs.user_bytes


def check(world, inputs, rec) -> None:
    geo = world.geo
    rec.expect("drained", geo.max_replication_lag() == 0)
    agree = conserved = True
    for pid in inputs.product_ids:
        stocks = {
            geo.get_stock(pid, mode, region=region)
            for region in geo.config.regions
            for mode in CONSISTENCY_MODES
        }
        agree &= len(stocks) == 1
        conserved &= stocks == {inputs.initial_stock - world.sold[pid]}
    rec.expect("regions_and_modes_agree_on_stock", agree)
    rec.expect("stock_conservation", conserved)
    rec.own["geo.read.sim_p95_ms"] = 1e3 * geo.metrics.histogram(
        f"geo.read.latency.{LINEARIZABLE}"
    ).p95()
    rec.own["kv.runs"] = sum(
        kv_runs(geo.region(region)) for region in geo.config.regions
    )

"""``flash_sale``: the transactional path under a Zipf-skewed sale.

4-shard cluster with two replicas per shard, 200 products, Zipf 1.1,
stock sized so the hottest tenth sells out mid-run.  Each frame is half a
simulated second of the burst: one ``process_purchases`` over the
requests that arrived in it, a handful of three-item all-or-nothing
baskets (mostly distributed 2PC, a few single-shard), and a
``cluster.tick`` that ships heartbeats and compacts replica logs.

Why it exists: platform executors/MVCC, ``CrossShardCoordinator`` and
``ShardReplicator``/``FailoverManager`` do the work; storage RPC, fusion
and the query plane are idle.  Guards ROADMAP item 3 (one replication
core) and item 2 (the per-record ``put``/persist path).
"""

from __future__ import annotations

import random
from collections import Counter
from types import SimpleNamespace

from repro import ClusterConfig, PlatformCluster, Space
from repro.workloads import FlashSaleConfig, MarketplaceWorkload, PurchaseRequest

from . import kv_runs

NAME = "flash_sale"
FRAMES = 50
PRODUCTS = 200
BURST_RATE = 2000.0       # requests per simulated second (~1000 a frame)
BASKETS_PER_FRAME = 50
BASKET_ITEMS = 3
INITIAL_STOCK = 250       # the 20th-hottest product sells out near the end
SAMPLE = 50

HEADLINE = {
    "purchase_ops_s": ("rate", "purchases", ("purchase",)),
    "basket_ops_s": ("rate", "baskets", ("basket",)),
    "tick_p50_ms": ("pct", 50, ("tick",)),
}


def generate(seed: int, scale: float):
    config = FlashSaleConfig(
        n_products=PRODUCTS,
        zipf_skew=1.1,
        burst_rate=BURST_RATE * scale,
        base_rate=BURST_RATE * scale,
        burst_start=0.0,
        burst_end=FRAMES * 0.5,
        initial_stock=max(2, round(INITIAL_STOCK * scale)),
    )
    market = MarketplaceWorkload(config, seed=seed)
    rng = random.Random(f"{seed}:{NAME}")
    n_baskets = max(2, round(BASKETS_PER_FRAME * scale))
    frames = []
    for f in range(FRAMES):
        t = f * 0.5
        baskets = [
            [
                PurchaseRequest(
                    shopper_id=f"basket-{f:03d}-{b:04d}",
                    product_id=market.product_id(rng.randrange(PRODUCTS)),
                    space=Space.VIRTUAL,
                    timestamp=t,
                )
                for _ in range(BASKET_ITEMS)
            ]
            for b in range(n_baskets)
        ]
        frames.append(SimpleNamespace(
            requests=market.requests_between(t, t + 0.5), baskets=baskets,
        ))
    return SimpleNamespace(
        seed=seed, frames=frames, catalog=market.catalog_records(),
        initial_stock=config.initial_stock,
        product_ids=[market.product_id(i) for i in range(PRODUCTS)],
    )


def setup(inputs):
    cluster = PlatformCluster(ClusterConfig(n_shards=4, n_replicas=2))
    cluster.load_catalog(inputs.catalog)
    return SimpleNamespace(
        cluster=cluster, metrics=cluster.metrics, clock=cluster.clock,
        sold=Counter(), outcomes_match=True,
    )


def run(world, inputs, rec) -> None:
    cluster = world.cluster
    sold = world.sold
    for frame in inputs.frames:
        outcomes = rec.call(
            "purchase", cluster.process_purchases, frame.requests
        )
        for basket in frame.baskets:
            outcome = rec.call("basket", cluster.process_basket, basket)
            if outcome.committed:
                for request in basket:
                    sold[request.product_id] += request.quantity
        rec.call("tick", cluster.tick, 0.5)
        rec.end_frame()

        world.outcomes_match &= len(outcomes) == len(frame.requests)
        for outcome in outcomes:
            if outcome.success:
                sold[outcome.request.product_id] += outcome.request.quantity
        rec.ops(len(frame.requests) + len(frame.baskets))
        rec.own["purchases"] += len(frame.requests)
        rec.own["baskets"] += len(frame.baskets)


def check(world, inputs, rec) -> None:
    cluster = world.cluster
    rec.expect("one_outcome_per_request", world.outcomes_match)
    # A basket that applied only some of its items would break this too,
    # because its items are added to ``sold`` only when it committed.
    rec.expect(
        "stock_conservation",
        all(
            inputs.initial_stock - world.sold[pid] == cluster.get_stock(pid)
            for pid in inputs.product_ids
        ),
    )
    rng = random.Random(f"{inputs.seed}:{NAME}:sample")
    rec.expect(
        "replica_stock_equals_primary",
        all(
            cluster.failover.replica_stock(cluster.router.owner_of(pid), pid)
            == cluster.get_stock(pid)
            for pid in rng.sample(inputs.product_ids, SAMPLE)
        ),
    )
    replicator = cluster.failover.replicator
    rec.own["failover.log_entries"] = sum(
        replicator.entry_count(name) for name in cluster.router.shards
    )
    rec.own["sim.purchase_throughput"] = cluster.compute_throughput(
        rec.own["purchases"]
    )
    rec.own["kv.runs"] = kv_runs(cluster)

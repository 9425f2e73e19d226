"""Counters a hot path binds once must stay honest.

``SimulatedNetwork`` binds ``net.messages_sent``, ``net.bytes_sent``,
``net.messages_delivered`` and the ``net.delivery_latency`` histogram at
construction; ``ShardRouter`` binds ``cluster.router.lookups``;
``CrossShardCoordinator`` binds ``cluster.twopc.committed``/``aborted``
and the ``cluster.twopc.latency_s`` histogram; ``BufferPool`` binds
``pool.hits``, ``pool.misses`` and ``pool.evictions``; ``ShardReplicator``
binds ``cluster.failover.replicated_ops``, ``hints_buffered``,
``replication_dropped``, ``hints_delivered``, ``antientropy_repairs``,
``log_compactions`` and ``compacted_entries``; ``GeoReplicator``
``geo.repl.logged``, ``delivered`` and ``duplicates``, and
``GeoDeployment`` ``geo.writes``, ``geo.repl.shipped``, ``delivered``
and ``applied`` and ``geo.antientropy.repaired_entries``;
``PlatformCluster``
binds ``cluster.basket.local``/``distributed``,
``cluster.purchases_routed``, ``cluster.buffered_records``,
``cluster.ingested_records``, ``cluster.continuous.evaluations`` and the
``cluster.router.batch_size`` and ``cluster.query.fanout_results``
histograms, ``MetaversePlatform`` ``platform.purchases``,
``platform.soldout``, ``platform.continuous.evaluations``,
``platform.buffered_records`` and ``platform.ingested_records``,
``DeviceGateway`` ``gateway.raw_records``, ``gateway.uplink_bytes`` and
``gateway.sent_records``, ``MVStore`` ``mvcc.commits``, ``KVStore``
``kv.puts``, ``kv.gets``, ``kv.scans``, ``kv.deletes``, ``kv.flushes``
and ``kv.compactions``, ``StorageNode`` its ``storage.node.<name>.ops``,
and ``RemoteStorageEngine`` ``storage.rpc.calls``, ``storage.rpc.bytes``
and the ``storage.rpc.latency_s`` histogram.  A fault-free message, a
lookup, a 2PC round, a page access, a logged segment, a basket, a
purchase call, a platform's or a cluster's ingest and flush, a cluster's
query or tick, a gateway's batch flush, a replicated cluster's purchase,
basket and compacting tick, a geo write and tick, a local engine's
write, read, scan or delete, a memtable flush with compaction, or a
storage round trip therefore asks the registry for nothing of its own,
and what it counts still lands in that registry, also after
``reset()``.  Fault paths (a dropped reading, a stale read) keep their
lookups.
"""

import pytest

from repro.cluster import ClusterConfig, PlatformCluster, ShardReplicator
from repro.cluster.coordinator import CrossShardCoordinator
from repro.cluster.router import ShardRouter
from repro.core import DataRecord, EventScheduler, MetricsRegistry, Space
from repro.core.columns import RecordBatch
from repro.geo import GeoConfig, GeoDeployment
from repro.net import Link, SimulatedNetwork
from repro.platform import MetaversePlatform
from repro.platform.gateway import DeviceGateway
from repro.query.plane import prefix_query, spatial_query
from repro.replication import entity_op
from repro.resilience import FaultInjector, FaultPlan, FaultRule
from repro.spatial.geometry import BBox
from repro.storage import BufferPool, KVStore, PageMeta
from repro.txn import Coordinator, DistributedTxn, Participant
from repro.workloads.marketplace import PurchaseRequest


class LookupLog(MetricsRegistry):
    """A registry that records every counter and histogram lookup."""

    def __init__(self) -> None:
        super().__init__()
        self.lookups: list[str] = []

    def counter(self, name):
        self.lookups.append(name)
        return super().counter(name)

    def histogram(self, name):
        self.lookups.append(name)
        return super().histogram(name)


def network(metrics):
    scheduler = EventScheduler()
    net = SimulatedNetwork(
        scheduler, default_link=Link(latency_s=0.01, bandwidth_bps=1e12),
        metrics=metrics,
    )
    net.add_node("a")
    net.add_node("b").on("t", lambda message: None)
    return scheduler, net


def cross_shard(metrics):
    shards = {}
    for name in ("s0", "s1"):
        shards[name] = MetaversePlatform()
        shards[name].load_catalog([
            DataRecord(key=f"{name}/p", payload={"stock": 5, "price": 1})
        ])
    return CrossShardCoordinator(shards, metrics=metrics)


def one_page_pool(metrics):
    """A one-page pool: a second key evicts the first."""
    return BufferPool(
        capacity=1, loader=lambda key: (key, PageMeta()), metrics=metrics
    )


def replicator(metrics, faults=None):
    """Owner ``s0``'s log on a three-shard ring, with one holder."""
    router = ShardRouter(["s0", "s1", "s2"])
    rep = ShardReplicator(router, 2, metrics=metrics, faults=faults)
    rep.log("s0")
    return rep


def segment(*keys):
    return [entity_op(key, 1) for key in keys]


def basket(quantity=1):
    return {"s0": {"s0/p": quantity}, "s1": {"s1/p": quantity}}


def market(metrics):
    """A four-shard cluster with a catalog, and two of its products on
    different shards."""
    cluster = PlatformCluster(ClusterConfig(n_shards=4), metrics=metrics)
    products = [f"p{i}" for i in range(12)]
    cluster.load_catalog([
        DataRecord(key=pid, payload={"stock": 5, "price": 1})
        for pid in products
    ])
    first = products[0]
    owner = cluster.router.owner_of(first)
    second = next(p for p in products if cluster.router.owner_of(p) != owner)
    return cluster, first, second


def standing(metrics):
    """A three-shard cluster with a standing prefix and a standing
    spatial query."""
    cluster = PlatformCluster(ClusterConfig(n_shards=3), metrics=metrics)
    cluster.register_continuous("all", "e/")
    cluster.register_continuous_query("box", spatial_query(BBox(0, 0, 4, 1)))
    return cluster


def entities(*indices):
    return [
        DataRecord(key=f"e/{i}", payload={"x": float(i), "y": 0.0})
        for i in indices
    ]


def ingest_flush_query_tick(cluster):
    """One record and a batch of eight in, a flush, a query, one more
    record and a tick."""
    cluster.ingest(*entities(0))
    cluster.ingest_batch(RecordBatch.from_records(entities(*range(1, 9))))
    cluster.flush()
    cluster.query(prefix_query("e/"))
    cluster.ingest(*entities(9))
    return cluster.tick(0.5)


def local_scenario(cluster):
    """The ingest, flush, query and tick above, a spatial query and a
    drop, on a three-shard local-engine cluster with two standing
    queries."""
    results = ingest_flush_query_tick(cluster)
    hits = cluster.query(spatial_query(BBox(0, 0, 2, 1))).items
    cluster.drop_entity("e/9")
    return results, hits


def tier_flush_and_query(cluster):
    """Ten records flushed to a two-node tier, then a prefix query."""
    cluster.ingest_many(entities(*range(10)))
    cluster.flush()
    return cluster.query(prefix_query("e/")).items


def replicated(metrics):
    """A four-shard cluster keeping two copies of each log, compacted
    past two records, with a catalog; two of its products on different
    shards."""
    cluster = PlatformCluster(
        ClusterConfig(n_shards=4, n_replicas=2, replica_log_compact_threshold=2),
        metrics=metrics,
    )
    products = [f"p{i}" for i in range(12)]
    cluster.load_catalog([
        DataRecord(key=pid, payload={"stock": 50, "price": 1})
        for pid in products
    ])
    first = products[0]
    owner = cluster.router.owner_of(first)
    second = next(p for p in products if cluster.router.owner_of(p) != owner)
    return cluster, first, second


def purchase_basket_tick(cluster, first, second):
    """Three purchase calls, a distributed basket and a tick that
    compacts the logs they grew."""
    for _ in range(3):
        cluster.process_purchases(requests(first, second))
    assert cluster.process_basket(requests(first, second)).committed
    cluster.tick(0.5)


def geo_write_tick(geo):
    """Ten entities written at their homes, then a tick that delivers,
    lands and compares every copy."""
    geo.ingest_many(entities(*range(10)))
    geo.tick(0.5)


def platform_ingest_flush(platform):
    """One record and a batch of eight buffered, then one flush."""
    platform.ingest(*entities(0))
    platform.ingest_batch(RecordBatch.from_records(entities(*range(1, 9))))
    return platform.flush()


def gateway_flush(gateway):
    """Eight readings in as one batch, then one batch flush."""
    gateway.ingest_batch(RecordBatch.from_records(entities(*range(8))))
    return gateway.flush_batch()


def small_store(metrics):
    """A store that flushes past 64 bytes and compacts past one run."""
    return KVStore(memtable_budget_bytes=64, max_runs=1, metrics=metrics)


def flush_and_compact(kv):
    """Six puts: three memtable flushes, the last two compacting."""
    for i in range(6):
        kv.put(f"k{i}", i)


def requests(*products):
    return [
        PurchaseRequest(f"s{i}", pid, Space.PHYSICAL, float(i))
        for i, pid in enumerate(products)
    ]


class TestNoLookupOnTheHotPath:
    def test_a_send_and_its_delivery(self):
        metrics = LookupLog()
        scheduler, net = network(metrics)
        metrics.lookups.clear()
        net.send("a", "b", "t", None, size_bytes=100)
        scheduler.run_all()
        assert metrics.lookups == []
        assert metrics.counter("net.messages_sent").value == 1
        assert metrics.counter("net.bytes_sent").value == 100
        assert metrics.counter("net.messages_delivered").value == 1
        assert metrics.histogram("net.delivery_latency").count == 1

    def test_an_owner_lookup(self):
        metrics = LookupLog()
        router = ShardRouter(["s0", "s1", "s2"], metrics=metrics)
        metrics.lookups.clear()
        owners = {router.owner_of(f"k{i}") for i in range(20)}
        assert metrics.lookups == []
        assert owners <= {"s0", "s1", "s2"}
        assert metrics.counter("cluster.router.lookups").value == 20

    def test_a_two_phase_round(self):
        metrics = LookupLog()
        scheduler = EventScheduler()
        net = SimulatedNetwork(scheduler, metrics=metrics)
        coordinator = Coordinator(net)
        participants = [Participant(net, f"dc-{i}") for i in range(3)]
        metrics.lookups.clear()
        outcome = coordinator.execute(DistributedTxn(
            {p.name: {"k": 1} for p in participants}
        ))
        assert outcome.committed
        assert metrics.lookups == []
        assert metrics.counter("net.messages_sent").value == 12

    def test_a_cross_shard_basket(self):
        metrics = LookupLog()
        coordinator = cross_shard(metrics)
        metrics.lookups.clear()
        assert coordinator.execute(basket()).committed
        assert not coordinator.execute(basket(quantity=50)).committed
        assert metrics.lookups == []
        assert metrics.counter("cluster.twopc.committed").value == 1
        assert metrics.counter("cluster.twopc.aborted").value == 1
        assert metrics.histogram("cluster.twopc.latency_s").count == 2


    def test_a_local_basket_a_distributed_basket_and_a_purchase_call(self):
        metrics = LookupLog()
        cluster, first, second = market(metrics)
        metrics.lookups.clear()
        assert cluster.process_basket(requests(first)).committed
        assert cluster.process_basket(requests(first, second)).committed
        outcomes = cluster.process_purchases(requests(first, second, second))
        assert all(outcome.success for outcome in outcomes)
        assert metrics.lookups == []
        assert metrics.counter("cluster.basket.local").value == 1
        assert metrics.counter("cluster.basket.distributed").value == 1
        assert metrics.counter("cluster.purchases_routed").value == 3
        assert metrics.counter("platform.purchases").value == 3

    def test_a_cluster_ingest_flush_query_and_tick(self):
        metrics = LookupLog()
        cluster = standing(metrics)
        metrics.lookups.clear()
        results = ingest_flush_query_tick(cluster)
        assert [n for n in metrics.lookups if n.startswith("cluster.")] == []
        assert [key for key, _ in results["box"].items] == [
            f"e/{i}" for i in range(5)
        ]
        assert metrics.counter("cluster.buffered_records").value == 10
        assert metrics.counter("cluster.ingested_records").value == 10
        assert metrics.counter("cluster.continuous.evaluations").value == 2
        # The query, then the tick's two standing queries.
        assert metrics.histogram("cluster.query.fanout_results").samples == [
            9, 10, 5
        ]
        assert sum(metrics.histogram("cluster.router.batch_size").samples) == 10

    def test_a_local_engines_writes_reads_scans_and_delete(self):
        metrics = LookupLog()
        cluster = standing(metrics)
        metrics.lookups.clear()
        results, hits = local_scenario(cluster)
        assert [n for n in metrics.lookups if n.startswith("kv.")] == []
        assert len(results["all"].items) == 10
        assert [key for key, _ in hits] == ["e/0", "e/1", "e/2"]
        assert metrics.counter("kv.puts").value == 10
        # The standing box fetches its five hits, the spatial query three.
        assert metrics.counter("kv.gets").value == 8
        # The prefix query's scan and the standing view's hydration, per
        # shard; the position indexes started hydrated.
        assert metrics.counter("kv.scans").value == 6
        assert metrics.counter("kv.deletes").value == 1

    def test_a_tier_clusters_flush_and_prefix_query(self):
        metrics = LookupLog()
        cluster = PlatformCluster(
            ClusterConfig(n_shards=3, n_storage_nodes=2), metrics=metrics
        )
        metrics.lookups.clear()
        items = tier_flush_and_query(cluster)
        assert [
            n for n in metrics.lookups
            if n.startswith(("storage.rpc.", "storage.node."))
        ] == []
        assert [key for key, _ in items] == [f"e/{i}" for i in range(10)]
        # One mput per shard per node holding its keys (four pairs), and
        # one scan per node that the query's three shards share.
        assert metrics.counter("storage.rpc.calls").value == 6
        assert metrics.histogram("storage.rpc.latency_s").count == 6
        assert metrics.counter("storage.rpc.bytes").value > 0
        assert sum(
            metrics.counter(f"storage.node.{name}.ops").value
            for name in cluster.storage.node_names
        ) == 6

    def test_a_page_hit_a_miss_and_an_eviction(self):
        metrics = LookupLog()
        pool = one_page_pool(metrics)
        metrics.lookups.clear()
        assert [pool.get(key) for key in ("a", "a", "b")] == ["a", "a", "b"]
        assert metrics.lookups == []
        assert metrics.counter("pool.hits").value == 1
        assert metrics.counter("pool.misses").value == 2
        assert metrics.counter("pool.evictions").value == 1

    def test_a_logged_segment_its_hints_and_their_delivery(self):
        metrics = LookupLog()
        rep = replicator(metrics)
        holder = rep.holders("s0")[1]
        metrics.lookups.clear()
        rep.log_op("s0", segment("a", "b"))
        rep.mark_down(holder)
        rep.log_op("s0", segment("c"))
        rep.mark_up(holder)
        assert metrics.lookups == []
        assert metrics.counter("cluster.failover.replicated_ops").value == 3
        assert metrics.counter("cluster.failover.hints_buffered").value == 1
        assert metrics.counter("cluster.failover.hints_delivered").value == 1


    def test_a_replicated_purchase_basket_and_tick(self):
        metrics = LookupLog()
        cluster, first, second = replicated(metrics)
        metrics.lookups.clear()
        purchase_basket_tick(cluster, first, second)
        assert metrics.lookups == []
        # The catalog's twelve product ops, then three calls and a
        # basket of one stock op per product each.
        assert metrics.counter("cluster.failover.replicated_ops").value == 20
        # Both owners' logs, each copy: the stock records the last one
        # supersedes.
        assert metrics.counter("cluster.failover.log_compactions").value == 2
        assert metrics.counter("cluster.failover.compacted_entries").value == 12

    def test_a_geo_write_and_tick(self):
        metrics = LookupLog()
        geo = GeoDeployment(GeoConfig(), metrics=metrics)
        homes = {geo.home_of(f"e/{i}") for i in range(10)}
        metrics.lookups.clear()
        geo_write_tick(geo)
        assert metrics.lookups == []
        assert metrics.counter("geo.writes").value == 10
        assert metrics.counter("geo.repl.logged").value == len(homes)
        for name in ("shipped", "delivered", "applied"):
            assert metrics.counter(f"geo.repl.{name}").value == 2 * len(homes)


    def test_a_platform_ingest_and_flush(self):
        metrics = LookupLog()
        platform = MetaversePlatform(metrics=metrics)
        metrics.lookups.clear()
        assert platform_ingest_flush(platform) == 9
        assert metrics.lookups == []
        assert metrics.counter("platform.buffered_records").value == 9
        assert metrics.counter("platform.ingested_records").value == 9

    @pytest.mark.parametrize("aggregate", [False, True])
    def test_a_gateway_batch_flush(self, aggregate):
        metrics = LookupLog()
        gateway = DeviceGateway(
            aggregate=aggregate, group_fn=lambda r: r.key, metrics=metrics
        )
        metrics.lookups.clear()
        batch, uplink = gateway_flush(gateway)
        assert metrics.lookups == []
        assert metrics.counter("gateway.raw_records").value == 8
        assert metrics.counter("gateway.sent_records").value == len(batch)
        assert metrics.counter("gateway.uplink_bytes").value == uplink > 0

    def test_a_memtable_flush_with_compaction(self):
        metrics = LookupLog()
        kv = small_store(metrics)
        metrics.lookups.clear()
        flush_and_compact(kv)
        assert metrics.lookups == []
        assert metrics.counter("kv.flushes").value == 3
        assert metrics.counter("kv.compactions").value == 2
        assert kv.run_count == 1


class TestBoundCountersSurviveReset:
    def test_the_network_counts_into_the_registry_after_reset(self):
        metrics = MetricsRegistry()
        scheduler, net = network(metrics)
        net.send("a", "b", "t", None, size_bytes=10)
        scheduler.run_all()
        metrics.reset()
        net.send("a", "b", "t", None, size_bytes=30)
        scheduler.run_all()
        snapshot = metrics.snapshot()
        assert snapshot["net.messages_sent"] == 1
        assert snapshot["net.bytes_sent"] == 30
        assert snapshot["net.messages_delivered"] == 1
        assert snapshot["net.delivery_latency.count"] == 1

    def test_the_router_counts_into_the_registry_after_reset(self):
        metrics = MetricsRegistry()
        router = ShardRouter(["s0", "s1"], metrics=metrics)
        router.owner_of("a")
        metrics.reset()
        router.owner_of("b")
        assert metrics.snapshot()["cluster.router.lookups"] == 1

    def test_the_cross_shard_coordinator_counts_into_the_registry_after_reset(self):
        metrics = MetricsRegistry()
        coordinator = cross_shard(metrics)
        coordinator.execute(basket())
        metrics.reset()
        coordinator.execute(basket())
        coordinator.execute(basket(quantity=50))
        snapshot = metrics.snapshot()
        assert snapshot["cluster.twopc.committed"] == 1
        assert snapshot["cluster.twopc.aborted"] == 1
        assert snapshot["cluster.twopc.latency_s.count"] == 2


    def test_the_cluster_counts_baskets_and_purchases_after_reset(self):
        metrics = MetricsRegistry()
        cluster, first, second = market(metrics)
        cluster.process_basket(requests(first))
        cluster.process_purchases(requests(second))
        metrics.reset()
        cluster.process_basket(requests(first))
        cluster.process_basket(requests(first, second))
        cluster.process_basket(requests(first, second))
        cluster.process_purchases(requests(first, first, second, second))
        cluster.process_purchases(requests(first) * 3)
        snapshot = metrics.snapshot()
        assert snapshot["cluster.basket.local"] == 1
        assert snapshot["cluster.basket.distributed"] == 2
        assert snapshot["cluster.purchases_routed"] == 7
        # Five units each, one of each gone before the reset: the
        # baskets leave one of the first and two of the second.
        assert snapshot["platform.purchases"] == 3
        assert snapshot["platform.soldout"] == 4
        # One local basket, two shards each for two baskets and a call.
        assert snapshot["mvcc.commits"] == 7

    def test_the_cluster_counts_ingest_queries_and_ticks_after_reset(self):
        metrics = MetricsRegistry()
        cluster = standing(metrics)
        ingest_flush_query_tick(cluster)
        metrics.reset()
        ingest_flush_query_tick(cluster)
        snapshot = metrics.snapshot()
        assert snapshot["cluster.buffered_records"] == 10
        assert snapshot["cluster.ingested_records"] == 10
        assert snapshot["cluster.continuous.evaluations"] == 2
        assert snapshot["cluster.query.fanout_results.count"] == 3
        assert sum(metrics.histogram("cluster.router.batch_size").samples) == 10

    def test_a_local_engine_counts_into_the_registry_after_reset(self):
        metrics = MetricsRegistry()
        cluster = standing(metrics)
        local_scenario(cluster)
        metrics.reset()
        local_scenario(cluster)
        snapshot = metrics.snapshot()
        assert snapshot["kv.puts"] == 10
        assert snapshot["kv.gets"] == 8  # hydrated views scan no more
        assert snapshot["kv.scans"] == 3
        assert snapshot["kv.deletes"] == 1

    def test_the_storage_rpc_counts_into_the_registry_after_reset(self):
        metrics = MetricsRegistry()
        cluster = PlatformCluster(
            ClusterConfig(n_shards=3, n_storage_nodes=2), metrics=metrics
        )
        tier_flush_and_query(cluster)
        metrics.reset()
        tier_flush_and_query(cluster)
        snapshot = metrics.snapshot()
        assert snapshot["storage.rpc.calls"] == 6
        assert snapshot["storage.rpc.latency_s.count"] == 6
        assert snapshot["storage.rpc.bytes"] > 0
        assert sum(
            snapshot[f"storage.node.{name}.ops"]
            for name in cluster.storage.node_names
        ) == 6

    def test_the_pool_counts_into_the_registry_after_reset(self):
        metrics = MetricsRegistry()
        pool = one_page_pool(metrics)
        pool.get("a")
        pool.get("a")
        metrics.reset()
        for key in ("a", "b", "b"):
            pool.get(key)
        snapshot = metrics.snapshot()
        assert snapshot["pool.hits"] == 2
        assert snapshot["pool.misses"] == 1
        assert snapshot["pool.evictions"] == 1

    def test_the_replicator_counts_into_the_registry_after_reset(self):
        metrics = MetricsRegistry()
        drop = FaultInjector(FaultPlan(rules=[FaultRule(
            site="cluster.replicate", kind="drop", rate=1.0, start=1.0,
        )]))
        rep = replicator(metrics, faults=drop)
        holder = rep.holders("s0")[1]
        rep.log_op("s0", segment("a"))
        metrics.reset()
        rep.mark_down(holder)
        rep.log_op("s0", segment("b", "c"))
        rep.mark_up(holder)
        drop.clock.advance(1.0)
        rep.log_op("s0", segment("d", "e", "f"))
        snapshot = metrics.snapshot()
        # Ops are counted as ops; hints and drops as records, one per
        # segment.
        assert snapshot["cluster.failover.replicated_ops"] == 5
        assert snapshot["cluster.failover.hints_buffered"] == 1
        assert snapshot["cluster.failover.hints_delivered"] == 1
        assert snapshot["cluster.failover.replication_dropped"] == 1


    def test_a_replicated_cluster_counts_into_the_registry_after_reset(self):
        metrics = MetricsRegistry()
        cluster, first, second = replicated(metrics)
        purchase_basket_tick(cluster, first, second)
        metrics.reset()
        # Twice: a log is due again once twice its post-compaction size.
        # A round adds four records to each of the two owners' logs (three
        # purchase calls and the basket).  Compacted, a log keeps two: its
        # one catalog record, live for the owner's other products, and its
        # last stock record.  So 2 + 4 is past twice 2 in every round, and
        # each round compacts both logs, removing four records from each
        # of their two copies: 2 rounds x 2 owners x 2 copies x 4 = 32.
        purchase_basket_tick(cluster, first, second)
        purchase_basket_tick(cluster, first, second)
        snapshot = metrics.snapshot()
        assert snapshot["cluster.failover.replicated_ops"] == 16
        assert snapshot["cluster.failover.log_compactions"] == 4
        assert snapshot["cluster.failover.compacted_entries"] == 32

    def test_a_geo_deployment_counts_into_the_registry_after_reset(self):
        metrics = MetricsRegistry()
        geo = GeoDeployment(GeoConfig(), metrics=metrics)
        homes = {geo.home_of(f"e/{i}") for i in range(10)}
        geo_write_tick(geo)
        metrics.reset()
        geo_write_tick(geo)
        snapshot = metrics.snapshot()
        assert snapshot["geo.writes"] == 10
        assert snapshot["geo.repl.logged"] == len(homes)
        for name in ("shipped", "delivered", "applied"):
            assert snapshot[f"geo.repl.{name}"] == 2 * len(homes)


    def test_a_platform_counts_its_ingest_into_the_registry_after_reset(self):
        metrics = MetricsRegistry()
        platform = MetaversePlatform(metrics=metrics)
        platform_ingest_flush(platform)
        metrics.reset()
        platform_ingest_flush(platform)
        snapshot = metrics.snapshot()
        assert snapshot["platform.buffered_records"] == 9
        assert snapshot["platform.ingested_records"] == 9

    def test_a_gateway_counts_into_the_registry_after_reset(self):
        metrics = MetricsRegistry()
        gateway = DeviceGateway(aggregate=False, metrics=metrics)
        gateway_flush(gateway)
        metrics.reset()
        _, uplink = gateway_flush(gateway)
        snapshot = metrics.snapshot()
        assert snapshot["gateway.raw_records"] == 8
        assert snapshot["gateway.sent_records"] == 8
        assert snapshot["gateway.uplink_bytes"] == uplink > 0

    def test_a_store_counts_flushes_and_compactions_after_reset(self):
        metrics = MetricsRegistry()
        kv = small_store(metrics)
        flush_and_compact(kv)
        metrics.reset()
        flush_and_compact(kv)
        snapshot = metrics.snapshot()
        assert snapshot["kv.flushes"] == 3
        assert snapshot["kv.compactions"] == 3


def test_a_negative_size_still_raises():
    _, net = network(MetricsRegistry())
    with pytest.raises(ValueError):
        net.send("a", "b", "t", None, size_bytes=-1)

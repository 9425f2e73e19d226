"""Cross-shard invariants: conservation through rebalancing and faults.

Two families:

* **entity conservation** — every ingested entity (and every catalog
  product, stock included) is readable on exactly one shard before and
  after live shard joins/leaves; rebalancing moves keys, never loses or
  duplicates them;
* **exactly-once under chaos** — the 4-shard flash sale holds the same
  inventory-conservation bar as the single-node chaos tier
  (``tests/test_resilience_chaos.py``) with a 5% uniform fault plan live
  across every shard's fault sites;
* **exactly-once, disaggregated** — the same bar on 4 compute nodes over
  2 shared storage nodes with 5% ``storage.rpc`` faults firing on every
  compute↔storage round trip, through a mid-sale compute kill and
  re-mount recovery.
"""

import pytest

from repro.cluster import ClusterConfig, PlatformCluster
from repro.core import DataKind, DataRecord, Space
from repro.resilience import FaultInjector, FaultPlan
from repro.resilience.faults import FaultRule
from repro.verify import exactly_once_violations, units_sold
from repro.workloads import FlashSaleConfig, MarketplaceWorkload

pytestmark = pytest.mark.cluster


def record(key, payload, timestamp=0.0):
    return DataRecord(
        key=key, payload=payload, space=Space.VIRTUAL,
        timestamp=timestamp, kind=DataKind.STRUCTURED, source="test",
    )


def seeded_cluster(n_shards=4, n_entities=60):
    cluster = PlatformCluster(ClusterConfig(n_shards=n_shards))
    for i in range(n_entities):
        cluster.ingest(record(f"entity/{i:03d}", {"v": i}))
    cluster.flush()
    return cluster


def assert_exactly_one_home(cluster, expected_keys):
    locations = cluster.entity_locations()
    assert set(locations) == set(expected_keys)
    multi = {key: homes for key, homes in locations.items() if len(homes) != 1}
    assert multi == {}, f"keys not on exactly one shard: {multi}"


class TestEntityConservation:
    KEYS = [f"entity/{i:03d}" for i in range(60)]

    def test_shard_join_conserves_every_entity(self):
        cluster = seeded_cluster()
        assert_exactly_one_home(cluster, self.KEYS)
        moved = cluster.add_shard("joiner")
        assert moved > 0  # the new arc is non-empty for 60 keys x 64 vnodes
        assert_exactly_one_home(cluster, self.KEYS)
        for i, key in enumerate(self.KEYS):
            assert cluster.read(key)["payload"] == {"v": i}  # values intact
        assert cluster.metrics.counter(
            "cluster.rebalance.moved_keys"
        ).value == moved

    def test_shard_leave_conserves_every_entity(self):
        cluster = seeded_cluster()
        victim = "shard-2"
        orphans = [
            key for key in self.KEYS if cluster.router.owner_of(key) == victim
        ]
        moved = cluster.remove_shard(victim)
        assert moved == len(orphans)
        assert victim not in cluster.shards
        assert_exactly_one_home(cluster, self.KEYS)
        for i, key in enumerate(self.KEYS):
            assert cluster.read(key)["payload"] == {"v": i}

    def test_join_then_leave_round_trips_ownership(self):
        cluster = seeded_cluster()
        before = {key: cluster.router.owner_of(key) for key in self.KEYS}
        cluster.add_shard("joiner")
        cluster.remove_shard("joiner")
        assert {key: cluster.router.owner_of(key) for key in self.KEYS} == before
        assert_exactly_one_home(cluster, self.KEYS)

    def test_rebalance_preserves_catalog_stock(self):
        """Products migrate through the MVCC catalog with stock intact,
        and purchases keep resolving after the topology change."""
        workload = MarketplaceWorkload(
            FlashSaleConfig(n_products=20, initial_stock=10), seed=1
        )
        cluster = PlatformCluster(ClusterConfig(n_shards=4))
        cluster.load_catalog(workload.catalog_records())
        pids = [workload.product_id(i) for i in range(20)]
        cluster.add_shard("joiner")
        cluster.remove_shard("shard-0")
        assert all(cluster.get_stock(pid) == 10 for pid in pids)
        outcomes = cluster.process_purchases(
            workload.requests_between(0.0, 2.0)
        )
        stocks = {pid: cluster.get_stock(pid) for pid in pids}
        assert exactly_once_violations(dict.fromkeys(pids, 10), units_sold(outcomes), stocks) == []

    def test_buffered_records_survive_membership_changes(self):
        """add/remove flush the ingest buffer first, so records buffered
        under the old ring never route to a stale owner."""
        cluster = seeded_cluster(n_entities=0)
        for i in range(20):
            cluster.ingest(record(f"late/{i}", {"v": i}))
        cluster.add_shard("joiner")
        assert cluster.pending_count == 0
        assert_exactly_one_home(cluster, [f"late/{i}" for i in range(20)])


class TestFlashSaleChaosOnCluster:
    """The E23 chaos bar, held by the 4-shard cluster path."""

    pytestmark = pytest.mark.chaos

    def run_chaotic_cluster_sale(self, fault_seed):
        config = FlashSaleConfig(
            n_products=20, n_shoppers=100, initial_stock=10,
            burst_rate=200.0, burst_start=0.0, burst_end=5.0, zipf_skew=1.0,
        )
        workload = MarketplaceWorkload(config, seed=1)
        injector = FaultInjector(FaultPlan.uniform(0.05, seed=fault_seed))
        cluster = PlatformCluster(ClusterConfig(n_shards=4), faults=injector)
        cluster.load_catalog(workload.catalog_records())
        outcomes = cluster.process_purchases(workload.requests_between(0.0, 5.0))
        # Post-sale audit sweep: ingest stock snapshots and scan them back,
        # driving the storage/ingest/query fault sites the sale itself
        # doesn't touch (the purchase path lives in MVCC).
        for i in range(20):
            pid = workload.product_id(i)
            cluster.ingest(
                record(f"audit/{pid}", {"stock": cluster.get_stock(pid)}, 5.0)
            )
        cluster.tick(1.0)
        cluster.scan_prefix("audit/")
        return cluster, workload, outcomes, injector

    @pytest.mark.parametrize("fault_seed", [7, 23, 101])
    def test_exactly_once_inventory_conservation(self, fault_seed):
        cluster, workload, outcomes, injector = self.run_chaotic_cluster_sale(
            fault_seed
        )
        stocks = {pid: cluster.get_stock(pid) for pid in map(workload.product_id, range(20))}
        assert exactly_once_violations(
            dict.fromkeys(stocks, 10), units_sold(outcomes), stocks
        ) == []
        assert injector.injected > 0  # the plan actually fired

    @pytest.mark.parametrize("fault_seed", [7, 23])
    def test_entities_conserved_under_chaotic_rebalance(self, fault_seed):
        """Membership changes while the 5% plan fires: retries absorb the
        injected storage faults and no entity is lost or duplicated."""
        injector = FaultInjector(FaultPlan.uniform(0.05, seed=fault_seed))
        cluster = PlatformCluster(ClusterConfig(n_shards=4), faults=injector)
        keys = [f"entity/{i:03d}" for i in range(60)]
        for i, key in enumerate(keys):
            cluster.ingest(record(key, {"v": i}))
        cluster.flush()
        dropped = cluster.metrics.counter("cluster.dropped_records").value
        stored = set(cluster.entity_locations())
        assert len(stored) + dropped == len(keys)  # drops are counted, not lost
        cluster.add_shard("joiner")
        cluster.remove_shard("shard-1")
        assert_exactly_one_home(cluster, stored)


@pytest.mark.disagg
@pytest.mark.chaos
class TestFlashSaleChaosDisaggregated:
    """Exactly-once on 4 compute / 2 storage nodes under storage.rpc faults.

    Every compute↔storage round trip consults the injector: 5% of RPCs
    crash outright and 2% vanish (surfacing as client timeouts); the
    platform retry budget absorbs what it can.  Mid-sale one compute node
    is killed and recovered by re-mounting the tier — conservation must
    hold across the crash because committed stock lives in the tier, not
    on the dead node.
    """

    N_PRODUCTS = 20
    INITIAL_STOCK = 10

    def run_disagg_sale(self, fault_seed):
        config = FlashSaleConfig(
            n_products=self.N_PRODUCTS, n_shoppers=100,
            initial_stock=self.INITIAL_STOCK,
            burst_rate=200.0, burst_start=0.0, burst_end=5.0, zipf_skew=1.0,
        )
        workload = MarketplaceWorkload(config, seed=1)
        plan = FaultPlan(
            rules=(
                FaultRule(site="storage.rpc", kind="crash", rate=0.05),
                FaultRule(site="storage.rpc", kind="drop", rate=0.02),
            ),
            seed=fault_seed,
        )
        injector = FaultInjector(plan)
        cluster = PlatformCluster(
            ClusterConfig(n_shards=4, n_storage_nodes=2), faults=injector
        )
        cluster.load_catalog(workload.catalog_records())
        requests = workload.requests_between(0.0, 5.0)
        half = len(requests) // 2
        outcomes = cluster.process_purchases(requests[:half])
        cluster.kill_shard("shard-1")
        outcomes += cluster.process_purchases(requests[half:half + half // 2])
        cluster.tick(0.1)  # re-mounts the killed compute node
        outcomes += cluster.process_purchases(requests[half + half // 2:])
        return cluster, workload, outcomes, injector

    @pytest.mark.parametrize("fault_seed", [7, 23, 101])
    def test_exactly_once_with_storage_rpc_faults(self, fault_seed):
        cluster, workload, outcomes, injector = self.run_disagg_sale(fault_seed)
        stocks = {
            pid: cluster.get_stock(pid)
            for pid in map(workload.product_id, range(self.N_PRODUCTS))
        }
        assert exactly_once_violations(
            dict.fromkeys(stocks, self.INITIAL_STOCK), units_sold(outcomes), stocks
        ) == []
        assert injector.injected > 0  # the plan actually fired
        assert cluster.metrics.counter("cluster.disagg.remounts").value == 1.0
        assert cluster.metrics.counter("storage.rpc.faults").value > 0

"""Shard failover: detection, replication, promotion, recovery.

The contract under test (``repro.cluster.failover``): a shard crash is
*detected* by phi-accrual suspicion over starved heartbeats, its keys
are *served* from replicated op logs while it is down, a replica is
*promoted* by replaying the LSN-union of the surviving log copies
(tolerating torn tails and replication holes), and the copies
*reconverge* via Merkle anti-entropy — all without losing or duplicating
a single purchase (the exactly-once bar experiment E25 measures).
"""

import pytest

from repro.cluster import (
    ClusterConfig,
    PlatformCluster,
    ShardReplicator,
    ShardRouter,
)
from repro.cluster.failover import (
    DOWN,
    RECOVERING,
    UP,
    FailureDetector,
    ReplicaStandIn,
)
from repro.core import ConfigurationError, DataKind, DataRecord, Space
from repro.platform import PurchaseOutcome
from repro.replication import drop_entity_op, entity_op, product_op, stock_op
from repro.resilience import FaultInjector, FaultPlan, FaultRule
from repro.verify import exactly_once_violations, units_sold
from repro.workloads import FlashSaleConfig, MarketplaceWorkload
from repro.workloads.marketplace import PurchaseRequest

pytestmark = [pytest.mark.cluster, pytest.mark.failover]

TICK = 0.05


def record(key, payload, timestamp=0.0):
    return DataRecord(
        key=key, payload=payload, space=Space.VIRTUAL,
        timestamp=timestamp, kind=DataKind.STRUCTURED, source="test",
    )


def failover_cluster(n_shards=4, phi_threshold=4.0, faults=None, **kwargs):
    """A cluster with failover on and a detection delay of ~10 ticks."""
    return PlatformCluster(
        ClusterConfig(
            n_shards=n_shards, n_replicas=2, phi_threshold=phi_threshold,
            **kwargs,
        ),
        faults=faults,
    )


def tick_until_up(cluster, name, max_ticks=300):
    """Advance ticks until ``name`` recovers; return ticks consumed."""
    for i in range(max_ticks):
        if cluster.failover.state(name) == UP:
            return i
        cluster.tick(TICK)
    raise AssertionError(f"{name} did not recover within {max_ticks} ticks")


def keys_owned_by(cluster, owner, n=40, prefix="e"):
    keys = [f"{prefix}/{i:03d}" for i in range(n)]
    owned = [k for k in keys if cluster.router.owner_of(k) == owner]
    assert owned, f"no test key landed on {owner}"
    return keys, owned


class TestFailureDetector:
    def test_config_validated(self):
        with pytest.raises(ConfigurationError):
            FailureDetector(heartbeat_interval_s=0.0)
        with pytest.raises(ConfigurationError):
            FailureDetector(phi_threshold=0.0)

    def test_regular_heartbeats_keep_phi_low(self):
        fd = FailureDetector(heartbeat_interval_s=0.05, phi_threshold=4.0)
        fd.watch("s", 0.0)
        now = 0.0
        for _ in range(40):
            now += 0.05
            fd.heartbeat("s", now)
        assert fd.phi("s", now + 0.05) < 1.0
        assert not fd.suspected("s", now + 0.05)

    def test_silence_accrues_suspicion_monotonically(self):
        fd = FailureDetector(heartbeat_interval_s=0.05, phi_threshold=4.0)
        fd.watch("s", 0.0)
        for t in (0.05, 0.10, 0.15, 0.20):
            fd.heartbeat("s", t)
        phis = [fd.phi("s", 0.20 + dt) for dt in (0.1, 0.3, 0.5, 1.0)]
        assert phis == sorted(phis)
        assert fd.suspected("s", 0.20 + 1.0)  # elapsed >> threshold * mean

    def test_cold_start_shard_still_accrues(self):
        """A shard that never heartbeats is seeded at watch() time, so it
        cannot hide from detection forever."""
        fd = FailureDetector(heartbeat_interval_s=0.05, phi_threshold=4.0)
        fd.watch("never", 10.0)
        assert not fd.suspected("never", 10.0)
        assert fd.suspected("never", 11.0)

    def test_unwatched_shard_has_zero_phi(self):
        assert FailureDetector().phi("ghost", 100.0) == 0.0

    def test_reset_clears_suspicion(self):
        fd = FailureDetector(heartbeat_interval_s=0.05, phi_threshold=4.0)
        fd.watch("s", 0.0)
        assert fd.suspected("s", 5.0)
        fd.reset("s", 5.0)
        assert not fd.suspected("s", 5.0)


class TestReplication:
    def three_shard_replicator(self, n_replicas=2):
        router = ShardRouter(["a", "b", "c"])
        return ShardReplicator(router, n_replicas)

    def test_holders_are_owner_first_and_distinct(self):
        rep = self.three_shard_replicator(n_replicas=3)
        for owner in ("a", "b", "c"):
            holders = rep.holders(owner)
            assert holders[0] == owner
            assert len(holders) == len(set(holders)) == 3

    def test_ops_replicate_lsn_for_lsn(self):
        rep = self.three_shard_replicator()
        owner, holder = rep.holders("a")
        for i in range(5):
            rep.log_op(owner, [entity_op(f"k{i}", i)])
        log = rep.log(owner)
        assert [e.lsn for e in log.entries(owner)] == [1, 2, 3, 4, 5]
        assert log.entries(holder) == log.entries(owner) == log.union()

    def test_dropped_replication_leaves_hole_antientropy_repairs(self):
        """An injected ``cluster.replicate`` drop leaves a visible LSN hole
        in the holder's copy; one anti-entropy round refills it."""
        rep = self.three_shard_replicator()
        owner, holder = rep.holders("a")
        rep.log_op(owner, [entity_op("k1", 1)])
        rep.faults = FaultInjector(FaultPlan(rules=[
            FaultRule(site="cluster.replicate", kind="drop", rate=1.0,
                      target=f"{owner}->{holder}"),
        ]))
        rep.log_op(owner, [entity_op("k2", 2)])  # dropped
        rep.faults = None
        rep.log_op(owner, [entity_op("k3", 3)])
        log = rep.log(owner)
        assert [e.lsn for e in log.entries(holder)] == [1, 3]  # the hole shows
        assert rep.metrics.counter(
            "cluster.failover.replication_dropped"
        ).value == 1
        assert rep.sync_owner(owner) is True  # diverged -> repaired
        assert [e.lsn for e in log.entries(holder)] == [1, 2, 3]
        assert rep.sync_owner(owner) is False  # now converged

    def test_a_dropped_ship_is_repaired_at_the_next_tick(self):
        """A segment every offer of which dropped lives on the primary
        alone until the next tick's anti-entropy, not until the owner's
        next promotion — a torn kill in between would lose it."""
        injector = FaultInjector(FaultPlan(rules=[
            FaultRule(site="cluster.replicate", kind="drop", rate=1.0,
                      end=0.01),
        ]))
        cluster = failover_cluster(n_shards=3, faults=injector)
        cluster.write_records([record(f"e/{i}", {"v": i}) for i in range(6)])
        replicator = cluster.failover.replicator
        holed = [
            owner for owner in cluster.router.shards
            if len(replicator.log(owner).union())
            > len(replicator.log(owner).entries(replicator.holders(owner)[1]))
        ]
        assert holed
        cluster.tick(TICK)
        for owner in cluster.router.shards:
            log = replicator.log(owner)
            assert sorted(e.lsn for e in log.entries(log.holders[0])) == [
                e.lsn for e in log.entries(owner)
            ]
        assert cluster.metrics.counter(
            "cluster.failover.antientropy_repairs"
        ).value == len(holed)

    def test_union_merges_torn_primary_with_fresh_replica(self):
        """The replica carries the suffix the primary lost to a torn tail,
        so the union recovers everything."""
        rep = self.three_shard_replicator()
        owner, _ = rep.holders("a")
        for i in range(4):
            rep.log_op(owner, [entity_op(f"k{i}", i)])
        log = rep.log(owner)
        log.tear(3)  # primary drops its last entry
        assert [e.lsn for e in log.entries(owner)] == [1, 2, 3]
        assert rep.entry_count(owner) == 3
        assert [e.lsn for e in log.union()] == [1, 2, 3, 4]

    def test_replica_read_sees_latest_value_and_stock(self):
        cluster = failover_cluster()
        manager, owner = cluster.failover, "shard-0"
        log_op = manager.replicator.log_op
        log_op(owner, [entity_op("e1", {"x": 1})])
        log_op(owner, [entity_op("e1", {"x": 2})])
        log_op(owner, [product_op("p1", {"stock": 9})])
        log_op(owner, [stock_op("p1", 7)])
        assert ReplicaStandIn(manager, owner).read("e1") == {"x": 2}
        assert manager.replica_stock(owner, "p1") == 7
        assert manager.replica_stock(owner, "p2") is None
        log_op(owner, [drop_entity_op("e1")])
        assert ReplicaStandIn(manager, owner).read("e1") is None


class TestCompactionKeepsAHolderCopy:
    """A log is compacted only while a holder copy besides the primary is
    up: compaction drops superseded records from every up copy, so with
    no other copy a torn primary tail would lose, with the torn record,
    every record it superseded."""

    def test_a_torn_tail_without_a_holder_loses_only_the_torn_call(self):
        # Two shards keeping two copies; removing one leaves the owner
        # with no holder but its own primary.
        cluster = PlatformCluster(ClusterConfig(
            n_shards=2, n_replicas=2, replica_log_compact_threshold=2,
        ))
        cluster.load_catalog([record("p0", {"stock": 8, "price": 1})])
        owner = cluster.router.owner_of("p0")
        cluster.remove_shard(next(
            name for name in cluster.router.shards if name != owner
        ))
        assert cluster.failover.replicator.holders(owner) == [owner]
        for i in range(3):
            [outcome] = cluster.process_purchases([
                PurchaseRequest(f"s{i}", "p0", Space.PHYSICAL, float(i))
            ])
            assert outcome.success
        assert cluster.get_stock("p0") == 5
        cluster.tick(TICK)  # the primary is due: four records, threshold 2
        cluster.kill_shard(owner, torn_tail_bytes=1)
        tick_until_up(cluster, owner)
        # The torn record was the last sale; the two before it survive.
        assert cluster.get_stock("p0") == 6
        assert cluster.metrics.counter(
            "cluster.failover.log_compactions"
        ).value == 0

    def test_a_down_holder_defers_compaction_until_it_returns(self):
        rep = ShardReplicator(ShardRouter(["a", "b", "c"]), 2)
        owner, holder = rep.holders("a")
        for _ in range(4):
            rep.log_op(owner, [entity_op("k", 1)])
        rep.mark_down(holder)
        rep.compact_if_due(owner, 2)
        assert rep.entry_count(owner) == 4
        rep.mark_up(holder)
        rep.compact_if_due(owner, 2)
        assert rep.entry_count(owner) == 1
        assert [e.lsn for e in rep.log(owner).entries(holder)] == [4]


class TestHintedHandoff:
    def test_hints_buffer_while_holder_down_and_deliver_on_recovery(self):
        cluster = failover_cluster()
        rep = cluster.failover.replicator
        victim = "shard-1"
        # An owner whose replica holder is the victim (but is not itself).
        owner = next(
            name for name in cluster.router.shards
            if name != victim and victim in rep.holders(name)
        )
        keys, owned = keys_owned_by(cluster, owner)
        cluster.kill_shard(victim)
        for i, key in enumerate(owned):
            cluster.write_record(record(key, {"v": i}))
        buffered = cluster.metrics.counter(
            "cluster.failover.hints_buffered"
        ).value
        assert buffered >= len(owned)
        log = rep.log(owner)
        assert len(log.entries(victim)) < len(log.entries(owner))
        tick_until_up(cluster, victim)
        assert cluster.metrics.counter(
            "cluster.failover.hints_delivered"
        ).value == buffered
        assert log.entries(victim) == log.entries(owner)


class TestKillAndPromotion:
    def seeded(self, **kwargs):
        cluster = failover_cluster(**kwargs)
        for i in range(40):
            cluster.ingest(record(f"e/{i:03d}", {"v": i}))
        cluster.flush()
        return cluster

    def test_kill_requires_failover_enabled(self):
        with pytest.raises(ConfigurationError):
            PlatformCluster(ClusterConfig(n_shards=2)).kill_shard("shard-0")

    def test_replica_count_bounded_by_shards(self):
        with pytest.raises(ConfigurationError):
            PlatformCluster(ClusterConfig(n_shards=2, n_replicas=3))

    def test_kill_is_not_reentrant(self):
        cluster = self.seeded()
        cluster.kill_shard("shard-0")
        with pytest.raises(ConfigurationError):
            cluster.kill_shard("shard-0")

    def test_down_shard_cannot_be_removed(self):
        cluster = self.seeded()
        cluster.kill_shard("shard-0")
        with pytest.raises(ConfigurationError):
            cluster.remove_shard("shard-0")

    def test_reads_served_from_replica_while_down(self):
        cluster = self.seeded()
        victim = "shard-2"
        _, owned = keys_owned_by(cluster, victim)
        cluster.kill_shard(victim)
        for key in owned:
            value = cluster.read(key)
            assert value["payload"] == {"v": int(key.split("/")[1])}
        assert cluster.metrics.counter(
            "cluster.failover.replica_reads"
        ).value == len(owned)

    def test_torn_tail_recovered_from_replica_suffix(self):
        """The primary log loses its tail at crash time; promotion replays
        the union, so the replica's intact suffix wins."""
        cluster = self.seeded()
        victim = "shard-2"
        _, owned = keys_owned_by(cluster, victim)
        cluster.kill_shard(victim, torn_tail_bytes=5)
        ticks = tick_until_up(cluster, victim)
        assert ticks > 1  # detection takes the phi-accrual delay
        for key in owned:
            assert cluster.read(key)["payload"] == {
                "v": int(key.split("/")[1])
            }
        assert cluster.metrics.counter(
            "cluster.failover.promotions"
        ).value == 1
        assert cluster.metrics.counter(
            "cluster.failover.recoveries"
        ).value == 1
        assert cluster.metrics.gauge(
            "cluster.failover.recovery_time_s"
        ).value > 0.0

    def test_writes_deferred_while_down_land_after_promotion(self):
        cluster = self.seeded()
        victim = "shard-1"
        late = [
            f"late/{i:03d}" for i in range(40)
            if cluster.router.owner_of(f"late/{i:03d}") == victim
        ]
        assert late
        cluster.kill_shard(victim)
        for key in late:
            cluster.write_record(record(key, {"late": True}))
        assert cluster.metrics.counter(
            "cluster.failover.deferred_writes"
        ).value == len(late)
        assert cluster.read(late[0]) is None  # not yet anywhere durable
        tick_until_up(cluster, victim)
        for key in late:
            assert cluster.read(key)["payload"] == {"late": True}

    def test_gather_skips_down_shard_and_reports_it(self):
        cluster = self.seeded()
        victim = "shard-0"
        cluster.kill_shard(victim)
        result = cluster.scan_prefix("e/")
        assert result.partial and victim in result.failed_shards
        assert cluster.metrics.counter(
            "cluster.query.shard_down"
        ).value >= 1
        survivors = {key for key, _ in result.items}
        expected = {
            f"e/{i:03d}" for i in range(40)
            if cluster.router.owner_of(f"e/{i:03d}") != victim
        }
        assert survivors == expected


class TestMarketplaceDuringFailure:
    def catalog_cluster(self, **kwargs):
        config = FlashSaleConfig(n_products=20, initial_stock=10)
        workload = MarketplaceWorkload(config, seed=1)
        cluster = failover_cluster(**kwargs)
        cluster.load_catalog(workload.catalog_records())
        pids = [workload.product_id(i) for i in range(20)]
        return cluster, workload, pids

    def test_purchases_against_down_shard_fail_fast(self):
        cluster, workload, pids = self.catalog_cluster()
        victim = cluster.router.owner_of(pids[0])
        cluster.kill_shard(victim)
        outcomes = cluster.process_purchases(workload.requests_between(0.0, 1.0))
        down_outcomes = [
            o for o in outcomes
            if cluster.router.owner_of(o.request.product_id) == victim
        ]
        assert down_outcomes, "no request hit the killed shard"
        assert all(
            not o.success and o.reason == "shard down" for o in down_outcomes
        )
        assert cluster.metrics.counter(
            "cluster.failover.rejected_purchases"
        ).value == len(down_outcomes)
        # Healthy shards keep selling.
        assert any(o.success for o in outcomes)

    def test_stock_read_from_replica_while_down(self):
        cluster, _, pids = self.catalog_cluster()
        victim = cluster.router.owner_of(pids[0])
        victim_pids = [p for p in pids if cluster.router.owner_of(p) == victim]
        cluster.kill_shard(victim)
        for pid in victim_pids:
            assert cluster.get_stock(pid) == 10
        with pytest.raises(ConfigurationError):
            cluster.get_stock("nonexistent-product-on-" + victim)

    def test_down_owner_product_record_agrees_with_its_stock(self):
        """While an owner is down, ``committed_product`` answers from the
        replicated log like ``get_stock`` does, not from the crashed
        shard's memory, which holds a sale the log never saw."""
        injector = FaultInjector(FaultPlan(rules=[
            FaultRule(site="cluster.replicate", kind="drop", rate=1.0,
                      start=0.5, end=0.6),
        ]))
        cluster = failover_cluster(n_shards=3, faults=injector)
        cluster.import_product("p0", {"stock": 10})
        while cluster.clock.now < 0.55 - 1e-9:
            cluster.tick(TICK)
        [sold] = cluster.process_purchases([
            PurchaseRequest("s1", "p0", Space.VIRTUAL, cluster.clock.now)
        ])
        assert sold.success
        owner = cluster.router.owner_of("p0")
        cluster.kill_shard(owner, torn_tail_bytes=10_000)
        reads = cluster.metrics.counter("cluster.failover.replica_reads")
        before = reads.value
        down = cluster.committed_product("p0")["stock"]
        counted = reads.value - before
        assert down == cluster.get_stock("p0")
        assert counted == 1
        tick_until_up(cluster, owner)
        assert cluster.committed_product("p0")["stock"] == down
        assert cluster.get_stock("p0") == down

    def test_basket_touching_down_shard_rejected(self):
        cluster, _, pids = self.catalog_cluster()
        victim = cluster.router.owner_of(pids[0])
        cluster.kill_shard(victim)
        basket = [
            PurchaseRequest(
                shopper_id="s1", product_id=pids[0], space=Space.VIRTUAL,
                timestamp=0.0, quantity=1,
            )
        ]
        outcome = cluster.process_basket(basket)
        assert not outcome.committed
        assert outcome.reason == f"shard down: {victim}"
        assert cluster.metrics.counter(
            "cluster.failover.rejected_baskets"
        ).value == 1

    def test_crashed_2pc_participant_aborts_on_prepare(self):
        """An in-flight cross-shard basket whose participant died must
        abort on the prepare round, not block."""
        cluster, _, pids = self.catalog_cluster()
        victim = cluster.router.owner_of(pids[0])
        other_pid = next(p for p in pids if cluster.router.owner_of(p) != victim)
        other = cluster.router.owner_of(other_pid)
        cluster.kill_shard(victim)
        outcome = cluster.coordinator.execute(
            {victim: {pids[0]: 1}, other: {other_pid: 1}}
        )
        assert not outcome.committed
        assert "timeout" in outcome.reason
        # The healthy participant released its staged stock.
        assert cluster.get_stock(other_pid) == 10

    def test_purchases_resume_exactly_once_after_recovery(self):
        cluster, workload, pids = self.catalog_cluster()
        victim = cluster.router.owner_of(pids[0])
        outcomes = cluster.process_purchases(workload.requests_between(0.0, 2.0))
        cluster.kill_shard(victim)
        tick_until_up(cluster, victim)
        outcomes += cluster.process_purchases(workload.requests_between(2.0, 5.0))
        stocks = {pid: cluster.get_stock(pid) for pid in pids}
        assert exactly_once_violations(dict.fromkeys(pids, 10), units_sold(outcomes), stocks) == []


class TestSaltedProductFailover:
    """Salt buckets are committed product state like any other: the
    split and the merge reach the owners' failover logs, so promoting
    any bucket's owner conserves the product's stock."""

    @pytest.mark.parametrize("bucket", [0, 1, 2])
    def test_stock_conserved_through_promotion_of_each_bucket_owner(
        self, bucket
    ):
        cluster = failover_cluster(n_shards=3)
        cluster.load_catalog([record("hot", {"stock": 90, "price": 5})])
        buckets = cluster.salt_product("hot", 3)
        requests = [
            PurchaseRequest(f"s{i}", "hot", Space.VIRTUAL, float(i))
            for i in range(7)
        ]
        assert all(o.success for o in cluster.process_purchases(requests))
        assert cluster.get_stock("hot") == 83
        victim = cluster.router.owner_of(buckets[bucket])
        cluster.kill_shard(victim)
        assert cluster.get_stock("hot") == 83  # served from the replicas
        tick_until_up(cluster, victim)
        assert cluster.metrics.counter("cluster.failover.promotions").value == 1
        assert cluster.get_stock("hot") == 83
        assert cluster.unsalt_product("hot") == 83
        assert cluster.get_stock("hot") == 83
        # The merge is logged too: the dropped buckets stay dropped and
        # the merged record survives the next promotion.
        victim = cluster.router.owner_of("hot")
        cluster.kill_shard(victim)
        tick_until_up(cluster, victim)
        assert cluster.get_stock("hot") == 83
        for dropped in buckets[1:]:
            owner = cluster.router.owner_of(dropped)
            assert dropped not in cluster.shards[owner].catalog_snapshot()


class TestHeartbeatStarvation:
    def test_partitioned_heartbeats_drive_false_positive_failover(self):
        """A ``net.link`` partition rule on the victim's heartbeat link
        starves the detector exactly as a real partition would; failover
        proceeds (promote-then-reconverge) and no data is lost."""
        victim = "shard-1"
        injector = FaultInjector(FaultPlan(rules=[
            FaultRule(site="net.link", kind="partition", rate=1.0,
                      target=f"hb/{victim}->hb/monitor", end=0.8),
        ]))
        cluster = failover_cluster(faults=injector)
        for i in range(40):
            cluster.ingest(record(f"e/{i:03d}", {"v": i}))
        cluster.flush()
        _, owned = keys_owned_by(cluster, victim)
        for _ in range(40):
            cluster.tick(TICK)
        assert cluster.metrics.counter(
            "cluster.failover.heartbeats_starved"
        ).value > 0
        assert cluster.metrics.counter(
            "cluster.failover.suspected"
        ).value >= 1
        assert cluster.metrics.counter(
            "cluster.failover.promotions"
        ).value >= 1
        assert cluster.failover.state(victim) == UP  # rule expired; stable
        for key in owned:
            assert cluster.read(key)["payload"] == {
                "v": int(key.split("/")[1])
            }


class TestFailoverGauges:
    def test_per_shard_gauges_track_breaker_and_liveness(self):
        cluster = failover_cluster(n_shards=3)
        cluster.ingest(record("e/0", {"v": 0}))
        cluster.flush()
        for name in cluster.router.shards:
            assert cluster.metrics.gauge(
                f"cluster.shard.{name}.breaker_state"
            ).value == 0.0  # closed
            assert cluster.metrics.gauge(
                f"cluster.shard.{name}.alive"
            ).value == 1.0
            assert cluster.metrics.gauge(
                f"cluster.shard.{name}.phi"
            ).value >= 0.0
        cluster.kill_shard("shard-1")
        assert cluster.metrics.gauge("cluster.shard.shard-1.alive").value == 0.0
        assert cluster.failover.state("shard-1") == DOWN
        # A few ticks of silence: the victim's suspicion pulls ahead of the
        # still-heartbeating shards (but stays under the promote threshold).
        for _ in range(5):
            cluster.tick(TICK)
        assert cluster.failover.state("shard-1") == DOWN
        assert cluster.metrics.gauge("cluster.shard.shard-1.phi").value > (
            cluster.metrics.gauge("cluster.shard.shard-0.phi").value
        )

    def test_down_shards_gauge_follows_lifecycle(self):
        cluster = failover_cluster()
        cluster.tick(TICK)
        assert cluster.metrics.gauge(
            "cluster.failover.down_shards"
        ).value == 0.0
        cluster.kill_shard("shard-3")
        cluster.tick(TICK)
        assert cluster.metrics.gauge(
            "cluster.failover.down_shards"
        ).value == 1.0
        tick_until_up(cluster, "shard-3")
        assert cluster.metrics.gauge(
            "cluster.failover.down_shards"
        ).value == 0.0


class TestMembershipWithFailover:
    def test_add_and_remove_shard_resync_replication(self):
        cluster = failover_cluster()
        for i in range(40):
            cluster.ingest(record(f"e/{i:03d}", {"v": i}))
        cluster.flush()
        cluster.add_shard("joiner")
        cluster.remove_shard("shard-0")
        # Replication state rebuilt under the new membership: killing any
        # surviving shard still recovers every entity.
        victim = "joiner" if "joiner" in cluster.shards else "shard-1"
        cluster.kill_shard(victim)
        tick_until_up(cluster, victim)
        for i in range(40):
            assert cluster.read(f"e/{i:03d}")["payload"] == {"v": i}

    @pytest.mark.parametrize("change", ["join", "leave"])
    def test_a_membership_change_promotes_a_down_owner_first(self, change):
        """A join or leave while an owner is down promotes it before any
        key moves.  Otherwise the change revives the crashed shard: keys
        move from and to its memory, and its silent 2PC participant
        aborts every basket touching it on the prepare round."""
        cluster = failover_cluster(n_shards=3)
        pids = [f"p{i}" for i in range(12)]
        cluster.load_catalog([record(pid, {"stock": 10}) for pid in pids])
        victim = cluster.router.owner_of("p0")
        [sold] = cluster.process_purchases(
            [PurchaseRequest("s0", "p0", Space.VIRTUAL, 0.0)]
        )
        assert sold.success
        cluster.kill_shard(victim)
        if change == "join":
            cluster.add_shard("shard-9")
        else:
            cluster.remove_shard(
                next(name for name in cluster.router.shards if name != victim)
            )
        promotions = cluster.metrics.counter("cluster.failover.promotions")
        assert promotions.value == 1
        assert cluster.failover.state(victim) == RECOVERING
        here = next(p for p in pids if cluster.router.owner_of(p) == victim)
        there = next(p for p in pids if cluster.router.owner_of(p) != victim)
        outcome = cluster.process_basket([
            PurchaseRequest("s1", pid, Space.VIRTUAL, 0.0)
            for pid in (here, there)
        ])
        assert outcome.committed and len(outcome.shards) == 2
        tick_until_up(cluster, victim)
        assert promotions.value == 1
        assert sum(cluster.get_stock(pid) for pid in pids) == 12 * 10 - 3


def mid_sale_kill_drill(fault_seed):
    """A 20-product flash sale on four shards under a 10 % replication
    drop plan; the hot product's owner is killed with a torn primary tail
    before the third batch.  Returns the cluster, after the victim is
    back ``UP``, and the products the sale did not keep exactly-once."""
    config = FlashSaleConfig(
        n_products=20, n_shoppers=100, initial_stock=10,
        burst_rate=200.0, burst_start=0.0, burst_end=5.0, zipf_skew=1.0,
    )
    workload = MarketplaceWorkload(config, seed=1)
    # Replication drops exercise the anti-entropy path during recovery.
    injector = FaultInjector(FaultPlan(rules=[
        FaultRule(site="cluster.replicate", kind="drop", rate=0.1),
    ], seed=fault_seed))
    cluster = failover_cluster(faults=injector)
    cluster.load_catalog(workload.catalog_records())
    pids = [workload.product_id(i) for i in range(20)]
    victim = cluster.router.owner_of(pids[0])
    victim_pids = [p for p in pids if cluster.router.owner_of(p) == victim]

    requests = workload.requests_between(0.0, 5.0)
    batches = [requests[i:i + 50] for i in range(0, len(requests), 50)]
    outcomes = []
    served_while_recovering = False
    for i, batch in enumerate(batches):
        if i == 2:
            cluster.kill_shard(victim, torn_tail_bytes=3)
        outcomes += cluster.process_purchases(batch)
        cluster.tick(TICK)
        if cluster.failover.state(victim) == RECOVERING:
            # Promoted replica answers for the victim's keys BEFORE
            # recovery (anti-entropy convergence) completes.
            for pid in victim_pids:
                assert cluster.get_stock(pid) >= 0
            served_while_recovering = True
    tick_until_up(cluster, victim)
    assert served_while_recovering
    stocks = {pid: cluster.get_stock(pid) for pid in pids}
    return cluster, exactly_once_violations(dict.fromkeys(pids, 10), units_sold(outcomes), stocks)


class TestChaosKillSweep:
    """The acceptance bar: a mid-sale shard kill stays exactly-once, and
    the killed shard's keys are served by the promoted replica *before*
    its recovery completes.

    A sweep, not three seeds: 7, 23 and 101 were the pinned ones and all
    three were luck — with one ship offer per entry, seeds 0 and 3 (15 of
    0-149) oversold by a unit, an acknowledged decrement whose ship was
    dropped and whose primary tail then tore."""

    pytestmark = pytest.mark.chaos

    @pytest.mark.parametrize("fault_seed", [*range(20), 23, 101])
    def test_flash_sale_exactly_once_across_mid_sale_kill(self, fault_seed):
        cluster, violations = mid_sale_kill_drill(fault_seed)
        assert violations == []
        metrics = cluster.metrics
        assert metrics.counter("cluster.failover.promotions").value >= 1
        assert metrics.counter("cluster.failover.recoveries").value >= 1
        assert metrics.counter("cluster.failover.rejected_purchases").value > 0

    @pytest.mark.slow
    def test_the_kill_drill_holds_on_fault_seeds_20_to_149(self):
        failing = []
        for fault_seed in range(20, 150):
            if mid_sale_kill_drill(fault_seed)[1]:
                failing.append(fault_seed)
        assert failing == []


class TestAcknowledgedMeansSettled:
    """No fault plan at all: what a call acknowledged is on a replica
    when the call returns, so a kill at any call boundary loses nothing."""

    @staticmethod
    def market():
        return MarketplaceWorkload(
            FlashSaleConfig(
                n_products=12, n_shoppers=60, initial_stock=8,
                burst_rate=90.0, burst_start=0.0, burst_end=4.0, zipf_skew=1.0,
            ),
            seed=5,
        )

    def sale_cluster(self):
        """A fresh 4-shard cluster holding the catalog, and its products."""
        market = self.market()
        cluster = failover_cluster()
        cluster.load_catalog(market.catalog_records())
        return cluster, [market.product_id(i) for i in range(12)]

    def sale_calls(self):
        """The sale as a list of calls: purchase batches with a
        two-product basket after every second one."""
        requests = self.market().requests_between(0.0, 4.0)
        calls = []
        for i in range(0, len(requests), 30):
            batch = requests[i:i + 30]
            calls.append(("process_purchases", batch))
            if (i // 30) % 2:
                calls.append(("process_basket", batch[:2]))
        return calls

    @staticmethod
    def make(cluster, call):
        """Run one call; its outcomes (a basket's requests share its one)."""
        name, requests = call
        result = getattr(cluster, name)(requests)
        if name == "process_purchases":
            return result
        return [PurchaseOutcome(r, result.committed) for r in requests]

    def test_a_replica_is_never_behind_at_a_call_boundary(self):
        (cluster, pids), calls = self.sale_cluster(), self.sale_calls()
        assert {name for name, _ in calls} == {
            "process_purchases", "process_basket"
        }
        outcomes = []
        for call in calls:
            outcomes += self.make(cluster, call)
            for pid in pids:
                owner = cluster.router.owner_of(pid)
                assert cluster.failover.replica_stock(
                    owner, pid
                ) == cluster.get_stock(pid)
        assert sum(units_sold(outcomes).values()) > 12  # the sale sold, and re-sold products

    def test_kill_and_promote_at_every_call_boundary_conserves_stock(self):
        calls = self.sale_calls()
        for boundary in range(len(calls) + 1):  # the last: after the sale
            cluster, pids = self.sale_cluster()
            victim = cluster.router.owner_of(pids[0])
            outcomes = []
            for k, call in enumerate([*calls, None]):
                if k == boundary:
                    cluster.kill_shard(victim, torn_tail_bytes=3)
                if call is not None:
                    outcomes += self.make(cluster, call)
                    cluster.tick(TICK)
            tick_until_up(cluster, victim)
            assert cluster.metrics.counter(
                "cluster.failover.promotions"
            ).value == 1
            stocks = {pid: cluster.get_stock(pid) for pid in pids}
            assert exactly_once_violations(
                dict.fromkeys(pids, 8), units_sold(outcomes), stocks
            ) == []

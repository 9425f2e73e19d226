"""Functional tests for the geo-distributed deployment (repro.geo).

Covers the multi-region surface end to end: home placement and shared
clocks, async WAN replication (lag, hinted handoff, anti-entropy), the
three per-call consistency modes and their failure semantics during WAN
partitions and region kills, follow-the-user re-homing atomicity, and
geo-level fan-out gathers.  The chaos class (nightly tier) drives the
partition/heal cycle under seeded ``geo.wan`` fault plans across three
seeds.
"""

import pytest

from repro import DataKind, DataRecord, Space
from repro.cluster import ClusterConfig
from repro.core import ConfigurationError, NetworkError
from repro.core.errors import DeadlineExceededError, PartitionedError
from repro.geo import (
    CONSISTENCY_MODES,
    EVENTUAL,
    LINEARIZABLE,
    READ_YOUR_WRITES,
    GeoConfig,
    GeoDeployment,
    GeoSession,
)
from repro.geo.deployment import BREAKER_FAILURE_THRESHOLD, LINEARIZABLE_TIMEOUT_S
from repro.obs.tracing import Tracer
from repro.query.plane import prefix_query
from repro.replication import fold
from repro.resilience import FaultInjector, FaultPlan, FaultRule
from repro.verify import exactly_once_violations, units_sold
from repro.workloads import FlashSaleConfig, MarketplaceWorkload
from repro.workloads.marketplace import PurchaseRequest

pytestmark = pytest.mark.geo

REGIONS = ("us-east", "eu-west", "ap-south")
WAN_LATENCIES = {
    ("us-east", "eu-west"): 0.04,
    ("us-east", "ap-south"): 0.09,
    ("eu-west", "ap-south"): 0.07,
}


def record(key, payload, timestamp=0.0):
    return DataRecord(
        key=key, payload=payload, space=Space.VIRTUAL,
        timestamp=timestamp, kind=DataKind.LOCATION, source="test",
    )


def make_geo(faults=None, **overrides):
    config = GeoConfig(
        regions=REGIONS, wan_latencies_s=dict(WAN_LATENCIES), **overrides
    )
    return GeoDeployment(config, faults=faults)


def others(geo, home):
    return [name for name in geo.config.regions if name != home]


def make_workload(seed=1, n_products=12, initial_stock=10):
    return MarketplaceWorkload(
        FlashSaleConfig(
            n_products=n_products, n_shoppers=60, initial_stock=initial_stock,
            burst_rate=120.0, burst_start=0.0, burst_end=10.0, zipf_skew=1.0,
        ),
        seed=seed,
    )


def assert_conserved_everywhere(geo, initial, sold):
    """The sale is exactly-once at each product's home and in every
    region's copy (call it once the regions have reconverged)."""
    assert exactly_once_violations(
        initial, sold, {p: geo.get_stock(p, LINEARIZABLE) for p in initial}
    ) == []
    for region in geo.config.regions:
        stocks = {p: geo.get_stock(p, EVENTUAL, region=region) for p in initial}
        assert exactly_once_violations(initial, sold, stocks) == []


class TestConstruction:
    def test_regions_share_one_clock(self):
        geo = make_geo()
        clocks = {id(cluster.clock) for cluster in geo._clusters.values()}
        assert clocks == {id(geo.clock)}

    def test_single_region_rejected(self):
        with pytest.raises(ConfigurationError):
            GeoDeployment(GeoConfig(regions=("solo",)))

    def test_duplicate_regions_rejected(self):
        with pytest.raises(ConfigurationError):
            GeoDeployment(GeoConfig(regions=("a", "b", "a")))

    def test_unknown_latency_pair_rejected(self):
        with pytest.raises(ConfigurationError):
            GeoDeployment(GeoConfig(
                regions=("a", "b"), wan_latencies_s={("a", "ghost"): 0.1}
            ))

    def test_per_region_elasticity_rejected(self):
        from repro.cluster.config import ElasticityConfig

        with pytest.raises(ConfigurationError):
            GeoDeployment(GeoConfig(
                cluster=ClusterConfig(elasticity=ElasticityConfig())
            ))

    def test_home_assignment_is_deterministic_and_total(self):
        geo_a, geo_b = make_geo(), make_geo()
        keys = [f"player-{i:04d}" for i in range(50)]
        homes_a = [geo_a.home_of(k) for k in keys]
        assert homes_a == [geo_b.home_of(k) for k in keys]
        assert set(homes_a) <= set(REGIONS)

    def test_region_ring_writes_no_shard_router_metrics(self):
        geo = make_geo()
        for i in range(100):
            geo.home_of(f"player-{i:04d}")
        assert geo.metrics.counter("cluster.router.lookups").value == 0
        # Set by the region clusters' routers only (2 shards each).
        assert geo.metrics.gauge("cluster.router.shards").value == 2

    def test_unknown_client_region_rejected(self):
        geo = make_geo()
        with pytest.raises(ConfigurationError):
            geo.read("k", EVENTUAL, region="atlantis")


class TestReplication:
    def test_write_replicates_after_a_tick(self):
        geo = make_geo()
        lsn = geo.write_record(record("player-0001", {"x": 1.0, "y": 2.0}))
        assert lsn == 1
        home = geo.home_of("player-0001")
        remote = others(geo, home)[0]
        # Asynchronous: the remote copy lags until deliveries run.
        assert geo.replicator.lag(home, remote) == 1
        assert geo.read("player-0001", EVENTUAL, region=remote) is None
        geo.tick(0.5)
        assert geo.max_replication_lag() == 0
        value = geo.read("player-0001", EVENTUAL, region=remote)
        assert value["payload"] == {"x": 1.0, "y": 2.0}

    def test_staleness_tracks_oldest_missing_entry(self):
        geo = make_geo()
        home = geo.home_of("player-0001")
        remote = others(geo, home)[0]
        geo.partition_regions([[home], others(geo, home)])
        geo.write_record(record("player-0001", {"x": 1.0, "y": 1.0}))
        geo.tick(1.0)
        assert geo.replicator.staleness_s(home, remote, geo.clock.now) == (
            pytest.approx(1.0)
        )
        geo.heal_wan()
        geo.tick(1.0)
        assert geo.replicator.staleness_s(home, remote, geo.clock.now) == 0.0

    def test_hinted_handoff_preserves_order_through_partition(self):
        geo = make_geo()
        home = geo.home_of("player-0001")
        remote = others(geo, home)[0]
        geo.partition_regions([[home], others(geo, home)])
        for i in range(5):
            geo.write_record(record("player-0001", {"x": float(i), "y": 0.0}))
        assert geo.metrics.counter("geo.repl.hints_buffered").value > 0
        geo.heal_wan()
        geo.tick(0.5)
        assert geo.max_replication_lag() == 0
        value = geo.read("player-0001", EVENTUAL, region=remote)
        assert value["payload"]["x"] == 4.0
        assert geo.metrics.counter("geo.repl.hints_delivered").value > 0

    def test_dropped_entry_leaves_hole_until_antientropy(self):
        plan = FaultPlan(rules=[
            FaultRule(site="geo.wan", kind="drop", rate=1.0, end=0.2),
        ], seed=3)
        geo = make_geo(faults=FaultInjector(plan))
        geo.write_record(record("player-0001", {"x": 7.0, "y": 7.0}))
        home = geo.home_of("player-0001")
        remote = others(geo, home)[0]
        assert geo.metrics.counter("geo.repl.dropped").value > 0
        geo.tick(0.3)  # past the fault window, before anti-entropy fires
        assert geo.replicator.lag(home, remote) == 1
        geo.tick(0.3)  # crosses the anti-entropy interval
        assert geo.replicator.lag(home, remote) == 0
        value = geo.read("player-0001", EVENTUAL, region=remote)
        assert value["payload"]["x"] == 7.0
        assert geo.metrics.counter("geo.antientropy.repaired_entries").value > 0

    def test_antientropy_round_span_says_what_it_did(self):
        """One ``geo.antientropy`` span per round: pairs compared, copies
        rebuilt, entries those copies had lacked."""
        plan = FaultPlan(rules=[
            FaultRule(site="geo.wan", kind="drop", rate=1.0, end=0.2),
        ], seed=3)
        tracer = Tracer()
        config = GeoConfig(regions=REGIONS, wan_latencies_s=dict(WAN_LATENCIES))
        geo = GeoDeployment(config, faults=FaultInjector(plan), tracer=tracer)
        geo.write_record(record("player-0001", {"x": 7.0, "y": 7.0}))
        for _ in range(4):
            geo.tick(0.3)
        rounds = [s.attributes for s in tracer.spans_named("geo.antientropy")]
        n_pairs = len(REGIONS) * (len(REGIONS) - 1)
        # Both copies of the one home log missed the entry; the round
        # after the repair compares the same pairs and rebuilds nothing.
        assert rounds[0] == {"pairs": n_pairs, "rebuilt": 2, "lacked": 2}
        assert rounds[-1] == {"pairs": n_pairs, "rebuilt": 0, "lacked": 0}
        # The counter named "rounds" counts the rebuilt pair-rounds.
        assert geo.metrics.counter("geo.antientropy.rounds").value == sum(
            r["rebuilt"] for r in rounds
        )

    def test_compaction_collapses_superseded_states(self):
        geo = make_geo(compact_threshold=8)
        for i in range(12):
            geo.write_record(record("player-0001", {"x": float(i), "y": 0.0}))
            geo.tick(0.1)
        home = geo.home_of("player-0001")
        assert geo.metrics.counter("geo.repl.compactions").value > 0
        entries = geo.replicator.log(home).entries(home)
        assert len(entries) < 12  # superseded absolute states dropped
        for remote in others(geo, home):
            value = geo.read("player-0001", EVENTUAL, region=remote)
            assert value["payload"]["x"] == 11.0


    def test_live_key_set_at_threshold_does_not_thrash_compaction(self):
        """A home whose *live* keys reach the threshold has nothing to
        collapse; it compacts once, then waits to double."""
        geo = make_geo(compact_threshold=8)
        for i in range(30):
            geo.write_record(record(f"player-{i:04d}", {"x": float(i), "y": 0.0}))
        for _ in range(10):
            geo.tick(0.5)
        assert geo.max_replication_lag() == 0
        assert geo.metrics.counter("geo.repl.compactions").value <= len(REGIONS)
        assert geo.metrics.counter("geo.repl.compacted_entries").value == 0


class TestRegionClusters:
    """The region template's own machinery keeps working under geo."""

    def buy(self, geo, pid, quantity):
        (outcome,) = geo.process_purchases([PurchaseRequest(
            shopper_id="s", product_id=pid, space=Space.VIRTUAL,
            timestamp=geo.clock.now, quantity=quantity,
        )])
        assert outcome.success

    def until_up(self, geo, cluster, victim):
        """Tick until ``victim``'s promoted replica is up."""
        for _ in range(400):
            geo.tick(0.05)
            if cluster.failover.state(victim) == "up":
                break
        assert cluster.failover.state(victim) == "up"

    def promote(self, geo, cluster, victim):
        cluster.kill_shard(victim)
        self.until_up(geo, cluster, victim)

    def test_stock_keeps_replicating_after_a_shard_promotion(self):
        """The promoted platform must feed the cross-region log like the
        one it replaced."""
        geo = make_geo(cluster=ClusterConfig(n_shards=2, n_replicas=2))
        pid = "product-0000"
        geo.load_catalog([record(pid, {"name": "x", "stock": 100})])
        home = geo.home_of(pid)
        remote = others(geo, home)[0]
        self.buy(geo, pid, 5)
        cluster = geo.region(home)
        victim = cluster.router.owner_of(pid)
        self.promote(geo, cluster, victim)
        self.buy(geo, pid, 7)
        geo.tick(0.5)
        assert geo.max_replication_lag() == 0
        assert geo.get_stock(pid, LINEARIZABLE) == 88
        assert geo.get_stock(pid, EVENTUAL, region=remote) == 88

    def test_a_rehomed_key_survives_a_promotion_in_its_new_home(self):
        """Re-homing is one logged write at the new home: the region's
        failover log carries it, so a promotion there replays it."""
        geo = make_geo(cluster=ClusterConfig(n_shards=2, n_replicas=2))
        pid, key = "product-0000", "player-0001"
        geo.load_catalog([record(pid, {"name": "x", "stock": 10})])
        geo.write_record(record(key, {"x": 1.0, "y": 2.0}))
        geo.tick(0.5)
        stored = geo.read(key, LINEARIZABLE)
        for moved, rehome in ((pid, geo.rehome_product), (key, geo.rehome_entity)):
            new_home = others(geo, geo.home_of(moved))[0]
            rehome(moved, new_home)
            cluster = geo.region(new_home)
            self.promote(geo, cluster, cluster.router.owner_of(moved))
        geo.tick(0.5)
        assert geo.get_stock(pid, LINEARIZABLE) == 10
        assert geo.read(key, LINEARIZABLE) == stored
        third = others(geo, geo.home_of(pid))[-1]
        assert geo.get_stock(pid, EVENTUAL, region=third) == 10
        third = others(geo, geo.home_of(key))[-1]
        assert geo.read(key, EVENTUAL, region=third) == stored

    def test_replica_copies_survive_a_promotion_in_their_region(self):
        """A landing goes through the region's cluster, so the region's
        failover log holds its replica copies — and is not re-shipped."""
        geo = make_geo(cluster=ClusterConfig(n_shards=2, n_replicas=2))
        home, replica = REGIONS[0], REGIONS[1]
        pids = [f"product-{i:04d}" for i in range(40)]
        pids = [pid for pid in pids if geo.home_of(pid) == home][:4]
        keys = [f"player-{i:04d}" for i in range(40)]
        keys = [key for key in keys if geo.home_of(key) == home][:4]
        logged = geo.metrics.counter("geo.repl.logged")
        geo.load_catalog([record(pid, {"name": pid, "stock": 10}) for pid in pids])
        for i, key in enumerate(keys):
            geo.write_record(record(key, {"x": float(i), "y": 0.0}))
        self.buy(geo, pids[0], 3)
        shipped = logged.value
        geo.tick(0.5)
        geo.tick(0.5)
        assert geo.max_replication_lag() == 0
        assert logged.value == shipped  # landing logged nothing anywhere
        cluster = geo.region(replica)
        victim = cluster.router.owner_of(pids[0])
        held = [k for k in pids + keys if cluster.router.owner_of(k) == victim]
        state = fold(cluster.failover.replicator.log(victim).union())
        assert set(held) <= set(state.lsn)
        self.promote(geo, cluster, victim)
        for _ in range(4):
            geo.tick(0.5)
            assert geo.max_replication_lag() == 0
            for pid in pids:
                assert geo.get_stock(pid, EVENTUAL, region=replica) == (
                    geo.get_stock(pid, LINEARIZABLE)
                ) == (7 if pid == pids[0] else 10)
            for key in keys:
                value = geo.read(key, EVENTUAL, region=replica)
                assert value is not None
                assert value == geo.read(key, LINEARIZABLE)
        assert logged.value == shipped

    def test_a_queued_write_reaches_the_geo_log_when_it_lands(self):
        """The home cluster queues a write behind a down shard; replicas
        must not serve it before the home can."""
        geo = make_geo(cluster=ClusterConfig(n_shards=2, n_replicas=2))
        key = "player-0001"
        session = GeoSession()
        geo.write_record(record(key, {"v": 0}), session=session)
        geo.tick(0.5)
        home = geo.home_of(key)
        cluster = geo.region(home)
        victim = cluster.router.owner_of(key)
        logged = geo.metrics.counter("geo.repl.logged")
        before = logged.value
        cluster.kill_shard(victim)
        lsn = geo.write_record(record(key, {"v": 1}, 1.0), session=session)
        assert lsn is None and session.vector == {home: 1}
        assert logged.value == before
        geo.tick(0.2)  # long enough to ship, too short to detect the kill
        assert cluster._is_down(victim)
        for region in others(geo, home):
            assert geo.read(key, EVENTUAL, region=region)["payload"] == {"v": 0}
        self.until_up(geo, cluster, victim)
        geo.tick(0.5)
        assert logged.value == before + 1
        assert geo.read(key, LINEARIZABLE)["payload"] == {"v": 1}
        for region in others(geo, home):
            assert geo.read(key, EVENTUAL, region=region)["payload"] == {"v": 1}

    def test_killed_disaggregated_shard_is_back_after_a_geo_tick(self):
        geo = make_geo(cluster=ClusterConfig(n_shards=2, n_storage_nodes=2))
        cluster = geo.region(REGIONS[0])
        cluster.kill_shard("shard-0")
        assert cluster._is_down("shard-0")
        geo.tick(0.1)
        assert not cluster._is_down("shard-0")
        assert geo.metrics.counter("cluster.disagg.remounts").value == 1


class TestConsistencyModes:
    def test_eventual_read_is_local_latency(self):
        geo = make_geo()
        geo.write_record(record("player-0001", {"x": 1.0, "y": 1.0}))
        geo.tick(0.5)
        remote = others(geo, geo.home_of("player-0001"))[0]
        before = geo.clock.now
        geo.read("player-0001", EVENTUAL, region=remote)
        assert geo.clock.now == before  # no WAN round trip

    def test_linearizable_read_pays_the_round_trip(self):
        geo = make_geo()
        geo.write_record(record("player-0001", {"x": 1.0, "y": 1.0}))
        home = geo.home_of("player-0001")
        remote = others(geo, home)[0]
        one_way = WAN_LATENCIES.get((home, remote)) or WAN_LATENCIES[(remote, home)]
        before = geo.clock.now
        value = geo.read("player-0001", LINEARIZABLE, region=remote)
        elapsed = geo.clock.now - before
        assert value["payload"] == {"x": 1.0, "y": 1.0}
        assert elapsed >= 2 * one_way  # there and back again

    def test_linearizable_sees_unreplicated_write(self):
        geo = make_geo()
        geo.write_record(record("player-0001", {"x": 5.0, "y": 5.0}))
        remote = others(geo, geo.home_of("player-0001"))[0]
        # No tick yet: the remote replica is empty, the home is not.
        assert geo.read("player-0001", EVENTUAL, region=remote) is None
        value = geo.read("player-0001", LINEARIZABLE, region=remote)
        assert value["payload"] == {"x": 5.0, "y": 5.0}

    def test_read_your_writes_upgrades_until_caught_up(self):
        geo = make_geo()
        session = GeoSession()
        geo.write_record(record("player-0001", {"x": 3.0, "y": 3.0}),
                         session=session)
        home = geo.home_of("player-0001")
        remote = others(geo, home)[0]
        assert session.vector == {home: 1}
        # Replica behind the session vector: the read must upgrade.
        value = geo.read("player-0001", READ_YOUR_WRITES, region=remote,
                         session=session)
        assert value["payload"] == {"x": 3.0, "y": 3.0}
        assert geo.metrics.counter("geo.read.ryw_upgraded").value == 1
        geo.tick(0.5)
        # Caught up: the same read is now served locally.
        value = geo.read("player-0001", READ_YOUR_WRITES, region=remote,
                         session=session)
        assert value["payload"] == {"x": 3.0, "y": 3.0}
        assert geo.metrics.counter("geo.read.ryw_local").value == 1

    def test_sessionless_ryw_reads_locally(self):
        geo = make_geo()
        geo.write_record(record("player-0001", {"x": 1.0, "y": 1.0}))
        geo.tick(0.5)
        remote = others(geo, geo.home_of("player-0001"))[0]
        geo.read("player-0001", READ_YOUR_WRITES, region=remote)
        assert geo.metrics.counter("geo.read.ryw_local").value == 1
        assert geo.metrics.counter("geo.read.ryw_upgraded").value == 0

    def test_unknown_mode_rejected(self):
        geo = make_geo()
        with pytest.raises(ConfigurationError):
            geo.read("k", "strong-ish")
        assert set(CONSISTENCY_MODES) == {
            EVENTUAL, READ_YOUR_WRITES, LINEARIZABLE
        }

    @pytest.mark.parametrize("call", [
        lambda geo: geo.read("k", "strong-ish"),
        lambda geo: geo.get_stock("p", "strong-ish"),
        lambda geo: geo.query(prefix_query("k"), "strong-ish"),
    ], ids=["read", "get_stock", "query"])
    def test_each_read_surface_rejects_an_unknown_mode(self, call):
        geo = make_geo()
        with pytest.raises(
            ConfigurationError, match="unknown consistency mode 'strong-ish'"
        ):
            call(geo)
        assert not [name for name in geo.metrics.snapshot() if "strong-ish" in name]

    def test_per_mode_latency_histograms_are_recorded(self):
        geo = make_geo()
        geo.write_record(record("player-0001", {"x": 1.0, "y": 1.0}))
        geo.tick(0.5)
        remote = others(geo, geo.home_of("player-0001"))[0]
        geo.read("player-0001", EVENTUAL, region=remote)
        geo.read("player-0001", LINEARIZABLE, region=remote)
        eventual = geo.metrics.histogram("geo.read.latency.eventual")
        linearizable = geo.metrics.histogram("geo.read.latency.linearizable")
        assert eventual.count == 1 and linearizable.count == 1
        assert linearizable.p50() > eventual.p50()


class TestPartitionRouting:
    def split(self, geo, home):
        geo.partition_regions([[home], others(geo, home)])

    def test_linearizable_fails_fast_during_partition(self):
        geo = make_geo()
        geo.write_record(record("player-0001", {"x": 1.0, "y": 1.0}))
        geo.tick(0.5)
        home = geo.home_of("player-0001")
        remote = others(geo, home)[0]
        self.split(geo, home)
        before = geo.clock.now
        with pytest.raises(DeadlineExceededError):
            geo.read("player-0001", LINEARIZABLE, region=remote)
        # Fail fast: bounded by the linearizable deadline, not hung.
        assert geo.clock.now - before <= LINEARIZABLE_TIMEOUT_S + 1e-9

    def test_breaker_trips_after_repeated_failures(self):
        geo = make_geo()
        geo.write_record(record("player-0001", {"x": 1.0, "y": 1.0}))
        geo.tick(0.5)
        home = geo.home_of("player-0001")
        remote = others(geo, home)[0]
        self.split(geo, home)
        durations = []
        for _ in range(BREAKER_FAILURE_THRESHOLD + 2):
            before = geo.clock.now
            with pytest.raises(DeadlineExceededError):
                geo.read("player-0001", LINEARIZABLE, region=remote)
            durations.append(geo.clock.now - before)
        # Once open, the breaker rejects instantly (no retry burn-down).
        assert durations[-1] == 0.0 and durations[0] > 0.0

    def test_eventual_stays_available_during_partition(self):
        geo = make_geo()
        geo.write_record(record("player-0001", {"x": 1.0, "y": 1.0}))
        geo.tick(0.5)
        home = geo.home_of("player-0001")
        remote = others(geo, home)[0]
        self.split(geo, home)
        value = geo.read("player-0001", EVENTUAL, region=remote)
        assert value["payload"] == {"x": 1.0, "y": 1.0}

    def test_forwarded_write_fails_fast_during_partition(self):
        geo = make_geo()
        home = geo.home_of("player-0001")
        remote = others(geo, home)[0]
        self.split(geo, home)
        with pytest.raises(PartitionedError):
            geo.write_record(record("player-0001", {"x": 1.0, "y": 1.0}),
                             region=remote)


class TestRegionLifecycle:
    def test_purchases_to_down_home_fail_fast(self):
        geo = make_geo()
        workload = make_workload()
        geo.load_catalog(workload.catalog_records())
        geo.tick(0.5)
        requests = workload.requests_between(0.0, 2.0)
        victim = geo.home_of(requests[0].product_id)
        geo.kill_region(victim)
        outcomes = geo.process_purchases(requests)
        assert len(outcomes) == len(requests)
        down = [o for o in outcomes if not o.success and "region down" in o.reason]
        assert down and all(
            geo.home_of(o.request.product_id) == victim for o in down
        )
        live = [o for o in outcomes if geo.home_of(o.request.product_id) != victim]
        assert any(o.success for o in live)

    def test_deferred_ingest_lands_after_restart(self):
        geo = make_geo()
        home = geo.home_of("player-0001")
        geo.kill_region(home)
        assert geo.write_record(record("player-0001", {"x": 8.0, "y": 8.0})) is None
        assert geo.metrics.counter("geo.writes.deferred").value == 1
        geo.restart_region(home)
        geo.tick(0.5)
        for region in geo.config.regions:
            value = geo.read("player-0001", EVENTUAL, region=region)
            assert value["payload"] == {"x": 8.0, "y": 8.0}

    def test_a_refused_catalog_load_loads_nothing(self):
        geo = make_geo()
        records = [record(f"p{i}", {"name": "x", "stock": i}) for i in range(40)]
        assert {geo.home_of(r.key) for r in records} == set(REGIONS)
        # The down home is the last in name order: every other home loads
        # first when the check is made home by home.
        geo.kill_region(max(REGIONS))
        with pytest.raises(NetworkError):
            geo.load_catalog(records)
        for region in REGIONS:
            cluster = geo.region(region)
            assert all(not s.catalog_snapshot() for s in cluster.shards.values())
            assert geo.replicator.log(region).entries(region) == []

    def test_reads_from_down_client_region_raise(self):
        geo = make_geo()
        geo.kill_region(REGIONS[1])
        with pytest.raises(NetworkError):
            geo.read("k", EVENTUAL, region=REGIONS[1])

    def test_double_kill_and_bad_restart_rejected(self):
        geo = make_geo()
        geo.kill_region(REGIONS[0])
        with pytest.raises(ConfigurationError):
            geo.kill_region(REGIONS[0])
        with pytest.raises(ConfigurationError):
            geo.restart_region(REGIONS[1])

    def test_kill_restart_reconverges_exactly_once(self):
        geo = make_geo()
        workload = make_workload(seed=7)
        geo.load_catalog(workload.catalog_records())
        geo.tick(0.5)
        pids = [workload.product_id(i) for i in range(12)]
        initial = {p: geo.get_stock(p, LINEARIZABLE) for p in pids}
        outcomes = []
        victim = "eu-west"
        t = 0.0
        for step in range(16):
            if step == 5:
                geo.kill_region(victim)
            if step == 11:
                geo.restart_region(victim)
            outcomes += geo.process_purchases(workload.requests_between(t, t + 0.5))
            t += 0.5
            geo.tick(0.5)
        for _ in range(3):
            geo.tick(0.5)
        assert geo.max_replication_lag() == 0
        assert_conserved_everywhere(geo, initial, units_sold(outcomes))


class TestRehoming:
    def test_rehome_entity_moves_authority(self):
        geo = make_geo()
        geo.write_record(record("player-0001", {"x": 1.0, "y": 1.0}))
        geo.tick(0.5)
        old = geo.home_of("player-0001")
        new = others(geo, old)[0]
        assert geo.rehome_entity("player-0001", new) == new
        assert geo.home_of("player-0001") == new
        geo.write_record(record("player-0001", {"x": 2.0, "y": 2.0}))
        geo.tick(0.5)
        for region in geo.config.regions:
            value = geo.read("player-0001", EVENTUAL, region=region)
            assert value["payload"] == {"x": 2.0, "y": 2.0}
        assert geo.metrics.counter("geo.rehomes").value == 1

    def test_rehome_is_idempotent_to_same_region(self):
        geo = make_geo()
        geo.write_record(record("player-0001", {"x": 1.0, "y": 1.0}))
        home = geo.home_of("player-0001")
        assert geo.rehome_entity("player-0001", home) == home
        assert geo.metrics.counter("geo.rehomes").value == 0

    def test_rehome_product_conserves_stock(self):
        geo = make_geo()
        workload = make_workload(seed=3)
        geo.load_catalog(workload.catalog_records())
        geo.tick(0.5)
        pid = workload.product_id(0)
        old = geo.home_of(pid)
        new = others(geo, old)[0]
        before = geo.get_stock(pid, LINEARIZABLE)
        geo.rehome_product(pid, new)
        geo.tick(0.5)
        assert geo.home_of(pid) == new
        assert geo.get_stock(pid, LINEARIZABLE) == before
        outcomes = geo.process_purchases(workload.requests_between(0.0, 1.0))
        sold = units_sold(o for o in outcomes if o.request.product_id == pid)
        geo.tick(0.5)
        for region in geo.config.regions:
            assert exactly_once_violations(
                {pid: before}, sold, {pid: geo.get_stock(pid, EVENTUAL, region=region)}
            ) == []

    def test_rehome_aborts_atomically_during_partition(self):
        geo = make_geo()
        geo.write_record(record("player-0001", {"x": 1.0, "y": 1.0}))
        geo.tick(0.5)
        old = geo.home_of("player-0001")
        new = others(geo, old)[0]
        geo.partition_regions([[old], others(geo, old)])
        with pytest.raises(PartitionedError):
            geo.rehome_entity("player-0001", new)
        assert geo.home_of("player-0001") == old  # nothing moved
        assert geo.metrics.counter("geo.rehome.aborted").value == 1
        geo.heal_wan()
        assert geo.rehome_entity("player-0001", new) == new

    def test_rehome_to_down_region_rejected(self):
        geo = make_geo()
        geo.write_record(record("player-0001", {"x": 1.0, "y": 1.0}))
        old = geo.home_of("player-0001")
        new = others(geo, old)[0]
        geo.kill_region(new)
        with pytest.raises(NetworkError):
            geo.rehome_entity("player-0001", new)
        assert geo.home_of("player-0001") == old


class TestGeoGather:
    def test_scan_prefix_yields_each_key_exactly_once(self):
        geo = make_geo()
        keys = [f"asset/{i:03d}" for i in range(30)]
        for key in keys:
            geo.write_record(record(key, {"v": 1}))
        geo.tick(0.5)  # replicas now also hold copies of every key
        result = geo.scan_prefix("asset/")
        assert [key for key, _ in result.items] == sorted(keys)
        assert not result.partial

    def test_down_region_makes_gather_partial_with_region_name(self):
        geo = make_geo()
        for i in range(30):
            geo.write_record(record(f"asset/{i:03d}", {"v": 1}))
        geo.tick(0.5)
        geo.kill_region("ap-south")
        result = geo.scan_prefix("asset/")
        assert result.partial and "ap-south" in result.failed_shards
        surviving = {key for key, _ in result.items}
        expected = {
            f"asset/{i:03d}" for i in range(30)
            if geo.home_of(f"asset/{i:03d}") != "ap-south"
        }
        assert surviving == expected
        assert geo.metrics.counter("geo.gather.partial").value == 1


@pytest.mark.chaos
class TestGeoChaos:
    """Region-down read routing under seeded WAN chaos (satellite 3)."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_partition_routing_and_reconvergence(self, seed):
        plan = FaultPlan(rules=[
            # Background WAN flakiness on top of the hard partition.
            FaultRule(site="geo.wan", kind="drop", rate=0.05),
        ], seed=seed)
        geo = make_geo(faults=FaultInjector(plan))
        # Enough stock that commits keep flowing during the partition
        # window (lag must visibly grow before heal).
        workload = make_workload(seed=seed, initial_stock=60)
        geo.load_catalog(workload.catalog_records())
        geo.tick(0.5)
        pids = [workload.product_id(i) for i in range(12)]
        initial = {p: geo.get_stock(p, LINEARIZABLE) for p in pids}
        outcomes = []
        isolated = "ap-south"
        survivors = [r for r in REGIONS if r != isolated]
        t = 0.0

        def run_sale(steps):
            nonlocal t
            for _ in range(steps):
                outcomes.extend(geo.process_purchases(workload.requests_between(t, t + 0.5)))
                t += 0.5
                geo.tick(0.5)

        run_sale(4)
        geo.partition_regions([[isolated], survivors])
        # During the partition: eventual reads of isolated-home keys are
        # served by a surviving region's replica...
        iso_pids = [p for p in pids if geo.home_of(p) == isolated]
        assert iso_pids, "seeded catalog should place products everywhere"
        for pid in iso_pids:
            stock = geo.get_stock(pid, EVENTUAL, region=survivors[0])
            assert stock >= 0
        # ...while linearizable reads fail fast instead of lying.
        with pytest.raises(DeadlineExceededError):
            geo.get_stock(iso_pids[0], LINEARIZABLE, region=survivors[0])
        run_sale(4)
        assert geo.max_replication_lag() > 0  # the partition showed up
        geo.heal_wan()
        run_sale(4)
        for _ in range(4):
            geo.tick(0.5)
        # Post-heal anti-entropy reconvergence: every copy agrees and the
        # sale conserved stock exactly-once through the chaos.
        assert geo.max_replication_lag() == 0
        assert_conserved_everywhere(geo, initial, units_sold(outcomes))
        assert geo.metrics.counter("geo.antientropy.rounds").value > 0

"""What one cluster call commits reaches each op sink once (repro.cluster).

The op tap is scoped to the cluster's write-surface calls: a sink gets
``(shard, ops)`` segments, in commit order, when the outermost call
returns or raises, and an op committed with no call open at once.  The
failover replicator logs a segment with one round of ship offers per
holder; geo logs a delivery in its home log and ships it as one segment
per destination.

The per-op tap this replaced lives on here as the oracle: ``PerOpTap``
hands each op to each sink as it commits, and ``PerOpReplicator`` logs it
alone.  Under any interleaving of purchases, baskets, flushes, writes,
imports, drops, kills with torn tails, promotions, joins and leaves, both
trees hold every log copy equal LSN for LSN, every hint buffer and every
shard's state; on a geo deployment, every home log and region state.
"""

from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, PlatformCluster, ShardReplicator
from repro.cluster.cluster import BasketOutcome
from repro.cluster.failover import SHIP_OFFERS
from repro.core import (
    DataKind,
    DataRecord,
    FaultInjectedError,
    Space,
)
from repro.geo import GeoConfig, GeoDeployment, GeoSession
from repro.geo import deployment
from repro.platform.platform import stored_record_value
from repro.replication import decode, entity_op
from repro.resilience import FaultInjector, FaultPlan, FaultRule
from repro.workloads.marketplace import PurchaseRequest
from tests.test_position_index import sweep_only, split_write_cluster

pytestmark = [pytest.mark.cluster, pytest.mark.failover]

ENTITIES = [f"ent/{i}" for i in range(6)]
PRODUCTS = [f"p{i}" for i in range(4)]
TICK = 0.05


def record(key, payload, timestamp=0.0):
    return DataRecord(
        key=key, payload=payload, space=Space.VIRTUAL,
        timestamp=timestamp, kind=DataKind.STRUCTURED, source="test",
    )


def request(product_id, quantity, shopper="s"):
    return PurchaseRequest(
        shopper_id=shopper, product_id=product_id, space=Space.VIRTUAL,
        timestamp=0.0, quantity=quantity,
    )


def outcome(call):
    try:
        return call(), None
    except Exception as exc:  # noqa: BLE001 - compared by type
        return None, type(exc)


# -- the replaced per-op tap is the oracle ----------------------------------------


class PerOpTap(PlatformCluster):
    """The tap before call scoping: ``sink(shard, op)`` for each op, as
    it commits."""

    def _emit(self, shard, op_of, *args):
        if self._op_sinks:
            op = op_of(*args)
            for sink in self._op_sinks:
                sink(shard, op)

    def _emit_stored(self, name, stored):
        if self._op_sinks:
            for key, value in stored:
                self._emit(name, entity_op, key, value)


class PerOpReplicator(ShardReplicator):
    """``log_op`` before segments: one append, one round of ship offers
    per holder and one counter lookup per op.  The resync seed, one
    segment per shard now, is logged op by op."""

    def log_op(self, owner, ops):
        for op in ops:
            self.log_one(owner, op)

    def log_one(self, owner, op):
        log = self.log(owner)
        lsn, payload = log.append(op)
        for holder in log.holders:
            if holder in self._down:
                log.buffer_hints(holder, [(lsn, payload)])
                self.metrics.counter("cluster.failover.hints_buffered").inc()
                continue
            if self.faults is not None and all(
                self.faults.decide(
                    "cluster.replicate",
                    target=f"{owner}->{holder}",
                    kinds=("drop",),
                ).faulted
                for _ in range(SHIP_OFFERS)
            ):
                self.metrics.counter(
                    "cluster.failover.replication_dropped"
                ).inc()
                continue
            log.adopt(holder, lsn, payload)
        self.metrics.counter("cluster.failover.replicated_ops").inc()


CONFIG = ClusterConfig(
    n_shards=3, n_replicas=2, phi_threshold=2.0,
    replica_log_compact_threshold=12,
)


def segmented_cluster():
    return PlatformCluster(CONFIG)


def per_op_cluster():
    cluster = PerOpTap(CONFIG)
    replicator = PerOpReplicator(
        cluster.router, CONFIG.n_replicas, metrics=cluster.metrics,
    )
    cluster.failover.replicator = replicator
    cluster._op_sinks[:] = [replicator.log_one]
    return cluster


def seeded(cluster):
    cluster.load_catalog(
        [record(pid, {"name": pid, "stock": 8}) for pid in PRODUCTS]
    )
    cluster.ingest_many(
        [record(key, {"v": 0}) for key in ENTITIES[::2]]
    )
    cluster.flush()
    return cluster


entity = st.sampled_from(ENTITIES)
product = st.sampled_from(PRODUCTS)
value = st.integers(0, 9)
lines = st.lists(st.tuples(product, st.integers(1, 3)), min_size=1, max_size=5)
writes = st.lists(st.tuples(entity, value), min_size=1, max_size=5)

cluster_steps = st.lists(
    st.one_of(
        st.tuples(st.just("purchases"), lines),
        st.tuples(st.just("basket"), lines),
        st.tuples(st.just("ingest"), writes),
        st.tuples(st.just("flush")),
        st.tuples(st.just("write_records"), writes),
        st.tuples(st.just("import_entities"), writes),
        st.tuples(st.just("import_product"), product, st.integers(0, 9)),
        st.tuples(st.just("drop_entity"), entity),
        st.tuples(st.just("drop_product"), product),
        st.tuples(st.just("kill"), st.integers(0, 3), st.integers(0, 60)),
        st.tuples(st.just("tick"), st.integers(1, 12)),
        st.tuples(st.just("join")),
        st.tuples(st.just("leave"), st.integers(0, 3)),
    ),
    min_size=2,
    max_size=24,
)


def perform(cluster, step, n):
    kind, *args = step
    names = sorted(cluster.router.shards)
    if kind == "purchases":
        return cluster.process_purchases(
            [request(pid, q, f"s{i}") for i, (pid, q) in enumerate(args[0])]
        )
    if kind == "basket":
        return cluster.process_basket([request(pid, q) for pid, q in args[0]])
    if kind == "ingest":
        return cluster.ingest_many(
            [record(key, {"v": v}, float(n)) for key, v in args[0]]
        )
    if kind == "flush":
        return cluster.flush()
    if kind == "write_records":
        return cluster.write_records(
            [record(key, {"v": v}, float(n)) for key, v in args[0]]
        )
    if kind == "import_entities":
        return cluster.import_entities([
            (key, stored_record_value(record(key, {"v": v}, float(n))))
            for key, v in args[0]
        ])
    if kind == "import_product":
        return cluster.import_product(args[0], {"name": args[0], "stock": args[1]})
    if kind in ("drop_entity", "drop_product"):
        return getattr(cluster, kind)(args[0])
    if kind == "kill":
        return cluster.kill_shard(
            names[args[0] % len(names)], torn_tail_bytes=args[1]
        )
    if kind == "tick":
        return [cluster.tick(TICK) for _ in range(args[0])]
    if kind == "join":
        return cluster.add_shard(f"shard-{n + 3}")
    return cluster.remove_shard(names[args[0] % len(names)])


def cluster_view(cluster):
    """Every log copy LSN for LSN, every hint buffer, every shard's
    state and lifecycle, and the failover counters."""
    replicator = cluster.failover.replicator
    logs, hints = {}, {}
    for owner, log in sorted(replicator._logs.items()):
        logs[owner] = {
            name: [(e.lsn, e.payload) for e in log.entries(name)]
            for name in (owner, *log.holders)
        }
        hints[owner] = {
            holder: list(buffered) for holder, buffered in log._hints.items()
        }
    shards = {
        name: (
            {key: shard.export_entity(key) for key in shard.entity_keys()},
            shard.catalog_snapshot(),
        )
        for name, shard in sorted(cluster.shards.items())
    }
    states = {name: cluster.failover.state(name) for name in cluster.shards}
    counters = {
        name: value for name, value in cluster.metrics.snapshot().items()
        if name.startswith("cluster.failover.")
    }
    return logs, hints, shards, states, counters


def compared(result):
    """A call's result; a 2PC round's id counts rounds process-wide."""
    value, raised = result
    if isinstance(value, BasketOutcome) and value.txn is not None:
        value = replace(value, txn=replace(value.txn, txn_id=None))
    return value, raised


def play_both(steps):
    segmented, per_op = seeded(segmented_cluster()), seeded(per_op_cluster())
    assert cluster_view(segmented) == cluster_view(per_op)
    for n, step in enumerate(steps):
        got = outcome(lambda: perform(segmented, step, n))
        want = outcome(lambda: perform(per_op, step, n))
        assert compared(got) == compared(want)
        assert cluster_view(segmented) == cluster_view(per_op)
    return segmented


class TestSegmentsAreThePerOpTap:
    @settings(max_examples=150, deadline=None)
    @given(steps=cluster_steps)
    def test_logs_hints_and_shards_equal_the_per_op_tap(self, steps):
        play_both(steps)

    @pytest.mark.slow
    @settings(max_examples=1000, deadline=None)
    @given(steps=cluster_steps)
    def test_sweep_logs_hints_and_shards_equal_the_per_op_tap(
        self, request, steps
    ):
        """The property above at 1,000 examples, for the nightly tier."""
        sweep_only(request)
        play_both(steps)

    def test_a_kill_promotion_and_join_reach_both_trees_alike(self):
        """A fixed script through every lifecycle the property draws."""
        segmented = play_both([
            ("purchases", [("p0", 2), ("p1", 1), ("p2", 1)]),
            ("write_records", [("ent/1", 4), ("ent/2", 5)]),
            ("kill", 0, 20),
            ("write_records", [(key, 7) for key in ENTITIES]),
            ("basket", [("p0", 1), ("p3", 1)]),
            ("tick", 12),
            ("tick", 12),
            ("join",),
            ("purchases", [("p0", 1)]),
            ("leave", 1),
        ])
        counted = segmented.metrics.counter
        assert counted("cluster.failover.promotions").value == 1
        assert counted("cluster.failover.hints_buffered").value > 0

    def test_a_steps_flush_is_logged_before_its_failover_tick(self):
        """``step`` is no scope of its own: were it one, its flush would
        reach the logs after the tick's compaction had run without it."""
        segmented = play_both([
            ("ingest", [(key, v) for v in range(4) for key in ENTITIES]),
            ("tick", 1),
        ])
        compactions = segmented.metrics.counter("cluster.failover.log_compactions")
        assert compactions.value > 0


# -- geo: a delivery is one home-log segment ---------------------------------------

REGIONS = ("us-east", "eu-west", "ap-south")
GEO_KEYS = [f"player-{i:02d}" for i in range(8)]


def geo_pair():
    config = GeoConfig(regions=REGIONS)
    segmented = GeoDeployment(config)
    with mock.patch.object(deployment, "PlatformCluster", PerOpTap):
        per_op = GeoDeployment(config)
    for home in REGIONS:
        per_op.region(home)._op_sinks[:] = [
            lambda shard, op, home=home: per_op._log_and_ship(
                home, [(shard, [op])]
            )
        ]
    return segmented, per_op


region = st.sampled_from(REGIONS)
geo_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("ingest"),
            st.lists(st.tuples(st.sampled_from(GEO_KEYS), value),
                     min_size=1, max_size=6),
            st.sampled_from([None, *REGIONS]),
        ),
        st.tuples(
            st.just("load_catalog"),
            st.lists(st.tuples(product, st.integers(0, 9)),
                     min_size=1, max_size=4),
        ),
        st.tuples(st.just("purchases"), lines),
        st.tuples(st.just("rehome"), st.sampled_from(GEO_KEYS + PRODUCTS), region),
        st.tuples(st.just("kill"), region),
        st.tuples(st.just("restart"), region),
        st.tuples(st.just("partition"), region),
        st.tuples(st.just("heal")),
        st.tuples(st.just("tick")),
    ),
    max_size=16,
)


def geo_perform(geo, session, step, n):
    kind, *args = step
    if kind == "ingest":
        pairs, client = args
        return geo.ingest_many(
            [record(key, {"v": v}, float(n)) for key, v in pairs],
            region=client, session=session,
        )
    if kind == "load_catalog":
        return geo.load_catalog(
            [record(pid, {"name": pid, "stock": s}) for pid, s in args[0]]
        )
    if kind == "purchases":
        return geo.process_purchases(
            [request(pid, q, f"s{i}") for i, (pid, q) in enumerate(args[0])]
        )
    if kind == "rehome":
        key, to = args
        if key in PRODUCTS:
            return geo.rehome_product(key, to)
        return geo.rehome_entity(key, to)
    if kind == "kill":
        return geo.kill_region(args[0])
    if kind == "restart":
        return geo.restart_region(args[0])
    if kind == "partition":
        return geo.partition_regions(
            [[args[0]], [r for r in REGIONS if r != args[0]]]
        )
    if kind == "heal":
        return geo.heal_wan()
    return geo.tick(0.5)


def geo_view(geo, session):
    logs = {
        home: [(e.lsn, e.payload) for e in geo.replicator.log(home).entries(home)]
        for home in REGIONS
    }
    states = {
        name: (
            [geo.region(name).read(key) for key in GEO_KEYS],
            [outcome(lambda: geo.region(name).get_stock(pid)) for pid in PRODUCTS],
        )
        for name in REGIONS
    }
    return logs, states, dict(session.vector), geo.max_replication_lag()


def play_geo(steps):
    segmented, per_op = geo_pair()
    sessions = GeoSession(), GeoSession()
    for n, step in enumerate(steps):
        got = outcome(lambda: geo_perform(segmented, sessions[0], step, n))
        want = outcome(lambda: geo_perform(per_op, sessions[1], step, n))
        assert got == want
        assert geo_view(segmented, sessions[0]) == geo_view(per_op, sessions[1])
    return segmented, per_op


class TestGeoSegmentsAreThePerOpTap:
    @settings(max_examples=40, deadline=None)
    @given(steps=geo_steps)
    def test_home_logs_and_region_states_equal_the_per_op_tap(self, steps):
        play_geo(steps)

    @pytest.mark.slow
    @settings(max_examples=1000, deadline=None)
    @given(steps=geo_steps)
    def test_sweep_home_logs_and_region_states_equal_the_per_op_tap(
        self, request, steps
    ):
        """The property above at 1,000 examples, for the nightly tier."""
        sweep_only(request)
        play_geo(steps)

    def test_a_call_ships_once_where_the_per_op_tap_shipped_each_op(self):
        segmented, per_op = play_geo([
            ("load_catalog", [("p0", 5), ("p1", 5), ("p2", 5), ("p3", 5)]),
            ("ingest", [(key, 1) for key in GEO_KEYS], None),
            ("tick",),
        ])
        shipped = [
            geo.metrics.counter("geo.repl.shipped").value
            for geo in (segmented, per_op)
        ]
        logged = segmented.metrics.counter("geo.repl.logged").value
        assert shipped[1] == 2 * logged  # one message per op and destination
        assert shipped[0] < shipped[1]


# -- a call that raises still delivers what it committed ---------------------------


def two_owner_write(cluster, crashed_owner):
    """Keys ``(landed, failed)`` on different owners, ``landed`` first in
    owner order, so the write of ``failed``'s owner raises after
    ``landed``'s owner's group committed."""
    keys = [f"k/{i:02d}" for i in range(40)]
    failed = next(k for k in keys if cluster.router.owner_of(k) == crashed_owner)
    landed = next(k for k in keys if cluster.router.owner_of(k) != crashed_owner)
    return landed, failed


def crash_put(key):
    return FaultInjector(FaultPlan(rules=[
        FaultRule(site="kv.put", kind="crash", rate=1.0, target=key),
    ]))


class TestARaisingCallStillDelivers:
    def test_a_split_write_delivers_the_landed_owners_ops(self):
        """The split ``mput`` of ``split_write_cluster``: the other owner's
        write committed first, so its op reaches the sink when the call
        raises."""
        cluster, landed, failed = split_write_cluster()
        other = next(
            f"k/{i:02d}" for i in range(30)
            if cluster.router.owner_of(f"k/{i:02d}") != "shard-0"
        )
        seen = []
        cluster.add_op_sink(seen.append)
        cluster.flush()
        seen.clear()
        cluster.clock.advance(100.0 - cluster.clock.now)
        with pytest.raises(FaultInjectedError):
            cluster.write_records([
                record(other, {"v": "new"}),
                record(landed, {"v": "new"}),
                record(failed, {"v": "new"}),
            ])
        assert [
            [(shard, [op["k"] for op in ops]) for shard, ops in segments]
            for segments in seen
        ] == [[(cluster.router.owner_of(other), [other])]]

    def test_the_landed_ops_reach_the_failover_log(self):
        probe = PlatformCluster(CONFIG)
        landed, failed = two_owner_write(probe, "shard-1")
        cluster = PlatformCluster(CONFIG, faults=crash_put(failed))
        with pytest.raises(FaultInjectedError):
            cluster.write_records([
                record(landed, {"v": 1}), record(failed, {"v": 2}),
            ])
        replicator = cluster.failover.replicator
        owner = cluster.router.owner_of(landed)
        log = replicator.log(owner)
        for name in (owner, *log.holders):
            assert [decode(e.payload)["k"] for e in log.entries(name)] == [landed]
        assert replicator.log("shard-1").entries("shard-1") == []

    def test_the_landed_ops_reach_the_geo_home_log(self):
        probe = GeoDeployment(GeoConfig(regions=REGIONS))
        home = REGIONS[0]
        cluster = probe.region(home)
        homed = [k for k in GEO_KEYS + ENTITIES if probe.home_of(k) == home]
        landed = next(k for k in homed if cluster.router.owner_of(k) == "shard-0")
        failed = next(k for k in homed if cluster.router.owner_of(k) == "shard-1")
        geo = GeoDeployment(GeoConfig(regions=REGIONS), faults=crash_put(failed))
        with pytest.raises(FaultInjectedError):
            geo.ingest_many([record(landed, {"v": 1}), record(failed, {"v": 2})])
        assert [
            decode(e.payload)["k"] for e in geo.replicator.log(home).entries(home)
        ] == [landed]
        assert geo.metrics.counter("geo.repl.shipped").value == 2
        geo.tick(0.5)
        for name in REGIONS:
            assert geo.region(name).read(landed)["payload"] == {"v": 1}


class TestALandingNeverReachesTheHomeLog:
    def test_landed_copies_are_logged_by_their_home_only(self):
        geo = GeoDeployment(GeoConfig(regions=REGIONS))
        home = REGIONS[0]
        key = next(k for k in GEO_KEYS if geo.home_of(k) == home)
        tapped = {name: [] for name in REGIONS}
        for name in REGIONS:
            geo.region(name).add_op_sink(tapped[name].extend)
        geo.write_record(record(key, {"v": 1}))
        geo.tick(0.5)
        assert geo.metrics.counter("geo.repl.applied").value == 2
        for name in REGIONS:
            assert geo.region(name).read(key)["payload"] == {"v": 1}
            # Each region's tap saw the landing's one import ...
            assert [op["k"] for _, ops in tapped[name] for op in ops] == [key]
            # ... and only the home logged it.
            entries = geo.replicator.log(name).entries(name)
            assert len(entries) == (1 if name == home else 0)

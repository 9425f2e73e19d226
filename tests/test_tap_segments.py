"""What one cluster call commits reaches each op sink once (repro.cluster).

The op tap is scoped to the cluster's write-surface calls: a sink gets
``(shard, ops)`` segments, in commit order, when the outermost call
returns or raises, and an op committed with no call open at once.  The
failover replicator logs a segment as one record with one round of ship
offers per holder; geo logs a delivery in its home log as one record and
ships it as one segment per destination.

The per-op tap and the per-op log this replaced live on here as the
oracle: ``PerOpTap`` hands each op to each sink as it commits, and
``PerOpReplicator`` logs it alone, as a record of one op.  Under any
interleaving of purchases, baskets, flushes, writes, imports, drops,
kills with torn tails (torn at the same calls in both), promotions,
joins and leaves, both trees hold every log copy and every hint buffer
equal op for op, in LSN order, and every shard's state equal; with log
compaction on, which keeps records whole, every shard's state and every
owner's union fold, through kills that tear compacted primaries.  In
each tree every serving shard holds what its log union folds to, and
the catalog's stock is what loads, imports and acknowledged sales left
— until a tear loses the only copy of a call, after which stock is not
conserved and, with compaction on, the trees are not compared (each
brings back the older values its own compaction kept).  On a geo
deployment both hold every home log equal op for op, every region state
equal, and the session's reach and the replication lag equal counted in
ops.
"""

from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, PlatformCluster, ShardReplicator
from repro.cluster.cluster import BasketOutcome
from repro.cluster.failover import DOWN, SHIP_OFFERS
from repro.core import (
    DataKind,
    DataRecord,
    FaultInjectedError,
    KeyNotFoundError,
    Space,
)
from repro.geo import GeoConfig, GeoDeployment, GeoSession
from repro.geo import deployment
from repro.platform.platform import stored_record_value
from repro.replication import DROPPED, compact_entries, decode, fold
from repro.resilience import FaultInjector, FaultPlan, FaultRule
from repro.verify import units_sold
from repro.workloads.marketplace import PurchaseRequest
from tests.test_geo_segments import logged_in, ops_behind, reach
from tests.test_position_index import sweep_only, split_write_cluster
from tests.test_replication import expanded, frame

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

    def _tap(self, shard, ops):
        for op in ops:
            for sink in self._op_sinks:
                sink(shard, op)


class PerOpReplicator(ShardReplicator):
    """``log_op`` before records: one append of one op, one round of ship
    offers per holder and one counter lookup per op.  The resync seed,
    one record per shard now, is logged op by op."""

    def log_op(self, owner, ops):
        for op in ops:
            self.log_one(owner, op)

    def log_one(self, owner, op):
        log = self.log(owner)
        lsn, payload = log.append([op])
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


#: Log compaction off: it keeps records whole, so only with it off is a
#: record log the per-op log op for op.
CONFIG = ClusterConfig(
    n_shards=3, n_replicas=2, phi_threshold=2.0,
    replica_log_compact_threshold=None,
)
#: A log of a few calls is already due: a record goes only once later
#: calls supersede every op in it, which a short run rarely reaches.
COMPACTING = replace(CONFIG, replica_log_compact_threshold=2)

#: Failover metrics that count records, which the two logs cut apart.
RECORD_COUNTS = {
    "cluster.failover.hints_buffered",
    "cluster.failover.hints_delivered",
    "cluster.failover.replication_dropped",
    "cluster.failover.log_compactions",
    "cluster.failover.compacted_entries",
    "cluster.failover.promotion_replayed_entries",
}


def segmented_cluster(config=CONFIG):
    cluster = PlatformCluster(config)
    recording(cluster.failover.replicator)
    return cluster


def per_op_cluster(config=CONFIG):
    cluster = PerOpTap(config)
    replicator = PerOpReplicator(
        cluster.router, config.n_replicas, metrics=cluster.metrics,
    )
    cluster.failover.replicator = recording(replicator)
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


#: The steps above with a failover tick after each, so the logs compact
#: between calls and a kill tears a compacted primary.
compacting_steps = cluster_steps.map(
    lambda steps: [s for step in steps for s in (step, ("tick", 1))]
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


def shard_state(shard):
    return (
        {key: shard.export_entity(key) for key in shard.entity_keys()},
        shard.catalog_snapshot(),
    )


def cluster_view(cluster, compacting=False):
    """Every log copy op for op in LSN order (with how many ops it holds
    twice) — with compaction on, every owner's union fold instead — every
    hint buffer op for op, every shard's state and lifecycle, and the
    failover counters that count ops or events."""
    replicator = cluster.failover.replicator
    logs, hints = {}, {}
    for owner, log in sorted(replicator._logs.items()):
        if compacting:
            state = fold(log.union())
            logs[owner] = (state.entities, state.products, state.partial)
        else:
            logs[owner] = {}
            for name in (owner, *log.holders):
                entries = log.entries(name)
                once = {e.lsn: e for e in entries}.values()
                logs[owner][name] = (
                    expanded(once), len(expanded(entries)) - len(expanded(once))
                )
        hints[owner] = {
            holder: [op for _, payload in buffered for op in decode(payload)]
            for holder, buffered in log._hints.items()
        }
    shards = {
        name: shard_state(shard) for name, shard in sorted(cluster.shards.items())
    }
    states = {name: cluster.failover.state(name) for name in cluster.shards}
    counters = {
        name: value for name, value in cluster.metrics.snapshot().items()
        if name.startswith("cluster.failover.") and name not in RECORD_COUNTS
    }
    return logs, hints, shards, states, counters


def recording(replicator):
    """``replicator``, remembering per owner the LSN each op was appended
    under.  Both trees log the same ops in the same order, so op *k* of an
    owner's log is one write in both, and a record maps to the per-op
    entries of its call."""
    replicator.appended = {}
    log_of = replicator.log

    def log(owner):
        log = log_of(owner)
        if "append" not in vars(log):  # a new log: a new history
            lsns = replicator.appended[owner] = []
            append = log.append

            def recorded(ops):
                lsn, payload = append(ops)
                lsns.extend([lsn] * len(ops))
                return lsn, payload

            log.append = recorded
        return log

    replicator.log = log
    return replicator


def kill_alike(segmented, per_op, step):
    """A kill step on both trees: the segmented primary is torn by the
    step's bytes, which drops whole records, and the per-op primary from
    the first entry it still holds of the first torn record's call on,
    which drops the same calls — compacted or not.  Also returns whether
    a torn record was in no holder's copy: an acknowledged call lost."""
    _, index, nbytes = step
    names = sorted(segmented.router.shards)
    name = names[index % len(names)]
    records, alone = (
        tree.failover.replicator for tree in (segmented, per_op)
    )
    log = records.log(name)
    before = {e.lsn for e in log.entries(name)}
    got = outcome(lambda: segmented.kill_shard(name, torn_tail_bytes=nbytes))
    torn = before - {e.lsn for e in log.entries(name)}
    cut = 0
    if torn:
        since = alone.appended[name][records.appended[name].index(min(torn))]
        cut = sum(
            frame(e.payload) for e in alone.log(name).entries(name)
            if e.lsn >= since
        )
    want = outcome(lambda: per_op.kill_shard(name, torn_tail_bytes=cut))
    held = {e.lsn for holder in log.holders for e in log.entries(holder)}
    return got, want, bool(torn - held)


class Ledger:
    """Each product's stock as the loads, imports, drops and acknowledged
    sales so far leave it (``None``: dropped), or unknown after a call
    that raised."""

    def __init__(self):
        self.stock = {pid: 8 for pid in PRODUCTS}

    def book(self, step, result):
        kind, *args = step
        value, raised = result
        if kind == "purchases":
            touched = [pid for pid, _ in args[0]]
            sold = [] if raised else units_sold(value).items()
        elif kind == "basket":
            touched = [pid for pid, _ in args[0]]
            sold = [] if raised or not value.committed else args[0]
        elif kind in ("import_product", "drop_product"):
            touched, sold = [args[0]], []
            if not raised:
                self.stock[args[0]] = args[1] if kind == "import_product" else None
        else:
            return
        for pid in touched if raised else []:
            self.stock.pop(pid, None)
        for pid, quantity in sold:
            if pid in self.stock:
                self.stock[pid] -= quantity

    def assert_conserved(self, cluster):
        for pid, stock in self.stock.items():
            got, raised = outcome(lambda: cluster.get_stock(pid))
            assert (None if raised is KeyNotFoundError else got) == stock, pid


def compared(result):
    """A call's result; a 2PC round's id counts rounds process-wide."""
    value, raised = result
    if isinstance(value, BasketOutcome) and value.txn is not None:
        value = replace(value, txn=replace(value.txn, txn_id=None))
    return value, raised


def logged_state(log):
    state = fold(log.union())
    return (
        {k: v for k, v in state.entities.items() if v is not DROPPED},
        {k: v for k, v in state.products.items() if v is not None},
    )


def assert_shards_are_their_logs(cluster):
    """Every serving shard holds what its log union folds to: what a
    promotion would replay is what the shard serves."""
    replicator = cluster.failover.replicator
    for name, shard in cluster.shards.items():
        if cluster.failover.state(name) != DOWN:
            assert shard_state(shard) == logged_state(replicator.log(name))


def play_both(steps, config=CONFIG):
    """Play ``steps`` on both trees, each torn kill tearing the same calls
    off both primaries.  After every step each serving shard holds its
    log union's fold, the catalog holds what the ledger says, and the
    trees are equal: op for op with compaction off; with it on, in shard
    states and union folds.  A tear that loses a call's only copy ends
    two of these: stock is conserved no more, and with compaction on the
    trees are compared no more — each compacted apart, so each brings
    back whatever older value its own compaction kept."""
    compacting = config.replica_log_compact_threshold is not None
    segmented = seeded(segmented_cluster(config))
    per_op = seeded(per_op_cluster(config))
    ledger, lost = Ledger(), False
    assert cluster_view(segmented, compacting) == cluster_view(per_op, compacting)
    for n, step in enumerate(steps):
        if step[0] == "kill":
            got, want, tore_off = kill_alike(segmented, per_op, step)
            lost = lost or tore_off
        else:
            got = outcome(lambda: perform(segmented, step, n))
            want = outcome(lambda: perform(per_op, step, n))
        for tree in (segmented, per_op):
            assert_shards_are_their_logs(tree)
        if lost and compacting:
            continue
        assert compared(got) == compared(want)
        assert cluster_view(segmented, compacting) == cluster_view(per_op, compacting)
        if not lost:
            ledger.book(step, got)
            for tree in (segmented, per_op):
                ledger.assert_conserved(tree)
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

    @settings(max_examples=100, deadline=None)
    @given(steps=compacting_steps)
    def test_with_compaction_shards_and_union_folds_equal_the_per_op_tap(
        self, steps
    ):
        play_both(steps, COMPACTING)

    @pytest.mark.slow
    @settings(max_examples=1000, deadline=None)
    @given(steps=compacting_steps)
    def test_sweep_with_compaction_shards_and_union_folds_equal_the_per_op_tap(
        self, request, steps
    ):
        """The property above at 1,000 examples, for the nightly tier."""
        sweep_only(request)
        play_both(steps, COMPACTING)

    def test_a_steps_flush_is_logged_before_its_failover_tick(self):
        """``step`` is no scope of its own: were it one, its flush would
        reach the logs after the tick's compaction had run without it,
        and the compacted log would still hold the write it supersedes."""
        segmented = play_both(
            [("write_records", [(key, v) for key in ENTITIES]) for v in range(14)]
            + [("ingest", [(key, 9) for key in ENTITIES]), ("tick", 1)],
            COMPACTING,
        )
        compactions = segmented.metrics.counter("cluster.failover.log_compactions")
        assert compactions.value > 0
        replicator = segmented.failover.replicator
        for owner in segmented.router.shards:
            entries = replicator.log(owner).entries(owner)
            assert compact_entries(entries) == entries
            assert {op["v"]["payload"]["v"] for op in decode(entries[-1].payload)} == {9}


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
        home: expanded(geo.replicator.log(home).entries(home)) for home in REGIONS
    }
    states = {
        name: (
            [geo.region(name).read(key) for key in GEO_KEYS],
            [outcome(lambda: geo.region(name).get_stock(pid)) for pid in PRODUCTS],
        )
        for name in REGIONS
    }
    return logs, states, reach(geo, session), ops_behind(geo)


def geo_compared(geo, step, n, result):
    """A step's result; an ingest's LSNs each as whether it names the
    home record that logged its write (``None`` for a deferred one)."""
    value, raised = result
    if step[0] == "ingest" and value is not None:
        value = [
            None if lsn is None else logged_in(geo, geo.home_of(key), lsn, written)
            for (key, v), lsn in zip(step[1], value)
            for written in [record(key, {"v": v}, float(n))]
        ]
    return value, raised


def play_geo(steps):
    segmented, per_op = geo_pair()
    sessions = GeoSession(), GeoSession()
    for n, step in enumerate(steps):
        got = outcome(lambda: geo_perform(segmented, sessions[0], step, n))
        want = outcome(lambda: geo_perform(per_op, sessions[1], step, n))
        assert geo_compared(segmented, step, n, got) == geo_compared(
            per_op, step, n, want
        )
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
        shipped, logged = (
            [geo.metrics.counter(f"geo.repl.{name}").value for geo in (segmented, per_op)]
            for name in ("shipped", "logged")
        )
        # One message per record and destination: a call's in one, each
        # op alone in the other.
        assert shipped == [2 * logged[0], 2 * logged[1]]
        assert logged[1] == sum(
            len(geo_view(per_op, GeoSession())[0][home]) for home in REGIONS
        )
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
            assert [op["k"] for op in expanded(log.entries(name))] == [landed]
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
            op["k"] for op in expanded(geo.replicator.log(home).entries(home))
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

"""Derived state equals what it is derived from: the position index
behind spatial queries and the views behind standing prefix queries.

``MetaversePlatform.spatial_items`` answers from a key → (x, y) index on
every engine; the scan-and-filter it replaced lives on here as the
oracle.  The suite holds ``query_spatial(box).items == oracle`` under
everything that can invalidate the index — positions gained, lost and
moved, per-record and columnar ingest, rebalance drops, ring ownership
changes, compute crashes, foreign writers on a shared tier, a hydration
scan that faults — and guards the two costs the index exists to remove:
a tick does not scan, and a box query after the first does not either.
The same interleavings hold every standing prefix query's result equal
to a fresh ``query(prefix_query(p))``, its re-evaluation oracle, and
every point read equal to the same read on a twin whose buffer pools
drop a page on every write instead of keeping it current.
"""

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, PlatformCluster, ShardRouter
from repro.core import DataKind, DataRecord, RecordBatch, Space
from repro.core import FaultInjectedError
import repro.platform.platform as platform_module
from repro.platform import MetaversePlatform
from repro.query.plane import prefix_query
from repro.resilience import FaultInjector, FaultPlan, FaultRule
from repro.spatial.geometry import BBox
from repro.storage.bufferpool import BufferPool
from repro.storage.engine import LocalStorageEngine, StorageTier
from repro.storage.lifecycle import LifecyclePolicy, TieredStorageEngine

pytestmark = [pytest.mark.cluster, pytest.mark.disagg]


def record(key, payload, timestamp=0.0):
    return DataRecord(
        key=key, payload=payload, space=Space.VIRTUAL,
        timestamp=timestamp, kind=DataKind.STRUCTURED, source="test",
    )


def stored(payload):
    return {"payload": payload, "space": "virtual", "timestamp": 0.0}


def scan_and_filter(items, box):
    """The oracle: every stored (key, value) whose payload carries a
    numeric ``x``/``y`` inside ``box``, sorted by key — the filter
    ``spatial_items`` ran over a full scan before it had an index."""
    out = []
    for key, value in items:
        payload = value.get("payload", {}) if isinstance(value, dict) else {}
        x, y = payload.get("x"), payload.get("y")
        if (
            isinstance(x, (int, float))
            and isinstance(y, (int, float))
            and box.x_min <= x <= box.x_max
            and box.y_min <= y <= box.y_max
        ):
            out.append((key, value))
    return sorted(out, key=lambda item: item[0])


def assert_indexed_equals_scanned(plane, box):
    result = plane.query_spatial(box)
    scanned = plane.scan_prefix("")
    assert result.failed_shards == scanned.failed_shards
    assert result.items == scan_and_filter(scanned.items, box)
    return result


#: Standing prefixes of the interleaving property: one narrow, one that
#: holds every key the scripts write, and one no key falls under.
STANDING = ("k/0", "k/", "m/")


def register_standing(plane):
    for prefix in STANDING:
        plane.register_continuous(prefix, prefix)


def assert_standing_equals_reevaluated(plane):
    """Each standing result of the last refresh equals a fresh query."""
    for prefix in STANDING:
        standing = plane.continuous_results(prefix)
        fresh = plane.query(prefix_query(prefix))
        assert standing.items == fresh.items, prefix
        assert standing.failed_shards == fresh.failed_shards, prefix


class InvalidatingPool(BufferPool):
    """The oracle's pool: a write drops the cached page instead of
    refreshing it, as every platform's pool did before a sole writer
    kept its pages."""

    def written(self, items, keep):
        super().written(items, keep=False)


@contextmanager
def invalidating():
    """Every pool a platform builds inside the block (at construction,
    a re-mount or ``reset_caches``) is an :class:`InvalidatingPool`."""
    with mock.patch.object(platform_module, "BufferPool", InvalidatingPool):
        yield


def assert_reads_kept(plane, twin, keys):
    """Each of ``keys`` reads ``==`` on ``plane`` and on its invalidating
    ``twin``, and equals what a scan of the stored entities holds (for
    every key whose owner the scan reached); ``plane``'s pools hit at
    least as often as the twin's.  Returns the reads."""
    mine = {key: plane.read(key) for key in keys}
    with invalidating():
        assert {key: twin.read(key) for key in keys} == mine
    scanned = plane.scan_prefix("")
    stored, failed = dict(scanned.items), set(scanned.failed_shards)
    owner = plane.router.owner_of if failed else None
    for key in keys:
        if owner is None or owner(key) not in failed:
            assert mine[key] == stored.get(key), key
    hits = plane.metrics.counter("pool.hits").value
    assert hits >= twin.metrics.counter("pool.hits").value
    return mine


# -- interleavings on a cluster -------------------------------------------------

N_KEYS = 14
KEYS = [f"k/{i:02d}" for i in range(N_KEYS)]
coords = st.integers(min_value=0, max_value=9)
positions = st.one_of(st.none(), st.tuples(coords, coords))
boxes = st.tuples(coords, coords, coords, coords).map(
    lambda c: BBox(
        float(min(c[0], c[2])), float(min(c[1], c[3])),
        float(max(c[0], c[2])), float(max(c[1], c[3])),
    )
)
ops = st.one_of(
    st.tuples(st.just("write"), st.integers(0, N_KEYS - 1), positions),
    st.tuples(
        st.just("batch"),
        st.lists(
            st.tuples(st.integers(0, N_KEYS - 1), st.tuples(coords, coords)),
            min_size=1, max_size=5,
        ),
    ),
    st.tuples(
        st.just("put"),
        st.lists(
            st.tuples(st.integers(0, N_KEYS - 1), positions),
            min_size=1, max_size=5,
        ),
    ),
    st.tuples(st.just("drop"), st.integers(0, N_KEYS - 1)),
    st.tuples(st.just("flush")),
    st.tuples(st.just("tick")),
    st.tuples(st.just("query"), boxes),
    st.tuples(st.just("add_shard")),
    st.tuples(st.just("remove_shard"), st.integers(0, 7)),
    st.tuples(st.just("kill"), st.integers(0, 7)),
)


def payload_at(position, serial):
    if position is None:
        return {"v": serial}  # a key losing its position leaves the index
    return {"x": float(position[0]), "y": float(position[1])}


def apply(cluster, op, serial):
    """Play ``op``; ``True`` for a drop that was made."""
    kind = op[0]
    if kind == "write":
        cluster.ingest(record(f"k/{op[1]:02d}", payload_at(op[2], serial)))
    elif kind == "batch":
        cluster.ingest_batch(RecordBatch.from_records([
            record(f"k/{index:02d}", payload_at(position, serial))
            for index, position in op[1]
        ]))
    elif kind == "put":
        cluster.write_records([
            record(f"k/{index:02d}", payload_at(position, serial))
            for index, position in op[1]
        ])
    elif kind == "drop":
        # Only with nothing queued (a queued write would land after it)
        # and through a serving owner, which the model can follow.
        key = f"k/{op[1]:02d}"
        if not cluster.pending_count and is_up(cluster, cluster.router.owner_of(key)):
            cluster.drop_entity(key)
            return True
    elif kind == "flush":
        cluster.flush()
    elif kind == "tick":
        cluster.tick(0.5)
    elif kind == "query":
        assert_indexed_equals_scanned(cluster, op[1])
    elif kind == "add_shard":
        if len(cluster.shards) < 6:
            cluster.add_shard(f"joined-{serial}")
    elif kind == "remove_shard":
        names = cluster.router.shards
        victim = names[op[1] % len(names)]
        if len(names) > 1 and is_up(cluster, victim):
            cluster.remove_shard(victim)
    elif kind == "kill" and (
        cluster.storage is not None or cluster.failover is not None
    ):
        victim = cluster.router.shards[op[1] % len(cluster.router.shards)]
        if is_up(cluster, victim):
            cluster.kill_shard(victim)


def is_up(cluster, name):
    """Neither crashed nor still failing over (what kill and remove need)."""
    if cluster.failover is not None:
        return cluster.failover.state(name) == "up"
    return not cluster._is_down(name)


def settle(cluster):
    """Tick until every shard serves: a tier re-mounts at the next tick;
    replica failover promotes once the detector suspects the shard,
    which at one heartbeat per 0.5 s tick takes about 20 ticks."""
    cluster.tick(0.5)
    for _ in range(60):
        if all(is_up(cluster, name) for name in cluster.shards):
            return
        cluster.tick(0.5)
    raise AssertionError("a shard never came back")


#: The cluster shapes of the interleaving property.  The ids keep the
#: storage-node count the first two shapes were keyed by.
SHAPES = [
    pytest.param({}, id="None"),
    pytest.param({"n_storage_nodes": 3}, id="3"),
    pytest.param({"n_replicas": 2}, id="replicas-2"),
]


def run_script(shape, script, final):
    """Play ``script`` on a seeded 3-shard cluster of ``shape`` and hold
    every invariant at the end: indexed equals scanned, nothing partial,
    last write wins with each key served once, and on a tier each
    shard's index holds exactly the keys it owns.  After every tick and
    at the end, every standing result equals its re-evaluation.  A twin
    cluster whose pools invalidate plays the same script; after every
    op, every key reads the same on both and what storage holds, so
    each write, batch, write-through (a key twice in one ``mput``: the
    later wins) and drop lands on a page its sole writer keeps."""
    cluster = PlatformCluster(ClusterConfig(n_shards=3, **shape))
    with invalidating():
        twin = PlatformCluster(ClusterConfig(n_shards=3, **shape))
    seeded = [
        record(f"k/{i:02d}", payload_at((i % 10, (3 * i) % 10), 0))
        for i in range(0, N_KEYS, 2)
    ]
    model = {r.key: r.payload for r in seeded}
    cluster.ingest_many(seeded)
    cluster.flush()
    with invalidating():
        twin.ingest_many(seeded)
        twin.flush()
    assert_indexed_equals_scanned(cluster, final)  # hydrate early
    register_standing(cluster)
    cluster.tick(0.5)  # and the standing views
    with invalidating():
        twin.tick(0.5)
    assert_standing_equals_reevaluated(cluster)
    assert_reads_kept(cluster, twin, KEYS)
    for serial, op in enumerate(script, start=1):
        dropped = apply(cluster, op, serial)
        with invalidating():
            apply(twin, op, serial)
        if op[0] == "tick":
            assert_standing_equals_reevaluated(cluster)
        if op[0] == "write":
            model[f"k/{op[1]:02d}"] = payload_at(op[2], serial)
        elif op[0] in ("batch", "put"):
            for index, position in op[1]:
                model[f"k/{index:02d}"] = payload_at(position, serial)
        elif dropped:
            model.pop(f"k/{op[1]:02d}", None)
        if any(is_up(cluster, name) for name in cluster.shards):
            assert_reads_kept(cluster, twin, KEYS)
    settle(cluster)  # re-mounts or promotes whatever is down, flushes the rest
    with invalidating():
        settle(twin)
    assert_reads_kept(cluster, twin, KEYS)
    assert_standing_equals_reevaluated(cluster)
    result = assert_indexed_equals_scanned(cluster, final)
    assert result.failed_shards == ()
    whole = assert_indexed_equals_scanned(cluster, BBox(0.0, 0.0, 9.0, 9.0))
    assert whole.failed_shards == ()
    served = cluster.scan_prefix("k/").items
    assert {key: value["payload"] for key, value in served} == model
    assert len(served) == len(model)
    if cluster.storage is not None:
        # The invariant the ownership argument rests on.
        for name, shard in cluster.shards.items():
            assert shard._positions.data is not None
            assert all(
                cluster.router.owner_of(key) == name
                for key in shard._positions.data
            )
            assert sorted(shard._positions.data) == [
                key for key, _ in whole.items
                if cluster.router.owner_of(key) == name
            ]
    return cluster


scripts = st.lists(ops, min_size=1, max_size=25)


class TestIndexedEqualsScanned:
    @pytest.mark.parametrize("shape", SHAPES)
    @settings(max_examples=40, deadline=None)
    @given(script=scripts, final=boxes)
    def test_under_interleaved_writes_and_membership_changes(
        self, shape, script, final
    ):
        """Local engines: add/remove rebalance through ``import_entity``
        and ``drop_entity``.  Storage tier: add/remove remap ownership
        and reset every shard's index, a kill re-mounts a fresh one.
        Replicated local engines: a kill promotes a replica, and a write
        queued behind the dead shard lands once it is back."""
        run_script(shape, script, final)

    @pytest.mark.slow
    @pytest.mark.parametrize("shape", SHAPES)
    @settings(max_examples=1000, deadline=None)
    @given(script=scripts, final=boxes)
    def test_sweep_under_interleaved_writes_and_membership_changes(
        self, request, shape, script, final
    ):
        """The property above at 1,000 examples, for the nightly tier."""
        sweep_only(request)
        run_script(shape, script, final)


def sweep_only(request):
    """Skip a ``slow`` sweep unless the run selected tests by marker —
    the nightly tier's ``-m "slow or ..."``; a plain run stays quick."""
    if not request.config.getoption("markexpr"):
        pytest.skip("nightly sweep: select it with -m slow")


class TestQueuedWritesFollowOwnership:
    """A write queued behind a down shard is re-keyed when ownership
    moves, so the shard that owns its key on the new ring writes it."""

    def test_a_remounted_shard_does_not_write_a_key_it_lost(self):
        # Queued under shard-0, which is killed; the joined shard takes
        # k/10 and hydrates its index at the query, before the write
        # lands.  The write must land through the new owner.
        run_script({"n_storage_nodes": 3}, [
            ("write", 0, None), ("write", 10, None), ("kill", 0),
            ("add_shard",), ("query", BOX),
        ], BOX)

    def test_a_replicated_cluster_loses_no_update_across_a_join(self):
        cluster = PlatformCluster(ClusterConfig(n_shards=3, n_replicas=2))
        cluster.ingest(record("k/00", {"v": 0}))
        cluster.flush()
        owner = cluster.router.owner_of("k/00")
        joiner = next(
            name for name in (f"joined-{i}" for i in range(100))
            if ShardRouter([*cluster.router.shards, name]).owner_of("k/00")
            == name
        )
        cluster.kill_shard(owner)
        cluster.ingest(record("k/00", {"v": 1}))
        cluster.flush()
        assert cluster.pending_count == 1  # queued behind the dead owner
        cluster.add_shard(joiner)
        settle(cluster)
        assert cluster.read("k/00")["payload"] == {"v": 1}
        assert cluster.scan_prefix("k/").items == [
            ("k/00", cluster.read("k/00"))
        ]


# -- a standalone platform on an engine it did not build ------------------------


def split_write_cluster():
    """A 2-shard cluster on 2 storage nodes holding ``k/00``..``k/29``
    (queued, not flushed), whose shard-0 link to storage-1 crashes over
    [100, 110); shard-0 is the tier's first mount.  Returns it with a
    key shard-0 owns on storage-0 (``landed``) and one it owns on
    storage-1 (``failed``)."""
    plan = FaultPlan(rules=[FaultRule(
        site="storage.rpc", kind="crash", rate=1.0, start=100.0,
        end=110.0, target="compute/shard-0@1->storage-1",
    )], seed=3)
    cluster = PlatformCluster(
        ClusterConfig(n_shards=2, n_storage_nodes=2),
        faults=FaultInjector(plan),
    )
    cluster.ingest_many([record(f"k/{i:02d}", {"v": i}) for i in range(30)])
    mine = [f"k/{i:02d}" for i in range(30)
            if cluster.router.owner_of(f"k/{i:02d}") == "shard-0"]
    landed = next(k for k in mine if cluster.storage.node_of(k).name == "storage-0")
    failed = next(k for k in mine if cluster.storage.node_of(k).name == "storage-1")
    return cluster, landed, failed


def raise_split_write(cluster, via, landed, failed):
    """Write ``{"v": "new"}`` to both keys inside the fault window, by
    flushing queued ingest or written through: one ``mput`` that lands
    storage-0's group and raises on storage-1's."""
    cluster.clock.advance(100.0 - cluster.clock.now)
    writes = [record(landed, {"v": "new"}), record(failed, {"v": "new"})]
    with pytest.raises(FaultInjectedError):
        if via == "flush":
            cluster.ingest_many(writes)
            cluster.flush()
        else:
            cluster.write_records(writes)


BOX = BBox(0.0, 0.0, 5.0, 5.0)


class TestInjectedEngines:
    def test_prepopulated_local_engine_is_hydrated_not_assumed_empty(self):
        engine = LocalStorageEngine()
        engine.mput([
            ("a", stored({"x": 1.0, "y": 1.0})),
            ("b", stored({"x": 9.0, "y": 9.0})),
            ("c", stored({"label": "no position"})),
            ("d", "not a wrapper dict"),
        ])
        platform = MetaversePlatform(engine=engine)
        assert platform._positions.data is None
        assert [key for key, _ in assert_indexed_equals_scanned(
            platform, BOX
        ).items] == ["a"]
        assert platform._positions.data == {"a": (1.0, 1.0), "b": (9.0, 9.0)}
        # Maintained from here on: moves in, moves out, loses its position.
        platform.write_record(record("b", {"x": 2.0, "y": 2.0}))
        platform.write_record(record("a", {"x": 7.0, "y": 1.0}))
        platform.write_record(record("e", {"x": 3, "y": 3}))
        platform.write_record(record("e", {"gone": True}))
        assert [key for key, _ in assert_indexed_equals_scanned(
            platform, BOX
        ).items] == ["b"]
        platform.drop_entity("b")
        assert assert_indexed_equals_scanned(platform, BOX).items == []

    def test_own_engine_starts_hydrated_and_writes_pay_nothing_while_unknown(self):
        assert MetaversePlatform()._positions.data == {}
        platform = MetaversePlatform(engine=LocalStorageEngine())
        platform.write_record(record("a", {"x": 1.0, "y": 1.0}))
        assert platform._positions.data is None  # never asked, never built
        platform.reset_caches()
        assert platform._positions.data is None

    def test_foreign_writes_on_a_shared_tier_never_yield_false_positives(self):
        tier = StorageTier(n_nodes=3)
        mine = MetaversePlatform(engine=tier.mount("mine"))
        other = MetaversePlatform(engine=tier.mount("other"))
        for i in range(8):
            mine.write_record(record(f"k/{i}", {"x": float(i % 5), "y": 1.0}))
        assert len(assert_indexed_equals_scanned(mine, BOX).items) == 8
        # Behind mine's back: one key leaves the box, one loses its
        # position, one is deleted, one appears.
        other.write_record(record("k/0", {"x": 9.0, "y": 9.0}))
        other.write_record(record("k/1", {"label": "parked"}))
        other.drop_entity("k/2")
        other.write_record(record("new", {"x": 2.0, "y": 2.0}))
        oracle = scan_and_filter(mine.scan("", "￿"), BOX)
        seen = mine.query_spatial(BOX).items
        assert [key for key, _ in seen] == [f"k/{i}" for i in range(3, 8)]
        assert all(item in oracle for item in seen)
        mine.reset_caches()
        assert mine._positions.data is None
        assert mine.query_spatial(BOX).items == oracle
        assert "new" in mine._positions.data and "k/2" not in mine._positions.data

    @pytest.mark.parametrize("shared", ["tier", "injected"])
    def test_a_platform_that_is_not_the_sole_writer_drops_its_page(self, shared):
        """A platform hand-mounted on a shared tier, or built on an
        injected engine, may have other writers: its own write drops the
        page it held instead of keeping it, so a read after another
        writer's write of that key fetches what storage holds.  A page
        read before another writer's write is dropped by
        ``reset_caches``."""
        if shared == "tier":
            tier = StorageTier(n_nodes=3)
            mine, other = (
                MetaversePlatform(engine=tier.mount(name)) for name in ("mine", "other")
            )
        else:
            engine = LocalStorageEngine()
            mine, other = (MetaversePlatform(engine=engine) for _ in range(2))
        assert not mine._sole_writer and not other._sole_writer
        mine.write_record(record("k/0", {"v": 0}))
        assert mine.read("k/0")["payload"] == {"v": 0}
        assert "k/0" in mine.pool
        mine.write_record(record("k/0", {"v": 1}))
        assert "k/0" not in mine.pool
        other.write_record(record("k/0", {"v": 2}))  # behind mine's back
        assert mine.read("k/0") == mine.export_entity("k/0")
        assert mine.read("k/0")["payload"] == {"v": 2}
        other.write_record(record("k/0", {"v": 3}))
        mine.reset_caches()
        assert mine.read("k/0")["payload"] == {"v": 3}

    def test_foreign_writes_reach_a_hand_mounted_standing_result(self):
        """A hand-mounted platform is not its keys' only writer, so it
        keeps no view: its standing result re-evaluates and shows what
        another mount wrote behind its back."""
        tier = StorageTier(n_nodes=3)
        mine = MetaversePlatform(engine=tier.mount("mine"))
        other = MetaversePlatform(engine=tier.mount("other"))
        mine.register_continuous("k", "k/")
        for i in range(6):
            mine.write_record(record(f"k/{i}", {"v": i}))
        assert len(mine.tick(0.5)["k"].items) == 6
        other.write_record(record("k/0", {"v": 99}))
        other.drop_entity("k/1")
        other.write_record(record("k/new", {"v": 7}))
        result = mine.tick(0.5)["k"]
        assert result.items == mine.scan_prefix("k/").items
        seen = {key: value["payload"] for key, value in result.items}
        assert seen["k/0"] == {"v": 99} and seen["k/new"] == {"v": 7}
        assert "k/1" not in seen
        assert mine._views == {}

    def test_hydration_scan_faulted_past_the_retry_budget_leaves_it_unknown(self):
        plan = FaultPlan(rules=[FaultRule(
            site="storage.rpc", kind="crash", rate=1.0, start=100.0, end=200.0,
        )], seed=5)
        cluster = PlatformCluster(
            ClusterConfig(n_shards=3, n_storage_nodes=2),
            faults=FaultInjector(plan),
        )
        cluster.ingest_many(
            [record(f"k/{i:02d}", {"x": float(i % 8), "y": 2.0}) for i in range(30)]
        )
        cluster.flush()
        cluster.clock.advance(100.0 - cluster.clock.now)
        outage = cluster.query_spatial(BOX)
        assert outage.items == []
        assert outage.failed_shards == tuple(cluster.router.shards)
        assert all(s._positions.data is None for s in cluster.shards.values())
        cluster.clock.advance(200.0)
        result = assert_indexed_equals_scanned(cluster, BOX)
        assert result.failed_shards == () and len(result.items) == 24
        assert all(s._positions.data is not None for s in cluster.shards.values())

    def test_standing_hydration_faulted_past_the_retry_budget_leaves_it_unknown(self):
        """A storage fault can fail only a hydration: the view stays
        unknown and the shard failed.  Once hydrated, a view answers
        without a round trip, so during the next outage the standing
        result is complete where re-evaluation is partial."""
        plan = FaultPlan(rules=[
            FaultRule(site="storage.rpc", kind="crash", rate=1.0,
                      start=start, end=start + 100.0)
            for start in (100.0, 300.0)
        ], seed=5)
        cluster = PlatformCluster(
            ClusterConfig(n_shards=3, n_storage_nodes=2),
            faults=FaultInjector(plan),
        )
        cluster.ingest_many([record(f"k/{i:02d}", {"v": i}) for i in range(30)])
        cluster.flush()
        cluster.register_continuous("k", "k/")
        cluster.clock.advance(100.0 - cluster.clock.now)
        outage = cluster.tick(0.5)["k"]
        assert outage.items == []
        assert outage.failed_shards == tuple(cluster.router.shards)
        assert all(s._views["k"].data is None for s in cluster.shards.values())
        cluster.clock.advance(150.0)
        result = cluster.tick(0.5)["k"]
        assert result.failed_shards == () and len(result.items) == 30
        assert result.items == cluster.scan_prefix("k/").items
        cluster.clock.advance(300.0 - cluster.clock.now)
        assert cluster.scan_prefix("k/").failed_shards == tuple(cluster.router.shards)
        assert cluster.tick(0.5)["k"] == result

    @pytest.mark.parametrize("via", ["flush", "write_records"])
    def test_a_write_raising_mid_mput_resets_the_view(self, via):
        """A bulk write whose first storage node landed and whose second
        stayed faulted past the retry budget resets the writer's view;
        the next refresh re-hydrates it equal to re-evaluation.  Written
        through, the failed unit is not queued again, so a view that
        missed the reset would keep the old value of the landed key."""
        cluster, landed, failed = split_write_cluster()
        cluster.register_continuous("k", "k/")
        cluster.tick(0.5)
        shard = cluster.shards["shard-0"]
        raise_split_write(cluster, via, landed, failed)
        assert shard._views["k"].data is None
        assert cluster.storage.mget([landed])[landed]["payload"] == {"v": "new"}
        cluster.clock.advance(10.0)
        result = cluster.tick(0.5)["k"]
        assert result.items == cluster.scan_prefix("k/").items
        assert shard._views["k"].data is not None

    @pytest.mark.parametrize("via", ["flush", "write_records"])
    def test_a_write_raising_mid_mput_drops_the_pages_it_carried(self, via):
        """The twenty-fourth defect: a bulk write that landed its first
        storage node's group and raised on the second left the writer's
        cached page of the landed key holding the old value, while
        storage and scans held the new one, also after the fault window.
        Written through, the failed unit is not queued again, so nothing
        healed it.  A raised write now drops the page of every key it
        carried and installs none: the landed key reads its new value,
        the failed one its old value, each what storage holds."""
        cluster, landed, failed = split_write_cluster()
        cluster.flush()
        pool = cluster.shards["shard-0"].pool
        before = {key: cluster.read(key) for key in (landed, failed)}
        assert landed in pool and failed in pool
        raise_split_write(cluster, via, landed, failed)
        assert cluster.read(landed)["payload"] == {"v": "new"}
        assert failed not in pool  # dropped, and nothing installed
        cluster.clock.advance(10.0)
        if via == "flush":
            cluster.flush()  # the unit stayed queued: it lands now
        stored = cluster.storage.mget([landed, failed])
        scanned = dict(cluster.scan_prefix("k/").items)
        for key in (landed, failed):
            assert cluster.read(key) == stored[key] == scanned[key]
        assert stored[failed] == (
            before[failed] if via == "write_records"
            else {**before[failed], "payload": {"v": "new"}}
        )


class TestKeptPages:
    """A sole writer's write refreshes a cached page in place and
    installs none; the invalidating pool is the oracle."""

    def test_a_write_refreshes_a_cached_page_and_installs_none(self):
        platform = MetaversePlatform()
        platform.write_record(record("a", {"v": 0}))
        assert platform.read("a")["payload"] == {"v": 0}
        platform.write_record_batch([record("a", {"v": 1}), record("b", {"v": 1}),
                                     record("a", {"v": 2})])
        assert "a" in platform.pool and "b" not in platform.pool
        hits = platform.pool.hits
        assert platform.read("a") == platform.export_entity("a")
        assert platform.read("a")["payload"] == {"v": 2}  # the later write
        assert platform.pool.hits == hits + 2

    def test_a_remap_drops_every_page(self):
        """On a tier, a key whose ownership moves away and back is
        written by another shard in between: the first owner's page of
        it does not survive the remaps (``reset_caches``)."""
        cluster = PlatformCluster(ClusterConfig(n_shards=3, n_storage_nodes=3))
        cluster.write_record(record("k/00", {"v": 0}))
        owner = cluster.router.owner_of("k/00")
        assert cluster.read("k/00")["payload"] == {"v": 0}
        assert "k/00" in cluster.shards[owner].pool
        joiner = next(
            name for name in (f"joined-{i}" for i in range(100))
            if ShardRouter([*cluster.router.shards, name]).owner_of("k/00")
            == name
        )
        cluster.add_shard(joiner)
        cluster.write_record(record("k/00", {"v": 1}))  # through the joiner
        cluster.remove_shard(joiner)
        assert cluster.router.owner_of("k/00") == owner
        assert cluster.read("k/00")["payload"] == {"v": 1}

    def test_a_kept_page_equals_what_a_cold_tier_decodes(self):
        """On storage nodes that demote idle keys to a cold object tier,
        a read of a cold key returns a copy decoded from its stored
        bytes, not the object written.  A write, a demotion and a read:
        the page kept from the write holds the written object, the
        twin's page the decoded copy, and they read ``==``."""

        def tiered(cluster):
            for node in cluster.storage.nodes.values():
                node.engine = TieredStorageEngine(
                    policy=LifecyclePolicy(hot_capacity=2, hot_ttl_s=1.0, warm_ttl_s=2.0),
                    clock=cluster.clock, metrics=node.metrics, tracer=node.tracer,
                )
            return cluster

        config = ClusterConfig(n_shards=2, n_storage_nodes=2)
        cluster = tiered(PlatformCluster(config))
        with invalidating():
            twin = tiered(PlatformCluster(config))
        keys = [f"k/{i}" for i in range(6)]

        def on_both(step):
            step(cluster)
            with invalidating():
                step(twin)

        def write(serial):
            # every other key, and k/0 once more at the end (later wins)
            on_both(lambda plane: plane.write_records([
                record(key, {"v": serial, "path": [i, [serial, 0.5]], "tag": {"t": key}})
                for i, key in enumerate(keys[serial % 2::2] + keys[:1])
            ]))

        def demote(plane):
            plane.clock.advance(3.0)
            plane.storage.maintain()

        write(0)
        write(1)
        on_both(demote)
        assert all(n.engine.describe()["cold"] for n in cluster.storage.nodes.values())
        assert_reads_kept(cluster, twin, keys)  # every page a decoded copy
        write(2)
        on_both(demote)
        kept = assert_reads_kept(cluster, twin, keys)
        with invalidating():
            decoded = twin.read("k/0")
        assert decoded == kept["k/0"] and decoded is not kept["k/0"]
        assert kept["k/0"]["payload"] == {"v": 2, "path": [3, [2, 0.5]], "tag": {"t": "k/0"}}
        assert cluster.metrics.counter("pool.hits").value > (
            twin.metrics.counter("pool.hits").value
        )


# -- what the index exists to remove -------------------------------------------


class TestNothingSweepsTheTier:
    N = 1000

    def loaded(self):
        cluster = PlatformCluster(ClusterConfig(n_shards=4, n_storage_nodes=4))
        cluster.ingest_batch(RecordBatch.from_records([
            record(f"e/{i:04d}", {"x": float(i % 40), "y": float(i // 40)})
            for i in range(self.N)
        ]))
        cluster.flush()
        return cluster

    def test_a_tick_does_not_scan_and_books_only_routing_lookups(self):
        cluster = self.loaded()
        counter = cluster.metrics.counter
        scans = counter("kv.scans").value
        lookups = counter("cluster.router.lookups").value
        ticks, per_tick = 5, 60
        for tick in range(ticks):
            for i in range(per_tick):
                cluster.ingest(record(
                    f"e/{(7 * i + tick) % self.N:04d}",
                    {"x": float(i % 40), "y": float(tick)},
                ))
            cluster.tick(0.5)
        assert counter("kv.scans").value == scans
        assert counter("cluster.router.lookups").value == (
            lookups + ticks * per_tick
        )

    def test_a_box_query_after_the_first_neither_scans_nor_fans_out(
        self, monkeypatch
    ):
        cluster = self.loaded()
        examined = []
        scan = MetaversePlatform.scan

        def counting_scan(self, lo, hi):
            rows = scan(self, lo, hi)
            examined.append(len(rows))
            return rows

        monkeypatch.setattr(MetaversePlatform, "scan", counting_scan)
        counter = cluster.metrics.counter
        cluster.query_spatial(BBox(0.0, 0.0, 3.0, 3.0))
        # Hydration: one full scan per shard, of the whole tier.
        assert examined == [self.N] * 4
        n_nodes = len(cluster.storage.nodes)
        for corner in (0.0, 5.0, 11.0, 17.0):
            scans = counter("kv.scans").value
            calls = counter("storage.rpc.calls").value
            result = cluster.query_spatial(
                BBox(corner, corner, corner + 4.0, corner + 4.0)
            )
            assert len(result.items) == 25 and result.failed_shards == ()
            shards_hit = {cluster.router.owner_of(key) for key, _ in result.items}
            assert counter("kv.scans").value == scans
            assert counter("storage.rpc.calls").value - calls <= (
                n_nodes * len(shards_hit)
            )
        assert examined == [self.N] * 4

"""A shared tier is read once per fan-out.

On a disaggregated cluster every compute shard sees the whole storage
tier, so a scatter used to read each range once per shard and keep only
the owned slice.  ``PlatformCluster._scatter`` now opens the tier's read
scope: each ``(lo, hi)`` range is read from the storage nodes once, and
every other shard slices its owned rows out of those, and each shard
answers for its own keys (``MetaversePlatform.answer``).  The path it
replaced — each live shard's own ``shard.scan`` or ``spatial_items``,
sliced by the counting router — lives on here as the oracle, held equal
under writes, kills and membership changes; seeded ``storage.rpc``
faults, partitions and writes inside a fan-out check the scope's edges.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, PlatformCluster
from repro.core import DataKind, DataRecord, PartitionedError, Space
from repro.query.plane import prefix_query, spatial_query
from repro.resilience import FaultInjector, FaultPlan, FaultRule
from repro.spatial.geometry import BBox

pytestmark = [pytest.mark.cluster, pytest.mark.disagg]

HI = "￿"


def record(key, payload):
    return DataRecord(
        key=key, payload=payload, space=Space.VIRTUAL,
        kind=DataKind.STRUCTURED, source="test",
    )


def loaded(n_shards=4, n_storage_nodes=3, n_keys=40, faults=None):
    cluster = PlatformCluster(
        ClusterConfig(n_shards=n_shards, n_storage_nodes=n_storage_nodes),
        faults=faults,
    )
    cluster.ingest_many([
        record(f"e/{i:03d}", {"x": float(i % 10), "y": float(i // 10), "v": i})
        for i in range(n_keys)
    ])
    cluster.flush()
    return cluster


def owned_slice(cluster, name, items):
    """The items whose key the counting router gives to shard ``name``."""
    return [item for item in items if cluster.router.owner_of(item[0]) == name]


def oracle(cluster, read):
    """The replaced path: every live shard runs ``read(shard)`` over its
    own mount and keeps the items it owns; merged in key order."""
    items, failed = [], []
    for name in cluster.router.shards:
        if cluster._is_down(name):
            failed.append(name)
            continue
        items += owned_slice(cluster, name, read(cluster.shards[name]))
    return sorted(items, key=lambda item: item[0]), tuple(failed)


def tier_rows(cluster, prefix):
    """What the storage nodes hold under ``prefix``, read server-side."""
    rows = {}
    for node in cluster.storage.nodes.values():
        rows.update(node.engine.scan(prefix, prefix + HI))
    return rows


class TestOneTierRead:
    @pytest.mark.parametrize("n, m", [(1, 1), (3, 2), (4, 4), (5, 3)])
    def test_a_prefix_query_reads_each_storage_node_once(self, n, m):
        cluster = loaded(n_shards=n, n_storage_nodes=m)
        counter = cluster.metrics.counter
        calls, scans = counter("storage.rpc.calls").value, counter("kv.scans").value
        result = cluster.query(prefix_query("e/"))
        assert len(result.items) == 40 and result.failed_shards == ()
        assert counter("storage.rpc.calls").value - calls == m
        assert counter("kv.scans").value - scans == m

    def test_index_hydration_scans_each_storage_node_once(self):
        cluster = loaded(n_shards=4, n_storage_nodes=3)
        scans = cluster.metrics.counter("kv.scans").value
        result = cluster.query_spatial(BBox(0.0, 0.0, 4.0, 1.0))
        assert [key for key, _ in result.items] == [
            f"e/{i:03d}" for i in (0, 1, 2, 3, 4, 10, 11, 12, 13, 14)
        ]
        assert cluster.metrics.counter("kv.scans").value - scans == 3
        assert all(s._positions.data is not None for s in cluster.shards.values())

    def test_rows_do_not_outlive_the_fan_out(self):
        """A row written behind every mount's back — straight into a
        storage node — is seen by the next query: nothing read for the
        last fan-out is served again."""
        cluster = loaded()
        cluster.query(prefix_query("e/"))
        assert cluster.storage._scans is None
        cluster.storage.node_of("e/new").engine.put("e/new", {"payload": {}})
        scans = cluster.metrics.counter("kv.scans").value
        keys = [key for key, _ in cluster.query(prefix_query("e/")).items]
        assert "e/new" in keys
        assert cluster.metrics.counter("kv.scans").value - scans == 3

    def test_a_write_inside_the_fan_out_drops_what_was_read(self):
        """A gather whose function writes between two reads: every shard
        reading after the write sees it, and reads the range anew."""
        cluster = loaded()
        seen, wrote = [], []

        def read_then_write(shard):
            rows = shard.scan("e/", "e/" + HI)
            seen.append({key for key, _ in rows})
            if not wrote:
                shard.write_record(record("e/zzz", {"v": -1}))
                wrote.append(True)
            return []

        scans = cluster.metrics.counter("kv.scans").value
        cluster.gather(read_then_write)
        assert ["e/zzz" in keys for keys in seen] == [False, True, True, True]
        # One read before the write, one after it: two per storage node.
        assert cluster.metrics.counter("kv.scans").value - scans == 2 * 3

    def test_a_faulted_read_is_not_shared_and_the_next_shard_reads(self):
        """The first shard's read stays faulted past its retry budget: it
        is failed as before, records nothing, and the next shard makes
        the read itself."""
        plan = FaultPlan(rules=[FaultRule(
            site="storage.rpc", kind="crash", rate=1.0, start=50.0,
            target="compute/shard-0@1->storage-0",
        )], seed=3)
        cluster = loaded(n_shards=3, n_storage_nodes=2,
                         faults=FaultInjector(plan))
        first = cluster.router.shards[0]
        assert cluster.shards[first].engine.client == "compute/shard-0@1"
        cluster.clock.advance(50.0 - cluster.clock.now)
        scans = cluster.metrics.counter("kv.scans").value
        result = cluster.query(prefix_query("e/"))
        # The failed shard reached no node (storage-0 is asked first); the
        # second shard read both, the third read neither.
        assert cluster.metrics.counter("kv.scans").value - scans == 2
        assert result.failed_shards == (first,)
        assert result.items == sorted(
            (key, value) for key, value in tier_rows(cluster, "e/").items()
            if cluster.router.owner_of(key) != first
        )

    def test_a_partitioned_mount_raises_as_its_own_read_would(self):
        cluster = loaded(n_shards=3, n_storage_nodes=2)
        second = cluster.shards[cluster.router.shards[1]]
        cluster.storage.net.partition(second.engine.client, "storage-1")
        partitioned = cluster.metrics.counter("storage.rpc.partitioned")
        with pytest.raises(PartitionedError):
            cluster.query(prefix_query("e/"))
        assert partitioned.value == 1
        assert cluster.storage._scans is None


# -- the replaced path as the oracle ----------------------------------------------

N_KEYS = 12
tier_ops = st.one_of(
    st.tuples(st.just("write"), st.integers(0, N_KEYS - 1), st.integers(0, 9)),
    st.tuples(st.just("drop"), st.integers(0, N_KEYS - 1)),
    st.tuples(st.just("tick")),
    st.tuples(st.just("query"), st.sampled_from(["", "k/", "k/0", "k/1", "j/"])),
    st.tuples(st.just("spatial"), st.integers(0, 9), st.integers(0, 9)),
    st.tuples(st.just("add_shard")),
    st.tuples(st.just("remove_shard"), st.integers(0, 7)),
    st.tuples(st.just("kill"), st.integers(0, 7)),
)


def play(script):
    """Play ``script`` on a 3 compute x 3 storage cluster, holding every
    prefix and spatial query equal to the oracle.  A written value sits
    at ``(v, v % 3)``."""
    cluster = PlatformCluster(ClusterConfig(n_shards=3, n_storage_nodes=3))
    for serial, op in enumerate(script, start=1):
        kind = op[0]
        names = cluster.router.shards
        if kind == "write":
            cluster.ingest(record(f"k/{op[1]:02d}", {
                "v": op[2], "at": serial,
                "x": float(op[2]), "y": float(op[2] % 3),
            }))
        elif kind == "drop":
            cluster.drop_entity(f"k/{op[1]:02d}")
        elif kind == "tick":
            cluster.tick(0.5)
        elif kind == "query":
            result = cluster.query(prefix_query(op[1]))
            items, failed = oracle(
                cluster, lambda shard: shard.scan(op[1], op[1] + HI)
            )
            assert (result.items, result.failed_shards) == (items, failed)
        elif kind == "spatial":
            lo, hi = sorted(op[1:])
            box = BBox(float(lo), 0.0, float(hi), 1.0)
            result = cluster.query(spatial_query(box))
            items, failed = oracle(
                cluster, lambda shard: shard.spatial_items(box)
            )
            assert (result.items, result.failed_shards) == (items, failed)
        elif kind == "add_shard":
            if len(names) < 6:
                cluster.add_shard(f"joined-{serial}")
        elif kind == "remove_shard":
            victim = names[op[1] % len(names)]
            if len(names) > 1 and not cluster._is_down(victim):
                cluster.remove_shard(victim)
        elif kind == "kill":
            cluster.kill_shard(names[op[1] % len(names)])


class TestTierReadEqualsPerShardReads:
    @settings(max_examples=40, deadline=None)
    @given(script=st.lists(tier_ops, min_size=1, max_size=25))
    def test_under_writes_kills_and_membership_changes(self, script):
        play(script)

    @pytest.mark.slow
    @settings(max_examples=1000, deadline=None)
    @given(script=st.lists(tier_ops, min_size=1, max_size=25))
    def test_sweep_under_writes_kills_and_membership_changes(
        self, request, script
    ):
        """The property above at 1,000 examples, for the nightly tier."""
        if not request.config.getoption("markexpr"):
            pytest.skip("nightly sweep: select it with -m slow")
        play(script)


class TestUnderStorageFaults:
    @pytest.mark.parametrize("seed", range(8))
    def test_every_owned_row_of_a_served_shard_and_nothing_invented(self, seed):
        """Seeded crash, drop and delay faults on every storage RPC: each
        query returns, for every shard not in ``failed_shards``, every row
        it owns — and only rows the tier holds, each once."""
        plan = FaultPlan(rules=[
            FaultRule(site="storage.rpc", kind="crash", rate=0.25, start=50.0),
            FaultRule(site="storage.rpc", kind="drop", rate=0.1, start=50.0),
            FaultRule(site="storage.rpc", kind="delay", rate=0.1, start=50.0,
                      delay_s=0.01),
        ], seed=seed)
        cluster = loaded(n_shards=4, n_storage_nodes=3,
                         faults=FaultInjector(plan))
        cluster.clock.advance(50.0 - cluster.clock.now)
        partial = 0
        for prefix in ["e/", "e/0", "e/01", "e/02", "e/1", "e/"] * 3:
            result = cluster.query(prefix_query(prefix))
            truth = tier_rows(cluster, prefix)
            keys = [key for key, _ in result.items]
            assert len(keys) == len(set(keys))
            assert all(truth.get(key) == value for key, value in result.items)
            served = set(cluster.router.shards) - set(result.failed_shards)
            assert set(keys) == {
                key for key in truth if cluster.router.owner_of(key) in served
            }
            partial += bool(result.failed_shards)
        assert partial  # the faults did bite

"""A columnar write is paid per batch below the platform; the per-row
paths it replaced are the oracles.

* **Owners.**  ``Placement.owners`` answers a key column in one pass
  over the owner memo and ``Placement.group`` groups by that column.
  The oracle is ``[owner_of(k) for k in keys]`` and the per-item
  grouping loop (:func:`loop_group`), on a twin placement that saw the
  same calls: owners, group dicts in order, ``cluster.router.lookups``,
  the memo and its cap, across joins and leaves, and the empty
  placement's error.
* **Memtable.**  ``MemTable.mput`` notes its fresh keys and the next
  ordered read merges them in.  The oracle is the memtable that merged
  on every ``mput`` (:class:`MergingMemTable`), under a store driven
  through the same writes, deletes, scans and flushes.
* **Upkeep.**  ``MetaversePlatform._after_write`` follows a write with
  one ``BufferPool.written`` pass and one stale-cache loop and trim.  The
  oracle is the per-item loop it replaced (:func:`loop_after_write`):
  pages, the stale ``OrderedDict`` in order, hits, misses and recency.
"""

import sys
from bisect import bisect_left, bisect_right, insort
from contextlib import contextmanager
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cluster import ClusterConfig, PlatformCluster, ShardRouter
from repro.core import ConfigurationError, RecordBatch
from repro.placement import Placement
from repro.platform import platform as platform_module
from repro.platform.platform import STALE_CAPACITY, MetaversePlatform
from repro.storage import kv as kv_module
from repro.storage.engine import LocalStorageEngine, StorageTier
from repro.storage.kv import KVStore

# -- owners -------------------------------------------------------------------


def loop_group(owner_of, items, key=None):
    """The replaced grouping: one ``owner_of`` call per item."""
    out = {}
    for item in items:
        out.setdefault(owner_of(item if key is None else key(item)), []).append(item)
    return out


def memo(placement):
    return list(placement._owner_cache.items())


owner_keys = st.lists(
    st.sampled_from([f"k{i}" for i in range(20)] + ["é/ü", 'q"\\', ""]),
    max_size=30,
)
owner_steps = st.lists(
    st.one_of(
        owner_keys.map(lambda keys: ("ask", keys)),
        st.sampled_from(["s0", "s1", "s2", "s3"]).map(lambda name: ("toggle", name)),
    ),
    max_size=12,
)


class TestOwnersByColumn:
    @settings(max_examples=150, deadline=None)
    @given(steps=owner_steps, cap=st.sampled_from([3, 8, 1 << 20]),
           router=st.booleans())
    def test_the_column_equals_the_per_key_loop(self, steps, cap, router):
        """Both placements see the same joins, leaves and key columns;
        the column path answers and groups as the loop does, counts the
        same lookups and leaves the same memo, however small its cap."""
        build = ShardRouter if router else Placement
        column, loop = build(["s0", "s1"]), build(["s0", "s1"])
        for placement in (column, loop):
            placement._owner_cache_cap = cap
        for op, arg in steps:
            if op == "toggle":
                for placement in (column, loop):
                    (placement.remove if arg in placement else placement.add)(arg)
                continue
            if not len(loop) and arg:
                with pytest.raises(ConfigurationError):
                    loop_group(loop.owner_of, arg)
                with pytest.raises(ConfigurationError):
                    column.group(arg)
                continue
            expected = [loop.owner_of(key) for key in arg]
            assert column.owners(arg) == expected
            grouped, oracle = column.group(arg), loop_group(loop.owner_of, arg)
            assert grouped == oracle and list(grouped) == list(oracle)
            rows = column.group(range(len(arg)), arg.__getitem__)
            assert rows == loop_group(loop.owner_of, range(len(arg)), arg.__getitem__)
            assert memo(column) == memo(loop)
        if router:
            assert (column.metrics.counter("cluster.router.lookups").value
                    == loop.metrics.counter("cluster.router.lookups").value)

    def test_an_empty_placement_raises_for_a_key_and_not_for_none(self):
        for build in (Placement, ShardRouter):
            placement = build()
            assert placement.owners([]) == [] and placement.group([]) == {}
            with pytest.raises(ConfigurationError):
                placement.owners(["k"])
        router = ShardRouter()
        with pytest.raises(ConfigurationError):
            router.group(["k"])
        assert router.metrics.counter("cluster.router.lookups").value == 0

    def test_the_tier_groups_by_node_as_the_loop_does(self):
        tier = StorageTier(n_nodes=3)
        items = [(f"ent/{i % 37:03d}", i) for i in range(200)]
        expected = {
            tier.nodes[name]: part
            for name, part in loop_group(
                tier.placement.owner_of, items, itemgetter(0)
            ).items()
        }
        grouped = tier.group_by_node(items, itemgetter(0))
        assert grouped == expected and list(grouped) == list(expected)

    def test_a_warm_batch_asks_no_owner_of_in_python(self):
        """Routing a batch whose keys the memos know calls no Python
        ``owner_of``: not to split it by shard, not to split each shard's
        write by storage node."""
        cluster = PlatformCluster(ClusterConfig(n_shards=2, n_storage_nodes=2))
        keys = [f"ent/{i:04d}" for i in range(300)]

        def batch():
            return RecordBatch(keys, {"x": [float(i) for i in range(300)]},
                               [0.0] * 300)

        cluster.ingest_batch(batch())
        cluster.flush()
        lookups = cluster.metrics.counter("cluster.router.lookups")
        before = lookups.value
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "owner_of":
                calls.append(frame.f_code.co_filename)

        sys.setprofile(profile)
        try:
            cluster.ingest_batch(batch())
            cluster.flush()
        finally:
            sys.setprofile(None)
        assert calls == []
        assert lookups.value - before == len(keys)


# -- memtable -----------------------------------------------------------------


class MergingMemTable:
    """The replaced memtable: every ``mput`` merges its fresh keys into
    the sorted key list at once (one ``insort`` for a single key)."""

    def __init__(self):
        self._keys = []
        self._data = {}
        self.approx_bytes = 0

    def mput(self, entries, value_bytes):
        fresh = []
        for key, versioned in entries:
            if key not in self._data:
                fresh.append(key)
            self._data[key] = versioned
        if fresh:
            self.approx_bytes += sum(len(key) for key in fresh)
            if len(fresh) == 1:
                insort(self._keys, fresh[0])
            else:
                fresh.sort()
                self._keys = sorted(self._keys + fresh) if self._keys else fresh
        self.approx_bytes += value_bytes

    def get(self, key):
        return self._data.get(key, kv_module._MISSING)

    def __len__(self):
        return len(self._data)

    def scan(self, lo, hi):
        keys = self._keys[bisect_left(self._keys, lo):bisect_right(self._keys, hi)]
        return zip(keys, map(self._data.__getitem__, keys))

    def items(self):
        return zip(self._keys, map(self._data.__getitem__, self._keys))


@contextmanager
def merging():
    """Every memtable a store builds inside the block merges per ``mput``."""
    with mock.patch.object(kv_module, "MemTable", MergingMemTable):
        yield


memtable_keys = st.sampled_from(["a", "b", "ab", "ba", "é", "a\\", "zz", "m"])
memtable_values = st.one_of(st.none(), st.integers(-3, 3),
                            st.floats(allow_nan=False),
                            st.text(alphabet="xy", max_size=2))
bounds = st.sampled_from(["", "a", "b", "m", "￿"])


class MemtableAgainstMerging(RuleBasedStateMachine):
    """A store on the sorted-on-read memtable against one on the
    merge-per-``mput`` memtable: every scan, ``approx_bytes``, flush
    point and sorted run stays equal."""

    def __init__(self):
        super().__init__()
        self.live = KVStore(memtable_budget_bytes=200, max_runs=2)
        with merging():
            self.oracle = KVStore(memtable_budget_bytes=200, max_runs=2)

    def both(self, act):
        act(self.live)
        with merging():
            act(self.oracle)

    @rule(items=st.lists(st.tuples(memtable_keys, memtable_values), max_size=8))
    def mput(self, items):
        self.both(lambda store: store.mput(items))

    @rule(key=memtable_keys)
    def delete(self, key):
        self.both(lambda store: store.delete(key))

    @rule(lo=bounds, hi=bounds)
    def scan(self, lo, hi):
        assert list(self.live.scan(lo, hi)) == list(self.oracle.scan(lo, hi))

    @rule(key=memtable_keys)
    def get(self, key):
        missing = object()
        assert self.live.get_or(key, missing) == self.oracle.get_or(key, missing)
        assert self.live._memtable.get(key) == self.oracle._memtable.get(key)

    @rule(lo=bounds, hi=bounds)
    def memtable_scan(self, lo, hi):
        assert (list(self.live._memtable.scan(lo, hi))
                == list(self.oracle._memtable.scan(lo, hi)))

    @rule()
    def memtable_items(self):
        assert list(self.live._memtable.items()) == list(self.oracle._memtable.items())

    @rule()
    def flush(self):
        self.both(lambda store: store.flush())

    @invariant()
    def same_state(self):
        live, oracle = self.live, self.oracle
        assert live._memtable.approx_bytes == oracle._memtable.approx_bytes
        assert len(live._memtable) == len(oracle._memtable)
        assert (live.metrics.counter("kv.flushes").value
                == oracle.metrics.counter("kv.flushes").value)
        assert ([list(run.items()) for run in live._runs]
                == [list(run.items()) for run in oracle._runs])


TestMemtableAgainstMerging = MemtableAgainstMerging.TestCase
TestMemtableAgainstMerging.settings = settings(
    max_examples=80, stateful_step_count=30, deadline=None
)


def test_a_run_of_writes_between_reads_merges_once():
    """Forty one-key writes then a scan: the key list is merged at the
    read, and equals the oracle's."""
    live = kv_module.MemTable()
    oracle = MergingMemTable()
    for i in range(40):
        for table in (live, oracle):
            table.mput([(f"k{(i * 7) % 40:02d}", i)], 1)
    assert live._keys == [] and len(live._fresh) == 40
    assert list(live.scan("k05", "k30")) == list(oracle.scan("k05", "k30"))
    assert live._fresh == [] and live._keys == oracle._keys


# -- upkeep -------------------------------------------------------------------


def loop_after_write(platform, items, payloads):
    """The replaced ``_after_write``: per item, refresh (a sole writer)
    or drop the page, then remember it with its own trim."""
    frames = platform.pool._frames
    for key, value in items:
        if platform._sole_writer:
            frame = frames.get(key)
            if frame is not None:
                frame.value = value
        else:
            frames.pop(key, None)
        platform._stale[key] = value
        platform._stale.move_to_end(key)
        while len(platform._stale) > platform_module.STALE_CAPACITY:
            platform._stale.popitem(last=False)
    for state in platform._derived:
        state.on_write(items, payloads)


def upkeep_state(platform):
    pool = platform.pool
    return (
        list(platform._stale.items()),
        [(key, frame.value, frame.last_access) for key, frame in pool._frames.items()],
        pool.hits, pool.misses, pool._tick,
    )


upkeep_keys = st.sampled_from([f"e/{i}" for i in range(12)])
upkeep_ops = st.lists(
    st.one_of(
        st.lists(st.tuples(upkeep_keys, st.integers(0, 99)), max_size=14).map(
            lambda items: ("write", items)),
        st.lists(upkeep_keys, max_size=4).map(lambda keys: ("read", keys)),
    ),
    max_size=10,
)


def twin_platforms(sole):
    if sole:
        return MetaversePlatform(), MetaversePlatform()
    return (MetaversePlatform(engine=LocalStorageEngine()),
            MetaversePlatform(engine=LocalStorageEngine()))


class TestUpkeepPerBatch:
    @settings(max_examples=150, deadline=None)
    @given(ops=upkeep_ops, sole=st.booleans(), capacity=st.sampled_from([3, 8]))
    def test_the_batch_path_equals_the_per_item_loop(self, ops, sole, capacity):
        """Duplicate keys in one batch, batches larger than the stale
        capacity, pages present and absent, sole and shared writers."""
        live, oracle = twin_platforms(sole)
        assert live._sole_writer is sole
        with mock.patch.object(platform_module, "STALE_CAPACITY", capacity):
            for op, arg in ops:
                if op == "read":
                    for platform in (live, oracle):
                        for key in arg:
                            platform.read(key)
                    continue
                items = [(key, {"payload": {"v": v}, "space": "physical",
                                "timestamp": 0.0}) for key, v in arg]
                payloads = [value["payload"] for _, value in items]
                for platform in (live, oracle):
                    platform.engine.mput(items)
                live._after_write(items, payloads)
                loop_after_write(oracle, items, payloads)
                assert upkeep_state(live) == upkeep_state(oracle)

    def test_a_batch_past_the_stale_capacity_keeps_its_newest(self):
        live, oracle = twin_platforms(True)
        for platform in (live, oracle):
            platform.read("e/1")
        items = [(f"e/{i % (STALE_CAPACITY + 300)}", {"payload": {"v": i},
                  "space": "physical", "timestamp": 0.0})
                 for i in range(2 * STALE_CAPACITY)]
        payloads = [value["payload"] for _, value in items]
        live._after_write(items, payloads)
        loop_after_write(oracle, items, payloads)
        assert upkeep_state(live) == upkeep_state(oracle)
        assert len(live._stale) == STALE_CAPACITY
        assert live.read("e/1") == dict(items)["e/1"]

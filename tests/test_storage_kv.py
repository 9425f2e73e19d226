"""Tests for the LSM-style KV store, including crash recovery and properties."""

import json
from bisect import bisect_left
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.core import KeyNotFoundError, StorageError
from repro.storage import KVStore, WriteAheadLog
from repro.storage import kv as kv_module
from repro.core.records import KEY_MAX
from repro.storage.kv import _TOMBSTONE
from tests.test_position_index import sweep_only


class TestBasicOps:
    def test_put_get(self):
        kv = KVStore()
        kv.put("a", 1)
        assert kv.get("a") == 1

    def test_overwrite(self):
        kv = KVStore()
        kv.put("a", 1)
        kv.put("a", 2)
        assert kv.get("a") == 2

    def test_missing_key_raises(self):
        with pytest.raises(KeyNotFoundError):
            KVStore().get("ghost")

    def test_get_or_default(self):
        assert KVStore().get_or("ghost", 42) == 42

    def test_delete(self):
        kv = KVStore()
        kv.put("a", 1)
        kv.delete("a")
        assert "a" not in kv
        with pytest.raises(KeyNotFoundError):
            kv.get("a")

    def test_delete_missing_is_noop(self):
        KVStore().delete("ghost")

    def test_contains(self):
        kv = KVStore()
        kv.put("a", 1)
        assert "a" in kv
        assert "b" not in kv

    def test_json_values(self):
        kv = KVStore()
        kv.put("a", {"nested": [1, 2, {"x": None}]})
        assert kv.get("a") == {"nested": [1, 2, {"x": None}]}


class TestScan:
    def test_scan_range_inclusive_sorted(self):
        kv = KVStore()
        for key in ["d", "a", "c", "b", "e"]:
            kv.put(key, key.upper())
        assert list(kv.scan("b", "d")) == [("b", "B"), ("c", "C"), ("d", "D")]

    def test_scan_sees_latest_across_runs(self):
        kv = KVStore(memtable_budget_bytes=1)
        kv.put("k", "old")  # flushes immediately
        kv.put("k", "new")
        assert dict(kv.scan("", "z"))["k"] == "new"

    def test_scan_skips_tombstones(self):
        kv = KVStore(memtable_budget_bytes=1)
        kv.put("a", 1)
        kv.put("b", 2)
        kv.delete("a")
        assert list(kv.scan("", "z")) == [("b", 2)]

    def test_keys_and_len(self):
        kv = KVStore()
        kv.put("x", 1)
        kv.put("y", 2)
        kv.delete("x")
        assert kv.keys() == ["y"]
        assert len(kv) == 1


class TestFlushCompact:
    def test_flush_on_budget(self):
        kv = KVStore(memtable_budget_bytes=64)
        for i in range(50):
            kv.put(f"key-{i:04d}", "v" * 20)
        assert kv.run_count >= 1
        assert kv.get("key-0000") == "v" * 20

    def test_compaction_bounds_runs(self):
        kv = KVStore(memtable_budget_bytes=1, max_runs=3)
        for i in range(20):
            kv.put(f"k{i}", i)
        assert kv.run_count <= 3

    def test_compaction_preserves_data(self):
        kv = KVStore(memtable_budget_bytes=1, max_runs=2)
        for i in range(30):
            kv.put(f"k{i:02d}", i)
        kv.delete("k05")
        kv.flush()
        kv.compact()
        assert kv.get("k00") == 0
        assert kv.get("k29") == 29
        assert "k05" not in kv

    def test_explicit_flush_empty_is_noop(self):
        kv = KVStore()
        kv.flush()
        assert kv.run_count == 0


class TestRecovery:
    def test_recover_replays_committed_writes(self):
        wal = WriteAheadLog()
        kv = KVStore(wal=wal)
        kv.put("a", 1)
        kv.put("b", 2)
        kv.delete("a")
        # Simulated crash: all in-memory state is lost, WAL survives.
        recovered = KVStore(wal=wal)
        applied = recovered.recover()
        assert applied == 3
        assert "a" not in recovered
        assert recovered.get("b") == 2

    def test_recover_stops_at_torn_write(self):
        wal = WriteAheadLog()
        kv = KVStore(wal=wal)
        kv.put("a", 1)
        kv.put("b", 2)
        wal.corrupt_tail(4)  # tear the last record
        recovered = KVStore(wal=wal)
        recovered.recover()
        assert recovered.get("a") == 1
        assert "b" not in recovered

    def test_recover_empty_wal(self):
        assert KVStore().recover() == 0

    def test_recover_rejects_an_unknown_op(self):
        wal = WriteAheadLog()
        KVStore(wal=wal).put("a", 1)
        lsn = wal.append(json.dumps({"op": "merge", "k": "a"}).encode())
        with pytest.raises(StorageError, match=f"'merge' at LSN {lsn}"):
            KVStore(wal=wal).recover()


_keys = st.text(alphabet="abcdef", min_size=1, max_size=3)
_pairs = st.tuples(_keys, st.integers(-1000, 1000))


class TestProperties:
    """Hypothesis: the store behaves like a dict under any op sequence."""

    @settings(max_examples=50, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("put"), _pairs),
                st.tuples(st.just("delete"), _keys),
                st.tuples(st.just("mput"), st.lists(_pairs, max_size=5)),
            ),
            max_size=60,
        )
    )
    def test_matches_dict_semantics(self, ops):
        """Any interleaving of put / mput / delete equals a dict model,
        logs exactly one WAL entry per call (a record is a batch of one;
        an empty batch logs nothing), and replays to the same state."""
        wal = WriteAheadLog()
        kv = KVStore(memtable_budget_bytes=64, max_runs=2, wal=wal)
        model: dict[str, int] = {}
        logged = 0
        for op, arg in ops:
            if op == "put":
                kv.put(*arg)
                model[arg[0]] = arg[1]
            elif op == "mput":
                kv.mput(arg)
                model.update(arg)
            else:
                kv.delete(arg)
                model.pop(arg, None)
            logged += arg != []
            assert wal.entry_count == logged
        assert dict(kv.scan("", "zzzz")) == model
        recovered = KVStore(memtable_budget_bytes=64, max_runs=2, wal=wal)
        recovered.recover()
        assert dict(recovered.scan("", "zzzz")) == model

    @settings(max_examples=30, deadline=None)
    @given(
        entries=st.dictionaries(
            st.text(alphabet="abc", min_size=1, max_size=4),
            st.integers(),
            max_size=20,
        )
    )
    def test_recovery_is_lossless(self, entries):
        wal = WriteAheadLog()
        kv = KVStore(wal=wal, memtable_budget_bytes=32)
        for key, value in entries.items():
            kv.put(key, value)
        recovered = KVStore(wal=wal)
        recovered.recover()
        assert dict(recovered.scan("", "zzzz")) == entries


class TestStoredNone:
    """A key written with value ``None`` holds a value: every read finds
    it, wherever its cell lives; a key never written still raises."""

    @staticmethod
    def where(state):
        wal = WriteAheadLog()
        kv = KVStore(wal=wal, memtable_budget_bytes=1 << 20, max_runs=2)
        kv.mput([("a", 1), ("n", None), ("z", 2)])
        if state == "run":
            kv.flush()
        elif state == "compacted":
            kv.flush()
            kv.put("z", 3)
            kv.flush()
            kv.compact()
            assert kv.run_count == 1
        elif state == "snapshot":
            snapshot = json.loads(json.dumps(kv.snapshot_state()))
            kv = KVStore()
            kv.load_snapshot(snapshot)
        elif state == "recovered":
            kv = KVStore(wal=wal)
            kv.recover()
        return kv

    @pytest.mark.parametrize(
        "state", ["memtable", "run", "compacted", "snapshot", "recovered"]
    )
    def test_none_reads_back_as_a_value(self, state):
        kv = self.where(state)
        assert kv.get("n") is None
        assert kv.get_or("n", "default") is None
        assert "n" in kv
        assert ("n", None) in list(kv.scan("", KEY_MAX))
        assert "n" in kv.keys()
        assert len(kv) == 3
        assert "ghost" not in kv
        with pytest.raises(KeyNotFoundError):
            kv.get("ghost")

    def test_a_none_shadows_an_older_value_and_a_delete_shadows_it(self):
        kv = KVStore(memtable_budget_bytes=1 << 20)
        kv.put("n", 1)
        kv.flush()
        kv.put("n", None)
        assert kv.get("n") is None
        kv.flush()
        assert kv.get("n") is None
        kv.delete("n")
        with pytest.raises(KeyNotFoundError):
            kv.get("n")
        assert kv.keys() == []


class _Versioned(NamedTuple):
    """The replaced cell: a value with its global write sequence number."""

    seqno: int
    value: object  # _TOMBSTONE marks deletion


class _NoneMissMemTable(kv_module.MemTable):
    """The memtable as the versioned store read it: a miss is ``None``
    (a stored cell was never ``None``)."""

    def get(self, key):
        return self._data.get(key)


class _NoneMissSSTable(kv_module.SSTable):
    def get(self, key):
        if not self._keys or not (self.min_key <= key <= self.max_key):
            return None
        idx = bisect_left(self._keys, key)
        if idx < len(self._keys) and self._keys[idx] == key:
            return self._values[idx]
        return None


class VersionedKVStore(KVStore):
    """The replaced store, as the oracle: every cell is a
    ``_Versioned(seqno, value)``, seqnos rising in item order.  ``mput``,
    ``delete``, ``snapshot_state`` and ``recover`` are the live store's,
    so both log the same records."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._memtable = _NoneMissMemTable()
        self._seqno = 0  # mutations applied, loads included

    def _apply_mput(self, items, value_bytes):
        base = self._seqno
        self._seqno += len(items)
        entries = [
            (key, _Versioned(base + offset, value))
            for offset, (key, value) in enumerate(items, start=1)
        ]
        self._memtable.mput(entries, value_bytes)
        self._puts.inc(len(items))
        self._maybe_flush()

    def _apply_delete(self, key):
        self._seqno += 1
        self._memtable.mput([(key, _Versioned(self._seqno, _TOMBSTONE))], 0)
        self._deletes.inc()
        self._maybe_flush()

    def get(self, key):
        self._maybe_fault("kv.get", key)
        self._gets.inc()
        found = self._memtable.get(key)
        if found is None:
            for run in self._runs:
                found = run.get(key)
                if found is not None:
                    break
        if found is None or found.value is _TOMBSTONE:
            raise KeyNotFoundError(key)
        return found.value

    def scan(self, lo, hi):
        self._scans.inc()
        best = self._newest(lo, hi)
        for key in sorted(best):
            value = best[key].value
            if value is not _TOMBSTONE:
                yield key, value

    def _newest(self, lo, hi):
        best = {}
        for source in [*reversed(self._runs), self._memtable]:
            best.update(source.scan(lo, hi))
        return best

    def keys(self):
        return sorted(
            key for key, found in self._newest("", KEY_MAX).items()
            if found.value is not _TOMBSTONE
        )

    def flush(self):
        if len(self._memtable) == 0:
            return
        self._runs.insert(0, _NoneMissSSTable(list(self._memtable.items())))
        self._memtable = _NoneMissMemTable()
        self._flushes.inc()
        if len(self._runs) > self.max_runs:
            self.compact()

    def compact(self):
        best = {}
        for run in reversed(self._runs):
            best.update(run.items())
        live = [
            (key, versioned)
            for key, versioned in sorted(best.items())
            if versioned.value is not _TOMBSTONE
        ]
        self._runs = [_NoneMissSSTable(live)] if live else []
        self._compactions.inc()

    def load_snapshot(self, state):
        entries = []
        for key, value in state["items"]:
            self._seqno += 1
            entries.append((key, _Versioned(self._seqno, value)))
        if entries:
            self._memtable.mput(
                entries,
                value_bytes=sum(kv_module.payload_size(v.value) for _, v in entries),
            )
            self._maybe_flush()
        self.metrics.counter("kv.snapshot_loads").inc()
        return len(entries)


_MISS = object()


class ScanMergeMachine(RuleBasedStateMachine):
    """The store of bare cells against the replaced ``_Versioned`` store
    and a dict of the acknowledged writes and deletes: whatever order of
    writes (``None`` values included), deletes, flushes, compactions,
    checkpoint loads and recoveries built them, every scan, get, key
    list, snapshot and WAL byte is equal.

    Both stores merge their sources oldest first and compare no seqno;
    that is only right while runs stay newest-first under a memtable
    newer than all of them, which the oracle's seqnos check."""

    keys = st.text(alphabet="abc", min_size=1, max_size=2)
    values = st.one_of(st.none(), st.integers())
    ALL_KEYS = ["a", "b", "c", "aa", "ab", "ac", "ba", "bb", "bc", "ca", "cb", "cc"]

    def __init__(self):
        super().__init__()
        self.kv = self.fresh(KVStore, WriteAheadLog())
        self.oracle = self.fresh(VersionedKVStore, WriteAheadLog())
        self.model = {}
        self.base = None  # the checkpoint these stores' WALs continue from

    @staticmethod
    def fresh(cls, wal):
        return cls(memtable_budget_bytes=48, max_runs=2, wal=wal)

    def both(self, act):
        act(self.kv)
        act(self.oracle)

    @rule(items=st.lists(st.tuples(keys, values), max_size=6))
    def mput(self, items):
        self.both(lambda store: store.mput(items))
        self.model.update(items)

    @rule(key=keys)
    def delete(self, key):
        self.both(lambda store: store.delete(key))
        self.model.pop(key, None)

    @rule()
    def flush(self):
        self.both(lambda store: store.flush())

    @rule()
    def compact(self):
        self.both(lambda store: store.compact())

    @rule()
    def load_snapshot(self):
        self.base = json.loads(json.dumps(self.kv.snapshot_state()))
        assert json.loads(json.dumps(self.oracle.snapshot_state())) == self.base
        self.kv = self.fresh(KVStore, WriteAheadLog())
        self.oracle = self.fresh(VersionedKVStore, WriteAheadLog())
        assert self.kv.load_snapshot(self.base) == self.oracle.load_snapshot(self.base)

    @rule()
    def recover(self):
        stores = []
        for cls, store in ((KVStore, self.kv), (VersionedKVStore, self.oracle)):
            recovered = self.fresh(cls, store.wal)
            if self.base is not None:
                recovered.load_snapshot(self.base)
            stores.append((recovered, recovered.recover()))
        (self.kv, applied), (self.oracle, oracle_applied) = stores
        assert applied == oracle_applied

    @rule(lo=st.sampled_from(["", "a", "b", "bb"]), hi=st.sampled_from(["a", "bz", "zzzz"]))
    def scan(self, lo, hi):
        got = list(self.kv.scan(lo, hi))
        assert got == list(self.oracle.scan(lo, hi))
        assert got == sorted(
            (key, value) for key, value in self.model.items() if lo <= key <= hi
        )

    @rule(key=st.sampled_from(ALL_KEYS))
    def get(self, key):
        got = self.kv.get_or(key, _MISS)
        assert got == self.oracle.get_or(key, _MISS) == self.model.get(key, _MISS)
        if got is _MISS:
            with pytest.raises(KeyNotFoundError):
                self.kv.get(key)

    @invariant()
    def same_state(self):
        kv, oracle = self.kv, self.oracle
        assert kv.keys() == oracle.keys() == sorted(self.model)
        assert kv.snapshot_state() == oracle.snapshot_state()
        assert bytes(kv.wal._buf) == bytes(oracle.wal._buf)
        # Source by source, the same keys hold the same cells: a bare
        # value where the oracle holds its ``_Versioned``.  The memtable
        # is read without sorting it, which a read would do.
        assert kv._memtable._data == {
            key: versioned.value
            for key, versioned in oracle._memtable._data.items()
        }
        assert [list(run.items()) for run in kv._runs] == [
            [(key, versioned.value) for key, versioned in run.items()]
            for run in oracle._runs
        ]

    @invariant()
    def sources_are_ordered_newest_first(self):
        """The premise itself: every version in a source of the oracle is
        newer than every version in the sources behind it."""
        floor = None
        for source in [self.oracle._memtable, *self.oracle._runs]:
            seqnos = [versioned.seqno for _, versioned in source.items()]
            if not seqnos:
                continue
            if floor is not None:
                assert max(seqnos) < floor
            floor = min(seqnos)


TestScanMerge = ScanMergeMachine.TestCase


@pytest.mark.slow
def test_sweep_scan_merge(request):
    """``ScanMergeMachine`` at 1,000 examples, for the nightly tier."""
    sweep_only(request)
    run_state_machine_as_test(
        ScanMergeMachine,
        settings=settings(max_examples=1000, stateful_step_count=50, deadline=None),
    )

"""Tests for the LSM-style KV store, including crash recovery and properties."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import KeyNotFoundError, StorageError
from repro.storage import KVStore, WriteAheadLog
from repro.storage.kv import _TOMBSTONE


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


class ScanMergeMachine(RuleBasedStateMachine):
    """``scan`` merges its sources oldest first and compares no seqno;
    that is only right while runs stay newest-first under a memtable
    newer than all of them.  Whatever order of writes, deletes, flushes,
    compactions, checkpoint loads and recoveries built the store, a scan
    must equal the seqno-max model over every version it holds."""

    keys = st.text(alphabet="abc", min_size=1, max_size=2)

    def __init__(self):
        super().__init__()
        self.kv = self.fresh(WriteAheadLog())
        self.base = None  # the checkpoint this store's WAL continues from

    def fresh(self, wal):
        return KVStore(memtable_budget_bytes=48, max_runs=2, wal=wal)

    @rule(items=st.lists(st.tuples(keys, st.integers()), max_size=6))
    def mput(self, items):
        self.kv.mput(items)

    @rule(key=keys)
    def delete(self, key):
        self.kv.delete(key)

    @rule()
    def flush(self):
        self.kv.flush()

    @rule()
    def compact(self):
        self.kv.compact()

    @rule()
    def load_snapshot(self):
        self.base = json.loads(json.dumps(self.kv.snapshot_state()))
        self.kv = self.fresh(WriteAheadLog())
        self.kv.load_snapshot(self.base)

    @rule()
    def recover(self):
        recovered = self.fresh(self.kv.wal)
        if self.base is not None:
            recovered.load_snapshot(self.base)
        recovered.recover()
        assert list(recovered.scan("", "zzzz")) == list(self.kv.scan("", "zzzz"))
        self.kv = recovered

    @rule(lo=st.sampled_from(["", "a", "b", "bb"]), hi=st.sampled_from(["a", "bz", "zzzz"]))
    def scan_equals_the_seqno_max_model(self, lo, hi):
        best = {}
        for source in [self.kv._memtable, *self.kv._runs]:
            for key, versioned in source.items():
                if key not in best or versioned.seqno > best[key].seqno:
                    best[key] = versioned
        model = [
            (key, best[key].value) for key in sorted(best)
            if lo <= key <= hi and best[key].value is not _TOMBSTONE
        ]
        assert list(self.kv.scan(lo, hi)) == model
        assert self.kv.keys() == [key for key, _ in self.kv.scan("", "￿")]

    @invariant()
    def sources_are_ordered_newest_first(self):
        """The premise itself: every version in a source is newer than
        every version in the sources behind it."""
        floor = None
        for source in [self.kv._memtable, *self.kv._runs]:
            seqnos = [versioned.seqno for _, versioned in source.items()]
            if not seqnos:
                continue
            if floor is not None:
                assert max(seqnos) < floor
            floor = min(seqnos)


TestScanMerge = ScanMergeMachine.TestCase

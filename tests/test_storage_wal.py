"""Tests for the write-ahead log."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import StorageError
from repro.core.errors import FaultInjectedError
from repro.resilience.faults import FaultInjector, FaultPlan, FaultRule
from repro.storage import WalEntry, WriteAheadLog


class TestAppendReplay:
    def test_replay_returns_entries_in_order(self):
        wal = WriteAheadLog()
        wal.append(b"one")
        wal.append(b"two")
        wal.append(b"three")
        entries = list(wal.replay())
        assert [e.payload for e in entries] == [b"one", b"two", b"three"]
        assert [e.lsn for e in entries] == [1, 2, 3]

    def test_lsns_monotonic(self):
        wal = WriteAheadLog()
        lsns = [wal.append(b"x") for _ in range(5)]
        assert lsns == sorted(lsns)
        assert len(set(lsns)) == 5

    def test_empty_log_replays_nothing(self):
        assert list(WriteAheadLog().replay()) == []

    def test_non_bytes_payload_rejected(self):
        with pytest.raises(StorageError):
            WriteAheadLog().append("not-bytes")  # type: ignore[arg-type]


class TestCorruption:
    def test_torn_tail_truncates_last_entry(self):
        wal = WriteAheadLog()
        wal.append(b"good-1")
        wal.append(b"good-2")
        wal.append(b"torn!!")
        wal.corrupt_tail(3)
        payloads = [e.payload for e in wal.replay()]
        assert payloads == [b"good-1", b"good-2"]

    def test_fully_torn_entry_header(self):
        wal = WriteAheadLog()
        wal.append(b"alpha")
        wal.append(b"beta")
        # chop the whole second record plus part of its header
        wal.corrupt_tail(len(b"beta") + 10)
        payloads = [e.payload for e in wal.replay()]
        assert payloads == [b"alpha"]

    def test_corrupt_tail_negative_rejected(self):
        with pytest.raises(StorageError):
            WriteAheadLog().corrupt_tail(-1)


class TestTornTailRecovery:
    """Regression: replay must stop *cleanly* at a torn tail and report
    the last valid LSN, and appends after ``corrupt_tail`` must trim the
    torn bytes instead of landing unreachable behind them."""

    def test_replay_returns_last_valid_lsn(self):
        wal = WriteAheadLog()
        wal.append(b"one")
        wal.append(b"two")
        wal.corrupt_tail(2)
        gen = wal.replay()
        payloads = []
        while True:
            try:
                payloads.append(next(gen).payload)
            except StopIteration as stop:
                assert stop.value == 1  # LSN of the last intact entry
                break
        assert payloads == [b"one"]
        assert wal.last_valid_lsn == 1

    def test_fully_torn_log_reports_lsn_zero(self):
        wal = WriteAheadLog()
        wal.append(b"only")
        wal.corrupt_tail(len(wal))
        assert list(wal.replay()) == []
        assert wal.last_valid_lsn == 0

    def test_append_after_torn_tail_round_trips(self):
        wal = WriteAheadLog()
        wal.append(b"keep")
        wal.append(b"torn")
        wal.corrupt_tail(2)
        lsn = wal.append(b"after-crash")
        assert lsn == 3  # LSNs never reused, even for the lost entry
        entries, last_lsn = wal.recover_prefix()
        assert [e.payload for e in entries] == [b"keep", b"after-crash"]
        assert last_lsn == 3

    def test_recover_prefix_matches_replay(self):
        wal = WriteAheadLog()
        for i in range(4):
            wal.append(f"e{i}".encode())
        wal.corrupt_tail(1)
        entries, last_lsn = wal.recover_prefix()
        assert entries == list(wal.replay())
        assert last_lsn == 3


class TestReplicationPrimitives:
    """append_at / rebuild back the failover layer's replica copies."""

    def test_append_at_adopts_external_lsns(self):
        primary, copy = WriteAheadLog(), WriteAheadLog()
        for payload in (b"a", b"b", b"c"):
            copy.append_at(primary.append(payload), payload)
        assert list(copy.replay()) == list(primary.replay())
        assert copy.next_lsn == primary.next_lsn

    def test_dropped_replication_leaves_visible_hole(self):
        copy = WriteAheadLog()
        copy.append_at(1, b"a")
        copy.append_at(3, b"c")  # LSN 2 was dropped in flight
        assert [e.lsn for e in copy.replay()] == [1, 3]
        assert copy.last_valid_lsn == 3

    def test_append_at_rejects_bad_lsn(self):
        with pytest.raises(StorageError):
            WriteAheadLog().append_at(0, b"x")

    def test_rebuild_replaces_body_and_continues_lsns(self):
        damaged, healthy = WriteAheadLog(), WriteAheadLog()
        for payload in (b"a", b"b", b"c"):
            healthy.append(payload)
        damaged.append_at(1, b"a")  # missed LSNs 2 and 3
        damaged.rebuild(list(healthy.replay()))
        assert list(damaged.replay()) == list(healthy.replay())
        assert damaged.append(b"d") == 4


class TestTruncation:
    def test_truncate_before_drops_old_entries(self):
        wal = WriteAheadLog()
        for i in range(5):
            wal.append(f"entry-{i}".encode())
        wal.truncate_before(3)
        entries = list(wal.replay())
        assert [e.lsn for e in entries] == [3, 4, 5]

    def test_truncate_preserves_future_appends(self):
        wal = WriteAheadLog()
        wal.append(b"a")
        wal.truncate_before(2)
        lsn = wal.append(b"b")
        assert lsn == 2
        assert [e.payload for e in wal.replay()] == [b"b"]


def cold(wal: WriteAheadLog) -> WriteAheadLog:
    """A fresh log handed ``wal``'s bytes: it has verified nothing, so
    whatever it reports comes from a scan from byte 0."""
    fresh = WriteAheadLog()
    fresh._buf = bytearray(wal._buf)
    fresh._truncated_lsn = wal.truncated_lsn
    return fresh


OBSERVATIONS = {
    "recover_prefix": lambda wal: wal.recover_prefix(),
    "replay": lambda wal: list(wal.replay()),
    "entry_count": lambda wal: wal.entry_count,
    "last_valid_lsn": lambda wal: wal.last_valid_lsn,
}
payloads = st.binary(max_size=24)


class IncrementalScanMachine(RuleBasedStateMachine):
    """The verified prefix is an optimisation of the cold scan, never a
    second opinion.  Two logs take the same mutations: ``eager`` is read
    all four ways after every step, ``lazy`` only when a rule says so and
    in any order, so scans resume after any number and mix of mutations
    (count-only scans before parsing ones included).  Each must always
    report what :func:`cold` reports for its bytes."""

    def __init__(self):
        super().__init__()
        self.eager, self.lazy = WriteAheadLog(), WriteAheadLog()

    @rule(
        payload=payloads,
        fault=st.sampled_from([None, None, None, "crash", "corrupt"]),
    )
    def append(self, payload, fault):
        for wal in (self.eager, self.lazy):
            if fault is not None:
                wal.faults = FaultInjector(
                    FaultPlan([FaultRule("wal.append", fault, rate=1.0)])
                )
            try:
                wal.append(payload)
            except FaultInjectedError:
                assert fault == "crash"
            wal.faults = None

    @rule(lsn=st.integers(1, 80), payload=payloads)
    def append_at(self, lsn, payload):
        for wal in (self.eager, self.lazy):
            wal.append_at(lsn, payload)

    @rule(nbytes=st.integers(0, 90))
    def corrupt_tail(self, nbytes):
        for wal in (self.eager, self.lazy):
            wal.corrupt_tail(nbytes)

    @rule(
        entries=st.lists(
            st.builds(WalEntry, lsn=st.integers(1, 80), payload=payloads),
            max_size=8,
        )
    )
    def rebuild(self, entries):
        for wal in (self.eager, self.lazy):
            wal.rebuild(entries)

    @rule(data=st.data())
    def rebuild_from_own_prefix(self, data):
        """What compaction and anti-entropy do: a subset, reordered."""
        prefix = cold(self.eager).recover_prefix()[0]
        kept = data.draw(st.permutations(prefix))[: data.draw(st.integers(0, 12))]
        for wal in (self.eager, self.lazy):
            wal.rebuild(kept)

    @rule(lsn=st.integers(0, 90))
    def truncate_before(self, lsn):
        for wal in (self.eager, self.lazy):
            expected = sum(e.lsn < lsn for e in cold(wal).recover_prefix()[0])
            assert wal.truncate_before(lsn) == expected

    @rule(order=st.permutations(sorted(OBSERVATIONS)), upto=st.integers(1, 4))
    def read_lazy(self, order, upto):
        oracle = cold(self.lazy)
        for name in order[:upto]:
            assert OBSERVATIONS[name](self.lazy) == OBSERVATIONS[name](oracle), name

    @invariant()
    def eager_reports_the_cold_scan(self):
        oracle = cold(self.eager)
        for name, observe in OBSERVATIONS.items():
            assert observe(self.eager) == observe(oracle), name

    @invariant()
    def same_mutations_same_bytes(self):
        """Trimming a torn tail on append rests on the verified prefix;
        when it was computed must not matter."""
        assert self.lazy._buf == self.eager._buf
        assert self.lazy.next_lsn == self.eager.next_lsn


TestIncrementalScan = IncrementalScanMachine.TestCase
TestIncrementalScan.settings = settings(
    max_examples=120, stateful_step_count=30, deadline=None
)

"""LSM-style key-value store (paper Sec. IV-E2, the "KV store" tier).

An update-optimized store in the log-structured-merge mold: writes go to a
WAL and an in-memory memtable; when the memtable exceeds its budget it is
flushed to an immutable sorted run (SSTable); reads consult the memtable and
then runs newest-first; ranged scans merge all runs.  A tiered compactor
bounds the run count.  Deletes are tombstones.

This is the storage tier the disaggregated architecture (Fig. 7) mounts for
hot structured data; the experiments that use it care about its update-heavy
performance profile, which the LSM design provides.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right, insort
from typing import TYPE_CHECKING, Iterator, NamedTuple

from ..core.errors import (
    ConfigurationError,
    FaultInjectedError,
    KeyNotFoundError,
    StorageError,
)
from ..core.metrics import MetricsRegistry
from ..core.records import KEY_MAX
from ..obs.tracing import NoopTracer, Tracer
from .wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.faults import FaultInjector

_TOMBSTONE = object()


class _Versioned(NamedTuple):
    """A value with its global write sequence number.

    A NamedTuple rather than a (frozen) dataclass: versioned cells are
    minted once per mutation on the hottest write path, and tuple
    construction is several times cheaper than a frozen dataclass's
    ``object.__setattr__`` init.
    """

    seqno: int
    value: object  # _TOMBSTONE marks deletion


class MemTable:
    """Sorted in-memory write buffer."""

    def __init__(self) -> None:
        self._keys: list[str] = []
        self._data: dict[str, _Versioned] = {}
        self.approx_bytes = 0

    def mput(self, entries: list[tuple[str, _Versioned]], value_bytes: int) -> None:
        """Insert ``entries`` in order (later duplicates win);
        ``value_bytes`` is the caller's size estimate for the values (0
        for a tombstone).  Fresh keys join the sorted key list in one
        merge — or one ``insort`` when there is a single one, which is
        what a batch of one (a per-record put) brings."""
        fresh: list[str] = []
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

    def get(self, key: str) -> _Versioned | None:
        return self._data.get(key)

    def __len__(self) -> int:
        return len(self._data)

    def scan(self, lo: str, hi: str) -> Iterator[tuple[str, _Versioned]]:
        keys = self._keys[bisect_left(self._keys, lo):bisect_right(self._keys, hi)]
        return zip(keys, map(self._data.__getitem__, keys))

    def items(self) -> Iterator[tuple[str, _Versioned]]:
        return zip(self._keys, map(self._data.__getitem__, self._keys))


class SSTable:
    """An immutable sorted run."""

    def __init__(self, entries: list[tuple[str, _Versioned]]) -> None:
        self._keys = [k for k, _ in entries]
        self._values = [v for _, v in entries]
        self.min_key = self._keys[0] if self._keys else ""
        self.max_key = self._keys[-1] if self._keys else ""

    def __len__(self) -> int:
        return len(self._keys)

    def get(self, key: str) -> _Versioned | None:
        if not self._keys or not (self.min_key <= key <= self.max_key):
            return None
        idx = bisect_left(self._keys, key)
        if idx < len(self._keys) and self._keys[idx] == key:
            return self._values[idx]
        return None

    def scan(self, lo: str, hi: str) -> Iterator[tuple[str, _Versioned]]:
        start, stop = bisect_left(self._keys, lo), bisect_right(self._keys, hi)
        return zip(self._keys[start:stop], self._values[start:stop])

    def items(self) -> Iterator[tuple[str, _Versioned]]:
        return zip(self._keys, self._values)


def payload_size(value: object) -> int:
    """Size estimate of a value that is not a write batch: a snapshot's
    memtable accounting here; RPC responses and product records in
    :mod:`repro.storage.engine`.  A write batch is sized by the record
    :func:`encode_mput` builds for it."""
    try:
        return len(json.dumps(value))
    except (TypeError, ValueError):
        return len(repr(value))


def encode_mput(items: "list[tuple[str, object]]") -> bytes:
    """The WAL record of one write batch — and, for a remote engine, the
    request on the wire: whoever receives the batch first serialises it,
    once, and :meth:`KVStore.mput` logs those bytes.  Raises ``TypeError``
    for a value JSON cannot carry and ``ValueError`` for a cyclic one."""
    return json.dumps(
        {"op": "mput", "items": items}, separators=(",", ":")
    ).encode("utf-8")


class KVStore:
    """The public LSM store.

    Parameters
    ----------
    memtable_budget_bytes:
        Flush threshold for the memtable.
    max_runs:
        Compact (merge all runs) once the run count exceeds this.
    wal:
        Optional external WAL; a fresh one is created when omitted.
    faults:
        Optional :class:`~repro.resilience.faults.FaultInjector`; consulted
        at the ``kv.get`` / ``kv.put`` sites (an injected ``crash`` raises
        :class:`FaultInjectedError` before any state changes).  A WAL
        created internally shares the injector (site ``wal.append``).
    """

    def __init__(
        self,
        memtable_budget_bytes: int = 64 * 1024,
        max_runs: int = 6,
        wal: WriteAheadLog | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        faults: "FaultInjector | None" = None,
    ) -> None:
        if memtable_budget_bytes <= 0 or max_runs < 1:
            raise ConfigurationError("invalid KVStore configuration")
        self.memtable_budget_bytes = memtable_budget_bytes
        self.max_runs = max_runs
        self.wal = wal if wal is not None else WriteAheadLog(faults=faults)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._puts, self._gets, self._scans, self._deletes = map(
            self.metrics.counter, ("kv.puts", "kv.gets", "kv.scans", "kv.deletes"))
        self.tracer = tracer if tracer is not None else NoopTracer()
        self.faults = faults
        self._memtable = MemTable()
        self._runs: list[SSTable] = []  # newest first
        self._seqno = 0

    def _maybe_fault(self, site: str, key: str) -> None:
        if self.faults is not None:
            decision = self.faults.decide(site, target=key, kinds=("crash", "delay"))
            if decision.kind == "crash":
                raise FaultInjectedError(f"injected crash at {site}")
            if decision.kind == "delay":
                self.faults.clock.advance(decision.delay_s)

    # -- mutations ----------------------------------------------------------

    def put(self, key: str, value: object) -> None:
        """Insert or overwrite ``key``: a batch of one."""
        self.mput([(key, value)])

    def mput(
        self, items: "list[tuple[str, object]]", record: bytes | None = None
    ) -> None:
        """The write: store every (key, value) pair, later duplicates
        winning, as one group commit.  Values must be JSON-serializable.
        ``record`` is ``encode_mput(items)`` when the caller has already
        serialised the batch (a remote engine did, to send it); the store
        encodes only when nobody has.

        Fault decisions are per key (site ``kv.put``) and all happen
        before any state changes, so an injected crash leaves the store
        untouched.  Then one WAL entry, one memtable merge (seqnos rise in
        item order) and one flush-threshold check for the whole batch.
        """
        items = list(items)
        if not items:
            return
        if self.faults is not None:
            for key, _ in items:
                self._maybe_fault("kv.put", key)
        if record is None:
            record = encode_mput(items)
        self.wal.append(record)
        self._apply_mput(items, len(record))

    def _apply_mput(self, items: list, value_bytes: int) -> None:
        """Land one logged batch in the memtable (live writes and replay);
        the WAL payload length stands in for per-value sizing."""
        base = self._seqno
        self._seqno += len(items)
        entries = [
            (key, _Versioned(base + offset, value))
            for offset, (key, value) in enumerate(items, start=1)
        ]
        self._memtable.mput(entries, value_bytes)
        self._puts.inc(len(items))
        self._maybe_flush()

    def delete(self, key: str) -> None:
        """Delete ``key`` (idempotent — deleting a missing key is a no-op)."""
        self.wal.append(
            json.dumps({"op": "del", "k": key, "v": None}).encode("utf-8")
        )
        self._apply_delete(key)

    def _apply_delete(self, key: str) -> None:
        self._seqno += 1
        self._memtable.mput([(key, _Versioned(self._seqno, _TOMBSTONE))], 0)
        self._deletes.inc()
        self._maybe_flush()

    # -- reads --------------------------------------------------------------

    def get(self, key: str) -> object:
        """Return the live value for ``key`` or raise KeyNotFoundError."""
        self._maybe_fault("kv.get", key)
        self._gets.inc()
        with self.tracer.span("kv.get"):
            found = self._memtable.get(key)
            if found is None:
                for run in self._runs:
                    found = run.get(key)
                    if found is not None:
                        break
            if found is None or found.value is _TOMBSTONE:
                raise KeyNotFoundError(key)
            return found.value

    def get_or(self, key: str, default: object = None) -> object:
        try:
            return self.get(key)
        except KeyNotFoundError:
            return default

    def __contains__(self, key: str) -> bool:
        return self.get_or(key, _TOMBSTONE) is not _TOMBSTONE

    def scan(self, lo: str, hi: str) -> Iterator[tuple[str, object]]:
        """Yield live (key, value) pairs with lo <= key <= hi, ascending."""
        self._scans.inc()
        best = self._newest(lo, hi)
        for key in sorted(best):
            value = best[key].value
            if value is not _TOMBSTONE:
                yield key, value

    def _newest(self, lo: str, hi: str) -> dict[str, _Versioned]:
        """Each key's newest version (tombstones included) in [lo, hi].

        Sources merge oldest first, so the last writer of a key is its
        highest seqno without comparing any: runs are newest-first and
        the memtable is newer than every run."""
        best: dict[str, _Versioned] = {}
        for source in [*reversed(self._runs), self._memtable]:
            best.update(source.scan(lo, hi))
        return best

    def keys(self) -> list[str]:
        """Every live key, ascending.  Introspection (entity gauges,
        audits, rebalance planning), not a range query a client asked
        for: ``kv.scans`` does not count it, so computing a gauge when
        it is read moves no counter."""
        return sorted(
            key for key, found in self._newest("", KEY_MAX).items()
            if found.value is not _TOMBSTONE
        )

    def __len__(self) -> int:
        return len(self.keys())

    # -- maintenance ----------------------------------------------------------

    @property
    def run_count(self) -> int:
        return len(self._runs)

    def _maybe_flush(self) -> None:
        if self._memtable.approx_bytes >= self.memtable_budget_bytes:
            self.flush()

    def flush(self) -> None:
        """Freeze the memtable into a new run."""
        if len(self._memtable) == 0:
            return
        with self.tracer.span("kv.flush", entries=len(self._memtable)):
            self._runs.insert(0, SSTable(list(self._memtable.items())))
            self._memtable = MemTable()
            self.metrics.counter("kv.flushes").inc()
            if len(self._runs) > self.max_runs:
                self.compact()

    def compact(self) -> None:
        """Merge all runs into one, discarding shadowed versions/tombstones."""
        with self.tracer.span("kv.compact", runs=len(self._runs)):
            best: dict[str, _Versioned] = {}
            for run in reversed(self._runs):  # oldest first: newest wins
                best.update(run.items())
            live = [
                (key, versioned)
                for key, versioned in sorted(best.items())
                if versioned.value is not _TOMBSTONE
            ]
            self._runs = [SSTable(live)] if live else []
            self.metrics.counter("kv.compactions").inc()

    # -- checkpointing ----------------------------------------------------

    def snapshot_state(self) -> dict:
        """Full live state as a JSON-serializable checkpoint payload.

        Tombstones materialize as absence (a checkpoint needs no delete
        history), and the write seqno rides along so recovery continues
        version numbering instead of colliding with the WAL suffix.
        """
        return {
            "seqno": self._seqno,
            "items": [[key, value] for key, value in self.scan("", KEY_MAX)],
        }

    def load_snapshot(self, state: dict) -> int:
        """Install a checkpoint snapshot without WAL logging; returns the
        number of entries loaded.  With no record to take a length from,
        the memtable is charged :func:`payload_size` per value.

        Recovery path: call on a fresh store *before* replaying the WAL
        suffix, so reads land byte-identical to a full-history replay.
        """
        entries = []
        for key, value in state["items"]:
            self._seqno += 1
            entries.append((key, _Versioned(self._seqno, value)))
        if entries:
            self._memtable.mput(
                entries,
                value_bytes=sum(payload_size(v.value) for _, v in entries),
            )
            self._maybe_flush()
        self._seqno = max(self._seqno, int(state.get("seqno", 0)))
        self.metrics.counter("kv.snapshot_loads").inc()
        return len(entries)

    # -- recovery ---------------------------------------------------------

    def recover(self) -> int:
        """Rebuild state by replaying the WAL; return entries applied.

        Used after simulated crashes: construct a fresh ``KVStore`` sharing
        the old WAL, call ``recover()``, and the committed prefix returns.
        """
        applied = 0
        for entry in self.wal.replay():
            record = json.loads(entry.payload.decode("utf-8"))
            if record["op"] == "mput":
                self._apply_mput(record["items"], len(entry.payload))
                applied += len(record["items"])
            elif record["op"] == "del":
                self._apply_delete(record["k"])
                applied += 1
            else:
                raise StorageError(
                    f"unknown WAL op {record['op']!r} at LSN {entry.lsn}"
                )
        return applied

"""LSM-style key-value store (paper Sec. IV-E2, the "KV store" tier).

An update-optimized store in the log-structured-merge mold: writes go to a
WAL and an in-memory memtable; when the memtable exceeds its budget it is
flushed to an immutable sorted run (SSTable); reads consult the memtable and
then runs newest-first; ranged scans merge all runs.  A tiered compactor
bounds the run count.  A stored cell is the written value itself, and a
delete stores a tombstone; no read compares versions, because the newer
source always wins.

A write batch is one ``mput`` WAL record in one of two shapes
(:func:`encode_mput`): rows, or — for a node group of at least
:data:`COLUMNAR_MIN_ITEMS` stored-record wrappers sharing one payload
shape — parallel columns, numeric ones packed as binary, straight from
a :class:`~repro.core.columns.RecordBatch`'s arrays when the write
brings them.  :func:`decode_mput` reads either back as rows.  The
memtable budget counts logged bytes, so a columnar batch fills it more
slowly; the memtable sorts its new keys when it is next read in order.

This is the storage tier the disaggregated architecture (Fig. 7) mounts for
hot structured data; the experiments that use it care about its update-heavy
performance profile, which the LSM design provides.
"""

from __future__ import annotations

import json
import struct
from base64 import b64decode, b64encode
from bisect import bisect_left, bisect_right, insort
from typing import TYPE_CHECKING, Iterator

import numpy as np

from ..core.columns import SPACE_NAMES
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
    from ..core.columns import RecordBatch
    from ..resilience.faults import FaultInjector

#: The stored cell of a deleted key.
_TOMBSTONE = object()
#: What a source's ``get`` returns for a key it holds no cell for, so a
#: stored ``None`` stays a value.
_MISSING = object()


#: Fresh keys a memtable read inserts one by one (a bisection each); more
#: are merged in one pass over the sorted list, which costs a comparison
#: per key already there.
_INSORT_MAX = 16


class MemTable:
    """In-memory write buffer, its keys sorted on read.  A cell is the
    stored value itself, or :data:`_TOMBSTONE` for a delete.

    :meth:`mput` is a dict update that notes the keys it added; the next
    ordered read (:meth:`scan`, :meth:`items`, and so a flush) sorts
    those fresh keys once and merges them into the sorted key list.  A
    run of writes between two reads pays one merge, not one per batch,
    and no read re-sorts the whole table."""

    def __init__(self) -> None:
        self._keys: list[str] = []
        # keys in ``_data`` not yet in ``_keys``, in arrival order
        self._fresh: list[str] = []
        self._data: dict[str, object] = {}
        self.approx_bytes = 0

    def mput(self, entries: "list[tuple[str, object]]", value_bytes: int) -> None:
        """Insert ``entries`` in order (later duplicates win);
        ``value_bytes`` is the caller's size estimate for the values (0
        for a tombstone)."""
        data, fresh = self._data, self._fresh
        added = value_bytes
        for key, value in entries:
            if key not in data:
                fresh.append(key)
                added += len(key)
            data[key] = value
        self.approx_bytes += added

    def _sorted_keys(self) -> list[str]:
        """The sorted key list, with every fresh key merged in."""
        fresh = self._fresh
        if fresh:
            if len(fresh) <= _INSORT_MAX:
                for key in fresh:
                    insort(self._keys, key)
            else:
                # Timsort takes the sorted keys as one run, sorts the fresh
                # ones and merges the two.
                self._keys = sorted(self._keys + fresh)
            self._fresh = []
        return self._keys

    def get(self, key: str) -> object:
        """``key``'s cell, or :data:`_MISSING`."""
        return self._data.get(key, _MISSING)

    def __len__(self) -> int:
        return len(self._data)

    def scan(self, lo: str, hi: str) -> Iterator[tuple[str, object]]:
        keys = self._sorted_keys()
        keys = keys[bisect_left(keys, lo):bisect_right(keys, hi)]
        return zip(keys, map(self._data.__getitem__, keys))

    def items(self) -> Iterator[tuple[str, object]]:
        keys = self._sorted_keys()
        return zip(keys, map(self._data.__getitem__, keys))


class SSTable:
    """An immutable sorted run of cells, as :class:`MemTable` holds them."""

    def __init__(self, entries: "list[tuple[str, object]]") -> None:
        self._keys = [k for k, _ in entries]
        self._values = [v for _, v in entries]
        self.min_key = self._keys[0] if self._keys else ""
        self.max_key = self._keys[-1] if self._keys else ""

    def __len__(self) -> int:
        return len(self._keys)

    def get(self, key: str) -> object:
        """``key``'s cell, or :data:`_MISSING`."""
        if not self._keys or not (self.min_key <= key <= self.max_key):
            return _MISSING
        idx = bisect_left(self._keys, key)
        if idx < len(self._keys) and self._keys[idx] == key:
            return self._values[idx]
        return _MISSING

    def scan(self, lo: str, hi: str) -> Iterator[tuple[str, object]]:
        start, stop = bisect_left(self._keys, lo), bisect_right(self._keys, hi)
        return zip(self._keys[start:stop], self._values[start:stop])

    def items(self) -> Iterator[tuple[str, object]]:
        return zip(self._keys, self._values)


def payload_size(value: object) -> int:
    """Size estimate of a value that is not a write batch: a snapshot's
    memtable accounting here; RPC responses and product records in
    :mod:`repro.storage.engine`.  A write batch is sized by the record
    :func:`encode_mput` builds for it, in whichever shape it took."""
    try:
        return len(json.dumps(value))
    except (TypeError, ValueError):
        return len(repr(value))


#: The smallest node group logged as columns.  Measured, not tuned: on
#: ``geo_commerce``'s groups one item costs 12.3 µs as columns against
#: 6.2 µs as rows, and four items break even at 15.5 µs.
COLUMNAR_MIN_ITEMS = 4

#: The keys of a stored-record wrapper, in order
#: (:func:`repro.platform.platform.stored_record_value`).
_WRAPPER = ("payload", "space", "timestamp")
_INT64 = (-(2 ** 63), 2 ** 63 - 1)
# Bound once; the settings are ``json.dumps``'s with compact separators,
# so a cyclic value still raises ``ValueError`` (``check_circular``).
_encode = json.JSONEncoder(separators=(",", ":")).encode


def _pack(column: tuple) -> "tuple | str":
    """A column as logged: all ``float``, or all ``int`` in int64 range,
    packs as ``"d"``/``"q"`` plus base64 of little-endian 8-byte values;
    anything else stays a JSON list."""
    kinds = set(map(type, column))
    if kinds == {float}:
        code = "d"
    elif kinds == {int} and _INT64[0] <= min(column) and max(column) <= _INT64[1]:
        code = "q"
    else:
        return column
    raw = struct.pack(f"<{len(column)}{code}", *column)
    return code + b64encode(raw).decode("ascii")


def _unpack(column: "list | str") -> list:
    if not isinstance(column, str):
        return column
    code, raw = column[:1], b64decode(column[1:])
    if code not in ("d", "q") or len(raw) % 8:
        raise StorageError(f"malformed packed column {column[:16]!r}")
    return list(struct.unpack(f"<{len(raw) // 8}{code}", raw))


def _columns(items: "list[tuple[str, object]]") -> dict | None:
    """The column body of ``items`` when every value is a stored-record
    wrapper and every payload a dict with one ordered set of string field
    names: keys, one column per field, spaces and timestamps.  ``None``
    otherwise, for the row shape."""
    keys, values = zip(*items)
    if set(map(type, values)) != {dict} or set(map(tuple, values)) != {_WRAPPER}:
        return None
    payloads, spaces, stamps = zip(*map(dict.values, values))
    if set(map(type, payloads)) != {dict}:
        return None
    shapes = set(map(tuple, payloads))
    if len(shapes) != 1:
        return None
    (fields,) = shapes
    if not all(type(field) is str for field in fields):
        return None
    return {
        "keys": keys,
        "fields": fields,
        "payload": [_pack(column) for column in zip(*map(dict.values, payloads))],
        "space": _pack(spaces),
        "timestamp": _pack(stamps),
    }


#: The payload dtypes a batch's array packs straight from, with the code
#: :func:`_pack` gives the same values once they are Python scalars.
_ARRAY_CODES = {np.dtype(np.float64): "d", np.dtype(np.int64): "q"}


def _pack_array(array: np.ndarray) -> str:
    """:func:`_pack` of ``array.tolist()``, for a dtype in
    :data:`_ARRAY_CODES`, without making the scalars."""
    code = _ARRAY_CODES[array.dtype]
    raw = array.astype(array.dtype.newbyteorder("<"), copy=False).tobytes()
    return code + b64encode(raw).decode("ascii")


def _array_columns(batch: "RecordBatch", rows: "list[int] | None") -> dict | None:
    """The column body :func:`_columns` builds from the stored items of
    ``batch``'s ``rows`` (every row when None), read from its arrays.
    ``None`` when a payload column has a dtype outside
    :data:`_ARRAY_CODES` or a field name is not a string: those batches
    take :func:`_columns`."""
    fields = tuple(batch.columns)
    arrays = list(batch.columns.values())
    if not all(type(field) is str for field in fields) or not all(
        array.dtype in _ARRAY_CODES for array in arrays
    ):
        return None
    keys, spaces, stamps = batch.keys, batch.spaces, batch.timestamps
    if rows is not None:
        index = np.asarray(rows, dtype=np.intp)
        keys = list(map(keys.__getitem__, rows))
        arrays = [array[index] for array in arrays]
        spaces, stamps = spaces[index], stamps[index]
    return {
        "keys": keys,
        "fields": fields,
        "payload": list(map(_pack_array, arrays)),
        "space": list(map(SPACE_NAMES.__getitem__, spaces.tolist())),
        "timestamp": _pack_array(stamps),
    }


def encode_mput(
    items: "list[tuple[str, object]]",
    batch: "RecordBatch | None" = None,
    rows: "list[int] | None" = None,
) -> bytes:
    """The WAL record of one write batch — and, for a remote engine, the
    request on the wire: whoever receives the batch first serialises it,
    once, and :meth:`KVStore.mput` logs those bytes.

    A batch of :data:`COLUMNAR_MIN_ITEMS` or more stored-record wrappers
    whose payloads share one ordered set of string field names is written
    as columns (:func:`_columns`); every other batch as rows, an
    ``items`` list of ``[key, value]`` pairs.  Either way
    :func:`decode_mput` returns the rows the row shape decodes to.  Raises
    ``TypeError`` for a value JSON cannot carry and ``ValueError`` for a
    cyclic one.

    ``items`` may be the stored items of a :class:`RecordBatch`'s
    ``rows`` (all of its rows when ``rows`` is None), built from it row
    for row as :meth:`~repro.platform.platform.MetaversePlatform.
    write_record_batch` builds them.  Passing ``batch`` then packs its
    float64 and int64 columns straight from the arrays
    (:func:`_array_columns`); the bytes are the ones the items alone
    encode to."""
    body = None
    if len(items) >= COLUMNAR_MIN_ITEMS:
        if batch is not None:
            body = _array_columns(batch, rows)
        if body is None:
            body = _columns(items)
    if body is None:
        body = {"items": items}
    return _encode({"op": "mput", **body}).encode("utf-8")


def decode_mput(record: dict) -> list:
    """The ``[key, value]`` rows of a parsed ``mput`` record, whichever
    shape :func:`encode_mput` wrote it in — for a columnar record, equal
    (dict key order included) to what its row record decodes to.  Raises
    :class:`StorageError` when its columns differ in length."""
    if "items" in record:
        return record["items"]
    keys, fields = record["keys"], record["fields"]
    columns = [_unpack(column) for column in record["payload"]]
    spaces, stamps = _unpack(record["space"]), _unpack(record["timestamp"])
    if len(columns) != len(fields) or any(
        len(column) != len(keys) for column in (*columns, spaces, stamps)
    ):
        raise StorageError("columnar mput record with ragged columns")
    payloads = (
        [dict(zip(fields, row)) for row in zip(*columns)]
        if columns else [{} for _ in keys]
    )
    return [
        [key, {"payload": payload, "space": space, "timestamp": stamp}]
        for key, payload, space, stamp in zip(keys, payloads, spaces, stamps)
    ]


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
        (
            self._puts, self._gets, self._scans, self._deletes,
            self._flushes, self._compactions,
        ) = map(self.metrics.counter, (
            "kv.puts", "kv.gets", "kv.scans", "kv.deletes",
            "kv.flushes", "kv.compactions",
        ))
        self.tracer = tracer if tracer is not None else NoopTracer()
        self.faults = faults
        self._memtable = MemTable()
        self._runs: list[SSTable] = []  # newest first

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
        self,
        items: "list[tuple[str, object]]",
        record: bytes | None = None,
        batch: "RecordBatch | None" = None,
    ) -> None:
        """The write: store every (key, value) pair, later duplicates
        winning, as one group commit.  Values must be JSON-serializable.
        ``record`` is ``encode_mput(items)`` when the caller has already
        serialised the batch (a remote engine did, to send it); the store
        encodes only when nobody has, from ``batch``'s arrays when
        ``items`` were built from it (:func:`encode_mput`).

        Fault decisions are per key (site ``kv.put``) and all happen
        before any state changes, so an injected crash leaves the store
        untouched.  Then one WAL entry, one memtable write of the items as
        they are (a later duplicate overwrites an earlier one) and one
        flush-threshold check for the whole batch.
        """
        items = list(items)
        if not items:
            return
        if self.faults is not None:
            for key, _ in items:
                self._maybe_fault("kv.put", key)
        if record is None:
            record = encode_mput(items, batch)
        self.wal.append(record)
        self._apply_mput(items, len(record))

    def _apply_mput(self, items: list, value_bytes: int) -> None:
        """Land one logged batch in the memtable (live writes and replay);
        the WAL payload length stands in for per-value sizing."""
        self._memtable.mput(items, value_bytes)
        self._puts.inc(len(items))
        self._maybe_flush()

    def delete(self, key: str) -> None:
        """Delete ``key`` (idempotent — deleting a missing key is a no-op)."""
        self.wal.append(
            json.dumps({"op": "del", "k": key, "v": None}).encode("utf-8")
        )
        self._apply_delete(key)

    def _apply_delete(self, key: str) -> None:
        self._memtable.mput([(key, _TOMBSTONE)], 0)
        self._deletes.inc()
        self._maybe_flush()

    # -- reads --------------------------------------------------------------

    def get(self, key: str) -> object:
        """Return the live value for ``key`` or raise KeyNotFoundError."""
        self._maybe_fault("kv.get", key)
        self._gets.inc()
        with self.tracer.span("kv.get"):
            found = self._memtable.get(key)
            if found is _MISSING:
                for run in self._runs:
                    found = run.get(key)
                    if found is not _MISSING:
                        break
            if found is _MISSING or found is _TOMBSTONE:
                raise KeyNotFoundError(key)
            return found

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
            value = best[key]
            if value is not _TOMBSTONE:
                yield key, value

    def _newest(self, lo: str, hi: str) -> dict[str, object]:
        """Each key's newest cell (tombstones included) in [lo, hi].

        Sources merge oldest first, so the last source to write a key
        wins: runs are newest-first and the memtable is newer than every
        run, and within a source a key holds one cell."""
        best: dict[str, object] = {}
        for source in [*reversed(self._runs), self._memtable]:
            best.update(source.scan(lo, hi))
        return best

    def keys(self) -> list[str]:
        """Every live key, ascending.  Introspection (entity gauges,
        audits, rebalance planning), not a range query a client asked
        for: ``kv.scans`` does not count it, so computing a gauge when
        it is read moves no counter."""
        return sorted(
            key for key, value in self._newest("", KEY_MAX).items()
            if value is not _TOMBSTONE
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
            self._flushes.inc()
            if len(self._runs) > self.max_runs:
                self.compact()

    def compact(self) -> None:
        """Merge all runs into one, discarding shadowed versions/tombstones."""
        with self.tracer.span("kv.compact", runs=len(self._runs)):
            best: dict[str, object] = {}
            for run in reversed(self._runs):  # oldest first: newest wins
                best.update(run.items())
            live = [
                (key, value)
                for key, value in sorted(best.items())
                if value is not _TOMBSTONE
            ]
            self._runs = [SSTable(live)] if live else []
            self._compactions.inc()

    # -- checkpointing ----------------------------------------------------

    def snapshot_state(self) -> dict:
        """Full live state as a JSON-serializable checkpoint payload.

        Tombstones materialize as absence (a checkpoint needs no delete
        history).
        """
        return {"items": [[key, value] for key, value in self.scan("", KEY_MAX)]}

    def load_snapshot(self, state: dict) -> int:
        """Install a checkpoint snapshot without WAL logging; returns the
        number of entries loaded.  With no record to take a length from,
        the memtable is charged :func:`payload_size` per value.

        Recovery path: call on a fresh store *before* replaying the WAL
        suffix, so reads land byte-identical to a full-history replay.
        """
        entries = state["items"]
        if entries:
            self._memtable.mput(
                entries,
                value_bytes=sum(payload_size(value) for _, value in entries),
            )
            self._maybe_flush()
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
                items = decode_mput(record)
                self._apply_mput(items, len(entry.payload))
                applied += len(items)
            elif record["op"] == "del":
                self._apply_delete(record["k"])
                applied += 1
            else:
                raise StorageError(
                    f"unknown WAL op {record['op']!r} at LSN {entry.lsn}"
                )
        return applied

"""Write-ahead log.

The KV store (and the ledger on top of it) logs every mutation before
applying it, so a crash-restart (simulated by dropping in-memory state and
replaying) recovers exactly the committed prefix.  Entries are serialized to
bytes with a checksum so torn/corrupt tails are detected and truncated on
replay — the standard WAL recovery contract.

:class:`repro.replication.ReplicatedLog` additionally uses the log as its
replication unit: the primary assigns LSNs and copies adopt them verbatim
via :meth:`append_at`, so a copy with holes (dropped replication messages)
is distinguishable from a shorter-but-contiguous one, and anti-entropy
can rebuild a damaged copy with :meth:`rebuild`.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from ..core.errors import FaultInjectedError, StorageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.faults import FaultInjector

_HEADER = struct.Struct("<IIQ")  # crc32, length, lsn


@dataclass(frozen=True)
class WalEntry:
    """One logged mutation."""

    lsn: int
    payload: bytes


class WriteAheadLog:
    """Append-only log with checksummed, length-prefixed entries.

    The log body is a single ``bytearray``; ``corrupt_tail()`` can chop bytes
    off the end to simulate a torn write, and ``replay`` stops cleanly at the
    first bad entry and reports the last valid LSN.  An append after a torn
    tail first truncates the torn bytes — exactly what a real WAL does on
    restart — so new entries never land unreachable behind a half-written
    record.  An entry damaged *in place* (the injected ``corrupt`` fault's
    flipped byte, modelling latent sector corruption) is different: it stays
    in the log and recovery still applies only the prefix before it.

    Scans are incremental: the log remembers its *verified prefix* (bytes,
    entry count and last LSN of the entries whose CRC has been checked)
    and a scan resumes there, so each entry is checksummed once, by the
    first scan that reaches it.  A torn or damaged record stops the prefix
    just before it; ``rebuild``, ``truncate_before`` and a
    ``corrupt_tail`` that cuts into it drop it.  Parsed entries are kept
    only once a caller asks for entries, never for ``entry_count`` or
    ``last_valid_lsn`` alone.
    """

    def __init__(self, faults: "FaultInjector | None" = None) -> None:
        self._buf = bytearray()
        self._next_lsn = 1
        self.faults = faults
        self._torn = False  # tail chopped by corrupt_tail, not yet trimmed
        # Highest LSN removed by truncate_before (checkpointing).  Entries
        # at or below this LSN are durable in the checkpoint snapshot, not
        # on disk, so LSN accounting must never report the log as starting
        # at LSN 0 again after a checkpoint truncated its prefix.
        self._truncated_lsn = 0
        self._drop_verified()

    def _drop_verified(self) -> None:
        self._verified_end = 0   # bytes [0, _verified_end) are CRC-checked
        self._verified_count = 0
        self._verified_lsn = 0   # LSN of the last verified entry
        self._parsed: list[WalEntry] | None = None  # those entries, on demand

    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    @property
    def truncated_lsn(self) -> int:
        """Highest LSN dropped by checkpoint truncation (0 if none)."""
        return self._truncated_lsn

    @property
    def entry_count(self) -> int:
        """Number of intact entries currently in the log body."""
        self._scan()
        return self._verified_count

    def __len__(self) -> int:
        return len(self._buf)

    def append(self, payload: bytes) -> int:
        """Append ``payload``; return its log sequence number.

        With a fault injector attached, an injected ``crash`` fails the
        append before any byte is written (the caller never applied the
        mutation either — WAL-before-apply keeps this atomic), and an
        injected ``corrupt`` tears the write: the entry lands with a
        flipped payload byte, which :meth:`replay` detects and truncates
        at, exactly like a real torn sector.
        """
        if not isinstance(payload, (bytes, bytearray)):
            raise StorageError("WAL payload must be bytes")
        corrupt = False
        if self.faults is not None:
            decision = self.faults.decide("wal.append", kinds=("crash", "corrupt"))
            if decision.kind == "crash":
                raise FaultInjectedError("injected crash at wal.append")
            corrupt = decision.kind == "corrupt"
        lsn = self._next_lsn
        self._append_entry(lsn, bytes(payload), corrupt=corrupt)
        self._next_lsn = lsn + 1
        return lsn

    def append_at(self, lsn: int, payload: bytes) -> int:
        """Append ``payload`` under an externally assigned ``lsn``.

        Replication path: the primary's log assigns LSNs and replica copies
        adopt them, so holes left by dropped replication messages stay
        visible as LSN gaps instead of silently renumbering.
        """
        if not isinstance(payload, (bytes, bytearray)):
            raise StorageError("WAL payload must be bytes")
        if lsn < 1:
            raise StorageError(f"LSN must be >= 1, got {lsn}")
        self._append_entry(lsn, bytes(payload), corrupt=False)
        self._next_lsn = max(self._next_lsn, lsn + 1)
        return lsn

    def _append_entry(self, lsn: int, payload: bytes, corrupt: bool) -> None:
        if self._torn:
            # Trim the half-written tail before appending, so the new entry
            # starts on a valid record boundary instead of landing
            # unreachable behind torn bytes (the pre-fix behaviour silently
            # lost every append made after a torn tail).
            self._scan()
            del self._buf[self._verified_end:]
            self._torn = False
        crc = zlib.crc32(payload)
        self._buf += _HEADER.pack(crc, len(payload), lsn)
        self._buf += payload
        if corrupt:
            self._buf[-1] ^= 0xFF

    def _scan(self, parse: bool = False) -> None:
        """Extend the verified prefix over what the buffer has gained;
        with ``parse`` also keep the entries (from byte 0 the first time)."""
        if parse and self._parsed is None:
            self._drop_verified()
            self._parsed = []
        parsed = self._parsed
        offset, count, last_lsn = self._verified_end, self._verified_count, self._verified_lsn
        size, header = len(self._buf), _HEADER.size
        with memoryview(self._buf) as buf:
            while offset + header <= size:
                crc, length, lsn = _HEADER.unpack_from(buf, offset)
                end = offset + header + length
                if end > size:
                    break  # torn tail
                payload = buf[offset + header : end]
                if zlib.crc32(payload) != crc:
                    break  # corrupt record: stop replay here
                if parsed is not None:
                    parsed.append(WalEntry(lsn=lsn, payload=bytes(payload)))
                count += 1
                last_lsn = lsn
                offset = end
        self._verified_end, self._verified_count, self._verified_lsn = offset, count, last_lsn

    def entries_from(self, index: int) -> list[WalEntry]:
        """The committed prefix from its ``index``-th entry on — what a
        reader that already holds the first ``index`` entries lacks."""
        self._scan(parse=True)
        return self._parsed[index:]

    def replay(self) -> Iterator[WalEntry]:
        """Yield entries in order, stopping cleanly at the first torn or
        corrupt record; the generator's return value (``StopIteration``
        payload) is the last valid LSN — 0 for an empty or fully torn log
        that was never checkpoint-truncated.  After ``truncate_before``
        the reported LSN never falls below the truncated prefix: those
        entries are durable in the checkpoint snapshot, not lost."""
        entries, last_lsn = self.recover_prefix()
        yield from entries
        return last_lsn

    def recover_prefix(self) -> tuple[list[WalEntry], int]:
        """The committed prefix as a list, plus the last valid LSN.

        The non-lazy twin of :meth:`replay`, for recovery code that needs
        the LSN high-water mark (replica freshness comparison, catch-up
        after a torn tail) rather than an iterator.
        """
        return self.entries_from(0), self.last_valid_lsn

    @property
    def last_valid_lsn(self) -> int:
        """LSN of the last intact entry — floored at the checkpoint
        truncation point (0 only for a log that never held anything)."""
        self._scan()
        return max(self._verified_lsn, self._truncated_lsn)

    def rebuild(self, entries: Iterable[WalEntry]) -> None:
        """Replace the log body with ``entries`` (anti-entropy repair)."""
        buf = bytearray()
        next_lsn = self._next_lsn
        for entry in entries:
            crc = zlib.crc32(entry.payload)
            buf += _HEADER.pack(crc, len(entry.payload), entry.lsn)
            buf += entry.payload
            next_lsn = max(next_lsn, entry.lsn + 1)
        self._buf = buf
        self._torn = False
        self._next_lsn = next_lsn
        self._drop_verified()

    def truncate_before(self, lsn: int) -> int:
        """Drop entries with LSN < ``lsn`` (checkpointing); return how
        many were dropped.

        The highest dropped LSN is remembered so :attr:`last_valid_lsn`
        and :meth:`recover_prefix` keep reporting the true durability
        high-water mark even when the remaining body is empty or its tail
        is later torn — the prefix lives on in the checkpoint snapshot.
        """
        self._scan()
        buf = self._buf
        kept = bytearray()
        dropped = dropped_max = 0
        offset = 0
        while offset < self._verified_end:  # headers only: CRCs are checked
            _, length, entry_lsn = _HEADER.unpack_from(buf, offset)
            end = offset + _HEADER.size + length
            if entry_lsn >= lsn:
                kept += buf[offset:end]
            else:
                dropped += 1
                dropped_max = max(dropped_max, entry_lsn)
            offset = end
        self._buf = kept
        self._torn = False
        self._truncated_lsn = max(self._truncated_lsn, dropped_max)
        self._drop_verified()
        return dropped

    def corrupt_tail(self, nbytes: int) -> None:
        """Chop ``nbytes`` off the end to simulate a torn write (tests)."""
        if nbytes < 0:
            raise StorageError("nbytes must be >= 0")
        del self._buf[max(0, len(self._buf) - nbytes):]
        self._torn = True
        if len(self._buf) < self._verified_end:
            self._drop_verified()

"""Cross-region replication logs: async shipping of absolute post-states.

Each region is the *home* (primary) for the keys it owns on the region
ring; every mutation goes to the home's
:class:`~repro.replication.ReplicatedLog` — the op format, fold and log
:class:`~repro.cluster.failover.ShardReplicator` uses too.

:class:`GeoReplicator` is the wide-area policy over that core: copies sit
in *all* other regions; the home's primary is authoritative on repair (a
home that accepted the write defines the truth under the outage model);
and because shipping is asynchronous it keeps what the synchronous
cluster path has no use for — contiguous-prefix watermarks per (home,
destination) pair, replication lag, and staleness in simulated seconds.
Shipping over the simulated WAN and landing post-states on region
clusters is the deployment's job (:mod:`repro.geo.deployment`), which
keeps this class deterministic and network-free.  So is feeding it: the
one caller of :meth:`GeoReplicator.log_op` is the op sink the deployment
registers on each region's cluster — the cluster builds the ops when the
mutation commits, this class only logs them: what one cluster call
committed is one log *record* (every segment's ops, in order), one LSN.
What travels is a *segment* of ``(lsn, payload)`` records in log order —
one fresh record, or a pair's hints drained together — which
:meth:`GeoReplicator.deliver` adopts whole and folds once.  Watermarks,
lag, hints and the delivery counters count records.
"""

from __future__ import annotations

from ..core.metrics import MetricsRegistry
from ..replication import PostState, ReplicatedLog, fold
from ..storage.wal import WalEntry

__all__ = ["GeoReplicator"]


class _Progress:
    """One destination's progress through one home's primary log."""

    def __init__(self) -> None:
        self.received: set[int] = set()  # LSNs adopted from the primary
        self.index = 0      # primary records [0, index) are all adopted
        self.watermark = 0  # LSN of record index-1 (0 before the first)
        self.lag = 0        # primary records not yet adopted


class GeoReplicator:
    """Per-home replicated op logs with watermarks, hints, anti-entropy."""

    def __init__(
        self,
        regions,
        metrics: MetricsRegistry | None = None,
        compact_threshold: int | None = 4096,
    ) -> None:
        self.regions = tuple(regions)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.compact_threshold = compact_threshold
        self._logs = {
            home: ReplicatedLog(home, [r for r in self.regions if r != home])
            for home in self.regions
        }
        self._progress = {
            home: {dst: _Progress() for dst in log.holders}
            for home, log in self._logs.items()
        }
        # Per home: primary LSNs in append order (rebuilt on compaction)
        # and the simulated time each was logged — watermark, lag and
        # staleness-in-seconds walk these instead of rescanning the log.
        self._primary_lsns: dict[str, list[int]] = {h: [] for h in self.regions}
        self._logged_at: dict[str, dict[int, float]] = {h: {} for h in self.regions}
        self._logged = self.metrics.counter("geo.repl.logged")
        self._delivered = self.metrics.counter("geo.repl.delivered")
        self._duplicates = self.metrics.counter("geo.repl.duplicates")

    def log(self, home: str) -> ReplicatedLog:
        """``home``'s replicated log (tests, audits)."""
        return self._logs[home]

    # -- primary side ------------------------------------------------------

    def log_op(self, home: str, ops: list[dict], now: float) -> tuple[int, bytes]:
        """Append ``ops`` to ``home``'s primary log as one record; return
        its ``(lsn, payload)``."""
        lsn, payload = self._logs[home].append(ops)
        self._primary_lsns[home].append(lsn)
        self._logged_at[home][lsn] = now
        for progress in self._progress[home].values():
            progress.lag += 1
        self._logged.inc()
        return lsn, payload

    # -- destination side --------------------------------------------------

    def deliver(
        self, home: str, dst: str, entries: list[tuple[int, bytes]]
    ) -> PostState | None:
        """Adopt one shipped segment of ``(lsn, payload)`` records into
        ``dst``'s copy of ``home``'s log; return the post-state of the
        records new to it, folded once, for the caller to land on
        ``dst``'s cluster.

        Idempotent: hints and anti-entropy can re-ship a record that is
        also in flight, so an LSN the copy already holds is skipped
        (``None`` when the segment holds nothing new).
        """
        progress = self._progress[home][dst]
        log, logged_at = self._logs[home], self._logged_at[home]
        fresh: list[WalEntry] = []
        for lsn, payload in entries:
            if lsn in progress.received:
                continue
            log.adopt(dst, lsn, payload)
            progress.received.add(lsn)
            if lsn in logged_at:  # still in the primary
                progress.lag -= 1
            fresh.append(WalEntry(lsn, payload))
        if len(fresh) < len(entries):
            self._duplicates.inc(len(entries) - len(fresh))
        if not fresh:
            return None
        self._advance_watermark(home, progress)
        self._delivered.inc(len(fresh))
        return fold(fresh)

    def _advance_watermark(self, home: str, progress: _Progress) -> None:
        lsns, received, index = self._primary_lsns[home], progress.received, progress.index
        while index < len(lsns) and lsns[index] in received:
            index += 1
        if index != progress.index:
            progress.index, progress.watermark = index, lsns[index - 1]

    # -- lag / staleness ---------------------------------------------------

    def watermark(self, home: str, dst: str) -> int:
        """Highest LSN below which ``dst`` has every primary record."""
        return self._progress[home][dst].watermark

    def lag(self, home: str, dst: str) -> int:
        """Primary records not yet adopted by ``dst`` (0 = converged)."""
        return self._progress[home][dst].lag

    def staleness_s(self, home: str, dst: str, now: float) -> float:
        """Age (simulated seconds) of the oldest record ``dst`` is missing."""
        lsns, index = self._primary_lsns[home], self._progress[home][dst].index
        if index >= len(lsns):
            return 0.0
        return max(0.0, now - self._logged_at[home][lsns[index]])

    # -- hinted handoff ----------------------------------------------------

    def buffer_hints(self, home: str, dst: str, entries: list[tuple[int, bytes]]) -> None:
        """Park records bound for an unreachable ``dst``, one hint each, in
        ship order."""
        self._logs[home].buffer_hints(dst, entries)
        self.metrics.counter("geo.repl.hints_buffered").inc(len(entries))

    def has_hints(self, home: str, dst: str) -> bool:
        return self._logs[home].has_hints(dst)

    def take_hints(self, home: str, dst: str) -> list[tuple[int, bytes]]:
        """Drain the hint buffer for re-shipping (caller re-buffers on
        failure, preserving order)."""
        return self._logs[home].take_hints(dst)

    # -- anti-entropy ------------------------------------------------------

    def antientropy(self, home: str, dst: str) -> PostState | None:
        """Reconverge ``dst``'s copy with ``home``'s primary log.

        On divergence the copy is rebuilt from the primary and the keys of
        the entries ``dst`` had lacked are *re-folded* over the whole
        primary, so landing the result cannot regress a newer state.
        Returns that post-state (``None`` when the copy already holds
        the primary's entries, in whatever order they arrived — which
        costs two cached set digests, no entry of either log).
        Pending hints for the pair are dropped: the rebuild covers them.
        """
        log = self._logs[home]
        missing = log.repair([dst], authority=home).get(dst)
        if missing is None:
            return None
        authority = log.entries(home)
        log.take_hints(dst)
        self._recompute(home, dst, {e.lsn for e in authority})
        # Despite its name this counts pair-rounds that *rebuilt a copy*
        # — one that lacked, added or damaged an entry — not rounds run:
        # a pair whose set digests agree returned above.
        self.metrics.counter("geo.antientropy.rounds").inc()
        self.metrics.counter("geo.antientropy.repaired_entries").inc(len(missing))
        affected = fold(missing).lsn
        return fold(authority, affected) if affected else PostState()

    def _recompute(self, home: str, dst: str, received: set[int]) -> None:
        """Restart ``dst``'s bookkeeping from ``received`` after its copy
        was rebuilt or the primary compacted."""
        progress = self._progress[home][dst] = _Progress()
        progress.received = received
        progress.lag = sum(
            1 for lsn in self._primary_lsns[home] if lsn not in received
        )
        self._advance_watermark(home, progress)

    # -- compaction --------------------------------------------------------

    def compact_if_due(self, home: str) -> None:
        """Collapse superseded post-states in ``home``'s primary and every
        copy once the primary is due
        (:meth:`~repro.replication.ReplicatedLog.compact_due`)."""
        log = self._logs[home]
        if not log.compact_due(self.compact_threshold):
            return
        removed = log.compact()[home]
        logged_at = self._logged_at[home]
        self._primary_lsns[home] = [e.lsn for e in log.entries(home)]
        self._logged_at[home] = {
            lsn: logged_at[lsn] for lsn in self._primary_lsns[home]
        }
        for dst, progress in self._progress[home].items():
            self._recompute(home, dst, progress.received)
        self.metrics.counter("geo.repl.compactions").inc()
        self.metrics.counter("geo.repl.compacted_entries").inc(removed)

"""Shard failover: detection, replication, promotion, anti-entropy (Sec. IV).

The paper's platform must keep serving the physical–virtual data flow as
nodes fail; the cluster's availability-over-completeness stance already
covers a slow shard (partial gathers), but a *dead* shard was a single
point of failure.  This module closes that gap with the classic
replicated-state-machine toolkit, each piece reusing an existing
substrate:

* :class:`FailureDetector` — phi-accrual-style suspicion over heartbeats
  carried by a :class:`~repro.net.simnet.SimulatedNetwork` on the cluster
  clock, so injected ``net.link`` partition/drop rules starve heartbeats
  and drive detection exactly as a real partition would;
* :class:`ShardReplicator` — every shard-state mutation is logged to a
  per-shard :class:`~repro.replication.ReplicatedLog` copied synchronously
  to the R-1 ring-successor shards, with hinted handoff for a down holder
  and a dropped ship offered again to an up one (:data:`SHIP_OFFERS`), so
  an acknowledged op does not live on the primary alone because one
  message was lost.  The cluster decides what a mutation is — a purchase
  call settles as one ``stock`` op per product it touched, not one per
  decrement (:meth:`MetaversePlatform.commit_basket`) — and emits it, as
  the op it is logged as, through its one tap
  (:meth:`PlatformCluster.add_op_sink`);
  the :class:`FailoverManager` subscribes ``replicator.log_op`` to it, so
  nothing else ever writes to these logs but :meth:`FailoverManager.resync`
  seeding them after a membership change;
* **promotion** — when the detector suspects a shard, the
  :class:`FailoverManager` folds the LSN-union of the surviving copies
  (tolerant of torn tails and of holes from dropped replication messages)
  onto a fresh platform and installs it under the dead shard's name — the
  ring never changes, so routing is untouched;
* **anti-entropy** — after promotion, copies whose set digest
  (:func:`repro.replication.set_digest`: same entries, any order)
  disagrees with the union's are rebuilt from it; reads against a recovering shard
  additionally read-repair through :meth:`PlatformCluster.read`.

The op format, its fold and the log belong to :mod:`repro.replication`
(shared with geo): ops are absolute post-states, so a promoted replica can
never re-execute a purchase — what keeps the flash sale exactly-once across
a mid-sale kill (E25) — and the fold is LSN-ordered however entries reached
a copy, so hints cannot reorder state.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING

from ..core.clock import EventScheduler
from ..core.errors import ConfigurationError, NetworkError, PartitionedError
from ..core.metrics import MetricsRegistry
from ..net.simnet import SimulatedNetwork
from ..replication import ReplicatedLog, apply, entity_op, fold, product_op
from ..resilience.faults import FaultInjector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cluster import PlatformCluster
    from .router import ShardRouter

#: Failover lifecycle of a shard (``FailoverManager.state``).
UP = "up"                  # serving; heartbeats flowing
DOWN = "down"              # crashed, not yet detected; replicas answer reads
RECOVERING = "recovering"  # promoted replica serving; anti-entropy running

#: Offers of one entry to an *up* holder before the ship counts as
#: dropped.  Shipping is synchronous and a drop is a missing ack, so the
#: sender knows at once and offers again; an entry offered once lives on
#: the primary alone, and a torn primary tail then loses an acknowledged
#: op (15 of 150 kill-drill fault seeds oversold by a unit).  Three keeps
#: a 10 % drop plan's residue at 0.1 % of entries — still holes for
#: anti-entropy to find — without an unbounded loop under a total outage.
SHIP_OFFERS = 3

#: Seconds between a shard's heartbeats.  A shard silent for
#: ``phi_threshold * ln 10`` intervals is suspected: 0.46 s at E25's
#: threshold of 4, well inside its 2 s recovery bound.
HEARTBEAT_INTERVAL_S = 0.05

#: Heartbeat inter-arrival times a shard's mean interval is taken over.
INTERVAL_WINDOW = 32


class FailureDetector:
    """Phi-accrual-style failure detection over heartbeat arrivals.

    Classic phi-accrual (Hayashibara et al.) reports suspicion as a
    continuous ``phi = -log10 P(no heartbeat for this long)``; with
    exponentially distributed inter-arrival times of mean ``m`` that is
    ``elapsed / (m * ln 10)``.  Crossing ``phi_threshold`` declares the
    shard suspect.  A shard with no arrivals yet is seeded with a
    synthetic arrival at :meth:`watch` time, so a shard that dies (or is
    partitioned) before its first heartbeat still accrues suspicion
    instead of staying invisible forever.
    """

    def __init__(
        self,
        heartbeat_interval_s: float = HEARTBEAT_INTERVAL_S,
        phi_threshold: float = 8.0,
    ) -> None:
        if heartbeat_interval_s <= 0:
            raise ConfigurationError("heartbeat_interval_s must be positive")
        if phi_threshold <= 0:
            raise ConfigurationError("phi_threshold must be positive")
        self.heartbeat_interval_s = heartbeat_interval_s
        self.phi_threshold = phi_threshold
        self._last: dict[str, float] = {}
        self._intervals: dict[str, deque[float]] = {}

    def watch(self, shard: str, now: float) -> None:
        """Begin monitoring ``shard`` (idempotent)."""
        self._last.setdefault(shard, now)
        self._intervals.setdefault(shard, deque(maxlen=INTERVAL_WINDOW))

    def forget(self, shard: str) -> None:
        self._last.pop(shard, None)
        self._intervals.pop(shard, None)

    def heartbeat(self, shard: str, now: float) -> None:
        """Record one heartbeat arrival."""
        self.watch(shard, now)
        last = self._last[shard]
        if now > last:
            self._intervals[shard].append(now - last)
        self._last[shard] = now

    def mean_interval(self, shard: str) -> float:
        intervals = self._intervals.get(shard)
        if intervals:
            return max(sum(intervals) / len(intervals), 1e-9)
        return self.heartbeat_interval_s

    def phi(self, shard: str, now: float) -> float:
        """Current suspicion level; 0.0 for an unwatched shard."""
        last = self._last.get(shard)
        if last is None:
            return 0.0
        elapsed = max(0.0, now - last)
        return elapsed / (self.mean_interval(shard) * math.log(10.0))

    def suspected(self, shard: str, now: float) -> bool:
        return self.phi(shard, now) >= self.phi_threshold

    def reset(self, shard: str, now: float) -> None:
        """Restart monitoring after a recovery (history discarded)."""
        self._last[shard] = now
        self._intervals[shard] = deque(maxlen=INTERVAL_WINDOW)


class ShardReplicator:
    """Ring-successor policy over :class:`~repro.replication.ReplicatedLog`.

    Each shard's (the *owner*'s) log is copied to its R-1 distinct ring
    successors (:meth:`ShardRouter.replica_holders`, the
    :meth:`~repro.net.overlay.ChordRing.successors` walk).  Shipping is
    synchronous: a live holder adopts an op inside :meth:`log_op` (an
    injected ``cluster.replicate`` drop is offered again, and only an
    entry dropped :data:`SHIP_OFFERS` times leaves an LSN hole), a *down*
    holder gets a hint delivered when it returns.  No log is authoritative
    on repair — the primary can be the torn one — so anti-entropy rebuilds
    from the LSN-union of all copies.
    """

    def __init__(
        self,
        router: "ShardRouter",
        n_replicas: int,
        metrics: MetricsRegistry | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
        if n_replicas < 1:
            raise ConfigurationError("n_replicas must be >= 1")
        self.router = router
        self.n_replicas = n_replicas
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.faults = faults
        self._logs: dict[str, ReplicatedLog] = {}
        self._down: set[str] = set()

    def holders(self, owner: str) -> list[str]:
        """Replica holders of ``owner``'s log, owner first."""
        n = min(self.n_replicas, len(self.router))
        names = self.router.replica_holders(owner, n)
        if owner in names:
            names.remove(owner)
        return [owner, *names][:n]

    def log(self, owner: str) -> ReplicatedLog:
        """``owner``'s replicated log (created on first use)."""
        log = self._logs.get(owner)
        if log is None:
            log = ReplicatedLog(owner, self.holders(owner)[1:])
            self._logs[owner] = log
        return log

    def reset(self) -> None:
        """Drop all logs and hints (membership-change resync)."""
        self._logs.clear()

    # -- the write path -----------------------------------------------------

    def log_op(self, owner: str, op: dict) -> int:
        """Log one absolute-state op for ``owner`` and replicate it.
        ``cluster.failover.replication_dropped`` counts entries an up
        holder never took, not offers."""
        log = self.log(owner)
        lsn, payload = log.append(op)
        for holder in log.holders:
            if holder in self._down:
                log.buffer_hint(holder, lsn, payload)
                self.metrics.counter("cluster.failover.hints_buffered").inc()
                continue
            if self.faults is not None and all(
                self.faults.decide(
                    "cluster.replicate",
                    target=f"{owner}->{holder}",
                    kinds=("drop",),
                ).faulted
                for _ in range(SHIP_OFFERS)
            ):
                self.metrics.counter(
                    "cluster.failover.replication_dropped"
                ).inc()
                continue
            log.adopt(holder, lsn, payload)
        self.metrics.counter("cluster.failover.replicated_ops").inc()
        return lsn

    # -- holder availability ------------------------------------------------

    def mark_down(self, holder: str) -> None:
        self._down.add(holder)

    def mark_up(self, holder: str) -> None:
        """Holder is back: deliver every hint buffered for it."""
        self._down.discard(holder)
        for log in self._logs.values():
            if holder not in log.holders:
                continue
            for lsn, payload in log.take_hints(holder):
                log.adopt(holder, lsn, payload)
                self.metrics.counter("cluster.failover.hints_delivered").inc()

    # -- recovery primitives ------------------------------------------------

    def sync_owner(self, owner: str) -> bool:
        """One anti-entropy round: rebuild every copy of ``owner``'s log
        whose set digest differs from the LSN-union's.  True when a
        repair was performed (i.e. the copies had diverged)."""
        log = self.log(owner)
        diverged = bool(log.repair([owner, *log.holders]))
        if diverged:
            self.metrics.counter("cluster.failover.antientropy_repairs").inc()
        return diverged

    # -- log compaction -----------------------------------------------------

    def entry_count(self, owner: str) -> int:
        """Intact entries in ``owner``'s primary log copy."""
        return self.log(owner).primary_count

    def compact_if_due(self, owner: str, threshold: int | None) -> None:
        """Compact every *up* holder's copy of ``owner``'s log once the
        primary is due (:meth:`ReplicatedLog.compact_due`).  Down holders
        are skipped — their copies (and any torn tail from a crash) stay
        as a later promotion must see them, and reconverge via
        anti-entropy on return."""
        log = self.log(owner)
        if not log.compact_due(threshold):
            return
        removed = sum(log.compact(skip=self._down).values())
        if removed:
            self.metrics.counter("cluster.failover.log_compactions").inc()
            self.metrics.counter(
                "cluster.failover.compacted_entries"
            ).inc(removed)


class FailoverManager:
    """Drives the detect → promote → reconverge loop for one cluster.

    Owns the heartbeat fabric (a :class:`SimulatedNetwork` on the cluster
    clock sharing the cluster's fault injector, so ``net.link`` rules can
    starve heartbeats), the :class:`FailureDetector`, and the
    :class:`ShardReplicator`.  :meth:`tick` is called once per cluster
    tick and performs, in order: heartbeat delivery, heartbeat sends,
    anti-entropy for already-recovering shards, then detection and
    promotion of newly suspected ones — so a promoted replica always
    serves for at least one full tick before its recovery completes.
    """

    def __init__(self, cluster: "PlatformCluster") -> None:
        # Replica count, phi threshold and compaction threshold come from
        # the cluster's config, validated before any shard was built.
        config = cluster.config
        self.compact_threshold = config.replica_log_compact_threshold
        self.cluster = cluster
        self.clock = cluster.clock
        self.metrics = cluster.metrics
        self.tracer = cluster.tracer
        self.detector = FailureDetector(phi_threshold=config.phi_threshold)
        self.replicator = ShardReplicator(
            cluster.router, config.n_replicas,
            metrics=self.metrics, faults=cluster.faults,
        )
        # Subscribe to the cluster's op tap: whatever it commits on a
        # shard is logged for that shard, in commit order.
        cluster.add_op_sink(self.replicator.log_op)
        self.scheduler = EventScheduler(self.clock)
        self.net = SimulatedNetwork(
            self.scheduler, metrics=self.metrics,
            tracer=self.tracer, faults=cluster.faults,
        )
        self._monitor = self.net.add_node("hb/monitor")
        self._monitor.on("hb", self._on_heartbeat)
        self._state: dict[str, str] = {}
        self._downed_at: dict[str, float] = {}
        self._last_sent: dict[str, float] = {}
        now = self.clock.now
        for name in cluster.router.shards:
            self._watch(name, now)

    # -- state accessors ----------------------------------------------------

    def state(self, shard: str) -> str:
        return self._state.get(shard, UP)

    def is_down(self, shard: str) -> bool:
        """True while the shard is crashed and no replica has been
        promoted yet — the only window in which it cannot serve."""
        return self.state(shard) == DOWN

    def phi(self, shard: str) -> float:
        return self.detector.phi(shard, self.clock.now)

    # -- membership ---------------------------------------------------------

    def _watch(self, name: str, now: float) -> None:
        self._state[name] = UP
        self.detector.watch(name, now)
        if f"hb/{name}" not in self.net.nodes:
            self.net.add_node(f"hb/{name}")

    def resync(self) -> None:
        """Rebuild replication state after a membership change.

        Holder sets shift when shards join or leave; rather than migrate
        log suffixes incrementally, every owner's log is re-seeded from
        its shard's current snapshot (the same wholesale stance
        ``_rebalance`` takes for the data itself).
        """
        self.replicator.reset()
        now = self.clock.now
        for name in list(self._state):
            if name not in self.cluster.shards:
                self._state.pop(name, None)
                self._downed_at.pop(name, None)
                self.detector.forget(name)
        log_op = self.replicator.log_op
        for name, shard in self.cluster.shards.items():
            self._watch(name, now)
            for key in shard.entity_keys():
                log_op(name, entity_op(key, shard.export_entity(key)))
            for product_id, value in shard.catalog_snapshot().items():
                log_op(name, product_op(product_id, value))

    # -- replica-side serving ----------------------------------------------

    def _replica_state(self, owner: str, key: str):
        return fold(self.replicator.log(owner).union(), keys=(key,))

    def replica_value(self, owner: str, key: str):
        """Last logged entity value for ``key`` (None if absent/dropped)."""
        return self._replica_state(owner, key).entity(key)

    def replica_stock(self, owner: str, product_id: str) -> int | None:
        """Last logged stock level for ``product_id`` (None if unknown)."""
        return self._replica_state(owner, product_id).stock_of(product_id)

    def replica_product(self, owner: str, product_id: str) -> dict | None:
        """A copy of the product record the replicated log folds to for
        ``product_id``, stock level included (None if unknown/dropped)."""
        record = self._replica_state(owner, product_id).products.get(product_id)
        return None if record is None else dict(record)

    # -- crash entry point ---------------------------------------------------

    def kill(self, name: str, torn_tail_bytes: int = 0) -> None:
        """Model an abrupt shard crash (process gone, tail possibly torn).

        The shard stops serving and heartbeating immediately; *detection*
        still takes the phi-accrual delay, after which a replica is
        promoted.  ``torn_tail_bytes`` chops the primary log copy's tail,
        modelling a write in flight at crash time — the surviving replica
        copies carry the suffix.
        """
        if self.state(name) != UP:
            raise ConfigurationError(f"shard {name!r} is not up")
        self._state[name] = DOWN
        self._downed_at[name] = self.clock.now
        self.replicator.mark_down(name)
        if torn_tail_bytes > 0:
            self.replicator.log(name).tear(torn_tail_bytes)
        self.metrics.counter("cluster.failover.kills").inc()
        self.tracer.log("warn", "shard killed", shard=name)

    # -- the per-tick loop ---------------------------------------------------

    def tick(self) -> None:
        now = self.clock.now
        self.scheduler.run_until(now)  # deliver heartbeats in flight
        self._send_heartbeats(now)
        self._advance_recoveries(now)
        self._detect(now)
        self._compact_logs()
        self.metrics.gauge("cluster.failover.down_shards").set(
            float(sum(1 for s in self._state.values() if s != UP))
        )

    def _send_heartbeats(self, now: float) -> None:
        for name in self.cluster.router.shards:
            if self.state(name) != UP:
                continue
            if now - self._last_sent.get(name, -math.inf) < (
                self.detector.heartbeat_interval_s * 0.999
            ):
                continue
            self._last_sent[name] = now
            try:
                self.net.send(f"hb/{name}", "hb/monitor", "hb", {"shard": name})
            except (PartitionedError, NetworkError):
                self.metrics.counter("cluster.failover.heartbeats_starved").inc()

    def _on_heartbeat(self, message) -> None:
        self.detector.heartbeat(message.payload["shard"], self.clock.now)

    def _detect(self, now: float) -> None:
        for name in list(self.cluster.router.shards):
            state = self.state(name)
            if state == RECOVERING:
                continue
            if not self.detector.suspected(name, now):
                continue
            if state == UP:
                # A false positive (e.g. a partition starving heartbeats):
                # failover proceeds anyway — the promoted state replays the
                # same logged ops the live shard holds, so it converges.
                self._downed_at.setdefault(name, now)
                self.replicator.mark_down(name)
            self.metrics.counter("cluster.failover.suspected").inc()
            self._promote(name, now)

    def _promote(self, name: str, now: float) -> None:
        """Replay the freshest surviving log state into a fresh platform
        and install it under the dead shard's name (ring unchanged)."""
        with self.tracer.span("cluster.failover.promote", shard=name):
            log = self.replicator.log(name)
            entries = log.union()
            platform = self.cluster._make_shard(name)
            # A fresh platform has applied nothing, so every key lands.
            apply(fold(entries), {}, lambda key: platform)
            # Continue the primary copy from the union so new LSNs extend
            # (never collide with) what the replicas already hold.
            log.rebuild(name, entries)
            self.cluster.install_shard(name, platform)
        self._state[name] = RECOVERING
        self.replicator.mark_up(name)  # node is back: deliver its hints
        self.metrics.counter("cluster.failover.promotions").inc()
        self.metrics.gauge(f"cluster.shard.{name}.promoted_lsn").set(
            float(entries[-1].lsn if entries else 0)
        )
        # How much work promotion had to replay — the number compaction
        # exists to bound, and what E28 gates on (deterministic, unlike
        # wall-clock).
        self.metrics.gauge("cluster.failover.promotion_replayed_entries").set(
            float(len(entries))
        )
        self.tracer.log(
            "info", "replica promoted", shard=name, ops=len(entries)
        )

    def _compact_logs(self) -> None:
        for name in self.cluster.router.shards:
            if self.state(name) == UP:
                self.replicator.compact_if_due(name, self.compact_threshold)

    def _advance_recoveries(self, now: float) -> None:
        for name in list(self._state):
            if self._state[name] != RECOVERING:
                continue
            with self.tracer.span("cluster.failover.antientropy", shard=name):
                diverged = self.replicator.sync_owner(name)
            if diverged:
                continue  # repaired this round; confirm convergence next tick
            self._state[name] = UP
            self.detector.reset(name, now)
            self._last_sent.pop(name, None)
            downed_at = self._downed_at.pop(name, now)
            self.metrics.gauge("cluster.failover.recovery_time_s").set(
                now - downed_at
            )
            self.metrics.counter("cluster.failover.recoveries").inc()
            self.tracer.log("info", "shard recovered", shard=name)

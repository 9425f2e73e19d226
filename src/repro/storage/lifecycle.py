"""Data-lifecycle management: checkpoints and hot/warm/cold tiering.

The paper's central claim is that a metaverse platform drowns unless its
storage tier actively manages the lifecycle of what it retains (Sec. III,
the "data deluge").  Before this module every WAL grew forever, so crash
recovery and failover replay cost scaled linearly with *history* rather
than with *live state*.  Two mechanisms bound that growth:

* :class:`CheckpointManager` — periodically snapshots a
  :class:`~repro.storage.kv.KVStore`'s live state into the object store
  and truncates the WAL prefix below the checkpoint LSN.  Recovery then
  restores snapshot + WAL suffix instead of replaying full history, so
  recovery time is flat no matter how old the store is (experiment E28).
  Old snapshots are pruned (:meth:`ObjectStore.prune_versions`) so the
  checkpoint chain itself cannot become the next deluge.

* :class:`TieredStorageEngine` — hot/warm/cold placement for the entity
  keyspace: an in-memory LRU tier over the KV store (warm), with idle
  values demoted to the object store (cold) and transparently promoted
  back on access.  TTL/LRU demotion runs from :meth:`maintain`, which the
  platform and cluster tick loops drive; ``storage.tier.*`` counters,
  gauges, and histograms expose every movement via :mod:`repro.obs`.

The third lifecycle mechanism — replica-log compaction — lives with its
data in :class:`repro.replication.ReplicatedLog`; this module is the
single-store half of the story.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.clock import SimulationClock
from ..core.errors import ConfigurationError, KeyNotFoundError
from ..core.metrics import MetricsRegistry
from .engine import LocalStorageEngine
from .kv import KVStore
from .objectstore import ObjectStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.columns import RecordBatch

#: Object-store name prefix for cold-tier demoted values.
_COLD_PREFIX = "tier/cold/"


def _encode_value(value: object) -> bytes:
    """Canonical byte encoding for checkpoint and cold-tier payloads.

    ``sort_keys`` makes the encoding a pure function of the value, so
    demote→promote round trips are bitwise-stable and checkpoint blobs of
    identical state dedup in the content-addressed store.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _decode_value(data: bytes) -> object:
    return json.loads(data.decode("utf-8"))


@dataclass
class LifecyclePolicy:
    """Knobs for :class:`TieredStorageEngine` demotion and checkpointing.

    ``hot_ttl_s``/``warm_ttl_s`` are idle times on the engine's clock; a
    key idle past ``hot_ttl_s`` leaves the in-memory tier (its value is
    still warm), and one idle past ``warm_ttl_s`` is demoted to the cold
    object tier.  ``checkpoint_interval_ops`` triggers a WAL checkpoint
    once that many entries accumulate; ``None`` disables checkpointing.
    """

    hot_capacity: int = 1024
    hot_ttl_s: float = 30.0
    warm_ttl_s: float = 300.0
    checkpoint_interval_ops: int | None = 4096
    checkpoint_keep: int = 2

    def validate(self) -> "LifecyclePolicy":
        if self.hot_capacity < 1:
            raise ConfigurationError("hot_capacity must be >= 1")
        if self.hot_ttl_s <= 0 or self.warm_ttl_s <= 0:
            raise ConfigurationError("tier TTLs must be positive")
        if self.warm_ttl_s < self.hot_ttl_s:
            raise ConfigurationError(
                "warm_ttl_s must be >= hot_ttl_s (a key leaves memory "
                "before it leaves the KV tier)"
            )
        if self.checkpoint_interval_ops is not None and self.checkpoint_interval_ops < 1:
            raise ConfigurationError("checkpoint_interval_ops must be >= 1")
        if self.checkpoint_keep < 1:
            raise ConfigurationError("checkpoint_keep must be >= 1")
        return self


class CheckpointManager:
    """WAL checkpointing for one :class:`KVStore` into an object store.

    :meth:`checkpoint` snapshots the store's live state under a named,
    versioned object and truncates the WAL prefix at the checkpoint
    LSN; :meth:`recover` restores a fresh store from
    the latest snapshot and replays only the WAL suffix.  Recovered reads
    are byte-identical to a full-history replay (property-tested in
    ``test_storage_lifecycle.py``), while replay work is bounded by live
    keys + suffix length regardless of history.
    """

    def __init__(
        self,
        kv: KVStore,
        objects: ObjectStore,
        name: str = "ckpt/kv",
        keep: int = 2,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if keep < 1:
            raise ConfigurationError("keep must be >= 1")
        self.kv = kv
        self.objects = objects
        self.name = name
        self.keep = keep
        self.metrics = metrics if metrics is not None else kv.metrics
        self.checkpoints_taken = 0

    @property
    def checkpoint_lsn(self) -> int:
        """LSN of the latest checkpoint (0 when none exists)."""
        try:
            ref = self.objects.ref(self.name)
        except KeyNotFoundError:
            return 0
        return int(ref.meta().get("lsn", 0))

    def checkpoint(self) -> int:
        """Snapshot live state, truncate the WAL prefix; returns the
        checkpoint LSN."""
        lsn = self.kv.wal.last_valid_lsn
        state = self.kv.snapshot_state()
        payload = _encode_value({"lsn": lsn, "state": state})
        self.objects.put(self.name, payload, metadata={"lsn": str(lsn)})
        truncated = self.kv.wal.truncate_before(lsn + 1)
        self.objects.prune_versions(self.name, keep=self.keep)
        self.checkpoints_taken += 1
        self.metrics.counter("storage.ckpt.checkpoints").inc()
        self.metrics.counter("storage.ckpt.truncated_entries").inc(truncated)
        self.metrics.gauge("storage.ckpt.lsn").set(float(lsn))
        self.metrics.histogram("storage.ckpt.snapshot_bytes").observe(
            float(len(payload))
        )
        return lsn

    def maybe_checkpoint(self, interval_ops: int) -> int | None:
        """Checkpoint when at least ``interval_ops`` WAL entries have
        accumulated since the last one; returns the LSN or None."""
        if self.kv.wal.entry_count >= interval_ops:
            return self.checkpoint()
        return None

    def recover(self, fresh: KVStore) -> tuple[int, int]:
        """Restore ``fresh`` (sharing the crashed store's WAL) from the
        latest snapshot plus the WAL suffix.

        Returns ``(snapshot_entries, wal_entries)`` applied.  With no
        checkpoint on record this degrades to a plain full replay, so
        callers need not special-case young stores.
        """
        snapshot_entries = 0
        try:
            blob = self.objects.get(self.name)
        except KeyNotFoundError:
            blob = None
        if blob is not None:
            snapshot = _decode_value(bytes(blob))
            snapshot_entries = fresh.load_snapshot(snapshot["state"])
        wal_entries = fresh.recover()
        self.metrics.counter("storage.ckpt.recoveries").inc()
        return snapshot_entries, wal_entries


class TieredStorageEngine(LocalStorageEngine):
    """Hot/warm/cold lifecycle placement over the local engine's tiers.

    * **hot** — an in-memory LRU map (capacity- and TTL-bounded); pure
      cache over warm state, so eviction is free;
    * **warm** — the LSM KV store (+WAL), the durable tier every write
      lands in;
    * **cold** — idle values serialized into the content-addressed object
      store; a cold key keeps exactly one live object version.

    Reads check hot → warm → cold; a cold hit *promotes* the value back
    to warm+hot (the write is WAL-logged, so recovery sees it).  Demotion
    runs from :meth:`maintain` on the engine's clock.  Range scans merge
    warm and cold without promoting — a scan is not a signal that every
    key in the range is hot again.
    """

    kind = "tiered"

    def __init__(
        self,
        policy: LifecyclePolicy | None = None,
        clock: SimulationClock | None = None,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.objects = ObjectStore(metrics=self.metrics, tracer=self.tracer)
        self.policy = (policy if policy is not None else LifecyclePolicy()).validate()
        self.clock = clock if clock is not None else SimulationClock()
        self._hot: OrderedDict[str, object] = OrderedDict()
        self._last_access: dict[str, float] = {}
        self._cold: set[str] = set()
        self.checkpointer = CheckpointManager(
            self.kv,
            self.objects,
            keep=self.policy.checkpoint_keep,
            metrics=self.metrics,
        )

    # -- tier movement -------------------------------------------------------

    def _touch(self, key: str, value: object) -> None:
        """Install ``key`` in the hot tier and stamp its access time."""
        self._hot[key] = value
        self._hot.move_to_end(key)
        self._last_access[key] = self.clock.now
        while len(self._hot) > self.policy.hot_capacity:
            self._hot.popitem(last=False)
            self.metrics.counter("storage.tier.hot_evictions").inc()

    def _promote(self, key: str) -> object:
        """Pull a cold value back to warm+hot (transparent on access)."""
        data = self.objects.get(_COLD_PREFIX + key)
        value = _decode_value(bytes(data))
        self.kv.put(key, value)
        self.objects.delete(_COLD_PREFIX + key)
        self._cold.discard(key)
        self._touch(key, value)
        self.metrics.counter("storage.tier.promotions").inc()
        return value

    def _demote_cold(self, key: str) -> None:
        """Move an idle warm value into the cold object tier."""
        value = self.kv.get(key)
        data = _encode_value(value)
        self.objects.put(
            _COLD_PREFIX + key, data, metadata={"tier": "cold"}
        )
        self.objects.prune_versions(_COLD_PREFIX + key, keep=1)
        self.kv.delete(key)
        self._cold.add(key)
        self._hot.pop(key, None)
        self.metrics.counter("storage.tier.demotions").inc()
        self.metrics.histogram("storage.tier.demoted_bytes").observe(
            float(len(data))
        )

    def maintain(self, now: float | None = None) -> dict:
        """One lifecycle sweep: TTL/LRU demotion plus checkpointing.

        Driven by the platform/cluster tick loops (and by
        :meth:`StorageTier.maintain` in disaggregated mode).  Returns a
        summary dict for introspection and tests.
        """
        now = self.clock.now if now is None else now
        hot_evicted = 0
        for key in [
            k for k, _ in self._hot.items()
            if now - self._last_access.get(k, now) >= self.policy.hot_ttl_s
        ]:
            self._hot.pop(key, None)
            hot_evicted += 1
        if hot_evicted:
            self.metrics.counter("storage.tier.hot_evictions").inc(hot_evicted)
        demoted = 0
        for key in self.kv.keys():
            # A key with no recorded access (e.g. loaded by recovery)
            # starts its idle clock at the first sweep that sees it.
            idle = now - self._last_access.setdefault(key, now)
            if idle >= self.policy.warm_ttl_s:
                self._demote_cold(key)
                self._last_access.pop(key, None)
                demoted += 1
        checkpoint_lsn = None
        if self.policy.checkpoint_interval_ops is not None:
            checkpoint_lsn = self.checkpointer.maybe_checkpoint(
                self.policy.checkpoint_interval_ops
            )
        self._refresh_tier_gauges()
        return {
            "hot_evicted": hot_evicted,
            "demoted": demoted,
            "checkpoint_lsn": checkpoint_lsn,
        }

    def _refresh_tier_gauges(self) -> None:
        self.metrics.gauge("storage.tier.hot_entries").set(float(len(self._hot)))
        self.metrics.gauge("storage.tier.warm_entries").set(
            float(len(self.kv.keys()))
        )
        self.metrics.gauge("storage.tier.cold_entries").set(float(len(self._cold)))

    # -- entity ops (tier-aware) ---------------------------------------------

    def get(self, key: str) -> object:
        if key in self._hot:
            value = self._hot[key]
            self._hot.move_to_end(key)
            self._last_access[key] = self.clock.now
            self.metrics.counter("storage.tier.hot_hits").inc()
            return value
        try:
            value = self.kv.get(key)
        except KeyNotFoundError:
            if key in self._cold:
                self.metrics.counter("storage.tier.cold_hits").inc()
                return self._promote(key)
            raise
        self.metrics.counter("storage.tier.warm_hits").inc()
        self._touch(key, value)
        return value

    def mput(
        self,
        items: "list[tuple[str, object]]",
        record: bytes | None = None,
        batch: "RecordBatch | None" = None,
    ) -> None:
        self.kv.mput(items, record, batch)
        for key, value in items:
            if key in self._cold:
                self.objects.delete(_COLD_PREFIX + key)
                self._cold.discard(key)
            self._touch(key, value)

    def delete(self, key: str) -> None:
        self.kv.delete(key)
        self._hot.pop(key, None)
        self._last_access.pop(key, None)
        if key in self._cold:
            self.objects.delete(_COLD_PREFIX + key)
            self._cold.discard(key)

    def scan(self, lo: str, hi: str) -> list[tuple[str, object]]:
        merged = dict(self.kv.scan(lo, hi))
        for key in self._cold:
            if lo <= key <= hi and key not in merged:
                merged[key] = _decode_value(
                    bytes(self.objects.get(_COLD_PREFIX + key))
                )
        return sorted(merged.items())

    def keys(self) -> list[str]:
        return sorted(set(self.kv.keys()) | self._cold)

    # -- recovery ------------------------------------------------------------

    def recover(self) -> "TieredStorageEngine":
        """Crash-recover in place: rebuild warm state from the latest
        checkpoint + WAL suffix and re-derive the cold index from the
        object store (cold placement is recoverable metadata, not state).

        Models a restart: the in-memory hot tier and access clock start
        empty — cold data survived in the object tier, warm data in
        checkpoint + WAL.
        """
        fresh = KVStore(
            memtable_budget_bytes=self.kv.memtable_budget_bytes,
            max_runs=self.kv.max_runs,
            wal=self.kv.wal,
            metrics=self.metrics,
            tracer=self.tracer,
            faults=self.faults,
        )
        self.checkpointer.recover(fresh)
        self.kv = fresh
        self.checkpointer.kv = fresh
        self._hot.clear()
        self._last_access.clear()
        self._cold = {
            name[len(_COLD_PREFIX):]
            for name in self.objects.names()
            if name.startswith(_COLD_PREFIX)
        }
        self._refresh_tier_gauges()
        return self

    # -- introspection -------------------------------------------------------

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "hot": len(self._hot),
            "warm": len(self.kv.keys()),
            "cold": len(self._cold),
            "checkpoint_lsn": self.checkpointer.checkpoint_lsn,
        }

"""Horizontal scale-out: N platform shards behind one facade (paper Sec. IV).

The paper's answer to the data deluge is disaggregated, horizontally
scalable storage and compute; the ROADMAP north-star is "heavy traffic
from millions of users".  A single :class:`MetaversePlatform` node tops
out at its executor pool — :class:`PlatformCluster` scales past it by
partitioning entity and product keys across N full platform shards with a
:class:`~repro.cluster.router.ShardRouter` (consistent-hash ring, vnodes)
and coordinating the cross-shard paths:

* **batched ingest** — observations buffer in the router grouped by owning
  shard and flush per simulated-clock tick, so each shard sees one batch
  per tick instead of a per-record stream;
* **scatter-gather queries** — prefix/range, spatial, and continuous
  queries fan out to every shard under a per-shard
  :class:`~repro.resilience.policies.Deadline`; a shard that faults or
  blows its deadline is skipped and the gather is marked partial rather
  than failing the caller;
* **purchases** — single-product requests route to the owning shard (the
  global stream is pre-sorted with the same space-aware key a single node
  uses, so sharded and single-node runs decide every purchase the same
  way); multi-product baskets spanning shards run through the existing
  2PC coordinator (:mod:`repro.cluster.coordinator`);
* **rebalancing** — shards join and leave live: every key whose ring
  owner changed migrates (KV entities and catalog products both), with
  no entity lost or duplicated;
* **disaggregated mode** (``n_storage_nodes=M``) — the Fig. 7 split:
  every compute shard mounts a shared
  :class:`~repro.storage.engine.StorageTier` of M standalone storage
  nodes through a :class:`~repro.storage.engine.RemoteStorageEngine`, so
  N compute nodes scale independently of M storage nodes.  State lives in
  the tier: shard join/leave is a pure ring remap (zero entity
  migration — compute caches reset, nothing moves), ``kill_shard``
  marks the compute node down and the next :meth:`tick` recovers it by
  *re-mounting* the surviving storage nodes (no WAL replay, no data
  movement), and while the owner is down its keys are read from the
  tier through any live compute node's mount.  Mutually exclusive with
  replica failover (``n_replicas >= 2``): in a disaggregated deployment
  the shared tier *is* the availability mechanism.

Chaos coverage: sites ``cluster.ingest`` (drop) and ``cluster.query``
(crash/delay) are instrumented, and the shared fault injector reaches
every shard's storage/broker/gateway sites, so the nightly chaos tier
exercises the cluster path end to end.
"""

from __future__ import annotations

from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from itertools import islice, takewhile
from operator import attrgetter
from typing import Callable

from ..api.dataplane import ContinuousQueries, GatherResult
from ..core.clock import SimulationClock
from ..core.columns import RecordBatch
from ..core.errors import (
    ConfigurationError,
    FaultInjectedError,
    KeyNotFoundError,
)
from ..core.metrics import MetricsRegistry
from ..core.records import DataRecord, PurchaseRequest, Space
from ..net.overlay import stable_hash
from ..obs.tracing import NoopTracer, Tracer
from ..platform.platform import (
    MetaversePlatform,
    PurchaseOutcome,
    purchase_sort_key,
    unit_len,
)
from ..query.plane import (
    QueryExecutor,
    QueryModality,
    QueryPlan,
    QueryRequest,
    prefix_query,
    spatial_query,
)
from ..placement import Placement, group_by_owner, route_by_owner
from ..replication import (
    drop_entity_op,
    drop_product_op,
    entity_op,
    product_op,
    stock_op,
)
from ..resilience.faults import FaultInjector
from ..resilience.policies import Timeout
from ..storage.engine import StorageEngine, StorageTier
from ..spatial.geometry import BBox
from ..txn.twopc import TxnOutcome
from .config import ClusterConfig
from .coordinator import CrossShardCoordinator
from .elasticity import ElasticityController
from .failover import RECOVERING, FailoverManager
from .router import ShardRouter

#: A cluster orders purchases physical-space first, the paper's policy
#: and every shard platform's default; only a single platform turns it
#: off (E4 compares the policy with arrival order).
PHYSICAL_PRIORITY = True


@dataclass
class BasketOutcome:
    """Outcome of an all-or-nothing multi-product basket."""

    committed: bool
    reason: str = ""
    shards: tuple[str, ...] = ()
    txn: TxnOutcome | None = None


class PlatformCluster:
    """N :class:`MetaversePlatform` shards behind a single facade.

    All shards share the cluster's metrics registry, tracer, and (when
    present) fault injector, so cluster-wide counters aggregate naturally
    and per-shard gauges (``cluster.shard.<name>.*``) sit beside them.
    """

    def __init__(
        self,
        config: ClusterConfig | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
        config = (config if config is not None else ClusterConfig()).validate()
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NoopTracer()
        self.faults = faults
        if faults is not None:
            # Route the injector's counters/spans into the cluster registry
            # before any shard adopts it (platform adoption would otherwise
            # rebind them shard by shard).
            faults.metrics = self.metrics
            faults.metrics_injected = True
            faults.tracer = self.tracer
            faults.tracer_injected = True
        self.clock = faults.clock if faults is not None else SimulationClock()
        self.query_deadline = Timeout(config.query_deadline_s)
        self.router = ShardRouter(metrics=self.metrics)
        # Disaggregated mode: one shared storage tier, mounted by every
        # compute shard.  The tier shares the cluster clock so RPC latency
        # advances the same simulated time the rest of the system runs on.
        self.storage: StorageTier | None = None
        self._down_compute: set[str] = set()
        # Failover is opt-in: with n_replicas == 1 (the default) nothing is
        # replicated, no heartbeats flow, and every path below behaves
        # exactly as before.
        self.failover: FailoverManager | None = None
        self._op_sinks: list[Callable[[str, dict], object]] = []
        if config.n_storage_nodes is not None:
            self.storage = StorageTier(
                n_nodes=config.n_storage_nodes,
                clock=self.clock,
                metrics=self.metrics,
                tracer=self.tracer,
            )
        self.shards: dict[str, MetaversePlatform] = {}
        for i in range(config.n_shards):
            name = f"shard-{i}"
            self.router.add_shard(name)
            self.shards[name] = self._make_shard(name)
        # Entity gauges cost a sweep of every key, so they are computed
        # when the registry is read, never on a flush or a tick.
        self.metrics.add_collector(self._collect_entity_gauges)
        self.coordinator = CrossShardCoordinator(
            self.shards,
            clock=self.clock,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        # Per shard, one arrival-ordered queue of write units: per-record
        # and columnar ingest interleave exactly as the caller issued them.
        self._pending: dict[str, deque[DataRecord | RecordBatch]] = {}
        self._continuous = ContinuousQueries()
        # Query-plane executor: resolves requests to (modality, plan);
        # the cluster contributes only the scatter-gather dispatch.
        self.query_executor = QueryExecutor()
        # Bounded-drain ingest queues (opt-in): banked per-shard drain
        # credit, accrued each tick at ``shard_drain_rate`` and spent by
        # flush().  With the rate unset, flushes stay unbounded and the
        # dict stays empty.
        self._drain_credit: dict[str, float] = {}
        # Closed-loop elasticity (opt-in via config.elasticity): the
        # controller reads this cluster's own metrics each tick and
        # drives shard membership and admission.
        self.elasticity: ElasticityController | None = None
        if config.elasticity is not None:
            self.elasticity = ElasticityController(
                self,
                config.elasticity,
                clock=self.clock,
                metrics=self.metrics,
                tracer=self.tracer,
            )
        if config.n_replicas >= 2:
            self.failover = FailoverManager(self)

    def _make_shard(self, name: str) -> MetaversePlatform:
        engine = None
        if self.storage is not None:
            # Stateless compute: the shard's engine is a fresh mount of
            # the shared tier (a new network identity per mount, so a
            # re-mounted shard rejoins like a restarted process would).
            # A storage call is retried in one layer, the platform's
            # (_with_retry); the mount itself never retries.
            engine = self.storage.mount(client=name, faults=self.faults)
        shard = MetaversePlatform(
            n_executors=self.config.n_executors_per_shard,
            metrics=self.metrics,
            tracer=self.tracer,
            faults=self.faults,
            engine=engine,
            semantic_index=self.config.semantic_index,
        )
        if self._op_sinks:
            shard.purchase_log = partial(self._emit, name, stock_op)
        if self.storage is not None:
            # Every mount sees the whole tier; a shard serves (and keeps
            # a position index over) the keys the compute ring gives it.
            shard.owns = partial(self._owns, name)
        return shard

    def _owns(self, name: str, key: str) -> bool:
        """Whether shard ``name`` owns ``key`` on the compute ring.  An
        ownership test over a sweep, not a routing decision: it asks the
        placement directly and leaves ``cluster.router.lookups`` alone."""
        return Placement.owner_of(self.router, key) == name

    def add_op_sink(self, sink: Callable[[str, dict], object]) -> None:
        """Register ``sink(shard, op)`` to see every mutation this cluster
        commits, as the :mod:`repro.replication` op it is logged as, on
        the shard that committed it.  The failover manager and the geo
        deployment are two subscribers.  Only a stock commit originates
        inside a shard, so every platform :meth:`_make_shard` returns
        (joined, promoted, re-mounted) has its ``purchase_log`` armed too;
        with no sink the hook stays unset and no op is ever built."""
        self._op_sinks.append(sink)
        for name, shard in self.shards.items():
            shard.purchase_log = partial(self._emit, name, stock_op)

    def _emit(self, shard: str, op_of: Callable[..., dict], *args) -> None:
        """THE op tap: ``op_of(*args)`` just committed on ``shard``.

        It sits on the cluster's own write surface, not on the platform's:
        state *movement* (rebalancing, promotion replay, read repair) goes
        to the platforms directly and is not a mutation to log."""
        if self._op_sinks:
            op = op_of(*args)
            for sink in self._op_sinks:
                sink(shard, op)

    def _is_down(self, name: str) -> bool:
        if name in self._down_compute:
            return True
        return self.failover is not None and self.failover.is_down(name)

    def install_shard(self, name: str, platform: MetaversePlatform) -> None:
        """Swap in a promoted replica under an existing shard name.

        Called by the failover manager: the router ring is untouched (the
        name — and therefore key ownership — survives the crash) and the
        2PC participant re-binds to the new platform.
        """
        if name not in self.shards:
            raise ConfigurationError(f"unknown shard {name!r}")
        self.shards[name] = platform
        self.coordinator.attach_shard(name, platform)

    def _remount_shard(self, name: str) -> None:
        """Bring a crashed compute node back by mounting the tier afresh."""
        self.install_shard(name, self._make_shard(name))
        self.metrics.counter("cluster.disagg.remounts").inc()
        self.tracer.log("info", "compute node re-mounted storage tier",
                        shard=name)

    # -- batched ingest -----------------------------------------------------

    def ingest(self, record: DataRecord) -> None:
        """Buffer one observation, grouped under its owning shard.

        With admission control on (``config.elasticity.admission_rate``),
        the record passes the owning shard's token bucket first —
        virtual-space LOD traffic is shed when the bucket is dry,
        physical-space records always land.
        """
        if self.faults is not None:
            if self.faults.decide("cluster.ingest", kinds=("drop",)).faulted:
                self.metrics.counter("cluster.dropped_records").inc()
                return
        owner = self.router.owner_of(record.key)
        if not self._admit(owner, record.space):
            return
        self._pending.setdefault(owner, deque()).append(record)
        self.metrics.counter("cluster.buffered_records").inc()

    def ingest_many(self, records: list[DataRecord]) -> None:
        with self.tracer.span("cluster.ingest", batch=len(records)):
            for record in records:
                self.ingest(record)

    def ingest_batch(self, batch: RecordBatch) -> None:
        """Buffer one columnar batch, split by owning shard.

        Fault decisions stay per row (same injector RNG sequence as the
        per-record path); surviving rows stay columnar per shard.
        """
        if self.faults is not None:
            keep = [
                i for i in range(len(batch))
                if not self.faults.decide(
                    "cluster.ingest", kinds=("drop",)
                ).faulted
            ]
            dropped = len(batch) - len(keep)
            if dropped:
                self.metrics.counter("cluster.dropped_records").inc(dropped)
                if not keep:
                    return
                batch = batch.take(keep)
        if self.elasticity is not None and self.elasticity.admission is not None:
            spaces = batch.space_values()
            admitted = [
                i
                for i, key in enumerate(batch.keys)
                if self._admit(self.router.owner_of(key), spaces[i])
            ]
            if len(admitted) < len(batch):
                if not admitted:
                    return
                batch = batch.take(admitted)
        owners = self.router.group(range(len(batch)), batch.keys.__getitem__)
        for name, rows in owners.items():
            shard_batch = batch if len(rows) == len(batch) else batch.take(rows)
            self._pending.setdefault(name, deque()).append(shard_batch)
        self.metrics.counter("cluster.buffered_records").inc(len(batch))

    @property
    def pending_count(self) -> int:
        return sum(self.shard_queue_depth(name) for name in self._pending)

    def shard_queue_depth(self, name: str) -> int:
        """Records currently queued for ``name`` (bounded-drain mode)."""
        return sum(unit_len(unit) for unit in self._pending.get(name, ()))

    def _admit(self, owner: str, space: Space) -> bool:
        if self.elasticity is None or self.elasticity.admission is None:
            return True
        return self.elasticity.admission.admit(owner, space)

    def flush(self, force: bool = True) -> int:
        """Write buffered batches to their shards; return records written.

        Direct calls (and membership changes, which must not leave
        records queued under a stale ring) drain everything.  The tick
        path passes ``force=False``: with ``shard_drain_rate`` set, each
        shard writes at most its banked drain credit and the remainder
        stays queued — the queue depth and implied wait are the
        elasticity loop's load signal.
        """
        total = 0
        rate = self.config.shard_drain_rate
        bounded = not force and rate is not None
        with self.tracer.span("cluster.flush", pending=self.pending_count):
            for name in self.router.shards:
                if self._is_down(name):
                    # Crashed and not yet failed over: keep the batch
                    # buffered — it flushes to the promoted replica.
                    continue
                budget = (
                    int(self._drain_credit.get(name, 0.0)) if bounded else None
                )
                written = self._flush_shard(name, budget)
                if bounded and written:
                    self._drain_credit[name] = (
                        self._drain_credit.get(name, 0.0) - written
                    )
                total += written
        self.metrics.counter("cluster.ingested_records").inc(total)
        self._refresh_shard_gauges()
        return total

    def _flush_shard(self, name: str, budget: int | None) -> int:
        """Write up to ``budget`` queued records to ``name`` (None =
        unbounded) in arrival order; leftovers stay queued.  A write unit
        is one :class:`RecordBatch` or the run of consecutive records at
        the queue's head, either cut at the budget: one bulk write, which
        the shard's engine coalesces into one RPC per storage node.  A
        unit leaves the queue only once its write returned, so a write
        that raises keeps it and everything behind it queued; a record no
        write can carry is dead-lettered
        (:meth:`MetaversePlatform.write_queued`), counted in
        ``cluster.write.rejected``.  Returns the records stored."""
        queue = self._pending.get(name)
        if not queue:
            return 0
        observe = self.metrics.histogram("cluster.router.batch_size").observe
        taken = written = 0
        while queue and (budget is None or taken < budget):
            room = None if budget is None else budget - taken
            head = queue[0]
            if isinstance(head, DataRecord):
                unit = list(takewhile(
                    lambda u: isinstance(u, DataRecord), islice(queue, room)
                ))
            elif room is None or len(head) <= room:
                unit = head
            else:
                # The batch splits at the budget: its head flushes now,
                # the columnar tail stays queued.
                unit = head.take(range(room))
            stored, rejected = self.shards[name].write_queued(unit)
            self._emit_stored(name, stored)
            if rejected:
                self.metrics.counter("cluster.write.rejected").inc(
                    len(rejected)
                )
                self.tracer.log(
                    "warn", "records rejected", shard=name, keys=rejected
                )
            if isinstance(unit, list):
                for _ in unit:
                    queue.popleft()
            elif unit is head:
                queue.popleft()
            else:
                queue[0] = head.take(range(room, len(head)))
            observe(len(unit))
            taken += len(unit)
            written += len(stored)
        return written

    def _emit_stored(self, name: str, stored: list) -> None:
        """Emit the post-state of every item shard ``name`` just stored
        (what a promoted replica replays)."""
        if self._op_sinks:  # no subscriber: skip the walk, not just the op
            for key, value in stored:
                self._emit(name, entity_op, key, value)

    def tick(self, dt: float) -> dict[str, GatherResult]:
        """One simulated-clock tick: advance time, then :meth:`step`."""
        self.clock.advance(dt)
        return self.step(dt)

    def step(self, dt: float) -> dict[str, GatherResult]:
        """Everything a tick does once the clock has moved ``dt``: flush
        batches, run the upkeep loops, refresh every registered continuous
        query (returning the fresh results).  The geo deployment advances
        one shared clock, then steps each region's cluster."""
        if self._down_compute:
            # Disaggregated recovery: a crashed compute node holds no
            # state, so recovery is a re-mount of the surviving storage
            # nodes — no WAL replay, no data movement.
            for name in sorted(self._down_compute):
                self._remount_shard(name)
            self._down_compute.clear()
            self._refresh_shard_gauges()
        rate = self.config.shard_drain_rate
        if rate is not None:
            # Bank one tick of drain credit per live shard, capped so an
            # idle shard cannot accumulate an unbounded burst allowance.
            cap = max(rate, rate * dt)
            for name in self.router.shards:
                self._drain_credit[name] = min(
                    cap, self._drain_credit.get(name, 0.0) + rate * dt
                )
        self.flush(force=rate is None)
        if rate is not None:
            self._observe_ingest_waits(rate)
        if self.elasticity is not None:
            self.elasticity.tick(dt)
        if self.failover is not None:
            self.failover.tick()
        self.maintain_storage()
        return self._continuous.refresh(
            self.query, self.metrics, "cluster.continuous.evaluations"
        )

    def _observe_ingest_waits(self, rate: float) -> None:
        """Record each live shard's post-flush queue state: depth gauge
        plus implied drain wait (depth / rate) into the per-shard
        histogram the elasticity loop reads through a window."""
        for name in self.router.shards:
            if self._is_down(name):
                continue
            depth = self.shard_queue_depth(name)
            self.metrics.gauge(f"cluster.shard.{name}.queue_depth").set(
                float(depth)
            )
            self.metrics.histogram(
                f"cluster.shard.{name}.ingest_wait_s"
            ).observe(depth / rate)

    def ingest_wait_p95(self, window: int) -> float:
        """Worst per-shard p95 ingest wait over the last ``window``
        observations — the elasticity loop's SLO signal.  0.0 while no
        shard has observations (cold start, drain rate unset)."""
        worst = 0.0
        for name in self.router.shards:
            view = self.metrics.histogram(
                f"cluster.shard.{name}.ingest_wait_s"
            ).window(window)
            if view.count:
                worst = max(worst, view.p95())
        return worst

    def maintain_storage(self) -> None:
        """One data-lifecycle sweep across the cluster's storage.

        Disaggregated mode sweeps the shared tier's nodes; otherwise each
        live shard's own engine sweeps.  A no-op unless an engine actually
        implements lifecycle maintenance (e.g. the tiered engine), so the
        default cluster is unchanged.
        """
        now = self.clock.now
        if self.storage is not None:
            self.storage.maintain(now)
            return
        for name, shard in self.shards.items():
            if self._is_down(name):
                continue
            shard.maintain_storage(now)

    # -- reads and scatter-gather queries -----------------------------------

    def read(self, key: str, allow_stale: bool = True):
        """Point read, routed to the owning shard; ``None`` for a key no
        record holds.

        On a storage tier, while the owner is a crashed compute node, the
        tier answers (:meth:`_read_tier`).  With replica failover, while
        the owner is crashed (and not yet failed over), the read is
        answered from its replicated op log — stale by at most the
        replication lag, but available.  While the owner is a freshly
        promoted replica (recovering), the read additionally read-repairs:
        a value that disagrees with the replicated log is overwritten in
        place, so hot keys reconverge ahead of the anti-entropy sweep.
        """
        owner = self.router.owner_of(key)
        if owner in self._down_compute:
            try:
                return self._read_tier(lambda engine: engine.get(key))
            except KeyNotFoundError:
                return None
        if self.failover is not None:
            if self.failover.is_down(owner):
                self.metrics.counter("cluster.failover.replica_reads").inc()
                return self.failover.replica_value(owner, key)
            if self.failover.state(owner) == RECOVERING:
                return self._read_repair(owner, key, allow_stale)
        return self.shards[owner].read(key, allow_stale=allow_stale)

    def _read_tier(self, read: Callable[[StorageEngine], object]):
        """THE down-owner read: ``read(engine)`` straight from the shared
        tier, while a key's owner is a crashed compute node.

        State lives in the tier, so any live compute node's mount can
        answer, under that node's retry policy.  The read touches no
        shard's caches: a copy hydrated into another shard's MVCC cache
        or buffer pool would go stale there once the owner is back.
        Counted in ``cluster.disagg.rerouted_reads``."""
        for name in self.router.shards:
            if name not in self._down_compute:
                mount = self.shards[name]
                break
        else:
            raise ConfigurationError("every compute node is down")
        self.metrics.counter("cluster.disagg.rerouted_reads").inc()
        return mount._with_retry(lambda: read(mount.engine))

    def _read_repair(self, owner: str, key: str, allow_stale: bool):
        expected = self.failover.replica_value(owner, key)
        value = self.shards[owner].read(key, allow_stale=allow_stale)
        if expected is not None and value != expected:
            self.shards[owner].import_entity(key, expected)
            self.metrics.counter("cluster.failover.read_repairs").inc()
            return expected
        return value

    def write_record(self, record: DataRecord) -> None:
        """Unbatched write-through (catalog audits, tests)."""
        owner = self.router.owner_of(record.key)
        if self._is_down(owner):
            # The owner is crashed: defer like batched ingest does rather
            # than write into dead state; the flush after promotion lands it.
            self._pending.setdefault(owner, deque()).append(record)
            self.metrics.counter("cluster.failover.deferred_writes").inc()
            return
        if self._pending.get(owner):
            # Arrival order: what the owner has queued is older, so it
            # drains first and cannot overwrite this write at the next flush.
            self.metrics.counter("cluster.ingested_records").inc(
                self._flush_shard(owner, None)
            )
        self._emit_stored(owner, self.shards[owner].write_unit(record))

    def query(self, request: QueryRequest) -> GatherResult:
        """Scatter one query-plane request across the ring and merge.

        The modality (from the plane registry) plans/rewrites once; the
        cluster contributes exactly one thing — the fault-aware scatter
        in :meth:`_scatter` — and the modality folds the per-shard
        partials with its order-deterministic merge.  New modalities
        (e.g. :mod:`repro.semantic`) ride this path without any cluster
        edits.
        """
        modality, plan = self.query_executor.resolve(request)
        return self.run_plan(modality, plan)

    def run_plan(self, modality: QueryModality, plan: QueryPlan) -> GatherResult:
        """Dispatch an already-planned query (the geo layer reuses this
        to fan the same plan out across regions without re-planning)."""
        partials, failed = self._scatter(
            lambda name, shard: self._owned_slice(
                name, modality.execute(shard, plan), key_of=modality.item_key
            )
        )
        return GatherResult(
            items=modality.merge(partials, plan), failed_shards=failed
        )

    def gather(self, fn) -> GatherResult:
        """Scatter an ad-hoc ``fn(shard)`` to every shard (escape hatch
        for cross-shard reads that are not a registered modality); the
        per-shard results are concatenated in ring order."""
        partials, failed = self._scatter(lambda name, shard: fn(shard))
        return GatherResult(
            items=[item for partial in partials for item in partial],
            failed_shards=failed,
        )

    def _scatter(self, fn) -> tuple[list[list], tuple[str, ...]]:
        """THE scatter core: every fan-out in the cluster runs through here.

        Visits shards in ring order under per-shard deadlines.  A shard
        that is down, raises an injected crash (site ``cluster.query``),
        exceeds its deadline — injected delays advance the simulated
        clock — or whose storage RPCs stay faulted past the retry budget
        (disaggregated mode, site ``storage.rpc``) is skipped and
        reported in the failed tuple; the result is then *partial*, the
        availability-over-completeness stance the paper takes for
        interactive queries.  Partiality is observable exactly once per
        fan-out via the ``cluster.gather.partial`` counter, and
        ``failed_shards`` names exactly which shards were unreachable.

        On a storage tier the fan-out runs inside the tier's read scope
        (:meth:`StorageTier.read_scope`): each range is read from the
        storage nodes once, by the first shard that asks, and every other
        shard slices its owned rows out of the same read.
        """
        partials: list[list] = []
        failed: list[str] = []
        scope = (
            self.storage.read_scope() if self.storage is not None
            else nullcontext()
        )
        with self.tracer.span("cluster.gather", shards=len(self.shards)), scope:
            for name in self.router.shards:
                if self._is_down(name):
                    self.metrics.counter("cluster.query.shard_down").inc()
                    failed.append(name)
                    continue
                guard = self.query_deadline.guard(self.clock, label=name)
                if self.faults is not None:
                    decision = self.faults.decide(
                        "cluster.query", target=name, kinds=("crash", "delay")
                    )
                    if decision.kind == "crash":
                        self.metrics.counter("cluster.query.shard_failed").inc()
                        failed.append(name)
                        continue
                    if decision.kind == "delay":
                        self.clock.advance(decision.delay_s)
                if guard.expired:
                    self.metrics.counter("cluster.query.deadline_missed").inc()
                    failed.append(name)
                    continue
                try:
                    partials.append(list(fn(name, self.shards[name])))
                except FaultInjectedError:
                    # Remote-engine RPCs that stayed faulted past the
                    # shard's retry budget: partial result, not an error.
                    self.metrics.counter("cluster.query.shard_failed").inc()
                    failed.append(name)
        self.metrics.histogram("cluster.query.fanout_results").observe(
            sum(len(partial) for partial in partials)
        )
        if failed:
            # Partial results are legitimate (availability over
            # completeness) but must be observable: dashboards alert on
            # this counter.
            self.metrics.counter("cluster.gather.partial").inc()
        return partials, tuple(failed)

    def _owned_slice(self, name: str, items: list, key_of=None) -> list:
        """Restrict shard output to keys ``name`` owns on the compute ring.

        On local engines each shard physically holds only its own keys and
        this is the identity; on a shared storage tier every compute node
        sees the whole keyspace, so scatter-gather must partition results
        by ring ownership to keep exactly-one semantics.  ``key_of`` maps
        one result item to its routing key (the modality's ``item_key``),
        keeping this filter modality-agnostic.
        """
        if self.storage is None:
            return items
        if key_of is None:
            def key_of(item):
                return item[0]
        return [
            item for item in items
            if self.router.owner_of(key_of(item)) == name
        ]

    def scan_prefix(self, prefix: str) -> GatherResult:
        """Range query: every (key, value) with ``key`` under ``prefix``."""
        return self.query(prefix_query(prefix))

    def query_spatial(self, region: BBox) -> GatherResult:
        """Entities whose payload position (``x``/``y``) lies in ``region``."""
        return self.query(spatial_query(region))

    def register_continuous(self, query_id: str, prefix: str) -> None:
        """Register a standing prefix query, re-evaluated every tick."""
        self.register_continuous_query(query_id, prefix_query(prefix))

    def register_continuous_query(
        self, query_id: str, request: QueryRequest
    ) -> None:
        """Register a standing query of *any* modality, refreshed per tick."""
        self._continuous.register(query_id, request)

    def continuous_results(self, query_id: str) -> GatherResult | None:
        return self._continuous.results(query_id)

    # -- key-routed state surface --------------------------------------------
    #
    # The platform's migration surface, routed by key and logged: what
    # :func:`repro.replication.apply` lands a post-state through, so a
    # region's replica copies and a re-homed key reach the owner's failover
    # log like any other write.

    def import_entity(self, key: str, value: object) -> None:
        """Install stored entity ``value`` under ``key`` on its owner."""
        owner = self.router.owner_of(key)
        self.shards[owner].import_entity(key, value)
        self._emit(owner, entity_op, key, value)

    def drop_entity(self, key: str) -> None:
        owner = self.router.owner_of(key)
        self.shards[owner].drop_entity(key)
        self._emit(owner, drop_entity_op, key)

    def import_product(self, key: str, value: dict) -> None:
        """Install product record ``value`` on ``key``'s owner — a product
        write the owner's log never saw is undone by the next promotion."""
        owner = self.router.owner_of(key)
        self.shards[owner].import_product(key, value)
        self._emit(owner, product_op, key, value)

    def drop_product(self, key: str) -> None:
        owner = self.router.owner_of(key)
        self.shards[owner].drop_product(key)
        self._emit(owner, drop_product_op, key)

    def committed_product(self, key: str) -> dict | None:
        """Committed product state from the owner's MVCC cache, falling
        back to storage hydration (stateless compute after a remap).
        While the owner is down it comes from where :meth:`read` and
        :meth:`get_stock` take it: the tier itself, or with replica
        failover the replicated op log — never the crashed shard."""
        owner = self.router.owner_of(key)
        if owner in self._down_compute:
            return self._read_tier(lambda engine: engine.get_product(key))
        if self.failover is not None and self.failover.is_down(owner):
            self.metrics.counter("cluster.failover.replica_reads").inc()
            return self.failover.replica_product(owner, key)
        return self.shards[owner].committed_product(key)

    # -- marketplace --------------------------------------------------------

    def load_catalog(self, records: list[DataRecord]) -> None:
        for record in records:
            self.import_product(record.key, record.payload)

    def process_purchases(
        self, requests: list[PurchaseRequest]
    ) -> list[PurchaseOutcome]:
        """Route each purchase to the shard owning its product.

        The global stream is sorted with the exact key a single node uses;
        each shard then processes the order-preserved subsequence, so every
        per-product decision (who gets the last unit) is identical to the
        single-node run — asserted by experiment E24.
        """
        ordered = sorted(
            requests, key=lambda r: purchase_sort_key(r, PHYSICAL_PRIORITY)
        )
        # Salt-bucket routing: each request maps to the request that
        # actually executes (identity unless its product is salted).
        routed = ordered
        if self.router.salted_keys():
            reserved: dict[str, int] = {}
            routed = [
                self._route_purchase(request, reserved)
                for request in ordered
            ]

        def run(name: str, batch: list[PurchaseRequest]) -> list[PurchaseOutcome]:
            if self._is_down(name):
                # Fail fast, never queue: a purchase against a crashed
                # shard is rejected (and retriable by the shopper) —
                # queuing it would risk double-execution at promotion.
                self.metrics.counter(
                    "cluster.failover.rejected_purchases"
                ).inc(len(batch))
                return [
                    PurchaseOutcome(request, False, "shard down")
                    for request in batch
                ]
            # presorted: each shard batch is an order-preserved
            # subsequence of the globally sorted stream.
            return self.shards[name].process_purchases(batch, presorted=True)

        with self.tracer.span("cluster.process_purchases", n=len(requests)):
            merged = route_by_owner(
                self.router.owner_of, routed, attrgetter("product_id"), run
            )
        if routed is not ordered:
            # Outcomes of salted requests are re-labelled with the
            # shopper's original request — callers never see bucket keys.
            merged = [
                outcome if request is original
                else PurchaseOutcome(original, outcome.success, outcome.reason)
                for original, request, outcome in zip(ordered, routed, merged)
            ]
        self.metrics.counter("cluster.purchases_routed").inc(len(requests))
        self._refresh_purchase_gauges()
        return merged

    def process_basket(self, requests: list[PurchaseRequest]) -> BasketOutcome:
        """All-or-nothing basket; cross-shard baskets go through 2PC.

        A basket touching a salted product merges it back first: 2PC
        prepares exact per-shard quantities, and "enough stock across
        buckets but not in any one" must not abort a basket the unsalted
        cluster would commit.  Admission control never applies here —
        baskets are top-priority traffic and are never shed.
        """
        if not requests:
            raise ConfigurationError("empty basket")
        if self.router.salted_keys():
            for pid in sorted({r.product_id for r in requests}):
                if self.router.is_salted(pid):
                    self.unsalt_product(pid)
                    self.metrics.counter(
                        "cluster.elasticity.basket_unsalts"
                    ).inc()
        quantities: dict[str, dict[str, int]] = {}
        for request in requests:
            owner = self.router.owner_of(request.product_id)
            shard_quantities = quantities.setdefault(owner, {})
            shard_quantities[request.product_id] = (
                shard_quantities.get(request.product_id, 0) + request.quantity
            )
        shards = tuple(sorted(quantities))
        for name in shards:
            if self._is_down(name):
                self.metrics.counter("cluster.failover.rejected_baskets").inc()
                return BasketOutcome(False, f"shard down: {name}", shards)
        if len(shards) == 1:
            # One shard: one MVCC transaction, no network rounds.
            shard = self.shards[shards[0]]
            txn, why, product_id = shard.stage_basket(quantities[shards[0]])
            if txn is not None:
                shard.commit_basket(txn)
            elif why == "sold out":
                why = f"sold out: {product_id}"
            else:
                why = f"no such product {product_id!r}"
            self.metrics.counter("cluster.basket.local").inc()
            return BasketOutcome(txn is not None, why, shards)
        outcome = self.coordinator.execute(quantities)
        self.metrics.counter("cluster.basket.distributed").inc()
        return BasketOutcome(outcome.committed, outcome.reason, shards, outcome)

    def get_stock(self, product_id: str) -> int:
        """Stock of ``product_id`` — merge-on-read for salted products:
        the visible stock is the sum over all salt buckets."""
        buckets = self.router.buckets_of(product_id)
        if len(buckets) > 1:
            return sum(self._bucket_stock(bucket) for bucket in buckets)
        return self._bucket_stock(product_id)

    def _bucket_stock(self, product_id: str) -> int:
        owner = self.router.owner_of(product_id)
        if owner in self._down_compute:
            value = self.committed_product(product_id)
            if value is None:
                raise KeyNotFoundError(product_id)
            return int(value.get("stock", 0))
        if self._is_down(owner):
            stock = self.failover.replica_stock(owner, product_id)
            if stock is None:
                raise ConfigurationError(
                    f"product {product_id!r} unknown to replicas of {owner!r}"
                )
            self.metrics.counter("cluster.failover.replica_reads").inc()
            return stock
        return self.shards[owner].get_stock(product_id)

    # -- hot-key salting ----------------------------------------------------
    #
    # A flash sale concentrates the purchase stream on a few products —
    # no matter how many shards join, one shard owns the hot key and
    # melts (the hot-shard problem).  Salting splits a hot product's
    # stock across ``n_buckets`` bucket records whose keys hash to their
    # own ring positions: contention spreads across shards, the visible
    # stock is the merge-on-read sum, and total stock is conserved
    # exactly through split and merge (property-tested).

    def salt_product(self, product_id: str, n_buckets: int) -> list[str]:
        """Split ``product_id``'s stock across ``n_buckets`` salt buckets.

        Bucket 0 keeps the base key (and the first share of stock);
        buckets 1..n-1 are new product records on their own ring
        positions.  Stock splits as evenly as integers allow and sums
        back exactly.  Returns the bucket key list.
        """
        stock = self.get_stock(product_id)  # raises if unknown
        value = self.committed_product(product_id)
        if value is None:
            raise KeyNotFoundError(product_id)
        buckets = self.router.salt_key(product_id, n_buckets)
        share, extra = divmod(stock, len(buckets))
        with self.tracer.span(
            "cluster.salt_product", product=product_id, buckets=n_buckets
        ):
            for i, bucket in enumerate(buckets):
                bucket_value = dict(value)
                bucket_value["stock"] = share + (1 if i < extra else 0)
                self.import_product(bucket, bucket_value)
        self.metrics.counter("cluster.elasticity.salt_splits").inc()
        return buckets

    def unsalt_product(self, product_id: str) -> int:
        """Merge a salted product back into one record; returns the
        merged stock (exactly the sum of the bucket stocks)."""
        buckets = self.router.buckets_of(product_id)
        if len(buckets) == 1:
            raise ConfigurationError(f"product {product_id!r} is not salted")
        total = 0
        merged: dict | None = None
        with self.tracer.span("cluster.unsalt_product", product=product_id):
            for bucket in buckets:
                value = self.committed_product(bucket)
                if value is not None:
                    total += int(value.get("stock", 0))
                    if merged is None:
                        merged = dict(value)
            for bucket in buckets[1:]:
                self.drop_product(bucket)
            self.router.unsalt_key(product_id)
            if merged is None:
                merged = {}
            merged["stock"] = total
            self.import_product(product_id, merged)
        self.metrics.counter("cluster.elasticity.salt_merges").inc()
        return total

    def _route_purchase(
        self, request: PurchaseRequest, reserved: dict[str, int]
    ) -> PurchaseRequest:
        """Map a purchase onto its salt bucket (identity when unsalted).

        The shopper's stable hash picks a start bucket — the flash-sale
        crowd spreads across buckets, and a given shopper always starts
        at the same one — then rotation skips exhausted buckets so stock
        stranded in a cold bucket is still sellable.  ``reserved`` tracks
        quantities already routed in this batch on top of committed
        stock, so a batch never oversubscribes one bucket while another
        still has units: as long as *total* stock covers the request,
        some bucket accepts it (the salting property suite holds this
        exact-utilisation bar for unit purchases).
        """
        pid = request.product_id
        if not self.router.is_salted(pid):
            return request
        buckets = self.router.buckets_of(pid)
        start = stable_hash(request.shopper_id) % len(buckets)
        rotation = buckets[start:] + buckets[:start]
        chosen = rotation[0]
        for bucket in rotation:
            try:
                available = (
                    self._bucket_stock(bucket) - reserved.get(bucket, 0)
                )
            except (KeyNotFoundError, ConfigurationError):
                continue
            if available >= request.quantity:
                chosen = bucket
                reserved[chosen] = (
                    reserved.get(chosen, 0) + request.quantity
                )
                break
        self.metrics.counter("cluster.elasticity.salted_routes").inc()
        return replace(request, product_id=chosen)

    # -- failover -----------------------------------------------------------

    def kill_shard(self, name: str, torn_tail_bytes: int = 0) -> None:
        """Crash a shard abruptly (chaos entry point).

        With replica failover on, detection, promotion, and recovery play
        out over subsequent :meth:`tick` calls.  In disaggregated mode the
        compute node simply goes dark — it held no state, so the next
        :meth:`tick` recovers it by re-mounting the storage tier (zero
        data movement; ``torn_tail_bytes`` is meaningless and ignored
        because there is no compute-side WAL to tear).  Either way its
        2PC participant goes silent, so an in-flight basket aborts on the
        prepare round instead of blocking.
        """
        if self.failover is None and self.storage is None:
            raise ConfigurationError(
                "kill_shard requires n_replicas >= 2 or a storage tier"
            )
        if name not in self.shards:
            raise ConfigurationError(f"unknown shard {name!r}")
        if self.storage is not None:
            self._down_compute.add(name)
            self.metrics.counter("cluster.disagg.kills").inc()
        else:
            self.failover.kill(name, torn_tail_bytes=torn_tail_bytes)
        participant = self.coordinator.participants.get(name)
        if participant is not None:
            participant.crashed = True
        self._refresh_shard_gauges()

    # -- rebalancing --------------------------------------------------------

    def add_shard(self, name: str) -> int:
        """Join a fresh shard and migrate the keys it now owns.

        Returns the number of keys (entities + products) that moved — in
        disaggregated mode always 0: joining is a pure ring remap, the
        new compute node reads everything it now owns from the shared
        tier on demand.
        """
        if name in self.shards:
            raise ConfigurationError(f"duplicate shard {name!r}")
        self.flush()  # buffered records route under the old ring otherwise
        shard = self._make_shard(name)
        self.router.add_shard(name)
        self.shards[name] = shard
        self.coordinator.attach_shard(name, shard)
        return self._ownership_changed(self.shards)

    def remove_shard(self, name: str) -> int:
        """Drain and drop a shard; its keys migrate to their new owners.

        In disaggregated mode nothing drains — the departing compute node
        held only caches — so the return value is always 0.
        """
        if name not in self.shards:
            raise ConfigurationError(f"unknown shard {name!r}")
        if len(self.shards) == 1:
            raise ConfigurationError("cannot remove the last shard")
        if self.failover is not None and self.failover.state(name) != "up":
            raise ConfigurationError(
                f"shard {name!r} is {self.failover.state(name)}; "
                "wait for failover to finish before removing it"
            )
        if name in self._down_compute:
            raise ConfigurationError(
                f"shard {name!r} is down; let the next tick re-mount it "
                "before removing it"
            )
        self.flush()
        self.router.remove_shard(name)
        departing = self.shards.pop(name)
        self.coordinator.detach_shard(name)
        return self._ownership_changed({name: departing})

    def _ownership_changed(self, sources: dict[str, MetaversePlatform]) -> int:
        """THE ownership-change step: every membership change runs it once
        the ring has moved, and it is the only code that follows key
        ownership to a new shard.  Returns the keys that moved.

        First, every queued write unit is re-keyed to its key's owner on
        the new ring (:meth:`_requeue_pending`), so no shard later writes
        a key it no longer owns.  Then the state follows:

        * on a storage tier zero keys move.  Deferred product
          write-throughs (parked on storage faults) are force-flushed
          *before* every compute node drops its caches: the new owner
          hydrates from the tier, and a stale tier record would resurrect
          sold stock.  A write still failing is surfaced as a counter — the
          oversell hazard is then real and observable, not silent;
        * on local engines the keys of ``sources`` ({shard name:
          platform}) migrate (:meth:`_rebalance`), and replica failover
          re-seeds its logs from the new placement.
        """
        self._requeue_pending()
        moved = 0
        if self.storage is not None:
            for name, shard in self.shards.items():
                remaining = shard.flush_dirty_products()
                if remaining:
                    self.metrics.counter("cluster.disagg.dirty_remaps").inc()
                    self.tracer.log(
                        "warn",
                        "remap with unflushed product write-throughs",
                        shard=name,
                        dirty=remaining,
                    )
                shard.reset_caches()
            self.metrics.counter("cluster.disagg.remaps").inc()
        else:
            moved = self._rebalance(sources)
            if self.failover is not None:
                self.failover.resync()
        self.metrics.counter("cluster.rebalance.moved_keys").inc(moved)
        self._refresh_shard_gauges()
        return moved

    def _requeue_pending(self) -> None:
        """Queue every pending write unit under its key's owner on the
        current ring, batches split per owner.  A key's units all sit in
        one queue (its owner's when they were queued), so each key keeps
        its arrival order.  A unit whose new owner is down stays queued
        under that owner.  Asks the placement, not the counting router: a
        re-key is not a routing decision."""
        if not any(self._pending.values()):
            return
        owner_of = partial(Placement.owner_of, self.router)
        requeued: dict[str, deque[DataRecord | RecordBatch]] = {}
        for queue in self._pending.values():
            for unit in queue:
                if isinstance(unit, DataRecord):
                    requeued.setdefault(owner_of(unit.key), deque()).append(unit)
                    continue
                groups = group_by_owner(
                    owner_of, range(len(unit)), unit.keys.__getitem__
                )
                for name, rows in groups.items():
                    requeued.setdefault(name, deque()).append(
                        unit if len(rows) == len(unit) else unit.take(rows)
                    )
        self._pending = requeued

    def _rebalance(self, sources: dict[str, MetaversePlatform]) -> int:
        """Export every entity and product a platform in ``sources``
        ({shard name: platform}) holds to its ring owner; returns how many
        moved.  A key its source still owns stays put.  A source that is
        still a member drops what it exported; a departing one is
        discarded whole, so its copies are not deleted one by one."""
        moved = 0
        departing = sources.keys() - self.shards.keys()
        with self.tracer.span("cluster.rebalance", draining=bool(departing)):
            for name, shard in sources.items():
                staying = name not in departing
                for key in shard.entity_keys():
                    target = self.router.owner_of(key)
                    if target != name:
                        self.shards[target].import_entity(
                            key, shard.export_entity(key)
                        )
                        if staying:
                            shard.drop_entity(key)
                        moved += 1
                for product_id, value in shard.catalog_snapshot().items():
                    target = self.router.owner_of(product_id)
                    if target != name:
                        self.shards[target].import_product(product_id, value)
                        if staying:
                            shard.drop_product(product_id)
                        moved += 1
        return moved

    # -- introspection ------------------------------------------------------

    def entity_locations(self) -> dict[str, list[str]]:
        """Which shard(s) serve each entity key — exactly one, invariantly.

        On local engines this is physical placement; on a shared storage
        tier it is ring ownership (every entity lives in the tier and is
        *served* by exactly one compute node).
        """
        if self.storage is not None:
            return {
                key: [self.router.owner_of(key)] for key in self.storage.keys()
            }
        locations: dict[str, list[str]] = {}
        for name, shard in self.shards.items():
            for key in shard.entity_keys():
                locations.setdefault(key, []).append(name)
        return locations

    def compute_makespan(self) -> float:
        """Simulated completion time: shards run in parallel, so the
        cluster finishes when its busiest shard does."""
        return max(shard.compute_makespan() for shard in self.shards.values())

    def compute_throughput(self, n_requests: int) -> float:
        makespan = self.compute_makespan()
        return n_requests / makespan if makespan > 0 else float("inf")

    def _collect_entity_gauges(self) -> None:
        """Metrics collector (run when the registry is read): entities
        per shard, and on a storage tier entities and ops per node.

        On a tier it is one ``keys()`` per storage node, feeding both the
        node's gauge and the per-owner counts — a key lives on exactly
        one node, so nothing is merged or sorted.  Ownership is asked of
        the placement, not the counting router: reading metrics moves no
        counter."""
        gauge = self.metrics.gauge
        if self.storage is None:
            for name, shard in self.shards.items():
                gauge(f"cluster.shard.{name}.entities").set(
                    float(len(shard.entity_keys()))
                )
            return
        owned = dict.fromkeys(self.shards, 0)
        owner_of = partial(Placement.owner_of, self.router)
        for name, node in self.storage.nodes.items():
            keys = node.engine.keys()
            gauge(f"storage.node.{name}.entities").set(float(len(keys)))
            gauge(f"storage.node.{name}.ops_total").set(float(node.ops))
            for key in keys:
                owned[owner_of(key)] += 1
        for name, count in owned.items():
            gauge(f"cluster.shard.{name}.entities").set(float(count))

    def _refresh_shard_gauges(self) -> None:
        """Per-shard resilience state, O(shards): the circuit-breaker
        position (0/1/2 = closed/half-open/open) and the failure
        detector's view (suspicion level + liveness)."""
        for name, shard in self.shards.items():
            breaker = shard.breaker
            self.metrics.gauge(f"cluster.shard.{name}.breaker_state").set(
                breaker.STATE_CODES[breaker.state] if breaker is not None
                else 0.0
            )
            if self.failover is not None:
                self.metrics.gauge(f"cluster.shard.{name}.alive").set(
                    0.0 if self.failover.is_down(name) else 1.0
                )
                self.metrics.gauge(f"cluster.shard.{name}.phi").set(
                    self.failover.phi(name)
                )
            elif self.storage is not None:
                self.metrics.gauge(f"cluster.shard.{name}.alive").set(
                    0.0 if name in self._down_compute else 1.0
                )

    def _refresh_purchase_gauges(self) -> None:
        for name, shard in self.shards.items():
            self.metrics.gauge(f"cluster.shard.{name}.purchases").set(
                float(sum(e.processed for e in shard.executors))
            )
            self.metrics.gauge(f"cluster.shard.{name}.busy_s").set(
                shard.compute_makespan()
            )

"""The device–cloud–storage platform facade (paper Fig. 7).

:class:`MetaversePlatform` wires the three tiers of the disaggregated
architecture:

* **device** — :class:`~repro.platform.gateway.DeviceGateway` instances
  doing optional on-device aggregation;
* **cloud** — transaction executors (MVCC, partitioned by product hash),
  the pub/sub broker, and a buffer pool in front of storage;
* **storage** — a pluggable :class:`~repro.storage.engine.StorageEngine`:
  in-process by default (KV store + object store, exactly the pre-split
  tier), or a :class:`~repro.storage.engine.RemoteStorageEngine` mounted
  on a shared :class:`~repro.storage.engine.StorageTier`, which makes the
  compute node stateless (Sec. IV-E2's disaggregated deployment).

It exposes the operations the Section-II scenarios need: sensor ingestion,
flash-sale purchasing with space-aware priority, pub/sub subscriptions,
and point reads through the buffer pool.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING

from ..api.dataplane import ContinuousQueries, ContinuousQuery, GatherResult
from ..core.clock import SimulationClock
from ..core.columns import SPACE_NAMES, RecordBatch
from ..core.errors import (
    ConfigurationError,
    FaultInjectedError,
    KeyNotFoundError,
    WriteConflictError,
)
from ..core.metrics import MetricsRegistry
from ..core.records import DataKind, DataRecord, PurchaseRequest, Space
from ..derived import DerivedState, PositionIndex, PrefixView, payload_position, stored_payload
from ..net.overlay import stable_hash
from ..net.pubsub import Broker, Publication, Subscription
from ..obs.tracing import NoopTracer, Tracer
from ..platform.gateway import DeviceGateway
from ..query.plane import (
    PrefixScanModality,
    QueryExecutor,
    QueryModality,
    QueryPlan,
    QueryRequest,
    prefix_query,
    spatial_query,
)
from ..resilience.faults import FaultInjector
from ..resilience.policies import CircuitBreaker, RetryPolicy
from ..semantic import SemanticIndex
from ..storage.bufferpool import BufferPool, PageMeta
from ..storage.engine import LocalStorageEngine, StorageEngine
from ..txn.mvcc import Transaction, TransactionManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..spatial.geometry import BBox


@dataclass
class PurchaseOutcome:
    request: PurchaseRequest
    success: bool
    reason: str = ""


@dataclass
class ExecutorStats:
    """Per-executor accounting for throughput/makespan analysis."""

    processed: int = 0
    busy_time: float = 0.0


def stored_record_value(record: DataRecord) -> dict:
    """The wrapper dict a :class:`DataRecord` is stored under in the KV
    tier.  Shared with the geo deployment, which must log exactly what
    :meth:`MetaversePlatform.write_record` persists so a remote region
    replays identical state.  The space's name is read as the member's
    plain ``_value_`` attribute: ``.value`` is a Python property call
    (134 ns on CPython 3.11), and so is the ``Enum.__hash__`` a table
    keyed by the member would pay (104 ns), against 12 ns."""
    return {
        "payload": record.payload,
        "space": record.space._value_,
        "timestamp": record.timestamp,
    }


def order_purchases(requests: list[PurchaseRequest], physical_priority: bool) -> list:
    """Space-aware processing order: (priority, arrival time), ties in
    input order.  With ``physical_priority`` on, physical-space shoppers go
    first, so they win the last unit — the paper's example policy.  A
    stable timestamp sort, then a stable partition by space: no Python key
    call per request.  Shared with :class:`~repro.cluster.cluster.PlatformCluster`
    and geo, which must order the global stream identically before
    splitting it, so that every shape decides every purchase the same way.
    """
    ordered = sorted(requests, key=attrgetter("timestamp"))
    if not physical_priority:
        return ordered
    physical = Space.PHYSICAL  # bound once: a lookup on the enum costs ~0.2 us
    return [r for r in ordered if r.space is physical] + [
        r for r in ordered if r.space is not physical
    ]


#: Point-read pages a platform (one cluster shard) caches: every committed
#: artifact and macrobench's ``pool.*`` counts were measured at 256.  The
#: stale-read fallback remembers four times as many last-served values.
BUFFER_POOL_PAGES = 256
STALE_CAPACITY = 4 * BUFFER_POOL_PAGES

#: Simulated executor time one purchase attempt costs: 0.1 ms, so an
#: executor's makespan reads as 10,000 attempts per second.
TXN_COST_S = 1e-4

#: Times a purchase call whose commit lost a write conflict is decided
#: again before its sales fail with "conflict retries exhausted".
PURCHASE_RETRIES = 2


def _last_sale(indices: list[int], reasons: list[str]) -> int:
    """The request index of a product's last sale in a purchase call:
    ``reasons[j]`` is the call's decision on request ``indices[j]``."""
    return indices[len(reasons) - 1 - reasons[::-1].index("")]


class MetaversePlatform:
    """The end-to-end platform facade."""

    def __init__(
        self,
        n_executors: int = 4,
        physical_priority: bool = True,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        faults: FaultInjector | None = None,
        engine: StorageEngine | None = None,
        semantic_index: bool = False,
    ) -> None:
        if n_executors < 1:
            raise ConfigurationError("need at least one executor")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NoopTracer()
        # A purchase call's outcome counters, a tick's standing-query
        # counter and the ingest counters, bound once.
        self._decided = {
            "": self.metrics.counter("platform.purchases"),
            "sold out": self.metrics.counter("platform.soldout"),
        }
        self._evaluations = self.metrics.counter(
            "platform.continuous.evaluations"
        )
        self._buffered = self.metrics.counter("platform.buffered_records")
        self._ingested = self.metrics.counter("platform.ingested_records")
        # Resilience.  A platform built with a fault injector survives it:
        # storage and broker calls retry with backoff, a breaker sheds
        # publishes while the broker is failing, and reads fall back to
        # the last value served (see read()).  Both policies share the
        # injector's simulated clock so recovery timing is deterministic.
        self.faults = faults
        self.retry: RetryPolicy | None = None
        self.breaker: CircuitBreaker | None = None
        if faults is not None:
            # Adopt an injector that kept its defaults, so fault counters
            # and fault spans land in the platform's registry and trace.
            if not faults.metrics_injected:
                faults.metrics = self.metrics
            if not faults.tracer_injected:
                faults.tracer = self.tracer
            self.retry = RetryPolicy(
                max_attempts=4, base_delay_s=0.002, seed=faults.plan.seed,
                clock=faults.clock, metrics=self.metrics, tracer=self.tracer,
            )
            self.breaker = CircuitBreaker(
                failure_threshold=8, cooldown_s=0.25, clock=faults.clock,
                name="broker", metrics=self.metrics, tracer=self.tracer,
            )
        # Storage tier: an injected engine, or the in-process default
        # (byte-identical to the pre-split platform that newed up its own
        # stores).  ``kv`` stays addressable for local engines; a remote
        # engine has no in-process store to expose.
        own_engine = engine is None
        if own_engine:
            engine = LocalStorageEngine(
                metrics=self.metrics, tracer=self.tracer, faults=faults
            )
        self.engine = engine
        self.kv = engine.kv if isinstance(engine, LocalStorageEngine) else None
        # Cloud tier.  The transaction manager shares the platform registry
        # and tracer (it used to grow a private registry nobody could read).
        self.txn = TransactionManager(metrics=self.metrics, tracer=self.tracer)
        self.broker = Broker(metrics=self.metrics, tracer=self.tracer, faults=faults)
        self.n_executors = n_executors
        self.executors = [ExecutorStats() for _ in range(n_executors)]
        # product id -> executor index; n_executors never changes, so an
        # entry never goes stale (capped like Placement's owner memo).
        self._executor_memo: dict[str, int] = {}
        self.physical_priority = physical_priority
        self.pool = BufferPool(
            BUFFER_POOL_PAGES, self._load_page, metrics=self.metrics, tracer=self.tracer
        )
        self.storage_reads = 0
        # Bounded last-known-value cache backing stale-read fallback.
        self._stale: OrderedDict[str, object] = OrderedDict()
        # Device tier (gateways registered per source population).
        self.gateways: dict[str, DeviceGateway] = {}
        # Optional (product_id, post_commit_stock) hook fired after every
        # committed stock change.  The cluster failover layer sets this to
        # replicate absolute stock levels; replaying levels (not requests)
        # is what keeps promotion exactly-once.
        self.purchase_log = None
        # Product records whose engine write-through failed past the retry
        # budget; re-flushed before the next persist so the storage tier
        # converges once the fault clears.
        self._dirty_products: OrderedDict[str, dict | None] = OrderedDict()
        # DataPlane surface: tick-driven buffered ingest and continuous
        # queries, mirroring the cluster facade so workloads written
        # against the protocol run unchanged on either shape.
        self.clock = faults.clock if faults is not None else SimulationClock()
        # One arrival-ordered queue of write units: per-record and
        # columnar ingest interleave exactly as the caller issued them.
        # A unit is a run of records or a columnar batch; each record
        # here is a run of one (see the DataPlane section).
        self._pending: deque[list[DataRecord] | RecordBatch] = deque()
        self._continuous = ContinuousQueries()
        # Optional ``owns(key) -> bool`` hook: which of a shared engine's
        # entities this node serves.  The cluster sets it on every shard
        # mounted on a storage tier (ring ownership); unset, the node
        # serves everything its engine holds.
        self.owns = None
        # Derived state, every piece on the one DerivedState lifecycle:
        # the position index, the opt-in semantic index (an HNSW graph
        # over describable entities; off by default, so numeric hot paths
        # never pay the embedding cost) and one PrefixView per standing
        # prefix query answered here (keyed by query id).  The indexes
        # start empty, as a built engine is; on an injected engine, which
        # may hold entities, they start unknown, and a first reader
        # hydrates each from one full scan of the keys ``owns`` accepts.
        # That is complete on a shared tier: the cluster routes each key's
        # writes to its owner and resets every shard's caches when
        # ownership moves (a re-mount is a fresh platform).  Another
        # mount's write is seen once reset_caches() re-hydrates; until
        # then a position can be stale, never wrong (spatial_items
        # re-checks what it fetched).  The exact ones are kept only by a
        # sole writer: elsewhere a view is never built and the semantic
        # index re-hydrates on every search.
        self._positions = PositionIndex()
        self.semantic = SemanticIndex() if semantic_index else None
        self._searches = self.metrics.counter("platform.semantic.searches")
        self._views: dict[str, PrefixView] = {}
        self._derived: list[DerivedState] = [self._positions]
        if self.semantic is not None:
            self._derived.append(self.semantic)
        if not own_engine:
            for state in self._derived:
                state.reset()
        self._own_engine = own_engine
        # Query-plane executor: this platform is the single shard.
        self.query_executor = QueryExecutor()

    # -- storage access -----------------------------------------------------

    def _load_page(self, key) -> tuple[object, PageMeta]:
        self.storage_reads += 1
        try:
            value = self.engine.get(str(key))
        except KeyNotFoundError:
            value = None
        return value, PageMeta(space=Space.PHYSICAL, kind=DataKind.STRUCTURED)

    def _with_retry(self, fn):
        if self.retry is None:
            return fn()
        return self.retry.call(fn)

    def read(self, key: str, allow_stale: bool = True):
        """Point read through the buffer pool.

        Graceful degradation: when the storage tier keeps failing past the
        retry budget (injected faults), the last value this platform served
        or wrote for ``key`` is returned instead — stale but available, the
        paper's availability-over-freshness stance for hot reads.  Counted
        in ``platform.stale_reads``; pass ``allow_stale=False`` to surface
        the failure instead.
        """
        try:
            value = self._with_retry(lambda: self.pool.get(key))
        except FaultInjectedError:
            if allow_stale and key in self._stale:
                self.metrics.counter("platform.stale_reads").inc()
                self.tracer.log("warn", "stale read served", key=key)
                return self._stale[key]
            raise
        self._remember([(key, value)])
        return value

    def _remember(self, items: list) -> None:
        """Make each (key, value) of ``items``, in order, the newest
        stale-read fallback of its key, then trim the oldest past
        :data:`STALE_CAPACITY` once."""
        stale = self._stale
        move_to_end = stale.move_to_end
        for key, value in items:
            stale[key] = value
            move_to_end(key)
        while len(stale) > STALE_CAPACITY:
            stale.popitem(last=False)

    def _write_items(
        self, items: list, payloads: list, batch: RecordBatch | None = None
    ) -> list:
        """The entity write: one retried bulk engine call, then
        :meth:`_after_write`.  Returns ``items``, the stored (key, value)
        pairs; ``batch`` is the columnar batch they were built from, if
        any, which the engine encodes from.  A call that raises may have
        landed some storage nodes' groups before it failed, so it drops
        the page of every key it carried and resets every exact derived
        state first."""
        try:
            self._with_retry(lambda: self.engine.mput(items, batch=batch))
        except Exception:
            self.pool.written(items, keep=False)
            for state in self._derived:
                if state.exact:
                    state.reset()
            raise
        self._after_write(items, payloads)
        return items

    @property
    def _sole_writer(self) -> bool:
        """Whether every write of this node's keys goes through it: it
        built its engine, or a cluster mounted it (``owns`` set) on the
        tier the cluster built and routes each key's writes to its owner.
        A hand-mounted or injected engine may have other writers."""
        return self._own_engine or self.owns is not None

    def _after_write(self, items: list, payloads: list) -> None:
        """Bring every compute-side copy of the stored ``items`` in line
        with what the engine just accepted, once for the whole write:
        pages (a sole writer's cached page takes the stored value, any
        other is dropped), the stale-read fallback, and every derived
        state."""
        self.pool.written(items, keep=self._sole_writer)
        self._remember(items)
        for state in self._derived:
            state.on_write(items, payloads)

    def write_queued(
        self, unit: RecordBatch | list[DataRecord]
    ) -> tuple[list, list[str]]:
        """:meth:`write_record_batch` for a unit taken off an ingest
        queue — a run of records or a columnar batch — which must not
        wedge the queue behind it: a run whose write raises ``TypeError``
        or ``ValueError`` (a payload JSON cannot carry) is written again
        record by record, and the records that still raise are
        dead-lettered.  Returns the stored items and the rejected keys.
        Any other error — a retryable fault — propagates, and the caller
        keeps the unit queued."""
        try:
            return self.write_record_batch(unit), []
        except (TypeError, ValueError):
            if isinstance(unit, RecordBatch):
                raise  # numeric columns always encode: a bug, not poison
        stored: list = []
        rejected: list[str] = []
        for record in unit:
            try:
                stored += self.write_record(record)
            except (TypeError, ValueError):
                rejected.append(record.key)
        return stored, rejected

    def write_record(self, record: DataRecord) -> list:
        """Persist a record to the storage engine, keeping its page in
        line (:meth:`_after_write`); returns the stored (key, value) pair
        as a one-item list."""
        return self._write_items(
            [(record.key, stored_record_value(record))], [record.payload]
        )

    def write_record_batch(self, batch: RecordBatch | list[DataRecord]) -> list:
        """Persist a columnar batch or a run of records (a list): one
        bulk engine call for N records; returns the stored (key, value)
        pairs.

        Leaves byte-identical engine state, stale-cache contents, and
        pages to ``for r in batch.to_records(): write_record(r)`` —
        the stored wrapper dicts are rebuilt from the columns with exact
        scalar conversion — while paying one (coalesced) storage round
        trip and zero per-record Python object churn.
        """
        if not isinstance(batch, RecordBatch):
            return self._write_items(
                [(record.key, stored_record_value(record)) for record in batch],
                [record.payload for record in batch],
            )
        payloads = batch.payloads()
        spaces = map(SPACE_NAMES.__getitem__, batch.spaces.tolist())
        times = batch.timestamps.tolist()
        items = [
            (key, {"payload": payload, "space": space, "timestamp": ts})
            for key, payload, space, ts in zip(
                batch.keys, payloads, spaces, times
            )
        ]
        return self._write_items(items, payloads, batch)

    def _hydrated(self, state: DerivedState) -> dict:
        """``state``'s data, hydrated first if it is unknown: one scan of
        its span, keeping the keys this node serves (``owns``).  Assigned
        only once the scan returned: a scan that stays faulted past the
        retry budget raises and leaves the state unknown, so the next
        reader hydrates again."""
        if state.data is None:
            owns = self.owns
            rows = self.scan(*state.span)
            state.hydrate(
                rows if owns is None else [row for row in rows if owns(row[0])]
            )
        return state.data

    def scan(self, lo: str, hi: str) -> list[tuple[str, object]]:
        """Sorted range scan of the entity tier (retried past transient
        faults).  On a remote engine this fans out across storage nodes."""
        return self._with_retry(lambda: self.engine.scan(lo, hi))

    # -- device tier ------------------------------------------------------------

    def register_gateway(self, name: str, gateway: DeviceGateway) -> None:
        if name in self.gateways:
            raise ConfigurationError(f"duplicate gateway {name!r}")
        # Adopt gateways that kept their default no-op tracer so device-tier
        # spans nest under platform spans; an explicitly injected tracer wins.
        if not gateway.tracer_injected:
            gateway.tracer = self.tracer
        # Same adoption for the fault injector: the platform's chaos plan
        # reaches the device tier unless the gateway brought its own.
        if gateway.faults is None:
            gateway.faults = self.faults
        self.gateways[name] = gateway

    def flush_gateways(self) -> tuple[int, int]:
        """Flush every gateway into storage; return (records, uplink bytes)."""
        total_records = 0
        total_bytes = 0
        with self.tracer.span("platform.flush_gateways"):
            for gateway in self.gateways.values():
                records, uplink = gateway.flush()
                total_bytes += uplink
                for record in records:
                    self.write_record(record)
                    self.publish(
                        Publication(
                            topic=f"ingest.{record.source}",
                            payload={**record.payload, "key": record.key},
                            timestamp=record.timestamp,
                            size_bytes=record.size_bytes(),
                        )
                    )
                    total_records += 1
        self._ingested.inc(total_records)
        self.metrics.counter("platform.uplink_bytes").inc(total_bytes)
        return total_records, total_bytes

    # -- DataPlane: buffered ingest and tick --------------------------------
    #
    # The single-node half of the repro.api.DataPlane protocol: write
    # units (a run of records or a columnar batch) queue in arrival order
    # and become visible to queries at the next flush()/tick(), exactly
    # the contract the cluster facade keeps.  Each buffered record is a
    # run of one, so a flush writes it alone: one storage round trip per
    # record on a tier mount, the per-record baseline E27 measures a
    # columnar flush (one round trip per storage node) against.

    def ingest(self, record: DataRecord) -> None:
        """Buffer one observation until the next :meth:`flush`."""
        self._pending.append([record])
        self._buffered.inc()

    def ingest_many(self, records: list[DataRecord]) -> None:
        with self.tracer.span("platform.ingest", batch=len(records)):
            for record in records:
                self.ingest(record)

    def ingest_batch(self, batch: RecordBatch) -> None:
        """Buffer one columnar batch until the next :meth:`flush`."""
        self._pending.append(batch)
        self._buffered.inc(len(batch))

    @property
    def pending_count(self) -> int:
        return sum(map(len, self._pending))

    def flush(self) -> int:
        """Write everything buffered, in arrival order; return the number
        of records stored.  A unit leaves the queue only once its write
        returned, so a write that raises keeps it and everything behind
        it queued; a record no write can carry is dead-lettered
        (:meth:`write_queued`), counted in ``platform.write.rejected``."""
        total = 0
        pending = self._pending
        with self.tracer.span("platform.flush", pending=self.pending_count):
            while pending:
                stored, rejected = self.write_queued(pending[0])
                pending.popleft()
                if rejected:
                    self.metrics.counter("platform.write.rejected").inc(
                        len(rejected)
                    )
                    self.tracer.log("warn", "records rejected", keys=rejected)
                total += len(stored)
        self._ingested.inc(total)
        return total

    def tick(self, dt: float) -> dict[str, GatherResult]:
        """One simulated-clock tick: advance time, flush buffered ingest,
        refresh every registered continuous query.  Returns fresh results."""
        self.clock.advance(dt)
        self.flush()
        return self._continuous.refresh(self._answer, self._evaluations)

    def _answer(self, query: ContinuousQuery) -> GatherResult:
        """One refresh of a standing query on this single-shard plane."""
        return GatherResult(
            items=query.modality.merge([self.standing_items(query)], query.plan)
        )

    # -- DataPlane: queries --------------------------------------------------

    def query(self, request: QueryRequest) -> GatherResult:
        """Run one query-plane request on this node (single-shard executor).

        The modality plans/rewrites once, this node answers it
        (:meth:`answer`) as the only shard, and the modality merges the
        single partial — the same code path the cluster scatter-gathers,
        minus the fan-out.
        """
        return self.query_executor.run_single(self, request)

    def answer(self, modality: QueryModality, plan: QueryPlan) -> list:
        """THE per-node query path (unsorted; the modality merges): the
        plan run on this node, keeping the items whose key (the modality's
        ``item_key``) this node ``owns`` — every item on a node with no
        ``owns``.  A single node's queries, a cluster's scatter and a
        standing query's re-evaluation all answer through here."""
        items = modality.execute(self, plan)
        owns = self.owns
        if owns is None:
            return items
        key_of = modality.item_key
        return [item for item in items if owns(key_of(item))]

    def scan_prefix(self, prefix: str) -> GatherResult:
        """Range query: every (key, value) with ``key`` under ``prefix``."""
        return self.query(prefix_query(prefix))

    def query_spatial(self, region: "BBox") -> GatherResult:
        """Entities whose payload position (``x``/``y``) lies in ``region``."""
        return self.query(spatial_query(region))

    def spatial_items(self, region: "BBox") -> list:
        """Shard-local spatial execution (unsorted; the modality merges):
        every entity this node serves whose stored payload has a numeric
        ``x``/``y`` inside ``region``.

        One path on every engine.  An unknown position index is hydrated
        first (one full scan; see :class:`PositionIndex`); candidates are then a
        dict filter, fetched with one bulk read — one round trip per
        storage node holding a hit on a remote engine — and each fetched
        value is checked against the box again, so an index entry that
        went stale behind this platform's back (overwritten or deleted
        by another mount) is dropped instead of returned.  A hydration
        scan or fetch that stays faulted past the retry budget raises;
        the cluster's scatter reports this shard failed.
        """
        positions = self._hydrated(self._positions)
        x_min, x_max = region.x_min, region.x_max
        y_min, y_max = region.y_min, region.y_max
        hits = [
            key for key, (x, y) in positions.items()
            if x_min <= x <= x_max and y_min <= y <= y_max
        ]
        if not hits:
            return []
        fetched = self._with_retry(lambda: self.engine.mget(hits))
        items: list = []
        for key in hits:
            value = fetched.get(key)
            position = payload_position(stored_payload(value))
            if (
                position is not None
                and x_min <= position[0] <= x_max
                and y_min <= position[1] <= y_max
            ):
                items.append((key, value))
        return items

    def semantic_search(
        self, vector, k: int, ef: int | None = None
    ) -> list[tuple[str, float]]:
        """Shard-local ANN top-k over this node's semantic index (hydrated
        first).  The index is exact state, so, as a :class:`PrefixView`,
        it is kept only by its keys' sole writer: on any other node every
        search re-hydrates it from one owned scan, and a key another
        writer changed or deleted is never answered from an old graph."""
        if self.semantic is None:
            raise ConfigurationError(
                "semantic index not enabled; build the platform with "
                "semantic_index=True"
            )
        self._searches.inc()
        if not self._sole_writer:
            self.semantic.reset()
        self._hydrated(self.semantic)
        return self.semantic.search(vector, k, ef=ef)

    def standing_items(self, query: ContinuousQuery) -> list:
        """This node's items of a standing query (unsorted; the modality
        merges).

        A standing prefix query on a node that is its keys' sole writer
        answers from the node's :class:`PrefixView` of it: hydrated by
        the first refresh from one owned scan of the prefix, maintained
        by every write and drop from then on, reset with the caches.  A
        hydrated view answers without a storage read; a hydration scan
        that stays faulted past the retry budget raises and leaves the
        view unknown.

        Any other query is re-evaluated from its stored plan
        (:meth:`answer`)."""
        modality = query.modality
        if type(modality) is PrefixScanModality and self._sole_writer:
            view = self._views.get(query.query_id)
            if view is None:
                view = PrefixView(query.plan.params["prefix"])
                self._views[query.query_id] = view
                self._derived.append(view)
            return list(self._hydrated(view).items())
        return self.answer(modality, query.plan)

    def register_continuous(self, query_id: str, prefix: str) -> None:
        """Register a standing prefix query, refreshed every tick."""
        self.register_continuous_query(query_id, prefix_query(prefix))

    def register_continuous_query(self, query_id: str, request: QueryRequest) -> None:
        """Register a standing query of *any* modality, refreshed per
        tick.  It is planned here, once: a request that does not plan
        raises :class:`ConfigurationError` and is not registered."""
        self._continuous.register(query_id, request, self.query_executor.resolve)

    def continuous_results(self, query_id: str) -> GatherResult | None:
        return self._continuous.results(query_id)

    # -- pub/sub --------------------------------------------------------------

    def publish(self, publication: Publication) -> list[Subscription]:
        """Publish through the broker with the platform's recovery policies.

        Transient broker faults are retried; while the circuit breaker is
        open, publications are shed (``platform.publish_shed``) instead of
        hammering a failing broker; a publish that stays failing past the
        retry budget is dropped and counted (``platform.publish_failed``)
        rather than aborting the caller's pipeline — events are lossy by
        contract, unlike storage writes.
        """
        if self.breaker is not None and not self.breaker.allow():
            self.metrics.counter("platform.publish_shed").inc()
            return []
        try:
            matched = self._with_retry(lambda: self.broker.publish(publication))
        except FaultInjectedError:
            if self.breaker is not None:
                self.breaker.record_failure()
            self.metrics.counter("platform.publish_failed").inc()
            return []
        if self.breaker is not None:
            self.breaker.record_success()
        return matched

    # -- marketplace transactions --------------------------------------------------

    def load_catalog(self, records: list[DataRecord]) -> None:
        self.import_products([(record.key, record.payload) for record in records])

    # -- product write-through / hydration ----------------------------------
    #
    # The compute-side MVCC store is a *cache* of committed catalog state;
    # the storage engine holds the durable record.  On the default local
    # engine the write-through is a dict assignment (free, invisible); on a
    # remote engine it is what makes the compute node stateless — any other
    # compute node can hydrate the same product from the shared tier.

    def persist_committed(self, product_id: str, value: dict | None) -> None:
        """Write committed product state through to the storage engine
        (``None`` deletes).  A write that stays failing past the retry
        budget is parked dirty and re-flushed on the next persist."""
        self._dirty_products[product_id] = value
        self._dirty_products.move_to_end(product_id)
        self.flush_dirty_products()

    def _hydrate_product(self, product_id: str) -> dict | None:
        """Pull a product the compute cache has never seen (or dropped)
        from the storage engine into MVCC; ``None`` when the tier has no
        record either (or stayed unreachable past the retry budget).  A
        write-through parked dirty is newer than the tier's record: it wins."""
        if product_id in self._dirty_products:
            value = self._dirty_products[product_id]
        else:
            try:
                value = self._with_retry(lambda: self.engine.get_product(product_id))
            except FaultInjectedError:
                return None
        if value is None:
            return None
        self._install_product(product_id, value)
        self.metrics.counter("platform.products_hydrated").inc()
        return value

    def _product(self, product_id: str) -> dict | None:
        """Committed product record as a fresh MVCC snapshot sees it,
        falling back to storage hydration (stateless compute after a
        remap); ``None`` when the storage tier has no record either."""
        value = self.txn.begin().read_or(product_id)
        if value is None:
            value = self._hydrate_product(product_id)
        return value

    def committed_product(self, product_id: str) -> dict | None:
        """A copy of :meth:`_product`'s record, safe to mutate."""
        value = self._product(product_id)
        return dict(value) if value is not None else None

    def _install_product(self, product_id: str, value: dict) -> None:
        """Commit ``value`` into the MVCC cache without writing it back."""
        txn = self.txn.begin()
        txn.write(product_id, dict(value))
        self.txn.commit(txn)

    def flush_dirty_products(self) -> int:
        """Re-drive deferred product write-throughs; returns how many are
        still dirty afterwards.

        Every :meth:`persist_committed` drains through here, and so does a
        stateless-compute remap before :meth:`reset_caches`: the MVCC
        cache about to be dropped may be the only holder of committed
        stock the storage tier missed (write-through parked on a fault),
        and the next owner hydrates from the tier.  A write
        still failing past the retry budget leaves its entry parked and
        stops the sweep (the fault has not cleared; later entries would
        fail the same way).
        """
        for product_id in list(self._dirty_products):
            pending = self._dirty_products[product_id]
            try:
                if pending is None:
                    self._with_retry(
                        lambda p=product_id: self.engine.delete_product(p)
                    )
                else:
                    self._with_retry(
                        lambda p=product_id, v=pending: self.engine.put_product(
                            p, v
                        )
                    )
            except FaultInjectedError:
                self.metrics.counter("platform.product_persist_deferred").inc()
                break
            del self._dirty_products[product_id]
        return len(self._dirty_products)

    def reset_products(self) -> None:
        """Drop the compute-side product cache (stateless-compute remap).

        After cluster membership changes in disaggregated mode, product
        ownership moves between compute nodes without any data movement;
        clearing the cache forces the next purchase on the new owner to
        hydrate fresh, committed state from the shared storage tier."""
        self.txn = TransactionManager(metrics=self.metrics, tracer=self.tracer)
        self.metrics.counter("platform.product_cache_resets").inc()

    def reset_caches(self) -> None:
        """Drop every compute-side cache — product MVCC, buffer pool, the
        stale-read fallback and every derived state — so all subsequent
        reads re-load from the storage engine.  The full stateless-compute
        remap: what a compute node does when cluster membership changes
        under it, and what a storage node restarted under it requires."""
        self.reset_products()
        self.pool = BufferPool(
            BUFFER_POOL_PAGES, self._load_page, metrics=self.metrics, tracer=self.tracer
        )
        self._stale.clear()
        for state in self._derived:
            state.reset()

    def maintain_storage(self, now: float | None = None) -> dict:
        """One data-lifecycle sweep of the storage engine (checkpointing,
        tier demotion).  A no-op dict for engines without lifecycle
        management, so callers can invoke it unconditionally."""
        return self.engine.maintain(
            self.clock.now if now is None else now
        )

    def _executor_for(self, product_id: str) -> int:
        index = self._executor_memo.get(product_id)
        if index is None:
            if len(self._executor_memo) >= 1 << 20:
                self._executor_memo.clear()
            index = stable_hash(product_id) % self.n_executors
            self._executor_memo[product_id] = index
        return index

    def process_purchases(
        self,
        requests: list[PurchaseRequest],
        presorted: bool = False,
    ) -> list[PurchaseOutcome]:
        """Execute a batch of purchases with space-aware ordering.

        Requests are ordered by (priority, time): with
        ``physical_priority`` on, physical-space shoppers win ties on the
        last unit — the paper's example policy.  The call is one MVCC
        transaction deciding each product once, its requests in order,
        against one snapshot; a conflict at its one commit re-decides the
        call up to :data:`PURCHASE_RETRIES` times.  ``presorted=True``
        skips the sort — the cluster router passes order-preserved
        subsequences of an already globally sorted stream, so per-shard
        re-sorting is pure overhead.
        """
        if not presorted:
            requests = order_purchases(requests, self.physical_priority)
        with self.tracer.span("platform.process_purchases", n=len(requests)):
            txn, read, groups, unknown = self._group_and_read(requests)
            quantities = {
                product_id: [requests[i].quantity for i in indices]
                for product_id, indices in groups.items()
            }
            # One TXN_COST_S charge per request per attempt, added one at a
            # time in one run per executor: an executor's float then
            # depends only on how many requests it was charged for.
            charged = [0] * self.n_executors
            for product_id, indices in groups.items():
                charged[self._executor_for(product_id)] += len(indices)
            for i in unknown:
                charged[self._executor_for(requests[i].product_id)] += 1
            for attempt in range(PURCHASE_RETRIES + 1):
                if attempt:  # a conflict retry reads a fresh snapshot
                    txn, read = self.txn.begin(), {}
                decided: dict[str, list[str]] = {}
                try:
                    for executor, n in zip(self.executors, charged):
                        busy = executor.busy_time
                        for _ in range(n):
                            busy += TXN_COST_S
                        executor.busy_time = busy
                    # A sampling boundary per request, decided in one
                    # call: with sample_every=k, one purchase in k
                    # records its span — see Tracer.sampled_spans.
                    self.tracer.sampled_spans("platform.purchase", len(requests))
                    for product_id, indices in groups.items():
                        decided[product_id] = self._decrement(
                            txn, product_id, quantities[product_id],
                            read.get(product_id),
                        )
                finally:
                    # Commit and settle what was decided, also on a raise,
                    # in last-decision order: by each product's last sale.
                    if txn.writes:
                        order = sorted(txn.writes, key=lambda p: _last_sale(
                            groups[p], decided[p]
                        ))
                        txn.writes = {p: txn.writes[p] for p in order}
                        try:
                            self.txn.commit(txn)
                        except WriteConflictError:
                            pass  # aborted, nothing applied: decide again
                        else:
                            self._settle(txn.writes)
                if txn.status != "aborted":
                    break
                self.metrics.counter("platform.retries").inc()
        exhausted, whys = txn.status == "aborted", [""] * len(requests)
        for i in unknown:
            whys[i] = "no such product"
        for product_id, reasons in decided.items():
            if exhausted:
                reasons = [why or "conflict retries exhausted" for why in reasons]
            else:
                self.executors[self._executor_for(product_id)].processed += (
                    reasons.count("")
                )
            for i, why in zip(groups[product_id], reasons):
                whys[i] = why
        for why, counter in self._decided.items():
            if why in whys:
                counter.inc(whys.count(why))
        return [PurchaseOutcome(r, not why, why) for r, why in zip(requests, whys)]

    def _group_and_read(self, requests: list[PurchaseRequest]):
        """Group a call's requests by product — request indices in order,
        products in first-appearance order — and read each product once.

        The walk runs in request order and hydrates what the MVCC cache
        misses: the engine calls per-request stages made, as nothing else
        in a call touches the engine.  Every product is read through one
        snapshot, renewed only after a hydration commits behind it; the
        last one is returned as the first attempt's transaction, with the
        records it read.  A request whose product the tier did not return
        is listed unknown, and the product is tried again at its next
        request.  Returns ``(txn, {product: record}, {product: request
        indices}, unknown indices)``.
        """
        groups: dict[str, list[int]] = {}
        read: dict[str, dict] = {}
        unknown: list[int] = []
        txn = self.txn.begin()
        for i, request in enumerate(requests):
            indices = groups.get(request.product_id)
            if indices is not None:
                indices.append(i)
                continue
            product_id = request.product_id
            product = txn.read_or(product_id)
            if product is None:
                product = self._hydrate_product(product_id)
                if product is None:
                    unknown.append(i)
                    continue
                txn = self.txn.begin()
            read[product_id] = product
            groups[product_id] = [i]
        return txn, read, groups, unknown

    # -- the stock-commit core ----------------------------------------------
    #
    # Every committed stock decrement — a purchase call, a single-shard
    # basket, a 2PC participant's prepare/commit — is decided by
    # _decrement and settled by _settle; nothing else checks stock, and
    # nothing else writes stock through or reports it to the sink.

    def _decrement(
        self,
        txn: Transaction,
        product_id: str,
        quantities: list[int],
        product: dict | None = None,
    ) -> list[str]:
        """The one stock check: decide each of ``quantities``, in order,
        against ``product_id``'s running stock inside ``txn`` and return
        one reason per quantity: ``""`` for a sale, or why not (``"no such
        product"``, ``"sold out"``).  The product is read once — or not at
        all when the caller passes the record ``txn`` reads as
        ``product`` — and a product that sold writes its final record
        once, re-seated at the end of ``txn.writes``."""
        if product is None:
            product = txn.read_or(product_id)
        if product is None:
            return ["no such product"] * len(quantities)
        stock, whys, updated = product.get("stock", 0), [], None
        for quantity in quantities:
            if stock < quantity:
                whys.append("sold out")
                continue
            if updated is None:
                updated = dict(product)
            updated["stock"] = stock = stock - quantity
            whys.append("")
        if updated is not None:
            txn.writes.pop(product_id, None)
            txn.writes[product_id] = updated
        return whys

    def stage_basket(
        self, quantities: dict[str, int]
    ) -> tuple[Transaction | None, str, str | None]:
        """Open one MVCC transaction decrementing every product in
        ``quantities`` ({product_id: quantity}) against one snapshot.

        Returns ``(txn, "", None)`` with the transaction left open for
        :meth:`commit_basket` (or an abort), or ``(None, why,
        product_id)`` — ``why`` is ``"no such product"`` or ``"sold
        out"`` — with nothing left open.
        """
        txn = self.txn.begin()
        for product_id, quantity in quantities.items():
            [why] = self._decrement(txn, product_id, [quantity])
            if why:
                self.txn.abort(txn)
                # An empty MVCC cache is not "no such product" until the
                # tier agrees; a hydration commits behind us: start over.
                if why == "no such product" and self._product(product_id) is not None:
                    return self.stage_basket(quantities)
                return None, why, product_id
        return txn, "", None

    def commit_basket(self, txn: Transaction) -> None:
        """Commit a staged basket (a :class:`WriteConflictError` leaves
        nothing applied) and settle what it wrote."""
        self.txn.commit(txn)
        self._settle(txn.writes)

    def _settle(self, committed: dict[str, dict]) -> None:
        """Write each committed product through to the storage engine
        once, with its final value (a write that stays faulted parks
        dirty, see :meth:`persist_committed`), then report each final
        stock once to :attr:`purchase_log`.  All write-throughs come
        before all reports: a remote write-through advances the shared
        clock the geo log stamps entries with."""
        for product_id, value in committed.items():
            self.persist_committed(product_id, value)
        if self.purchase_log is not None:
            for product_id, value in committed.items():
                self.purchase_log(product_id, value["stock"])

    # -- cluster support ----------------------------------------------------
    #
    # The scale-out layer (repro.cluster) treats each platform as one shard
    # and needs a public surface for key migration: raw KV values move as
    # is (they are already the stored wrapper dicts), catalog products move
    # as committed MVCC state.  All storage touches go through the shard's
    # own retry policy so migration survives transient injected faults.

    def entity_keys(self) -> list[str]:
        """Keys of every entity this shard's engine holds."""
        return self._with_retry(lambda: self.engine.keys())

    def export_entity(self, key: str):
        """The stored value for ``key`` (retried past transient faults)."""
        return self._with_retry(lambda: self.engine.get(key))

    def import_entity(self, key: str, value: object) -> None:
        self.import_entities([(key, value)])

    def import_entities(self, items: list) -> None:
        """Adopt migrated or replicated ``(key, stored value)`` items in
        one bulk write, keeping caches coherent."""
        self._write_items(items, [stored_payload(value) for _, value in items])

    def drop_entity(self, key: str) -> None:
        """Forget an entity handed off to another shard."""
        self._with_retry(lambda: self.engine.delete(key))
        self.pool.invalidate(key)
        self._stale.pop(key, None)
        for state in self._derived:
            state.on_drop(key)

    def catalog_snapshot(self) -> dict[str, dict]:
        """Committed product state, keyed by product id."""
        store = self.txn.store
        return {key: dict(value) for key, value in store.scan_at(store.last_commit_ts)}

    def import_product(self, product_id: str, value: dict) -> None:
        self.import_products([(product_id, value)])

    def import_products(self, items: list) -> None:
        """Adopt migrated or replicated ``(product_id, record)`` items in
        one MVCC commit, then write each through."""
        txn = self.txn.begin()
        for product_id, value in items:
            txn.write(product_id, dict(value))
        self.txn.commit(txn)
        for product_id, value in items:
            self.persist_committed(product_id, dict(value))

    def drop_product(self, product_id: str) -> None:
        txn = self.txn.begin()
        txn.delete(product_id)
        self.txn.commit(txn)
        self.persist_committed(product_id, None)

    def get_stock(self, product_id: str) -> int:
        """Current stock of ``product_id`` as seen by a fresh snapshot."""
        value = self._product(product_id)
        if value is None:
            raise KeyNotFoundError(product_id)
        return int(value.get("stock", 0))

    def compute_makespan(self) -> float:
        """Simulated completion time: the busiest executor's busy time."""
        return max(e.busy_time for e in self.executors)

    def compute_throughput(self, n_requests: int) -> float:
        makespan = self.compute_makespan()
        return n_requests / makespan if makespan > 0 else float("inf")

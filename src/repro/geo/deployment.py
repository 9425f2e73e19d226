"""Geo-distributed multi-region deployment with tunable consistency.

The paper's Sec. IV-E puts metaverse workloads on wide-area
inter-data-center links; this module runs N :class:`PlatformCluster`\\ s
as named *regions* joined by a shared :class:`SimulatedNetwork` WAN with
realistic per-region-pair latencies.  Each region is the *home* for the
keys it owns on a region-level consistent-hash ring (plus explicit
follow-the-user overrides via :meth:`GeoDeployment.rehome_entity` /
:meth:`~GeoDeployment.rehome_product`); writes commit at the home region
and replicate asynchronously by shipping absolute post-state replica-log
entries (:mod:`repro.geo.replication`) over the WAN.

What one cluster call commits crosses the WAN once: a region's
:class:`PlatformCluster` delivers it through its op tap when the call
returns, and the sink this module registers per region
(:meth:`GeoDeployment._log_and_ship`) logs it in the home's log as one
record and ships it as one *segment* — ``[(lsn, payload)]``, a drained
hint buffer ``[(lsn, payload), …]`` in log order — per destination
region, in one ``geo.repl`` message.  The deployment builds
no op and touches no shard: a segment lands *through* the destination
region's cluster, folded once, as one import per shard (so its failover
log, if it keeps one, carries the copies), and the sink skips those
landings — a copy is not a mutation of that region's to ship.

Reads take a per-call consistency mode:

* ``eventual`` — served by the caller's own region from whatever replica
  state it holds: zero WAN latency, bounded staleness, stays available
  through WAN partitions and remote-region outages.
* ``read_your_writes`` — a :class:`GeoSession` carries a vector of
  per-home high-water LSNs; the local read is used only when the local
  copy's watermark has caught up to the session's writes, otherwise the
  read transparently upgrades to the home-region round trip.
* ``linearizable`` — a home-region round trip under a
  :class:`~repro.resilience.policies.Deadline`, retry policy, and
  per-home circuit breaker; during a WAN partition it fails fast with
  :class:`DeadlineExceededError` instead of serving stale state.

WAN faults are injected under the ``geo.wan`` site (partition / drop /
delay), decided once per segment and destination, independent from
single-region ``net.link`` plans.  A dropped segment leaves visible LSN
holes repaired by set-digest anti-entropy; an unreachable destination
gets hinted handoff, record by record in log order, drained as one
segment.  Region kills use the outage model: the region's state survives, writes to its
home keys are deferred (ingest) or fail fast (purchases — never queued,
preserving exactly-once), and a restart drains deferrals, hints, and
anti-entropy until every copy reconverges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from ..api.dataplane import GatherResult
from ..cluster.cluster import PHYSICAL_PRIORITY, PlatformCluster
from ..cluster.config import ClusterConfig
from ..core.clock import EventScheduler
from ..core.errors import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    FaultInjectedError,
    KeyNotFoundError,
    NetworkError,
    PartitionedError,
)
from ..core.metrics import MetricsRegistry
from ..core.records import DataRecord, PurchaseRequest
from ..net.simnet import CallSite, Link, Message, SimulatedNetwork
from ..obs.tracing import NoopTracer, Tracer
from ..placement import Placement, group_by_owner, route_by_owner
from ..platform.platform import PurchaseOutcome, order_purchases
from ..query.plane import (
    QueryExecutor,
    QueryModality,
    QueryPlan,
    QueryRequest,
    prefix_query,
)
from ..replication import PostState, apply
from ..resilience.faults import FaultInjector, FaultPlan
from ..resilience.policies import CircuitBreaker, RetryPolicy, Timeout
from .replication import GeoReplicator

__all__ = [
    "CONSISTENCY_MODES",
    "EVENTUAL",
    "GeoConfig",
    "GeoDeployment",
    "GeoSession",
    "LINEARIZABLE",
    "READ_YOUR_WRITES",
]

EVENTUAL = "eventual"
READ_YOUR_WRITES = "read_your_writes"
LINEARIZABLE = "linearizable"
CONSISTENCY_MODES = (EVENTUAL, READ_YOUR_WRITES, LINEARIZABLE)


def _check_consistency(consistency: str) -> None:
    """THE consistency-mode check of every read and fan-out query."""
    if consistency not in CONSISTENCY_MODES:
        raise ConfigurationError(
            f"unknown consistency mode {consistency!r}; "
            f"expected one of {CONSISTENCY_MODES}"
        )


# The WAN and the read path.  A deployment chooses its regions, their
# pair latencies and its log compaction threshold (GeoConfig); the rest is
# the one calibration the E30 artifacts were measured with, so changing a
# value here moves a committed baseline.

#: One-way latency of a region pair without a ``wan_latencies_s`` entry:
#: 40 ms, a continental inter-data-center hop.
DEFAULT_WAN_LATENCY_S = 0.04
#: WAN link bandwidth (200 Mbit/s); sets serialisation delay.
WAN_BANDWIDTH_BPS = 2e8
#: Bytes each way of a cross-region round trip (forward, read, handoff).
RPC_BYTES = 512
#: What a round trip to a down or partitioned region burns before it
#: fails, so a deadline expires on simulated time rather than hanging.
RPC_TIMEOUT_S = 0.06
#: Deadline of one linearizable read across its retries — the cluster's
#: default query deadline.
LINEARIZABLE_TIMEOUT_S = 0.25
#: Attempts (the first included) and base backoff of a linearizable read;
#: three 60 ms timeouts plus backoff stay inside its deadline.
READ_MAX_ATTEMPTS = 3
READ_RETRY_BASE_S = 0.02
#: Failed linearizable reads of one home before its breaker opens, and
#: how long it stays open: a partitioned home stops costing its callers
#: a deadline after four failures.
BREAKER_FAILURE_THRESHOLD = 4
BREAKER_COOLDOWN_S = 1.0
#: Simulated seconds between anti-entropy rounds: one per tick at the
#: 0.5 s ticks E30 and ``geo_commerce`` run.
ANTIENTROPY_INTERVAL_S = 0.5


@dataclass
class GeoConfig:
    """Validated construction parameters for :class:`GeoDeployment`.

    ``wan_latencies_s`` maps unordered region pairs ``(a, b)`` to one-way
    propagation latency in seconds; pairs without an entry use
    :data:`DEFAULT_WAN_LATENCY_S`.  ``cluster`` is the per-region template
    (every region runs an identical cluster); it defaults to a small
    2-shard cluster.  ``compact_threshold`` compacts a home log once its
    primary copy exceeds that many records — a record is what one call
    logged for the home, so it may hold many ops (None: never).
    """

    regions: tuple[str, ...] = ("us-east", "eu-west", "ap-south")
    cluster: ClusterConfig | None = None
    wan_latencies_s: dict = field(default_factory=dict)
    compact_threshold: int | None = 4096
    seed: int = 0

    def validate(self) -> "GeoConfig":
        regions = tuple(self.regions)
        if len(regions) < 2:
            raise ConfigurationError("a geo deployment needs >= 2 regions")
        if len(set(regions)) != len(regions):
            raise ConfigurationError(f"duplicate region names: {regions}")
        for name in regions:
            if not name or not isinstance(name, str):
                raise ConfigurationError(f"invalid region name: {name!r}")
        for pair, latency in self.wan_latencies_s.items():
            if len(pair) != 2 or pair[0] == pair[1]:
                raise ConfigurationError(f"WAN latency key must be a region pair: {pair!r}")
            for name in pair:
                if name not in regions:
                    raise ConfigurationError(f"WAN latency names unknown region {name!r}")
            if latency <= 0:
                raise ConfigurationError(f"WAN latency must be positive: {pair!r}")
        if self.compact_threshold is not None and self.compact_threshold < 2:
            raise ConfigurationError("compact_threshold must be >= 2 (or None)")
        if self.cluster is not None:
            self.cluster.validate()
            if self.cluster.elasticity is not None:
                raise ConfigurationError(
                    "per-region elasticity is not supported under a geo "
                    "deployment: no workload, bench or test runs the "
                    "elasticity loop inside a geo region"
                )
        return self


@dataclass
class GeoSession:
    """Per-client read-your-writes token.

    ``vector`` maps home region -> highest LSN this client's writes
    reached in that home's replication log.  A read at region R can be
    served locally iff R's copy of the home log has caught up to the
    vector entry; otherwise it upgrades to the home round trip.
    """

    vector: dict[str, int] = field(default_factory=dict)

    def observe(self, region: str, lsn: int | None) -> None:
        if lsn:
            self.vector[region] = max(self.vector.get(region, 0), lsn)


class GeoDeployment:
    """N regional clusters over a simulated WAN with tunable consistency."""

    def __init__(
        self,
        config: GeoConfig | None = None,
        faults: FaultInjector | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.config = (config if config is not None else GeoConfig()).validate()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NoopTracer()
        # One injector (and hence one simulated clock) is shared by the WAN,
        # every region cluster, and all resilience policies: a fault plan's
        # time windows and each region's timeouts advance the same time.
        self.faults = faults if faults is not None else FaultInjector(FaultPlan())
        self.clock = self.faults.clock
        self.scheduler = EventScheduler(self.clock)
        # The WAN deliberately carries no fault injector: single-region
        # ``net.link`` plans must not leak onto inter-region links.  WAN
        # faults are decided under the ``geo.wan`` site instead (a round
        # trip's by ``_wan_site``).  Its endpoints are the region names.
        self.wan = SimulatedNetwork(
            self.scheduler,
            default_link=Link(
                latency_s=DEFAULT_WAN_LATENCY_S,
                bandwidth_bps=WAN_BANDWIDTH_BPS,
            ),
            metrics=self.metrics,
            tracer=self.tracer,
        )
        for (a, b), latency in sorted(self.config.wan_latencies_s.items()):
            self.wan.set_link(a, b, Link(latency_s=latency, bandwidth_bps=WAN_BANDWIDTH_BPS))
        template = (
            self.config.cluster
            if self.config.cluster is not None
            else ClusterConfig(n_shards=2, n_executors_per_shard=2)
        )
        # 32 vnodes/region: home assignment, hence every geo artifact, rides on it.
        self._ring = Placement(self.config.regions, vnodes=32)
        self._clusters: dict[str, PlatformCluster] = {}
        for name in self.config.regions:
            self.wan.add_node(name).on("geo.repl", self._on_repl)
            # Every region cluster gets the *geo* registry/tracer: the
            # cluster constructor rebinds faults.metrics to whatever it is
            # handed, so handing each region its own registry would leave
            # the shared injector counting into only the last one.
            cluster = PlatformCluster(
                config=template,
                faults=self.faults,
                metrics=self.metrics,
                tracer=self.tracer,
            )
            self._clusters[name] = cluster
            # Whatever this region's cluster commits feeds its home log.
            cluster.add_op_sink(partial(self._log_and_ship, name))
        self.replicator = GeoReplicator(
            self.config.regions,
            metrics=self.metrics,
            compact_threshold=self.config.compact_threshold,
        )
        self._home_override: dict[str, str] = {}
        # True while :meth:`_land` is writing replica state to a cluster.
        self._landing = False
        # While :meth:`ingest_many` writes one home's records: key -> the
        # LSNs of the log records that wrote it, one per op, in log order.
        self._written: dict[str, list[int]] | None = None
        self._down: set[str] = set()
        self._deferred: dict[str, list[DataRecord]] = {}
        self._last_antientropy = self.clock.now
        # (home, replica region) -> key -> highest home-log LSN landed on
        # that replica's state; the guard :meth:`_land` applies behind.
        self._applied_lsn: dict[tuple[str, str], dict[str, int]] = {}
        self._read_retry = RetryPolicy(
            max_attempts=READ_MAX_ATTEMPTS,
            base_delay_s=READ_RETRY_BASE_S,
            max_delay_s=4 * READ_RETRY_BASE_S,
            seed=self.config.seed,
            clock=self.clock,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        self._breakers = {
            name: CircuitBreaker(
                failure_threshold=BREAKER_FAILURE_THRESHOLD,
                cooldown_s=BREAKER_COOLDOWN_S,
                clock=self.clock,
                name=f"geo.{name}",
                metrics=self.metrics,
                tracer=self.tracer,
            )
            for name in self.config.regions
        }
        # Query-plane executor: plans/rewrites once per geo query; the
        # regions' clusters then run the resolved plan as-is.
        self.query_executor = QueryExecutor()
        # The write, ship, delivery and anti-entropy paths' counters, bound
        # once; fault paths look theirs up.
        self._writes = self.metrics.counter("geo.writes")
        self._shipped = self.metrics.counter("geo.repl.shipped")
        self._delivered = self.metrics.counter("geo.repl.delivered")
        self._applied = self.metrics.counter("geo.repl.applied")
        self._lacked = self.metrics.counter("geo.antientropy.repaired_entries")
        # A WAN round trip's; every failure it raises counts as a timeout.
        self._wan_site = CallSite(
            "geo.wan", ("partition", "drop", "delay"), RPC_TIMEOUT_S, self.faults,
            calls=self.metrics.counter("geo.rpc.round_trips"),
            latency=self.metrics.histogram("geo.rpc.rtt_s"), sent=None,
            failed=dict.fromkeys(("partitioned", "partition", "drop"), ("geo.rpc.timeouts",)),
        )

    # -- topology ----------------------------------------------------------

    def region(self, name: str) -> PlatformCluster:
        """The named region's cluster (tests, direct workload drivers)."""
        try:
            return self._clusters[name]
        except KeyError:
            raise ConfigurationError(f"unknown region {name!r}") from None

    def home_of(self, key: str) -> str:
        """The region authoritative for ``key`` (override, else ring)."""
        override = self._home_override.get(key)
        return override if override is not None else self._ring.owner_of(key)

    def _resolve_region(self, region: str | None) -> str:
        name = region if region is not None else self.config.regions[0]
        if name not in self._clusters:
            raise ConfigurationError(f"unknown region {name!r}")
        if name in self._down:
            raise NetworkError(f"client region {name!r} is down")
        return name

    # -- WAN primitives ----------------------------------------------------

    def _wan_reachable(self, a: str, b: str) -> bool:
        if a in self._down or b in self._down:
            return False
        return not self.wan.is_partitioned(a, b)

    def _round_trip(self, src: str, dst: str, op: str) -> None:
        """A WAN :meth:`~repro.net.simnet.SimulatedNetwork.call`, or
        :data:`RPC_TIMEOUT_S` burnt if either region is down: a deadline
        expires on simulated time while a destination stays unreachable."""
        if src == dst:
            return
        if src in self._down or dst in self._down:
            self.clock.advance(RPC_TIMEOUT_S)
            self.metrics.counter("geo.rpc.timeouts").inc()
            down = dst if dst in self._down else src
            raise PartitionedError(f"region {down!r} is down")
        self.wan.call(src, dst, self._wan_site, RPC_BYTES, op)

    # -- replication: ship / deliver / apply -------------------------------

    def _log_and_ship(self, home: str, segments) -> None:
        """Region ``home``'s op sink: log what one call of its cluster
        committed in ``home``'s log as one record and ship it, skipping
        what :meth:`_land` commits (a copy, not a mutation of ``home``'s)."""
        if self._landing:
            return
        ops = [op for _, segment in segments for op in segment]
        if not ops:
            return
        lsn, payload = self.replicator.log_op(home, ops, self.clock.now)
        written = self._written
        if written is not None:
            for op in ops:
                written.setdefault(op["k"], []).append(lsn)
        for dst in self.config.regions:
            if dst != home:
                self._ship(home, dst, [(lsn, payload)])

    def _ship(self, home: str, dst: str, entries: list[tuple[int, bytes]]) -> None:
        # Once a pair has hints queued, everything later must queue behind
        # them so hints drain in log order; the per-key applied-LSN guard
        # at delivery is the backstop for any reordering that remains.
        if dst in self._down or self.replicator.has_hints(home, dst):
            self.replicator.buffer_hints(home, dst, entries)
            return
        decision = self.faults.decide(
            "geo.wan", target=f"{home}->{dst}", kinds=("partition", "drop", "delay")
        )
        if decision.kind == "partition":
            self.replicator.buffer_hints(home, dst, entries)
        elif decision.kind == "drop":
            # Lost on the WAN with no sender-side signal: visible LSN
            # holes in the destination copy until anti-entropy repairs them.
            self.metrics.counter("geo.repl.dropped").inc()
        elif decision.kind == "delay":
            self.scheduler.schedule(
                decision.delay_s, partial(self._ship_now, home, dst, entries)
            )
        else:
            self._ship_now(home, dst, entries)

    def _ship_now(self, home: str, dst: str, entries: list[tuple[int, bytes]]) -> bool:
        try:
            with self.tracer.span("geo.repl.ship", dst=dst, entries=len(entries)):
                self.wan.send(
                    home, dst, "geo.repl", {"home": home, "entries": entries},
                    size_bytes=sum(len(payload) for _, payload in entries) + 64,
                )
        except PartitionedError:
            self.replicator.buffer_hints(home, dst, entries)
            return False
        self._shipped.inc()
        return True

    def _on_repl(self, message: Message) -> None:
        dst = message.dst
        home = message.payload["home"]
        entries = message.payload["entries"]
        if dst in self._down:
            # The destination died with the segment in flight: it was
            # never processed, so park it for handoff at restart.
            self.replicator.buffer_hints(home, dst, entries)
            return
        with self.tracer.span("geo.repl.deliver", entries=len(entries)) as span:
            delivered = self._delivered
            before = delivered.value
            state = self.replicator.deliver(home, dst, entries)
            landed = 0 if state is None else self._land(home, dst, state)
            if span is not None:
                span.set_attribute("fresh", int(delivered.value - before))
                span.set_attribute("landed", landed)
        if landed:
            self._applied.inc()

    def _land(self, home: str, region: str, state: PostState) -> int:
        """Land ``home``-log post-states on ``region``'s replica state;
        return how many keys landed.  Two guards sit in front: the per-key
        applied-LSN guard of :func:`repro.replication.apply` (a smaller WAN
        payload can overtake a larger same-instant one, and the late entry
        must not regress the state), and the home guard (a key re-homed
        since the op was logged belongs to the new home's log).  The keys
        land through ``region``'s cluster, so its own failover log (if it
        keeps one) carries the copies through a shard promotion."""
        cluster = self._clusters[region]
        self._landing = True
        try:
            landed = len(apply(
                state,
                self._applied_lsn.setdefault((home, region), {}),
                lambda key: cluster if self.home_of(key) == home else None,
            ))
        finally:
            self._landing = False
        if landed < len(state.lsn):  # rare: tell the two guards apart
            stale = sum(1 for key in state.lsn if self.home_of(key) != home)
            late = len(state.lsn) - landed - stale
            self.metrics.counter("geo.repl.stale_ignored").inc(stale)
            self.metrics.counter("geo.repl.out_of_order").inc(late)
        return landed

    # -- hinted handoff / anti-entropy -------------------------------------

    def _open_pairs(self, wanted):
        """Ordered ``(home, dst)`` pairs that are ``wanted``, reachable
        and not under an injected WAN partition right now."""
        for home in self.config.regions:
            for dst in self.config.regions:
                if (
                    dst != home
                    and wanted(home, dst)
                    and self._wan_reachable(home, dst)
                    and self.faults.decide(
                        "geo.wan", target=f"{home}->{dst}", kinds=("partition",)
                    ).kind != "partition"
                ):
                    yield home, dst

    def _deliver_hints(self) -> None:
        """Drain each open pair's hints as one segment, in log order."""
        for home, dst in self._open_pairs(self.replicator.has_hints):
            entries = self.replicator.take_hints(home, dst)
            if self._ship_now(home, dst, entries):
                self.metrics.counter("geo.repl.hints_delivered").inc(len(entries))

    def _antientropy_round(self) -> None:
        """Reconverge every reachable (home, destination) pair.

        The replicator rebuilds a diverged copy from the primary and
        hands back the re-folded post-state of the keys the destination
        had been missing entries for.  The round's span counts pairs
        compared, copies rebuilt and entries those copies had lacked (a
        rebuilt copy that lacked none held an extra one the primary has
        since compacted away; arrival order alone is not divergence).
        """
        lacked = self._lacked
        lacked_before = lacked.value
        pairs = rebuilt = 0
        with self.tracer.span("geo.antientropy") as span:
            for home, dst in self._open_pairs(lambda home, dst: True):
                pairs += 1
                state = self.replicator.antientropy(home, dst)
                if state is not None:
                    rebuilt += 1
                    self._land(home, dst, state)
            if span is not None:
                span.set_attribute("pairs", pairs)
                span.set_attribute("rebuilt", rebuilt)
                span.set_attribute("lacked", int(lacked.value - lacked_before))

    # -- writes ------------------------------------------------------------

    def write_record(
        self,
        record: DataRecord,
        region: str | None = None,
        session: GeoSession | None = None,
    ) -> int | None:
        """:meth:`ingest_many` of one record; returns its LSN."""
        return self.ingest_many([record], region=region, session=session)[0]

    def ingest(
        self,
        record: DataRecord,
        region: str | None = None,
        session: GeoSession | None = None,
    ) -> int | None:
        return self.write_record(record, region=region, session=session)

    def ingest_many(
        self,
        records: list[DataRecord],
        region: str | None = None,
        session: GeoSession | None = None,
    ) -> list[int | None]:
        """Write-through at each record's home region, homes in name order:
        one forward round trip from ``region`` and one cluster write per
        home.  Returns, per record, the home-log LSN of its write — ``None``
        when it was deferred because the home region is down, or queued by
        the home cluster behind a down shard (it is logged and shipped
        when it lands)."""
        lsns: list[int | None] = [None] * len(records)
        by_home = group_by_owner(
            [self.home_of(record.key) for record in records], range(len(records))
        )
        for home, rows in sorted(by_home.items()):
            batch = [records[i] for i in rows]
            if home in self._down:
                self._deferred.setdefault(home, []).extend(batch)
                self.metrics.counter("geo.writes.deferred").inc(len(batch))
                continue
            if region is not None:
                submitted = self._resolve_region(region)
                if submitted != home:
                    # The client's region forwards to the home region: a
                    # WAN partition surfaces here, before anything of this
                    # home mutates.
                    self._round_trip(submitted, home, "forward")
                    self.metrics.counter("geo.writes.forwarded").inc(len(batch))
            written = self._written = {}
            try:
                self._clusters[home].write_records(batch)
            finally:
                self._written = None
            # A key's last LSNs are its records' own writes (a drained
            # queue logs first), matched from the back.
            for i in reversed(rows):
                logged = written.get(records[i].key)
                if logged:
                    lsns[i] = logged.pop()
            if session is not None:
                session.observe(home, max(lsns[i] or 0 for i in rows))
            self._writes.inc(len(batch))
        return lsns

    def load_catalog(self, records: list[DataRecord]) -> None:
        """Load each home's products with one cluster call, homes in name
        order — or none at all while any of their homes is down."""
        by_home = group_by_owner([self.home_of(r.key) for r in records], records)
        down = sorted(by_home.keys() & self._down)
        if down:
            raise NetworkError(f"cannot load catalog: region {down[0]!r} is down")
        for home, batch in sorted(by_home.items()):
            self._clusters[home].load_catalog(batch)

    def process_purchases(
        self, requests: list[PurchaseRequest]
    ) -> list[PurchaseOutcome]:
        """Route purchases to their products' home regions.

        The stream is globally ordered as a single node orders it
        (:func:`~repro.platform.platform.order_purchases`) and
        re-merged positionally, so per-product decisions match a
        single-region run.  Purchases against a down home region fail fast
        (never queued): queueing would risk double-execution when the
        region restarts — the same exactly-once stance the intra-region
        failover path takes.
        """
        if not requests:
            return []
        ordered = order_purchases(requests, PHYSICAL_PRIORITY)

        def run(home: str, batch: list[PurchaseRequest]) -> list[PurchaseOutcome]:
            if home in self._down:
                self.metrics.counter("geo.purchases.rejected_region_down").inc(
                    len(batch)
                )
                return [
                    PurchaseOutcome(request, False, f"region down: {home}")
                    for request in batch
                ]
            return self._clusters[home].process_purchases(batch)

        merged = route_by_owner(
            [self.home_of(r.product_id) for r in ordered], ordered, run,
            sorted_owners=True,
        )
        self.metrics.counter("geo.purchases").inc(len(requests))
        return merged

    # -- reads -------------------------------------------------------------

    def read(
        self,
        key: str,
        consistency: str = EVENTUAL,
        region: str | None = None,
        session: GeoSession | None = None,
    ):
        """Point read under the requested consistency mode."""
        return self._read(
            key, consistency, region, session, lambda cluster: cluster.read(key)
        )

    def get_stock(
        self,
        product_id: str,
        consistency: str = EVENTUAL,
        region: str | None = None,
        session: GeoSession | None = None,
    ) -> int:
        """Product stock under the requested consistency mode."""
        return self._read(
            product_id,
            consistency,
            region,
            session,
            lambda cluster: cluster.get_stock(product_id),
        )

    def _read(self, key, consistency, region, session, local):
        _check_consistency(consistency)
        via = self._resolve_region(region)
        home = self.home_of(key)
        started = self.clock.now
        try:
            if consistency == EVENTUAL:
                value = local(self._clusters[via])
            elif consistency == READ_YOUR_WRITES:
                value = self._read_ryw(via, home, session, local)
            else:
                value = self._read_linearizable(via, home, local)
        finally:
            self.metrics.histogram(f"geo.read.latency.{consistency}").observe(
                self.clock.now - started
            )
        self.metrics.counter(f"geo.read.{consistency}").inc()
        return value

    def _read_ryw(self, via, home, session, local):
        needed = session.vector.get(home, 0) if session is not None else 0
        if via == home or self.replicator.watermark(home, via) >= needed:
            self.metrics.counter("geo.read.ryw_local").inc()
            return local(self._clusters[via])
        # The local copy has not caught up to this session's writes:
        # upgrade to the home round trip rather than violate RYW.
        self.metrics.counter("geo.read.ryw_upgraded").inc()
        return self._read_linearizable(via, home, local)

    def _read_linearizable(self, via, home, local):
        guard = Timeout(LINEARIZABLE_TIMEOUT_S).guard(
            self.clock, label=f"geo.read.{home}"
        )
        breaker = self._breakers[home]

        def attempt():
            guard.check()
            if via != home:
                self._round_trip(via, home, "read")
            return local(self._clusters[home])

        try:
            return breaker.call(
                lambda: self._read_retry.call(
                    attempt, retry_on=(PartitionedError, FaultInjectedError)
                )
            )
        except DeadlineExceededError:
            self.metrics.counter("geo.read.linearizable_failed").inc()
            raise
        except (PartitionedError, FaultInjectedError, CircuitOpenError) as exc:
            self.metrics.counter("geo.read.linearizable_failed").inc()
            raise DeadlineExceededError(
                f"linearizable read via {via!r} of home {home!r} failed: {exc}"
            ) from exc

    # -- follow-the-user re-homing -----------------------------------------

    def rehome_entity(self, key: str, to_region: str) -> str:
        """Move ``key``'s authoritative home to ``to_region``."""
        return self._rehome(key, to_region, product=False)

    def rehome_product(self, product_id: str, to_region: str) -> str:
        """Move a product's authoritative home (stock moves with it)."""
        return self._rehome(product_id, to_region, product=True)

    def _rehome(self, key: str, to_region: str, product: bool) -> str:
        if to_region not in self._clusters:
            raise ConfigurationError(f"unknown region {to_region!r}")
        old = self.home_of(key)
        if old == to_region:
            return old
        if old in self._down or to_region in self._down:
            self.metrics.counter("geo.rehome.aborted").inc()
            down = old if old in self._down else to_region
            raise NetworkError(f"cannot re-home {key!r}: region {down!r} is down")
        try:
            # The handoff round trip runs before any state moves, so a WAN
            # partition aborts the re-home atomically: home map, both
            # clusters, and both logs are untouched.
            self._round_trip(old, to_region, "rehome")
        except (PartitionedError, FaultInjectedError) as exc:
            self.metrics.counter("geo.rehome.aborted").inc()
            raise PartitionedError(f"re-home of {key!r} aborted: {exc}") from exc
        src, dst = self._clusters[old], self._clusters[to_region]
        if product:
            value, install = src.committed_product(key), dst.import_product
        else:
            value, install = src.read(key, allow_stale=False), dst.import_entity
        if value is None:
            raise KeyNotFoundError(key)
        # One write at the new home: its cluster logs it for failover and
        # its sink logs and ships it as the new home's first op on ``key``.
        install(key, value)
        self._home_override[key] = to_region
        # The old home keeps its copy as a plain replica; ops still in its
        # log for this key are ignored at apply time (home guard), and the
        # new home's full-state op overwrites every copy.
        self.metrics.counter("geo.rehomes").inc()
        return to_region

    # -- region lifecycle / WAN control ------------------------------------

    def kill_region(self, name: str) -> None:
        """Take a region down (outage model: its state survives)."""
        if name not in self._clusters:
            raise ConfigurationError(f"unknown region {name!r}")
        if name in self._down:
            raise ConfigurationError(f"region {name!r} is already down")
        self._down.add(name)
        self.metrics.counter("geo.region.kills").inc()
        self.metrics.gauge("geo.regions.down").set(float(len(self._down)))

    def restart_region(self, name: str) -> None:
        """Bring a region back; deferred writes land immediately, hints and
        anti-entropy reconverge its copies on the following ticks."""
        if name not in self._down:
            raise ConfigurationError(f"region {name!r} is not down")
        self._down.discard(name)
        self.metrics.counter("geo.region.restarts").inc()
        self.metrics.gauge("geo.regions.down").set(float(len(self._down)))
        self.ingest_many(self._deferred.pop(name, []))

    def partition_regions(self, groups) -> None:
        """Split the WAN into isolated region groups (chaos drills)."""
        self.wan.partition_group(groups)
        self.metrics.counter("geo.wan.partitions").inc()

    def heal_wan(self) -> None:
        self.wan.heal_all()
        self.metrics.counter("geo.wan.heals").inc()

    # -- time --------------------------------------------------------------

    def tick(self, dt: float) -> None:
        """Advance the shared clock once, then step every live region
        (``cluster.tick`` would advance the one clock the regions share,
        via the shared injector, once per region)."""
        if dt < 0:
            raise ConfigurationError(f"dt must be >= 0, got {dt}")
        self.clock.advance(dt)
        now = self.clock.now
        self.scheduler.run_until(now)
        for name in self.config.regions:
            if name in self._down:
                continue
            self._clusters[name].step(dt)
        self._deliver_hints()
        if now - self._last_antientropy >= ANTIENTROPY_INTERVAL_S:
            self._last_antientropy = now
            self._antientropy_round()
        for home in self.config.regions:
            self.replicator.compact_if_due(home)
        self._refresh_gauges()

    def _refresh_gauges(self) -> None:
        now = self.clock.now
        max_lag, max_stale = 0, 0.0
        for (home, dst), lag in self.replication_lag().items():
            stale = self.replicator.staleness_s(home, dst, now)
            self.metrics.gauge(f"geo.replication.lag.{home}.{dst}").set(float(lag))
            self.metrics.gauge(f"geo.replication.staleness_s.{home}.{dst}").set(stale)
            max_lag = max(max_lag, lag)
            max_stale = max(max_stale, stale)
        self.metrics.gauge("geo.replication.lag_max").set(float(max_lag))
        self.metrics.gauge("geo.replication.staleness_s_max").set(max_stale)

    # -- fan-out queries ---------------------------------------------------

    def query(
        self,
        request: QueryRequest,
        consistency: str = EVENTUAL,
        region: str | None = None,
        session: GeoSession | None = None,
    ) -> GatherResult:
        """Fan one query-plane request out under a per-call consistency mode.

        Like point reads, fan-out queries choose which replicas answer:

        * ``eventual`` — served entirely by the caller's region from its
          local replica state: zero WAN traffic, bounded staleness,
          available through partitions and remote outages.
        * ``read_your_writes`` — served locally only when the caller
          region's replication watermarks cover the session's writes for
          every home; otherwise transparently upgraded to the
          authoritative fan-out.
        * ``linearizable`` — the authoritative fan-out: each live region
          answers for exactly the keys it is home for.  With an explicit
          caller ``region``, reaching each remote home pays (and
          accounts) a WAN round trip, and an unreachable home makes the
          result partial instead of stale; with ``region=None`` (the
          operator view — what :meth:`scan_prefix` uses) the gather is
          costed as intra-DC.

        Any registered modality rides this path — the geo layer resolves
        the plan once and never looks at what the modality is.
        """
        _check_consistency(consistency)
        modality, plan = self.query_executor.resolve(request)
        if consistency == EVENTUAL:
            result = self._query_local(
                modality, plan, self._resolve_region(region)
            )
        elif consistency == READ_YOUR_WRITES:
            via = self._resolve_region(region)
            if self._session_covered(via, session):
                self.metrics.counter("geo.query.ryw_local").inc()
                result = self._query_local(modality, plan, via)
            else:
                # The local copy has not caught up to this session's
                # writes: upgrade to the authoritative fan-out rather
                # than violate RYW.
                self.metrics.counter("geo.query.ryw_upgraded").inc()
                result = self._query_homes(modality, plan, via=via)
        else:
            result = self._query_homes(modality, plan, via=region)
        self.metrics.counter(f"geo.query.{consistency}").inc()
        return result

    def _session_covered(self, via: str, session: GeoSession | None) -> bool:
        """Has ``via`` replicated everything this session wrote, for
        every home?  (No session ⇒ nothing to cover.)"""
        for home in self.config.regions:
            if home == via:
                continue
            needed = session.vector.get(home, 0) if session is not None else 0
            if self.replicator.watermark(home, via) < needed:
                return False
        return True

    def _query_local(
        self, modality: QueryModality, plan: QueryPlan, via: str
    ) -> GatherResult:
        """One region answers from whatever replica state it holds."""
        result = self._clusters[via].run_plan(modality, plan)
        failed = tuple(f"{via}/{shard}" for shard in result.failed_shards)
        if failed:
            self.metrics.counter("geo.gather.partial").inc()
        return GatherResult(items=result.items, failed_shards=failed)

    def _query_homes(
        self, modality: QueryModality, plan: QueryPlan, via: str | None = None
    ) -> GatherResult:
        """Authoritative fan-out: each region answers for its home keys.

        Each live region contributes only the keys it is authoritative
        for (its replica copies of other homes' keys are filtered out, so
        every key appears exactly once).  A down or — under an explicit
        caller region — WAN-unreachable region makes the result partial:
        its name lands in ``failed_shards`` alongside any
        ``region/shard`` entries from intra-region fan-out failures,
        rather than silently serving stale replica state.
        """
        partials: list[list] = []
        failed: list[str] = []
        for name in self.config.regions:
            if name in self._down:
                failed.append(name)
                self.metrics.counter("geo.gather.region_down").inc()
                continue
            if via is not None and via != name:
                try:
                    self._round_trip(via, name, "gather")
                except (PartitionedError, FaultInjectedError):
                    failed.append(name)
                    self.metrics.counter("geo.gather.region_unreachable").inc()
                    continue
            result = self._clusters[name].run_plan(modality, plan)
            partials.append(
                [
                    item
                    for item in result.items
                    if self.home_of(modality.item_key(item)) == name
                ]
            )
            failed.extend(f"{name}/{shard}" for shard in result.failed_shards)
        items = modality.merge(partials, plan)
        if failed:
            self.metrics.counter("geo.gather.partial").inc()
        return GatherResult(items=items, failed_shards=tuple(failed))

    def scan_prefix(self, prefix: str) -> GatherResult:
        """Range query over every region's *home* keyspace (the
        authoritative fan-out of :meth:`query`, operator view)."""
        return self.query(prefix_query(prefix), consistency=LINEARIZABLE)

    # -- introspection -----------------------------------------------------

    def replication_lag(self) -> dict[tuple[str, str], int]:
        """Outstanding records per (home, destination) pair."""
        return {
            (home, dst): self.replicator.lag(home, dst)
            for home in self.config.regions
            for dst in self.config.regions
            if dst != home
        }

    def max_replication_lag(self) -> int:
        return max(self.replication_lag().values(), default=0)

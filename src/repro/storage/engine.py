"""Pluggable storage engines: the compute/storage split of Fig. 7 (Sec. IV-E2).

The paper's architectural answer to the data deluge is a *disaggregated*
stack: stateless compute elastically scaled over a shared storage/memory
tier.  Before this module the :class:`~repro.platform.platform.
MetaversePlatform` constructed and privately owned its stores, so compute
and data could only scale together.  :class:`StorageEngine` is the seam
that separates them — the full operation surface a platform needs from its
storage tier (entity KV ops and committed-product records) behind one
interface with two implementations:

* :class:`LocalStorageEngine` — today's in-process tier (LSM KV store +
  WAL, plain product map).  The byte-identical default: a
  platform built without an engine argument behaves exactly as before.
* :class:`RemoteStorageEngine` — a compute-side client that speaks to
  standalone :class:`StorageNode` processes over a
  :class:`~repro.net.simnet.SimulatedNetwork`: every operation pays
  round-trip link latency on the simulated clock, respects partitions,
  and consults the fault injector at the new ``storage.rpc`` site
  (crash / delay / drop-as-timeout).  The mount surfaces each failure to
  its caller — the platform's retry policy is the one that retries —
  and per-engine counters, latency histograms, and ``storage.rpc`` trace
  spans make the tier observable.

A :class:`StorageTier` groups M storage nodes under a consistent-hash
(vnode) ring so N compute nodes can mount the same tier with N ≠ M —
the topology experiment E26 (``bench_disaggregated_scaleout.py``)
scales.  Because state lives in the tier, a compute node is *stateless*:
cluster membership changes become pure ring remaps (zero entity
migration) and a crashed compute node recovers by re-mounting the
surviving storage nodes instead of replaying a WAL.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable

from ..core.clock import EventScheduler, SimulationClock
from ..core.errors import ConfigurationError, KeyNotFoundError
from ..core.metrics import MetricsRegistry
from ..core.records import KEY_MAX
from ..net.simnet import CallSite, Link, SimulatedNetwork
from ..obs.tracing import NoopTracer, Tracer
from ..placement import Placement
from .kv import KVStore, encode_mput, payload_size

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.columns import RecordBatch
    from ..resilience.faults import FaultInjector

#: The storage RPCs that change what a node holds: each one drops the
#: rows the tier's open read scope recorded (:meth:`StorageTier.read_scope`).
WRITE_OPS = frozenset({"mput", "delete", "put_product", "delete_product"})


class StorageEngine(ABC):
    """The operation surface a platform needs from its storage tier.

    Two key families: *entities* (hot structured state, the KV tier) and
    *products* (committed marketplace post-states the compute tier's MVCC
    cache hydrates from).  Implementations must keep entity scans sorted
    by key and raise :class:`~repro.core.errors.KeyNotFoundError` for
    missing entities.
    """

    #: Implementation tag exported in gauges and describe().
    kind: str = "abstract"

    # -- entities (KV tier) -------------------------------------------------

    @abstractmethod
    def get(self, key: str) -> object: ...

    def put(self, key: str, value: object) -> None:
        """A record is a batch of one."""
        self.mput([(key, value)])

    @abstractmethod
    def delete(self, key: str) -> None: ...

    @abstractmethod
    def scan(self, lo: str, hi: str) -> list[tuple[str, object]]: ...

    def keys(self) -> list[str]:
        return [key for key, _ in self.scan("", KEY_MAX)]

    # -- bulk entity ops (the tick-coalesced hot path) ----------------------
    #
    # One tick's worth of gets/puts moves as a single call: a remote
    # engine coalesces every key owned by the same storage node into ONE
    # round trip, cutting simulated RPC count from O(keys) to O(nodes)
    # per tick (experiment E27).

    def mget(self, keys: Iterable[str]) -> dict[str, object]:
        """Values for every *present* key in ``keys`` (absent keys are
        simply omitted — bulk readers filter, they don't except)."""
        out: dict[str, object] = {}
        for key in keys:
            try:
                out[key] = self.get(key)
            except KeyNotFoundError:
                continue
        return out

    @abstractmethod
    def mput(
        self,
        items: "list[tuple[str, object]]",
        record: bytes | None = None,
        batch: "RecordBatch | None" = None,
    ) -> None:
        """The entity write: store every (key, value) pair in order, later
        duplicates winning.  :meth:`put` is this with one item.
        ``record`` is :func:`~repro.storage.kv.encode_mput` of ``items``
        when the batch arrived already serialised (over the storage RPC);
        the engine that logs the write logs those bytes.  ``batch`` is
        the :class:`~repro.core.columns.RecordBatch` ``items`` were built
        from row for row, when they were: whoever serialises the write
        encodes its columns from the arrays."""

    # -- committed product records ------------------------------------------

    @abstractmethod
    def put_product(self, product_id: str, value: dict) -> None: ...

    @abstractmethod
    def get_product(self, product_id: str) -> dict | None: ...

    @abstractmethod
    def delete_product(self, product_id: str) -> None: ...

    @abstractmethod
    def products(self) -> dict[str, dict]: ...

    # -- lifecycle -----------------------------------------------------------

    def maintain(self, now: float | None = None) -> dict:
        """One data-lifecycle sweep (checkpointing, tier demotion).

        No-op by default; :class:`~repro.storage.lifecycle.
        TieredStorageEngine` overrides it.  The platform and cluster tick
        loops call this unconditionally, so any engine can opt into
        lifecycle work without new wiring.
        """
        return {}

    # -- introspection ------------------------------------------------------

    def describe(self) -> dict:
        return {"kind": self.kind, "entities": len(self.keys())}


class LocalStorageEngine(StorageEngine):
    """The in-process storage tier: LSM KV store (+WAL) and products.

    This is exactly the tier a pre-split platform owned privately, so a
    platform built with a default engine is byte-identical to one built
    before the seam existed.  Product records live in a plain dict — on a
    single node they shadow the MVCC catalog and only matter as the
    hydration source once the engine is mounted remotely.
    """

    kind = "local"

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        faults: "FaultInjector | None" = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NoopTracer()
        self.faults = faults
        self.kv = KVStore(
            metrics=self.metrics,
            tracer=self.tracer,
            faults=faults,
        )
        self._products: dict[str, dict] = {}

    # -- entities -----------------------------------------------------------

    def get(self, key: str) -> object:
        return self.kv.get(key)

    def mput(
        self,
        items: "list[tuple[str, object]]",
        record: bytes | None = None,
        batch: "RecordBatch | None" = None,
    ) -> None:
        # Group commit: one WAL entry and one memtable write for the batch.
        self.kv.mput(items, record, batch)

    def delete(self, key: str) -> None:
        self.kv.delete(key)

    def scan(self, lo: str, hi: str) -> list[tuple[str, object]]:
        return list(self.kv.scan(lo, hi))

    def keys(self) -> list[str]:
        return self.kv.keys()

    # -- products -----------------------------------------------------------

    def put_product(self, product_id: str, value: dict) -> None:
        self._products[product_id] = dict(value)

    def get_product(self, product_id: str) -> dict | None:
        value = self._products.get(product_id)
        return dict(value) if value is not None else None

    def delete_product(self, product_id: str) -> None:
        self._products.pop(product_id, None)

    def products(self) -> dict[str, dict]:
        return {pid: dict(value) for pid, value in self._products.items()}


class StorageNode:
    """One standalone storage server: a named :class:`LocalStorageEngine`
    endpoint on the tier's network.

    Nodes are deliberately dumb — routing, retries, and fault handling are
    the client's job (the classic disaggregated split: smart client,
    simple shared storage).  Per-node counters
    (``storage.node.<name>.ops``) expose the load each node absorbs.
    """

    def __init__(
        self,
        name: str,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        engine_factory=None,
    ) -> None:
        self.name = name
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NoopTracer()
        # ``engine_factory(metrics, tracer)`` lets a tier run lifecycle-
        # managed nodes (e.g. TieredStorageEngine) without this module
        # depending on the lifecycle layer.
        self.engine = (
            engine_factory(self.metrics, self.tracer)
            if engine_factory is not None
            else LocalStorageEngine(metrics=self.metrics, tracer=self.tracer)
        )
        self.ops = 0
        self._ops_counter = self.metrics.counter(f"storage.node.{name}.ops")
        # key -> (last value object served, encoded key size, value size)
        self._sized: dict[str, tuple[object, int, int]] = {}

    def execute(self, op: str, *args):
        """Run one storage operation locally (the RPC server side)."""
        self.ops += 1
        self._ops_counter.inc()
        if op == "delete":
            self._sized.pop(args[0], None)
        return getattr(self.engine, op)(*args)

    def response_size(self, op: str, args: tuple, result) -> int:
        """Bytes ``result`` takes on the wire: ``payload_size(result)``
        exactly, without serialising again what was sized before.

        Entity reads are sized once per value, not once per hop: per key
        served the node keeps the last value object with its key and
        value sizes, and reuses them only while the row still holds that
        same object (values are never mutated once stored).  The memo
        holds the reference, so the identity cannot be recycled under it;
        an overwrite, a delete + re-put, a cold-tier decode or a recovery
        all bring a new object and miss.  Punctuation is arithmetic:
        ``[[k, v], [k, v]]`` adds 6 per row, ``{k: v, k: v}`` 4, and an
        empty one is 2.  A write's ``None`` reply is ``null``, 4 bytes.
        """
        if op == "get":
            rows, punctuation = ((args[0], result),), 0
        elif op == "scan":
            rows, punctuation = result, 6
        elif op == "mget":
            rows, punctuation = result.items(), 4
        elif result is None:
            return 4
        else:
            return payload_size(result)
        sized = self._sized
        total = 0
        for key, value in rows:
            memo = sized.get(key)
            if memo is None or memo[0] is not value:
                key_size = payload_size(key) if memo is None else memo[1]
                memo = sized[key] = (value, key_size, payload_size(value))
            total += memo[1] + memo[2]
        if op == "get":
            return memo[2]
        return total + punctuation * len(result) if result else 2


class StorageTier:
    """M storage nodes behind a consistent-hash ring, mountable by any
    number of compute nodes.

    A :class:`~repro.placement.Placement` of its own (the construction
    the cluster's :class:`~repro.cluster.router.ShardRouter` is built on)
    maps every entity key and product id to its owning node
    *independently of compute membership* — which is precisely what makes
    compute remaps free.  Tier membership is fixed at construction.
    The tier's :class:`~repro.net.simnet.SimulatedNetwork` models the
    compute↔storage links: per-op latency, partitions, and
    bandwidth-proportional serialization delay.
    """

    def __init__(
        self,
        n_nodes: int = 2,
        node_names: Iterable[str] | None = None,
        vnodes: int = 32,
        clock: SimulationClock | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        engine_factory=None,
    ) -> None:
        names = list(node_names) if node_names is not None else [
            f"storage-{i}" for i in range(n_nodes)
        ]
        if not names:
            raise ConfigurationError("storage tier needs at least one node")
        self.placement = Placement(names, vnodes=vnodes)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NoopTracer()
        self.clock = clock if clock is not None else SimulationClock()
        self.scheduler = EventScheduler(self.clock)
        # Every compute↔storage pair is one intra-data-center link: 1 ms
        # and 1 Gbit/s (simnet's default), what E26–E28 were measured on.
        self.net = SimulatedNetwork(
            self.scheduler,
            default_link=Link(),
            metrics=self.metrics,
            tracer=self.tracer,
        )
        self.nodes: dict[str, StorageNode] = {}
        for name in names:
            self.nodes[name] = StorageNode(
                name, metrics=self.metrics, tracer=self.tracer,
                engine_factory=engine_factory,
            )
            self.net.add_node(name)
        self._mounts = 0
        # (lo, hi) -> the rows a mount read for that range inside the open
        # read scope; ``None`` while no scope is open.
        self._scans: dict[tuple[str, str], list] | None = None
        self.metrics.gauge("storage.tier.nodes").set(float(len(self.nodes)))

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def node_names(self) -> list[str]:
        return list(self.nodes)

    def node_of(self, key: str) -> StorageNode:
        """The storage node owning ``key`` (compute-membership-independent)."""
        return self.nodes[self.placement.owner_of(key)]

    def group_by_node(
        self, items: Iterable, key: Callable | None = None
    ) -> "dict[StorageNode, list]":
        """Partition keys — or ``items`` carrying one under ``key(item)`` —
        by owning node (input order preserved, nodes in first-appearance
        order) — the coalescing primitive."""
        return {
            self.nodes[name]: part
            for name, part in self.placement.group(items, key).items()
        }

    def mget(self, keys: Iterable[str]) -> dict[str, object]:
        """Server-side bulk read across nodes (audits and invariants;
        clients go through :meth:`RemoteStorageEngine.mget` to pay the
        simulated round trips)."""
        merged: dict[str, object] = {}
        for node, node_keys in self.group_by_node(keys).items():
            merged.update(node.execute("mget", node_keys))
        return merged

    def mount(
        self,
        client: str | None = None,
        faults: "FaultInjector | None" = None,
        rpc_timeout_s: float = 0.05,
    ) -> "RemoteStorageEngine":
        """Attach a new compute-side client and return its engine.

        Every mount gets a unique endpoint name, so a re-mounted compute
        node is a *new* network identity — exactly how a restarted
        process rejoins a real fabric.
        """
        self._mounts += 1
        name = f"compute/{client or 'node'}@{self._mounts}"
        return RemoteStorageEngine(
            self,
            client=name,
            faults=faults,
            rpc_timeout_s=rpc_timeout_s,
        )

    @contextmanager
    def read_scope(self):
        """Read each range once for the length of one fan-out.

        Inside the scope, a mount's :meth:`RemoteStorageEngine.scan` of
        ``(lo, hi)`` returns the rows another mount of this tier already
        read for that range, and records the rows of a read it makes
        itself once that read returned.  Any write through the tier
        (:data:`WRITE_OPS`) drops every recorded range, and the rows go
        when the scope closes, so nothing is served past the fan-out that
        read it.  A nested scope is part of the one already open.
        """
        if self._scans is not None:
            yield
            return
        self._scans = {}
        try:
            yield
        finally:
            self._scans = None

    def keys(self) -> list[str]:
        """Every entity key held anywhere in the tier (introspection —
        benchmarks and invariant tests audit the tier directly)."""
        merged: set[str] = set()
        for node in self.nodes.values():
            merged.update(node.engine.keys())
        return sorted(merged)

    def maintain(self, now: float | None = None) -> dict[str, dict]:
        """Run one lifecycle sweep on every storage node's engine.

        Server-side maintenance: checkpointing and tier demotion happen
        where the data lives, not on the compute clients.  Returns each
        node's sweep summary.
        """
        now = self.clock.now if now is None else now
        return {
            name: node.engine.maintain(now) for name, node in self.nodes.items()
        }

    def describe(self) -> dict:
        return {
            "nodes": self.node_names,
            "vnodes": self.placement.vnodes,
            "mounts": self._mounts,
            "entities": len(self.keys()),
        }


class RemoteStorageEngine(StorageEngine):
    """Compute-side client of a :class:`StorageTier`.

    Each operation routes its key through the tier ring to the owning
    node and pays a synchronous round trip on the simulated clock (one
    :meth:`~repro.net.simnet.SimulatedNetwork.call`): request
    serialization + propagation out, response back, plus any injected
    extra latency.  The ``storage.rpc`` fault site models the
    disaggregation tax in failure form — ``crash`` (the RPC errors),
    ``delay`` (slow link), and ``drop`` (the request vanishes; the client
    burns its ``rpc_timeout_s`` budget before surfacing the failure) —
    all raised as retryable :class:`~repro.core.errors.FaultInjectedError`.
    A partitioned node costs the same ``rpc_timeout_s`` before the call
    raises :class:`~repro.core.errors.PartitionedError`.  The mount does not
    retry: the platform's own retry policy
    (:meth:`~repro.platform.platform.MetaversePlatform._with_retry`)
    recovers transient storage faults, so a storage call is retried in
    one layer.
    """

    kind = "remote"

    def __init__(
        self,
        tier: StorageTier,
        client: str = "compute/node@0",
        faults: "FaultInjector | None" = None,
        rpc_timeout_s: float = 0.05,
    ) -> None:
        if rpc_timeout_s <= 0:
            raise ConfigurationError("rpc_timeout_s must be positive")
        self.tier = tier
        self.client = client
        self.metrics = tier.metrics
        self.tracer = tier.tracer
        self.faults = faults
        # A round trip's counters, bound once; fault paths look theirs up.
        self._site = CallSite(
            "storage.rpc", ("crash", "delay", "drop"), rpc_timeout_s, faults,
            calls=self.metrics.counter("storage.rpc.calls"),
            latency=self.metrics.histogram("storage.rpc.latency_s"),
            sent=self.metrics.counter("storage.rpc.bytes"),
            failed={"partitioned": ("storage.rpc.partitioned",),
                    "crash": ("storage.rpc.faults",),
                    "drop": ("storage.rpc.faults", "storage.rpc.timeouts")},
        )
        if client not in tier.net.nodes:
            tier.net.add_node(client)
        self.rpcs = 0

    # -- the RPC core -------------------------------------------------------

    def _rpc(self, node: StorageNode, op: str, request_size: int, *args):
        scans = self.tier._scans
        if scans and op in WRITE_OPS:
            scans.clear()
        result = self.tier.net.call(
            self.client, node.name, self._site, request_size, op, node, *args
        )
        self.rpcs += 1
        return result

    def _rpc_to_owner(self, op: str, key: str, payload_size: int, *args):
        """One ``op(key, *args)`` RPC to the node owning ``key``; the
        request carries the key plus ``payload_size`` bytes."""
        return self._rpc(
            self.tier.node_of(key), op, len(key) + payload_size, key, *args
        )

    def _fan_out(self, op: str, request_size: int, *args) -> list:
        """Run ``op`` against every node (scans have no single owner)."""
        return [
            self._rpc(node, op, request_size, *args)
            for node in self.tier.nodes.values()
        ]

    # -- entities -----------------------------------------------------------

    def get(self, key: str) -> object:
        return self._rpc_to_owner("get", key, 0)

    def put(self, key: str, value: object) -> None:
        self.mput([(key, value)])

    def delete(self, key: str) -> None:
        self._rpc_to_owner("delete", key, 0)

    def scan(self, lo: str, hi: str) -> list[tuple[str, object]]:
        """Every (key, value) in ``[lo, hi]``, sorted: one RPC per node,
        unless another mount read this range inside the tier's open read
        scope (:meth:`StorageTier.read_scope`).  Those rows are served
        here after the network's reachability check of each node, the
        one this mount's own RPCs make (a cut node costs the timeout)."""
        scans = self.tier._scans
        rows = None if scans is None else scans.get((lo, hi))
        if rows is not None:
            for name in self.tier.nodes:
                self.tier.net.reach(self.client, name, self._site)
            return list(rows)
        merged: list[tuple[str, object]] = []
        for part in self._fan_out("scan", len(lo) + len(hi), lo, hi):
            merged.extend(part)
        merged.sort(key=itemgetter(0))  # timsort merges the sorted parts
        if scans is not None:
            scans[(lo, hi)] = merged
            return list(merged)
        return merged

    # -- coalesced bulk ops -------------------------------------------------
    #
    # The disaggregation tax is per-round-trip, not per-key: a tick's
    # worth of keys owned by the same storage node travels as ONE RPC
    # (``mget``/``mput`` on the node side), so per-tick round trips are
    # O(storage nodes) instead of O(keys).  Fault semantics are
    # batch-grained by construction — the injector is consulted once per
    # round trip in SimulatedNetwork.call, so a dropped batch burns one
    # timeout and fails as a unit.

    def mget(self, keys: Iterable[str]) -> dict[str, object]:
        merged: dict[str, object] = {}
        for node, node_keys in self.tier.group_by_node(keys).items():
            merged.update(
                self._rpc(
                    node, "mget",
                    sum(len(key) for key in node_keys), node_keys,
                )
            )
        return merged

    def mput(
        self,
        items: "list[tuple[str, object]]",
        record: bytes | None = None,
        batch: "RecordBatch | None" = None,
    ) -> None:
        # The request on the wire is the record in the node's log: every
        # node group is serialised here, once, before the first round trip
        # — a value JSON cannot carry fails with no node written.  A
        # ``record`` handed in covers all of ``items``, not one node's
        # group, so it is not what is sent.  A node group is a list of
        # rows, so ``batch``'s arrays encode it.
        requests = []
        keys = list(map(itemgetter(0), items))
        grouped = self.tier.group_by_node(range(len(keys)), keys.__getitem__)
        for node, rows in grouped.items():
            node_items = list(map(items.__getitem__, rows))
            request = encode_mput(node_items, batch, rows)
            requests.append((node, node_items, request))
        for node, node_items, request in requests:
            self._rpc(node, "mput", len(request), node_items, request)

    # -- products -----------------------------------------------------------

    def put_product(self, product_id: str, value: dict) -> None:
        self._rpc_to_owner("put_product", product_id, payload_size(value), value)

    def get_product(self, product_id: str) -> dict | None:
        return self._rpc_to_owner("get_product", product_id, 0)

    def delete_product(self, product_id: str) -> None:
        self._rpc_to_owner("delete_product", product_id, 0)

    def products(self) -> dict[str, dict]:
        merged: dict[str, dict] = {}
        for part in self._fan_out("products", 1):
            merged.update(part)
        return merged

    # -- introspection ------------------------------------------------------

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "client": self.client,
            "tier": self.tier.describe(),
            "rpcs": self.rpcs,
        }

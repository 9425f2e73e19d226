"""Simulated network substrate.

The paper's dissemination, consistency, and distributed-transaction
arguments (Sec. IV-C, IV-E) all hinge on network latency and bandwidth
constraints.  ``SimulatedNetwork`` provides a deterministic message fabric:
nodes register handlers; links have latency, bandwidth, and loss; messages
are delivered through the shared :class:`~repro.core.clock.EventScheduler`.

This substitutes for the paper's real wide-area / 5G network — the results
we reproduce depend on latency/bandwidth *ratios*, which the model captures.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Callable

from ..core.clock import EventScheduler
from ..core.errors import ConfigurationError, FaultInjectedError, NetworkError, PartitionedError
from ..core.metrics import Counter, Histogram, MetricsRegistry
from ..obs.tracing import NoopTracer, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.faults import FaultInjector

_message_ids = itertools.count(1)


@dataclass(slots=True)
class Message:
    """A message in flight between two nodes.

    ``corrupted`` marks a payload damaged in flight (an injected
    ``corrupt`` fault); receivers reject it at delivery, modelling a
    checksum failure, unless the node opts in via ``accept_corrupt``.
    """

    src: str
    dst: str
    topic: str
    payload: Any
    size_bytes: int
    sent_at: float
    corrupted: bool
    message_id: int


@dataclass
class Link:
    """Directed link properties.

    ``latency_s`` is propagation delay; ``bandwidth_bps`` bounds throughput
    (serialization delay = size / bandwidth); ``loss_rate`` drops messages
    independently at random.
    """

    latency_s: float = 0.001
    bandwidth_bps: float = 1e9
    loss_rate: float = 0.0

    def transfer_delay(self, size_bytes: int) -> float:
        if self.bandwidth_bps <= 0:
            raise ConfigurationError("bandwidth must be positive")
        return self.latency_s + (size_bytes * 8.0) / self.bandwidth_bps


@dataclass(frozen=True, slots=True)
class CallSite:
    """A caller's side of :meth:`SimulatedNetwork.call`, built once: the
    fault site (and span name) its ``faults`` decide at, the ``kinds``
    drawn there, the timeout a failed call burns (all but an injected
    ``crash``), the bound metrics of a returned call (``sent`` adds its
    request bytes), and per failure — ``"partitioned"`` or the injected
    kind — the counters it adds one to, looked up as fault paths do."""

    site: str
    kinds: tuple[str, ...]
    timeout_s: float
    faults: "FaultInjector | None"
    calls: Counter
    latency: Histogram
    sent: Counter | None
    failed: dict[str, tuple[str, ...]]


class Node:
    """A network endpoint with per-topic handlers."""

    def __init__(self, name: str, network: "SimulatedNetwork") -> None:
        self.name = name
        self.network = network
        self._handlers: dict[str, Callable[[Message], None]] = {}
        self.received: list[Message] = []
        self.keep_received = False
        self.accept_corrupt = False

    def on(self, topic: str, handler: Callable[[Message], None]) -> None:
        """Register ``handler`` for messages with ``topic``."""
        self._handlers[topic] = handler

    def deliver(self, message: Message) -> None:
        if message.corrupted and not self.accept_corrupt:
            self.network.metrics.counter("net.messages_rejected_corrupt").inc()
            return
        if self.keep_received:
            self.received.append(message)
        handler = self._handlers.get(message.topic)
        if handler is None:
            handler = self._handlers.get("*")
        if handler is not None:
            handler(message)

    def send(self, dst: str, topic: str, payload: Any, size_bytes: int = 256) -> Message:
        return self.network.send(self.name, dst, topic, payload, size_bytes)


class SimulatedNetwork:
    """Deterministic message fabric over an :class:`EventScheduler`.

    A default link applies between any pair without an explicit link.
    Partitions are sets of unordered node pairs that drop all traffic.
    The counters every message moves (sent, bytes, delivered, delivery
    latency) are bound once at construction; fault paths look theirs up.
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        default_link: Link | None = None,
        seed: int = 0,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        faults: "FaultInjector | None" = None,
    ) -> None:
        self.scheduler = scheduler
        self.default_link = default_link if default_link is not None else Link()
        self.nodes: dict[str, Node] = {}
        self._links: dict[tuple[str, str], Link] = {}
        self._partitioned: set[frozenset[str]] = set()
        self._rng = random.Random(seed)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NoopTracer()
        self.faults = faults
        self._sent = self.metrics.counter("net.messages_sent")
        self._bytes_sent = self.metrics.counter("net.bytes_sent")
        self._delivered = self.metrics.counter("net.messages_delivered")
        self._latency = self.metrics.histogram("net.delivery_latency")

    # -- topology ---------------------------------------------------------

    def add_node(self, name: str) -> Node:
        if name in self.nodes:
            raise ConfigurationError(f"node {name!r} already exists")
        node = Node(name, self)
        self.nodes[name] = node
        return node

    def node(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise NetworkError(f"unknown node {name!r}") from None

    def remove_node(self, name: str) -> None:
        """Unregister a node (crash or restart under a new endpoint).

        Idempotent; messages already in flight toward it are silently
        dropped at delivery time, as a dead endpoint would drop them.
        """
        self.nodes.pop(name, None)

    def set_link(self, src: str, dst: str, link: Link, symmetric: bool = True) -> None:
        self._links[(src, dst)] = link
        if symmetric:
            self._links[(dst, src)] = link

    def link_for(self, src: str, dst: str) -> Link:
        links = self._links
        return links.get((src, dst), self.default_link) if links else self.default_link

    def partition(self, a: str, b: str) -> None:
        """Sever connectivity between ``a`` and ``b`` (both directions)."""
        self._partitioned.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> None:
        self._partitioned.discard(frozenset((a, b)))

    def partition_group(self, groups) -> None:
        """Split the network into isolated ``groups`` of node names.

        Every pair of nodes in *different* groups is partitioned; pairs
        within a group keep their connectivity.  Group-granularity splits
        are what geo chaos drills want (e.g. one region vs. the rest)
        without enumerating pairwise :meth:`partition` calls.  Node names
        may appear in at most one group; an empty group is rejected.
        """
        groups = [list(group) for group in groups]
        seen: set[str] = set()
        for group in groups:
            if not group:
                raise ConfigurationError("partition_group: empty group")
            for name in group:
                if name in seen:
                    raise ConfigurationError(
                        f"partition_group: {name!r} appears in multiple groups"
                    )
                seen.add(name)
        for i, group in enumerate(groups):
            for other in groups[i + 1:]:
                for a in group:
                    for b in other:
                        self.partition(a, b)

    def heal_all(self) -> None:
        """Clear every partition (pairwise or group-granularity)."""
        self._partitioned.clear()

    def is_partitioned(self, a: str, b: str) -> bool:
        return frozenset((a, b)) in self._partitioned

    # -- transport --------------------------------------------------------

    def send(
        self,
        src: str,
        dst: str,
        topic: str,
        payload: Any,
        size_bytes: int = 256,
    ) -> Message:
        """Send a message; it is delivered asynchronously via the scheduler.

        Raises :class:`PartitionedError` immediately if the pair is
        partitioned (the sender can observe the failure, as a real RPC
        timeout would surface it).
        """
        if dst not in self.nodes:
            raise NetworkError(f"unknown destination {dst!r}")
        if self._partitioned and self.is_partitioned(src, dst):
            self.metrics.counter("net.partitioned_sends").inc()
            raise PartitionedError(f"{src} -> {dst} is partitioned")
        extra_delay = 0.0
        corrupted = dropped = False
        if self.faults is not None:
            decision = self.faults.decide(
                "net.link",
                target=f"{src}->{dst}",
                kinds=("partition", "drop", "delay", "corrupt"),
            )
            if decision.kind == "partition":
                self.metrics.counter("net.partitioned_sends").inc()
                raise PartitionedError(
                    f"{src} -> {dst}: injected transient partition"
                )
            if decision.kind == "drop":
                dropped = True
            elif decision.kind == "delay":
                extra_delay = decision.delay_s
            elif decision.kind == "corrupt":
                corrupted = True
        scheduler = self.scheduler
        now = scheduler.clock.now
        message = Message(
            src, dst, topic, payload, size_bytes, now, corrupted,
            next(_message_ids),
        )
        links = self._links
        link = links.get((src, dst), self.default_link) if links else self.default_link
        self._sent.value += 1
        self._bytes_sent.inc(size_bytes)  # a negative size raises here
        if dropped or (link.loss_rate > 0 and self._rng.random() < link.loss_rate):
            self.metrics.counter("net.messages_dropped").inc()
            return message
        # Nothing cancels a message in flight, so it takes no handle.
        scheduler._push(
            now + link.transfer_delay(size_bytes) + extra_delay,
            partial(self._deliver, message),
        )
        return message

    def call(self, src: str, dst: str, site: CallSite, request_bytes: int, op: str,
             server: Any = None, *args: Any) -> Any:
        """One synchronous round trip ``src -> dst -> src`` on the clock: in
        order :meth:`reach`, the fault decision (a ``delay`` lengthens the
        request leg, any other kind fails the call), the request leg,
        ``server.execute(op, *args)`` at ``dst``, and the reply leg of
        ``server.response_size(op, args, result)`` bytes, in one span named
        by the site (``op``, ``node=dst``); then ``site`` counts it.
        Without a server it is a ping: the reply is as long as the request
        and both legs pass as one advance.  A call is not a message: it
        skips :meth:`send` and moves no ``net.`` metric."""
        clock = self.scheduler.clock
        if self._partitioned:
            self.reach(src, dst, site)
        extra = 0.0
        if site.faults is not None:
            decision = site.faults.decide(
                site.site, target=f"{src}->{dst}", kinds=site.kinds
            )
            if decision.kind == "delay":
                extra = decision.delay_s
            elif decision.kind is not None:
                self._fail(site, decision.kind, src, dst)
        started = clock.now
        there = self.link_for(src, dst).transfer_delay(request_bytes)
        back = self.link_for(dst, src)
        with self.tracer.span(site.site, op=op, node=dst):
            if server is None:
                result, elapsed = None, there + back.transfer_delay(request_bytes) + extra
                clock.advance(elapsed)
            else:
                clock.advance(there + extra)
                result = server.execute(op, *args)
                reply = back.transfer_delay(server.response_size(op, args, result))
                elapsed = clock.advance(reply) - started
        site.calls.inc()
        if site.sent is not None:
            site.sent.inc(request_bytes)
        site.latency.observe(elapsed)
        return result

    def reach(self, src: str, dst: str, site: CallSite) -> None:
        """Fail a call of ``site`` (timeout burnt) if ``src``-``dst`` is cut."""
        if self._partitioned and self.is_partitioned(src, dst):
            self._fail(site, "partitioned", src, dst)

    def _fail(self, site: CallSite, kind: str, src: str, dst: str) -> None:
        for name in site.failed.get(kind, ()):
            self.metrics.counter(name).inc()
        route = f"{site.site} ({src} -> {dst})"
        if kind == "crash":
            raise FaultInjectedError(f"injected crash at {route}")
        # A lost request or a cut link is a timeout to the caller.
        self.scheduler.clock.advance(site.timeout_s)
        error = PartitionedError if kind.startswith("partition") else FaultInjectedError
        raise error(f"{route} timed out after {site.timeout_s}s: {kind}")

    def _deliver(self, message: Message) -> None:
        # A partition raised mid-flight also drops the message.
        if self._partitioned and self.is_partitioned(message.src, message.dst):
            self.metrics.counter("net.messages_dropped").inc()
            return
        node = self.nodes.get(message.dst)
        if node is None:
            return
        self._delivered.value += 1
        self._latency.observe(self.scheduler.clock.now - message.sent_at)
        node.deliver(message)

"""Coherency-bounded dissemination and priority transmission scheduling.

Paper Sec. IV-C ("Data Consistency"): a truly consistent view across the two
spaces is unattainable under bandwidth constraints, so the virtual world
should track the physical one within *tolerable discrepancy* — numeric data
within coherency bounds, and critical data transmitted before bulk data.

This module implements:

* :class:`CoherencySource` — push-based dissemination of numeric object
  values where each subscriber declares an incoherency bound epsilon; an
  update is pushed to a subscriber only when the value has drifted more than
  epsilon from what that subscriber last saw ([13], [67]).
* :class:`DisseminationTree` — a repeater hierarchy in the spirit of the
  adaptive dissemination framework [96]: interior nodes filter with the
  tightest bound needed below them, so filtering happens as close to the
  source as possible.
* :class:`PriorityScheduler` — a bandwidth-limited transmission queue with
  strict priority classes (critical before bulk), and a FIFO baseline for
  comparison (E2); inspired by scheduling for intermittently-connected
  networks [92].
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict
from dataclasses import dataclass, field

from ..core.errors import ConfigurationError
from ..core.metrics import MetricsRegistry
from ..obs.tracing import NoopTracer, Tracer
from ..obs.profiling import timed


@dataclass
class CoherencySubscription:
    """A subscriber's bound for one object: push when drift > epsilon."""

    subscriber: str
    object_id: str
    epsilon: float

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise ConfigurationError("epsilon must be >= 0")


class CoherencySource:
    """Source-side coherency filtering for numeric object streams.

    For each (object, subscriber) pair the source remembers the last pushed
    value; an incoming update is forwarded only if it drifts beyond the
    subscriber's epsilon.  ``epsilon == 0`` degenerates to push-every-update.

    The *incoherency* a subscriber experiences is ``|true - last_pushed|``;
    by construction it never exceeds epsilon at update boundaries, which is
    the guarantee benchmark E1 checks.
    """

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NoopTracer()
        self._subs: dict[str, list[CoherencySubscription]] = defaultdict(list)
        self._last_pushed: dict[tuple[str, str], float] = {}
        self._true_value: dict[str, float] = {}

    def subscribe(self, sub: CoherencySubscription) -> None:
        self._subs[sub.object_id].append(sub)

    def update(self, object_id: str, value: float) -> list[str]:
        """Apply a source update; return subscribers that received a push."""
        self._true_value[object_id] = value
        pushed: list[str] = []
        for sub in self._subs[object_id]:
            key = (object_id, sub.subscriber)
            last = self._last_pushed.get(key)
            if last is None or abs(value - last) > sub.epsilon:
                self._last_pushed[key] = value
                pushed.append(sub.subscriber)
                self.metrics.counter("coherency.pushes").inc()
            else:
                self.metrics.counter("coherency.suppressed").inc()
        self.metrics.counter("coherency.updates").inc()
        return pushed

    def incoherency(self, object_id: str, subscriber: str) -> float:
        """Current |true value - subscriber's view| for the pair."""
        true = self._true_value.get(object_id)
        seen = self._last_pushed.get((object_id, subscriber))
        if true is None or seen is None:
            return float("inf")
        return abs(true - seen)

    def max_incoherency(self, object_id: str) -> float:
        """Worst incoherency across subscribers of ``object_id``."""
        subs = self._subs[object_id]
        if not subs:
            return 0.0
        return max(self.incoherency(object_id, s.subscriber) for s in subs)


@dataclass
class _TreeNode:
    name: str
    epsilon: float  # own requirement (leaves) or +inf for pure repeaters
    children: list["_TreeNode"] = field(default_factory=list)
    effective_epsilon: float = float("inf")
    last_forwarded: float | None = None
    view: float | None = None


class DisseminationTree:
    """Repeater hierarchy with near-source filtering ([96]).

    Each leaf is a subscriber with an epsilon; each interior node forwards an
    update downward only when it drifts beyond the *minimum* epsilon of its
    subtree.  Compared to a flat source (which evaluates every subscriber on
    every update), a tree suppresses traffic on whole subtrees at once; the
    total push count is identical at the leaves, but interior link traffic
    and source-side work drop — the scalability point of Sec. IV-C.
    """

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NoopTracer()
        self._nodes: dict[str, _TreeNode] = {}
        self._root: _TreeNode | None = None

    def add_node(self, name: str, parent: str | None, epsilon: float = float("inf")) -> None:
        if name in self._nodes:
            raise ConfigurationError(f"node {name!r} already in tree")
        node = _TreeNode(name=name, epsilon=epsilon)
        self._nodes[name] = node
        if parent is None:
            if self._root is not None:
                raise ConfigurationError("tree already has a root")
            self._root = node
        else:
            if parent not in self._nodes:
                raise ConfigurationError(f"unknown parent {parent!r}")
            self._nodes[parent].children.append(node)

    def finalize(self) -> None:
        """Assign per-edge forwarding thresholds that preserve leaf bounds.

        A naive "interior threshold = min epsilon of subtree" scheme violates
        leaf guarantees: suppression at an ancestor adds slack on top of the
        leaf's own threshold.  Instead the epsilon *budget* is split along
        each root-to-leaf path: an interior edge receives half of the
        remaining budget of its tightest descendant, and a leaf edge receives
        exactly its epsilon minus the slack already spent above it.  The leaf
        incoherency is then bounded by the path sum, which equals the leaf's
        declared epsilon.
        """
        if self._root is None:
            raise ConfigurationError("tree has no root")

        def subtree_eps(node: _TreeNode) -> float:
            eps = node.epsilon
            for child in node.children:
                eps = min(eps, subtree_eps(child))
            return eps

        def assign(node: _TreeNode, used: float) -> None:
            for child in node.children:
                if child.children:
                    budget = max(0.0, subtree_eps(child) - used)
                    child.effective_epsilon = 0.5 * budget
                else:
                    child.effective_epsilon = max(0.0, child.epsilon - used)
                assign(child, used + child.effective_epsilon)

        self._root.effective_epsilon = 0.0
        assign(self._root, 0.0)

    def update(self, value: float) -> list[str]:
        """Push ``value`` from the root; return leaf subscribers reached."""
        if self._root is None:
            raise ConfigurationError("tree has no root")
        reached: list[str] = []
        frontier = [self._root]
        self._root.view = value
        while frontier:
            node = frontier.pop()
            for child in node.children:
                drift = (
                    float("inf")
                    if child.last_forwarded is None
                    else abs(value - child.last_forwarded)
                )
                if drift > child.effective_epsilon:
                    child.last_forwarded = value
                    child.view = value
                    self.metrics.counter("tree.link_messages").inc()
                    if child.children:
                        frontier.append(child)
                    else:
                        reached.append(child.name)
                else:
                    self.metrics.counter("tree.link_suppressed").inc()
        return reached

    def leaf_incoherency(self, name: str, true_value: float) -> float:
        node = self._nodes[name]
        if node.view is None:
            return float("inf")
        return abs(true_value - node.view)


class OutageBuffer:
    """Catch-up state for intermittently connected subscribers ([92]).

    Mobile metaverse clients disconnect constantly.  While a subscriber is
    offline, buffering *every* missed update wastes memory and replay
    bandwidth; for state-style streams only the latest value per object
    matters.  The buffer therefore *collapses* updates per object and
    replays, on reconnect, one update per dirty object ordered by priority —
    combining the coherency insight of Sec. IV-C with the
    disruption-tolerant delivery of [92].
    """

    def __init__(self) -> None:
        self._online = True
        self._pending: dict[str, tuple[int, float]] = {}  # obj -> (prio, value)
        self.buffered_updates = 0
        self.replayed_updates = 0
        self.delivered_live = 0

    @property
    def online(self) -> bool:
        return self._online

    def disconnect(self) -> None:
        self._online = False

    def offer(self, object_id: str, value: float, priority: int = 1) -> bool:
        """Push an update; returns True if delivered live (subscriber online).

        While offline, the *latest* value per object always wins (state
        streams supersede), and the slot keeps the most critical priority
        seen so replay ordering honours criticality.
        """
        if self._online:
            self.delivered_live += 1
            return True
        self.buffered_updates += 1
        current = self._pending.get(object_id)
        slot_priority = priority if current is None else min(priority, current[0])
        self._pending[object_id] = (slot_priority, value)
        return False

    def reconnect(self) -> list[tuple[str, float]]:
        """Come back online; returns the collapsed catch-up batch,
        most-critical objects first."""
        self._online = True
        batch = sorted(
            self._pending.items(), key=lambda kv: (kv[1][0], kv[0])
        )
        self._pending.clear()
        out = [(object_id, value) for object_id, (_, value) in batch]
        self.replayed_updates += len(out)
        return out

    def replay_savings(self) -> float:
        """Fraction of buffered updates the collapse avoided replaying."""
        if self.buffered_updates == 0:
            return 0.0
        return 1.0 - self.replayed_updates / self.buffered_updates


_seq = itertools.count()


@dataclass(order=True)
class _QueuedItem:
    sort_key: tuple[int, int] = field(compare=True)
    enqueued_at: float = field(compare=False, default=0.0)
    size_bytes: int = field(compare=False, default=0)
    priority: int = field(compare=False, default=0)
    label: str = field(compare=False, default="")


@dataclass
class Delivery:
    """A completed transmission."""

    label: str
    priority: int
    enqueued_at: float
    delivered_at: float
    size_bytes: int

    @property
    def latency(self) -> float:
        return self.delivered_at - self.enqueued_at


class PriorityScheduler:
    """Bandwidth-limited transmitter with strict priority classes.

    ``priority`` 0 is most critical.  ``drain(now, budget_bytes)`` transmits
    queued items in (priority, arrival) order until the byte budget for this
    tick is exhausted; with ``fifo=True`` it degrades to pure arrival order,
    the baseline for experiment E2.
    """

    def __init__(
        self,
        fifo: bool = False,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.fifo = fifo
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NoopTracer()
        self._heap: list[_QueuedItem] = []
        self.deliveries: list[Delivery] = []

    def enqueue(
        self,
        label: str,
        priority: int,
        size_bytes: int,
        now: float,
    ) -> None:
        if priority < 0:
            raise ConfigurationError("priority must be >= 0")
        if size_bytes <= 0:
            raise ConfigurationError("size_bytes must be positive")
        seq = next(_seq)
        sort_key = (seq,) if self.fifo else (priority, seq)
        item = _QueuedItem(
            sort_key=tuple(sort_key),  # type: ignore[arg-type]
            enqueued_at=now,
            size_bytes=size_bytes,
            priority=priority,
            label=label,
        )
        heapq.heappush(self._heap, item)
        self.metrics.counter("sched.enqueued").inc()

    def __len__(self) -> int:
        return len(self._heap)

    @timed("net.scheduler_drain")
    def drain(self, now: float, budget_bytes: int) -> list[Delivery]:
        """Transmit up to ``budget_bytes`` worth of queued items."""
        sent: list[Delivery] = []
        remaining = budget_bytes
        while self._heap and self._heap[0].size_bytes <= remaining:
            item = heapq.heappop(self._heap)
            remaining -= item.size_bytes
            delivery = Delivery(
                label=item.label,
                priority=item.priority,
                enqueued_at=item.enqueued_at,
                delivered_at=now,
                size_bytes=item.size_bytes,
            )
            sent.append(delivery)
            self.deliveries.append(delivery)
            self.metrics.counter("sched.delivered").inc()
            self.metrics.histogram(f"sched.latency.p{item.priority}").observe(
                delivery.latency
            )
        return sent

    def latencies_by_priority(self) -> dict[int, list[float]]:
        out: dict[int, list[float]] = defaultdict(list)
        for delivery in self.deliveries:
            out[delivery.priority].append(delivery.latency)
        return dict(out)

"""Buffer pool with pluggable, space-aware eviction (paper Sec. IV-F).

The paper calls for "novel buffer management and caching schemes ...
conscious of the semantics", e.g. physical-space data prioritized over
virtual-space data.  The :class:`BufferPool` caches pages fetched through
a loader callback; a page's writer may replace its value in place or
drop it (:meth:`BufferPool.written`, once for a whole write), or drop
one page (:meth:`BufferPool.invalidate`).
It supports three eviction policies:

* :class:`LRUPolicy` — classic least-recently-used,
* :class:`LRUKPolicy` — LRU-K (backward K-distance) which resists scan
  pollution, and
* :class:`SpaceAwarePolicy` — semantic priority: pages are ranked by a
  (space, kind) weight first and recency second, so physical-space and
  critical-kind pages survive pressure from bulk virtual data.

Experiment E11 measures hit rates of the three under a metaverse-mix
workload.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Hashable, Protocol

from ..core.errors import ConfigurationError
from ..core.metrics import MetricsRegistry
from ..core.records import DataKind, Space
from ..obs.tracing import NoopTracer, Tracer

PageKey = Hashable


@dataclass(slots=True)
class PageMeta:
    """Semantic attributes attached to a cached page."""

    space: Space = Space.PHYSICAL
    kind: DataKind = DataKind.STRUCTURED
    size_bytes: int = 1


@dataclass(slots=True)
class _Frame:
    value: object
    meta: PageMeta
    last_access: int = 0
    history: list[int] = field(default_factory=list)  # access times, newest last


class EvictionPolicy(Protocol):
    """Chooses a victim among resident pages."""

    def touch(self, key: PageKey, frame: _Frame, tick: int) -> None: ...

    def victim(self, frames: dict[PageKey, _Frame]) -> PageKey: ...


class LRUPolicy:
    """Evict the least recently used page."""

    def touch(self, key: PageKey, frame: _Frame, tick: int) -> None:
        frame.last_access = tick

    def victim(self, frames: dict[PageKey, _Frame]) -> PageKey:
        return min(frames, key=lambda k: frames[k].last_access)


class LRUKPolicy:
    """LRU-K: evict the page with the oldest K-th most recent access.

    Pages with fewer than K accesses have backward K-distance infinity and
    are evicted first (ties broken by recency), which protects frequently
    re-referenced pages from one-shot scans.
    """

    def __init__(self, k: int = 2) -> None:
        if k < 1:
            raise ConfigurationError("k must be >= 1")
        self.k = k

    def touch(self, key: PageKey, frame: _Frame, tick: int) -> None:
        frame.last_access = tick
        frame.history.append(tick)
        if len(frame.history) > self.k:
            frame.history = frame.history[-self.k :]

    def victim(self, frames: dict[PageKey, _Frame]) -> PageKey:
        def k_distance(frame: _Frame) -> tuple[int, int]:
            if len(frame.history) < self.k:
                return (0, frame.last_access)  # -inf K-distance group
            return (1, frame.history[0])

        return min(frames, key=lambda k: k_distance(frames[k]))


class SpaceAwarePolicy:
    """Semantic eviction: keep high-weight (space, kind) pages resident.

    ``weights`` maps (space, kind) to a priority; higher survives longer.
    Unlisted combinations default to 1.0.  Within a weight class, LRU
    applies.  The default weighting implements the paper's example policy:
    physical-space data outranks virtual-space data, and location/event
    kinds outrank bulk media.
    """

    DEFAULT_WEIGHTS: dict[tuple[Space, DataKind], float] = {
        (Space.PHYSICAL, DataKind.LOCATION): 4.0,
        (Space.PHYSICAL, DataKind.EVENT): 4.0,
        (Space.PHYSICAL, DataKind.SENSOR): 3.0,
        (Space.PHYSICAL, DataKind.STRUCTURED): 2.5,
        (Space.VIRTUAL, DataKind.LOCATION): 2.0,
        (Space.VIRTUAL, DataKind.EVENT): 2.0,
        (Space.PHYSICAL, DataKind.MEDIA): 1.5,
        (Space.VIRTUAL, DataKind.MEDIA): 1.0,
    }

    def __init__(self, weights: dict[tuple[Space, DataKind], float] | None = None) -> None:
        self.weights = dict(self.DEFAULT_WEIGHTS if weights is None else weights)

    def weight(self, meta: PageMeta) -> float:
        return self.weights.get((meta.space, meta.kind), 1.0)

    def touch(self, key: PageKey, frame: _Frame, tick: int) -> None:
        frame.last_access = tick

    def victim(self, frames: dict[PageKey, _Frame]) -> PageKey:
        return min(
            frames,
            key=lambda k: (self.weight(frames[k].meta), frames[k].last_access),
        )


class BufferPool:
    """A capacity-bounded page cache over a loader function.

    ``loader(key)`` must return ``(value, PageMeta)``; it models the fetch
    from the storage tier (and its cost — callers count loader invocations
    as storage reads).  A page holds what the loader returned until its
    key is evicted, invalidated, or refreshed with a newer value by a
    writer that knows it is the value's only source.  The ``pool.*``
    counters are bound at construction, so a hit, a miss or an eviction
    asks the registry for nothing.
    """

    def __init__(
        self,
        capacity: int,
        loader: Callable[[PageKey], tuple[object, PageMeta]],
        policy: EvictionPolicy | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError("capacity must be >= 1")
        self.capacity = capacity
        self.loader = loader
        self.policy: EvictionPolicy = policy if policy is not None else LRUPolicy()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NoopTracer()
        self._frames: OrderedDict[PageKey, _Frame] = OrderedDict()
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.evicted_by_class: dict[tuple[Space, DataKind], int] = defaultdict(int)
        self._hit_counter = self.metrics.counter("pool.hits")
        self._miss_counter = self.metrics.counter("pool.misses")
        self._eviction_counter = self.metrics.counter("pool.evictions")

    def __len__(self) -> int:
        return len(self._frames)

    def __contains__(self, key: PageKey) -> bool:
        return key in self._frames

    def get(self, key: PageKey) -> object:
        """Return the page, loading (and possibly evicting) on a miss."""
        self._tick += 1
        frame = self._frames.get(key)
        if frame is not None:
            self.hits += 1
            self._hit_counter.inc()
            self.policy.touch(key, frame, self._tick)
            return frame.value
        self.misses += 1
        self._miss_counter.inc()
        with self.tracer.span("pool.load"):
            value, meta = self.loader(key)
        if len(self._frames) >= self.capacity:
            self._evict()
        frame = _Frame(value=value, meta=meta)
        self._frames[key] = frame
        self.policy.touch(key, frame, self._tick)
        return value

    def _evict(self) -> None:
        victim = self.policy.victim(self._frames)
        frame = self._frames.pop(victim)
        self.evictions += 1
        self.evicted_by_class[(frame.meta.space, frame.meta.kind)] += 1
        self._eviction_counter.inc()

    def invalidate(self, key: PageKey) -> None:
        self._frames.pop(key, None)

    def written(self, items: list, keep: bool) -> None:
        """Follow one write of ``items``, (key, value) pairs in write
        order: with ``keep`` (the writer is the values' only source)
        every cached page takes its key's last written value; otherwise
        every page written is dropped, as :meth:`invalidate` drops one.
        A key with no page stays uncached, and neither recency nor the
        hit and miss counts move."""
        frames = self._frames
        if keep:
            for key, value in items:
                frame = frames.get(key)
                if frame is not None:
                    frame.value = value
        else:
            for key, _ in items:
                frames.pop(key, None)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

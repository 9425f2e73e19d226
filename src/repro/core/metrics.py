"""Lightweight metrics: counters, gauges, and histograms.

Every subsystem reports into a :class:`MetricsRegistry` so that benchmarks
and integration tests can assert on behaviour (messages sent, cache hits,
staleness distributions) without reaching into private state.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

from .errors import ConfigurationError


@dataclass
class Counter:
    """A monotonically increasing count."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a Gauge instead")
        self.value += amount


@dataclass
class Gauge:
    """A value that can go up and down."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, amount: float) -> None:
        self.value += amount


@dataclass
class Histogram:
    """Streaming distribution summary; stores all samples for exact quantiles.

    Sample counts in this library top out in the millions, so exact storage
    is fine and keeps quantile semantics unambiguous in tests.  Callers
    that need *recent* behaviour rather than lifetime distributions (the
    elasticity control loop) read through :meth:`window` instead of
    :meth:`quantile`.
    """

    samples: list[float] = field(default_factory=list)
    # Cached sorted view for quantile queries; repeated p50/p95/p99 reads
    # between observations (snapshot(), benchmark reports) would otherwise
    # re-sort the full sample list each call.
    _sorted: list[float] | None = field(default=None, repr=False, compare=False)

    def observe(self, value: float) -> None:
        self.samples.append(float(value))
        self._sorted = None

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return sum(self.samples)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.samples else 0.0

    @property
    def maximum(self) -> float:
        return max(self.samples) if self.samples else 0.0

    @property
    def minimum(self) -> float:
        return min(self.samples) if self.samples else 0.0

    def stddev(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        mean = self.mean
        var = sum((s - mean) ** 2 for s in self.samples) / (len(self.samples) - 1)
        return math.sqrt(var)

    def quantile(self, q: float) -> float:
        """Exact q-quantile via linear interpolation (q in [0, 1]).

        Raises :class:`ConfigurationError` when the histogram is empty: a
        quantile of nothing has no value, and silently returning 0.0 (the
        old behaviour) let latency regressions masquerade as perfect runs.
        Callers that can tolerate absence should check :attr:`count` first.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.samples:
            raise ConfigurationError(
                f"quantile({q}) of an empty histogram is undefined; "
                "check .count before querying"
            )
        # Guard against out-of-band mutation of .samples (public field):
        # the cache is only trusted while the lengths agree.
        if self._sorted is None or len(self._sorted) != len(self.samples):
            self._sorted = sorted(self.samples)
        ordered = self._sorted
        if len(ordered) == 1:
            return ordered[0]
        pos = q * (len(ordered) - 1)
        lo = int(math.floor(pos))
        hi = int(math.ceil(pos))
        if lo == hi:
            return ordered[lo]
        frac = pos - lo
        return ordered[lo] * (1 - frac) + ordered[hi] * frac

    def p50(self) -> float:
        return self.quantile(0.50)

    def p95(self) -> float:
        return self.quantile(0.95)

    def p99(self) -> float:
        return self.quantile(0.99)

    def window(self, n: int) -> "Histogram":
        """The last ``min(n, count)`` samples, as a histogram of their own.

        A control loop polling a long-lived histogram (see
        :mod:`repro.cluster.elasticity`) must react to *recent* load: a
        p95 over every sample since boot never comes back down after one
        burst.  The window is a snapshot — its samples are a tuple, so
        observations after the call do not leak into it and it takes
        none itself — and taking one neither invalidates nor populates
        this histogram's sorted-view cache.
        """
        if n < 1:
            raise ConfigurationError(f"window size must be >= 1, got {n}")
        return Histogram(samples=tuple(self.samples[-n:]))


class MetricsRegistry:
    """Namespace of metrics, keyed by dotted names.

    Accessors create the metric on first use, so instrumented code never has
    to pre-declare; tests read the same names.

    A gauge that costs a sweep to compute (entities per shard) is set by
    a *collector* — a callable registered with :meth:`add_collector` and
    run when the registry is read as a whole (:meth:`snapshot`,
    :meth:`all_gauges`), not on the path that changes the value.  A
    collector sets gauges and nothing else: reading metrics must not
    move a counter or a histogram.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = defaultdict(Counter)
        self._gauges: dict[str, Gauge] = defaultdict(Gauge)
        self._histograms: dict[str, Histogram] = defaultdict(Histogram)
        self._collectors: list[Callable[[], None]] = []

    def counter(self, name: str) -> Counter:
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        return self._histograms[name]

    def all_counters(self) -> dict[str, Counter]:
        """Read-only view of every counter, for exporters."""
        return dict(self._counters)

    def add_collector(self, collect: Callable[[], None]) -> None:
        """Run ``collect()`` before every whole-registry read, so the
        gauges it sets are current when exported."""
        self._collectors.append(collect)

    def _collect(self) -> None:
        for collect in self._collectors:
            collect()

    def all_gauges(self) -> dict[str, Gauge]:
        self._collect()
        return dict(self._gauges)

    def all_histograms(self) -> dict[str, Histogram]:
        return dict(self._histograms)

    def snapshot(self) -> dict[str, float]:
        """Flat {name: value} view; histograms export count/mean/p99.

        Empty histograms export only their count: quantiles of no samples
        are undefined (see :meth:`Histogram.quantile`).
        """
        self._collect()
        out: dict[str, float] = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, gauge in self._gauges.items():
            out[name] = gauge.value
        for name, histogram in self._histograms.items():
            out[f"{name}.count"] = float(histogram.count)
            if histogram.count:
                out[f"{name}.mean"] = histogram.mean
                out[f"{name}.p99"] = histogram.p99()
        return out

    def reset(self) -> None:
        """Zero every metric value in place: counters and gauges go to 0,
        histograms lose their samples.  The metric objects stay, so one a
        caller holds keeps counting into this registry, and so do the
        collectors."""
        for metric in (*self._counters.values(), *self._gauges.values()):
            metric.value = 0.0
        for histogram in self._histograms.values():
            histogram.samples.clear()
            histogram._sorted = None

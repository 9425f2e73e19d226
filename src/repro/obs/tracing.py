"""Hierarchical tracing for the device-cloud-storage pipeline.

The paper's Fig. 7 architecture only pays off if we can see *where* the
data deluge lands: which tier a request spent its time in, how deep the
queues are, which cache absorbed the read.  A :class:`Tracer` produces
hierarchical :class:`Span` records — ``span_id``/``parent_id`` pairs with
start/end timestamps — threaded through the hot paths by the components
themselves (``DeviceGateway.flush`` → ``MetaversePlatform.flush_gateways``
→ ``Broker.publish`` → ``TransactionManager.commit`` → ``BufferPool`` /
``KVStore`` reads).

Design points:

* **Context propagation is a stack.**  The platform is single-threaded
  simulated code, so the active span is simply the top of a per-tracer
  stack; ``with tracer.span("name"):`` pushes/pops it.  Components that
  share a tracer instance therefore nest automatically.
* **Time is pluggable.**  ``time_fn`` defaults to ``time.perf_counter``
  (wall clock); pass a :class:`~repro.core.clock.SimulationClock` (clocks
  are callable) to stamp spans in simulated seconds instead.
* **Memory is bounded.**  Finished spans live in a ``deque(maxlen=...)``;
  overflow increments ``dropped_spans`` rather than growing without bound.
* **Overhead is bounded by head sampling.**  ``sample_every=k`` records
  one trace in ``k``: the keep/suppress decision is made once per *root*
  span and children inherit it, so sampled traces are always complete
  trees.  ``sample_every=1`` (the default) records everything — right for
  tests and debugging; the always-on production configuration uses a
  larger ``k`` to amortise the per-span recording cost on hot paths
  (``bench_obs_overhead.py`` quantifies both).
* **Disabled tracing is free.**  :class:`NoopTracer` returns a shared
  no-op context manager from :meth:`span`, so an un-instrumented run pays
  one attribute lookup and one call per site (`bench_obs_overhead.py`
  measures this at well under a microsecond per span site).
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from typing import Any, Callable, Iterator

from ..core.errors import ConfigurationError

__all__ = ["Span", "Tracer", "NoopTracer"]


class Span:
    """One timed operation in a trace tree.

    Spans are their own context managers: entering returns the span,
    exiting stamps ``end``, marks any in-flight exception on
    ``attributes["error"]``, and hands the span back to its tracer.
    """

    __slots__ = (
        "span_id", "parent_id", "name", "start", "end", "attributes",
        "_tracer",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: int | None,
        name: str,
        start: float,
        attributes: dict[str, Any] | None = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: float | None = None
        self.attributes: dict[str, Any] = attributes if attributes is not None else {}
        self._tracer = tracer

    @property
    def duration(self) -> float:
        """Seconds between start and end (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # Finishing is inlined here (rather than delegated back to the
        # tracer) because this runs once per span on hot paths.
        tracer = self._tracer
        self.end = tracer._time_fn()
        if exc_type is not None:
            self.attributes["error"] = exc_type.__name__
        stack = tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        else:  # tolerate exceptional / out-of-order exits
            while stack:
                if stack.pop() is self:
                    break
        finished = tracer._finished
        if len(finished) == tracer.max_spans:
            tracer.dropped_spans += 1
        finished.append(self)
        return False

    def __repr__(self) -> str:
        return (
            f"Span(id={self.span_id}, parent={self.parent_id}, "
            f"name={self.name!r}, duration={self.duration:.6f})"
        )


class _NoopSpan:
    """Shared do-nothing context manager for disabled tracing."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_attribute(self, key: str, value: Any) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class _SuppressedSpan:
    """Boundary handle for a sampled-out (sub-)trace.

    One instance per tracer, handed out only at the span site where the
    keep/suppress decision fell to *suppress*.  Exiting it lifts the
    suppression; span sites nested inside the suppressed region get the
    plain shared no-op span, so they cost the same as disabled tracing
    and only one boundary is ever active at a time.
    """

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._suppressing = False
        return False

    def set_attribute(self, key: str, value: Any) -> None:
        return None


class Tracer:
    """Produces and collects hierarchical spans.

    Parameters
    ----------
    time_fn:
        Zero-argument callable returning "now" in seconds.  Defaults to
        ``time.perf_counter``; pass a ``SimulationClock`` for sim time.
    max_spans:
        Bound on retained *finished* spans (oldest dropped first).
    sink:
        Optional :class:`~repro.obs.logsink.LogSink`; :meth:`log` writes
        span-annotated structured records into it.
    sample_every:
        Record one trace in this many (head sampling, decided at the root
        span; children always follow their root's decision).  ``1``
        records every trace.
    """

    enabled: bool = True

    def __init__(
        self,
        time_fn: Callable[[], float] | None = None,
        max_spans: int = 10_000,
        sink: "Any | None" = None,
        sample_every: int = 1,
    ) -> None:
        if max_spans < 1:
            raise ConfigurationError("max_spans must be >= 1")
        if sample_every < 1:
            raise ConfigurationError("sample_every must be >= 1")
        self._time_fn = time_fn if time_fn is not None else time.perf_counter
        self._ids = itertools.count(1)
        self._stack: list[Span] = []
        self._finished: deque[Span] = deque(maxlen=max_spans)
        self.max_spans = max_spans
        self.dropped_spans = 0
        self.sink = sink
        self.sample_every = sample_every
        self.sampled_out = 0
        self._trace_seq = 0
        self._suppressing = False
        self._suppressed = _SuppressedSpan(self)

    # -- span lifecycle ----------------------------------------------------

    def span(self, name: str, **attributes: Any) -> Span | _SuppressedSpan:
        """Open a child span of the currently active span.

        Use as a context manager::

            with tracer.span("broker.publish", topic=pub.topic) as span:
                ...

        Inside a sampled-out trace this yields ``None`` instead of a
        :class:`Span`, so guard attribute access accordingly.
        """
        if self._suppressing:
            return _NOOP_SPAN
        if not self._stack and self.sample_every > 1:
            seq = self._trace_seq
            self._trace_seq = seq + 1
            if seq % self.sample_every:
                self.sampled_out += 1
                self._suppressing = True
                return self._suppressed
        return self._open(name, attributes)

    def _open(self, name: str, attributes: dict[str, Any]) -> Span:
        """Push a recorded child of the active span (the keep decision
        is already made)."""
        # Hot path: build the span without re-entering Span.__init__.
        stack = self._stack
        span = Span.__new__(Span)
        span.span_id = next(self._ids)
        span.parent_id = stack[-1].span_id if stack else None
        span.name = name
        span.start = self._time_fn()
        span.end = None
        span.attributes = attributes
        span._tracer = self
        stack.append(span)
        return span

    def sampled_span(self, name: str, **attributes: Any) -> Span | _SuppressedSpan:
        """Open a span that is itself a sampling boundary.

        Use at per-request span sites nested inside a long-lived batch
        trace (e.g. one purchase out of thousands under a single
        ``process_purchases`` root): with ``sample_every=k`` one call in
        ``k`` records a full sub-trace and the rest suppress theirs, so
        recording cost amortises per request rather than per batch.
        With ``sample_every=1`` this is exactly :meth:`span`.
        """
        if self._suppressing:
            return _NOOP_SPAN
        k = self.sample_every
        if k > 1:
            seq = self._trace_seq
            self._trace_seq = seq + 1
            if seq % k:
                self.sampled_out += 1
                self._suppressing = True
                return self._suppressed
        return self._open(name, attributes)

    def sampled_spans(self, name: str, n: int) -> None:
        """``n`` empty :meth:`sampled_span` boundaries in one call: the
        sampling decisions of ``n`` requests whose own work opens no span
        (a purchase call's requests).  It advances the trace sequence and
        ``sampled_out`` as those ``n`` boundaries would, and records a
        span only for each request it keeps — one in ``sample_every``.
        Inside a suppressed region it does nothing, as they would."""
        if self._suppressing:
            return
        kept = n
        k = self.sample_every
        if k > 1:
            seq = self._trace_seq
            kept = len(range(-seq % k, n, k))  # the requests seq % k keeps
            self._trace_seq = seq + n
            self.sampled_out += n - kept
        for _ in range(kept):
            with self._open(name, {}):
                pass

    @property
    def active_span(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    # -- structured logging -------------------------------------------------

    def log(self, level: str, message: str, **fields: Any) -> None:
        """Emit a structured log record annotated with the active span."""
        if self.sink is None:
            return
        active = self.active_span
        self.sink.log(
            level,
            message,
            timestamp=self._time_fn(),
            span_id=active.span_id if active else None,
            span_name=active.name if active else None,
            **fields,
        )

    # -- inspection --------------------------------------------------------

    def finished_spans(self) -> list[Span]:
        """Finished spans, oldest first (bounded by ``max_spans``)."""
        return list(self._finished)

    def spans_named(self, name: str) -> list[Span]:
        return [s for s in self._finished if s.name == name]

    def children_of(self, span_id: int) -> list[Span]:
        return [s for s in self._finished if s.parent_id == span_id]

    def roots(self) -> list[Span]:
        """Finished spans whose parent never finished into the buffer."""
        finished_ids = {s.span_id for s in self._finished}
        return [
            s
            for s in self._finished
            if s.parent_id is None or s.parent_id not in finished_ids
        ]

    def walk(self) -> Iterator[tuple[Span, int]]:
        """Yield (span, depth) pairs in tree order, children by start time."""
        by_parent: dict[int | None, list[Span]] = {}
        finished_ids = {s.span_id for s in self._finished}
        for span in self._finished:
            parent = (
                span.parent_id if span.parent_id in finished_ids else None
            )
            by_parent.setdefault(parent, []).append(span)

        def visit(parent: int | None, depth: int) -> Iterator[tuple[Span, int]]:
            for span in sorted(
                by_parent.get(parent, []), key=lambda s: (s.start, s.span_id)
            ):
                yield span, depth
                yield from visit(span.span_id, depth + 1)

        yield from visit(None, 0)

    def render_tree(self) -> str:
        """Human-readable indented rendering of the span forest."""
        lines = []
        for span, depth in self.walk():
            attrs = (
                " " + " ".join(f"{k}={v}" for k, v in sorted(span.attributes.items()))
                if span.attributes
                else ""
            )
            lines.append(
                f"{'  ' * depth}{span.name} "
                f"({span.duration * 1000:.3f} ms){attrs}"
            )
        return "\n".join(lines)

    def reset(self) -> None:
        self._stack.clear()
        self._finished.clear()
        self.dropped_spans = 0
        self.sampled_out = 0
        self._trace_seq = 0
        self._suppressing = False


class NoopTracer(Tracer):
    """A disabled tracer: records nothing, costs (almost) nothing.

    This is the default every instrumented component constructs when no
    tracer is injected, mirroring the ``MetricsRegistry`` default-to-fresh
    semantics while keeping un-traced runs at full speed.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(max_spans=1)

    def span(self, name: str, **attributes: Any) -> _NoopSpan:  # type: ignore[override]
        return _NOOP_SPAN

    def sampled_span(self, name: str, **attributes: Any) -> _NoopSpan:  # type: ignore[override]
        return _NOOP_SPAN

    def sampled_spans(self, name: str, n: int) -> None:
        return None

    def log(self, level: str, message: str, **fields: Any) -> None:
        return None

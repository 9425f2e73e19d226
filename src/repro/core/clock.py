"""Simulation time and a discrete-event scheduler.

The whole platform runs on *simulated* time so that experiments are
deterministic and fast: a ``SimulationClock`` is advanced explicitly, and a
``EventScheduler`` dispatches callbacks in timestamp order.  Components that
need "now" take a clock (or a plain ``time_fn``) instead of calling
``time.time()`` so tests can control time precisely.
"""

from __future__ import annotations

import itertools
from collections.abc import Sized
from heapq import heappop, heappush
from typing import Callable

from .errors import ConfigurationError


class SimulationClock:
    """A monotonically advancing simulated clock.

    Time is a float in seconds.  ``advance`` moves time forward; moving
    backwards raises :class:`ConfigurationError` because event ordering
    everywhere relies on monotonicity.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, delta: float) -> float:
        """Move time forward by ``delta`` seconds and return the new time."""
        if delta < 0:
            raise ConfigurationError(f"cannot advance clock by {delta} (< 0)")
        self._now += delta
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move time forward to ``timestamp`` (no-op if already past it)."""
        if timestamp > self._now:
            self._now = timestamp
        return self._now

    def __call__(self) -> float:
        """Allow a clock to be used directly as a ``time_fn``."""
        return self._now

    def __repr__(self) -> str:
        return f"SimulationClock(now={self._now:.6f})"


class EventHandle:
    """Handle returned by :meth:`EventScheduler.schedule`; allows cancelling.

    It wraps the scheduler's heap entry, a plain ``[time, seq, callback]``
    list (so the heap compares entries in C); cancelling sets the entry's
    callback to ``None``, and dispatch skips such an entry.
    """

    __slots__ = ("_entry",)

    def __init__(self, entry: list) -> None:
        self._entry = entry

    @property
    def time(self) -> float:
        return self._entry[0]

    @property
    def cancelled(self) -> bool:
        return self._entry[2] is None

    def cancel(self) -> None:
        """Cancel the event; cancelled events are skipped at dispatch time."""
        self._entry[2] = None


class EventScheduler:
    """A discrete-event scheduler bound to a :class:`SimulationClock`.

    Events scheduled for the same instant run in scheduling order (FIFO),
    which keeps simulations deterministic: a heap entry is
    ``[time, seq, callback]`` with a unique ``seq``, so the callback is
    never compared.
    """

    def __init__(self, clock: SimulationClock | None = None) -> None:
        self.clock = clock if clock is not None else SimulationClock()
        self._heap: list[list] = []
        self._seq = itertools.count()

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ConfigurationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self.clock.now + delay, callback)

    def schedule_at(self, timestamp: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute simulated ``timestamp``."""
        return EventHandle(self._push(timestamp, callback))

    def _push(self, timestamp: float, callback: Callable[[], None]) -> list:
        """Queue ``callback`` at ``timestamp`` and return its heap entry.
        The one way onto the heap: :meth:`schedule_at` wraps the entry in
        a handle, and a caller that never cancels (a network message in
        flight) takes none."""
        if timestamp < self.clock._now:
            raise ConfigurationError(
                f"cannot schedule at {timestamp} before now={self.clock._now}"
            )
        entry = [timestamp, next(self._seq), callback]
        heappush(self._heap, entry)
        return entry

    def __len__(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._heap)

    @property
    def next_event_time(self) -> float | None:
        """Timestamp of the earliest pending event, or None if empty."""
        heap = self._heap
        while heap and heap[0][2] is None:
            heappop(heap)
        return heap[0][0] if heap else None

    def run_until(self, timestamp: float) -> int:
        """Dispatch every event with time <= ``timestamp``; return the count.

        The clock is advanced to each event's time as it dispatches, and to
        ``timestamp`` at the end, so callbacks observe consistent "now".
        """
        heap, clock = self._heap, self.clock
        dispatched = 0
        while heap and heap[0][0] <= timestamp:
            when, _, callback = heappop(heap)
            if callback is None:
                continue
            clock.advance_to(when)
            callback()
            dispatched += 1
        clock.advance_to(timestamp)
        return dispatched

    def run_until_received(self, received: Sized, expected: int, deadline: float) -> bool:
        """Dispatch one instant at a time — every event due at the earliest
        queued time, then the check — until ``received`` holds
        ``expected`` items, ``deadline`` passes, or nothing is left to run;
        return whether the deadline cut the wait short.  A wait with
        nothing left to run ends where it is, without a timeout; one whose
        next event lies past ``deadline`` moves the clock to the deadline
        and times out."""
        heap, clock = self._heap, self.clock
        while len(received) < expected and clock._now < deadline:
            while heap and heap[0][2] is None:
                heappop(heap)
            if not heap:
                return False
            instant = heap[0][0]
            if instant > deadline:
                clock.advance_to(deadline)
                break
            while heap and heap[0][0] <= instant:
                when, _, callback = heappop(heap)
                if callback is not None:
                    clock.advance_to(when)
                    callback()
        return clock._now >= deadline and len(received) < expected

    def run_for(self, duration: float) -> int:
        """Dispatch everything within the next ``duration`` seconds."""
        return self.run_until(self.clock.now + duration)

    def run_all(self, max_events: int = 1_000_000) -> int:
        """Dispatch until the queue is empty (bounded by ``max_events``)."""
        heap, clock = self._heap, self.clock
        dispatched = 0
        while heap and dispatched < max_events:
            when, _, callback = heappop(heap)
            if callback is None:
                continue
            clock.advance_to(when)
            callback()
            dispatched += 1
        return dispatched

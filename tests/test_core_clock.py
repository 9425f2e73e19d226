"""Tests for the simulation clock and discrete-event scheduler."""

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConfigurationError, EventScheduler, SimulationClock


class TestSimulationClock:
    def test_starts_at_zero_by_default(self):
        assert SimulationClock().now == 0.0

    def test_starts_at_given_time(self):
        assert SimulationClock(5.0).now == 5.0

    def test_advance_moves_forward(self):
        clock = SimulationClock()
        clock.advance(2.5)
        assert clock.now == 2.5

    def test_advance_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            SimulationClock().advance(-1.0)

    def test_advance_to_never_moves_backwards(self):
        clock = SimulationClock(10.0)
        clock.advance_to(5.0)
        assert clock.now == 10.0
        clock.advance_to(12.0)
        assert clock.now == 12.0

    def test_clock_is_callable_time_fn(self):
        clock = SimulationClock(3.0)
        assert clock() == 3.0


class TestEventScheduler:
    def test_dispatches_in_time_order(self):
        sched = EventScheduler()
        order = []
        sched.schedule(3.0, lambda: order.append("c"))
        sched.schedule(1.0, lambda: order.append("a"))
        sched.schedule(2.0, lambda: order.append("b"))
        sched.run_until(10.0)
        assert order == ["a", "b", "c"]

    def test_same_time_events_fifo(self):
        sched = EventScheduler()
        order = []
        for name in "abc":
            sched.schedule(1.0, lambda n=name: order.append(n))
        sched.run_all()
        assert order == ["a", "b", "c"]

    def test_run_until_advances_clock(self):
        sched = EventScheduler()
        sched.run_until(7.0)
        assert sched.clock.now == 7.0

    def test_callback_sees_event_time(self):
        sched = EventScheduler()
        seen = []
        sched.schedule(2.0, lambda: seen.append(sched.clock.now))
        sched.run_until(5.0)
        assert seen == [2.0]

    def test_run_until_only_dispatches_due_events(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(1.0, lambda: fired.append(1))
        sched.schedule(5.0, lambda: fired.append(5))
        count = sched.run_until(2.0)
        assert count == 1
        assert fired == [1]
        sched.run_until(6.0)
        assert fired == [1, 5]

    def test_cancel_skips_event(self):
        sched = EventScheduler()
        fired = []
        handle = sched.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        sched.run_all()
        assert fired == []
        assert handle.cancelled

    def test_schedule_in_past_rejected(self):
        sched = EventScheduler()
        sched.clock.advance(10.0)
        with pytest.raises(ConfigurationError):
            sched.schedule_at(5.0, lambda: None)
        with pytest.raises(ConfigurationError):
            sched.schedule(-1.0, lambda: None)

    def test_events_scheduled_during_dispatch_run(self):
        sched = EventScheduler()
        order = []

        def first():
            order.append("first")
            sched.schedule(1.0, lambda: order.append("second"))

        sched.schedule(1.0, first)
        sched.run_until(3.0)
        assert order == ["first", "second"]

    def test_run_for_is_relative(self):
        sched = EventScheduler()
        sched.clock.advance(100.0)
        fired = []
        sched.schedule(1.0, lambda: fired.append(True))
        sched.run_for(2.0)
        assert fired == [True]
        assert sched.clock.now == 102.0

    def test_next_event_time_skips_cancelled(self):
        sched = EventScheduler()
        h1 = sched.schedule(1.0, lambda: None)
        sched.schedule(2.0, lambda: None)
        h1.cancel()
        assert sched.next_event_time == 2.0

    def test_next_event_time_empty(self):
        assert EventScheduler().next_event_time is None


# -- the dataclass-heap scheduler the plain-entry heap replaced, as oracle ---


@dataclass(order=True)
class _OracleEvent:
    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class _OracleHandle:
    def __init__(self, event: _OracleEvent) -> None:
        self._event = event

    @property
    def time(self) -> float:
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    def cancel(self) -> None:
        self._event.cancelled = True


class OracleScheduler:
    """Heap entries are ``order=True`` dataclasses with a cancelled flag."""

    def __init__(self) -> None:
        self.clock = SimulationClock()
        self._heap: list[_OracleEvent] = []
        self._seq = itertools.count()

    def schedule(self, delay, callback):
        if delay < 0:
            raise ConfigurationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self.clock.now + delay, callback)

    def schedule_at(self, timestamp, callback):
        if timestamp < self.clock.now:
            raise ConfigurationError("cannot schedule before now")
        event = _OracleEvent(timestamp, next(self._seq), callback)
        heapq.heappush(self._heap, event)
        return _OracleHandle(event)

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def next_event_time(self):
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def run_until(self, timestamp):
        dispatched = 0
        while self._heap and self._heap[0].time <= timestamp:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.clock.advance_to(event.time)
            event.callback()
            dispatched += 1
        self.clock.advance_to(timestamp)
        return dispatched

    def run_for(self, duration):
        return self.run_until(self.clock.now + duration)

    def run_all(self, max_events=1_000_000):
        dispatched = 0
        while self._heap and dispatched < max_events:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.clock.advance_to(event.time)
            event.callback()
            dispatched += 1
        return dispatched


def drive(scheduler, program) -> list:
    """Run ``program`` on ``scheduler`` and log every observable: each
    dispatch with its clock reading, every return value and, per step,
    the clock, the queue length and every handle's time and state."""
    log: list = []
    handles: list = []

    def make(label, script):
        def callback():
            log.append(("ran", label, scheduler.clock.now))
            kind, arg = script
            if kind == "same_instant":
                add(0.0, ("none", 0))
            elif kind == "later":
                add(arg, ("none", 0))
            elif kind == "cancel" and handles:
                handles[arg % len(handles)].cancel()
        return callback

    def add(delay, script):
        handles.append(scheduler.schedule(delay, make(len(handles), script)))

    for op, arg, script in program:
        if op == "schedule":
            add(arg, script)
        elif op == "schedule_at":
            handles.append(scheduler.schedule_at(
                scheduler.clock.now + arg, make(len(handles), script)
            ))
        elif op == "cancel" and handles:
            handles[arg % len(handles)].cancel()
        elif op == "run_until":
            log.append(("run_until", scheduler.run_until(scheduler.clock.now + arg)))
        elif op == "run_for":
            log.append(("run_for", scheduler.run_for(arg)))
        elif op == "run_all":
            log.append(("run_all", scheduler.run_all(arg)))
        elif op == "peek":
            log.append(("peek", scheduler.next_event_time))
        log.append((
            "step", scheduler.clock.now, len(scheduler),
            [(handle.time, handle.cancelled) for handle in handles],
        ))
    return log


_delays = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])
_scripts = st.one_of(
    st.just(("none", 0)),
    st.just(("same_instant", 0)),
    st.tuples(st.just("later"), _delays),
    st.tuples(st.just("cancel"), st.integers(0, 30)),
)
_ops = st.one_of(
    st.tuples(st.just("schedule"), _delays, _scripts),
    st.tuples(st.just("schedule_at"), _delays, _scripts),
    st.tuples(st.just("cancel"), st.integers(0, 30), st.none()),
    st.tuples(st.just("run_until"),
              st.sampled_from([-0.5, 0.0, 0.25, 0.5, 1.0, 3.0]), st.none()),
    st.tuples(st.just("run_for"), _delays, st.none()),
    st.tuples(st.just("run_all"),
              st.integers(0, 4) | st.just(1_000_000), st.none()),
    st.tuples(st.just("peek"), st.just(0), st.none()),
)


class TestPlainEntryHeapMatchesTheDataclassHeap:
    @settings(max_examples=300, deadline=None)
    @given(program=st.lists(_ops, max_size=40))
    def test_dispatch_order_clock_and_counts_are_equal(self, program):
        assert drive(EventScheduler(), program) == drive(OracleScheduler(), program)

    def test_same_instant_events_scheduled_by_a_callback_run_after_the_queue(self):
        program = [
            ("schedule", 1.0, ("same_instant", 0)),
            ("schedule", 1.0, ("none", 0)),
            ("run_all", 1_000_000, None),
        ]
        log = drive(EventScheduler(), program)
        assert [entry[1] for entry in log if entry[0] == "ran"] == [0, 1, 2]
        assert log == drive(OracleScheduler(), program)

    def test_a_handle_reads_its_time_and_state_before_and_after_dispatch(self):
        sched = EventScheduler()
        kept = sched.schedule(1.5, lambda: None)
        dropped = sched.schedule(2.0, lambda: None)
        dropped.cancel()
        assert (kept.time, kept.cancelled) == (1.5, False)
        assert (dropped.time, dropped.cancelled) == (2.0, True)
        assert sched.run_all() == 1
        assert (kept.time, kept.cancelled) == (1.5, False)


def two_call_wait(scheduler, received, expected, deadline):
    """The oracle: a wait as a ``next_event_time`` and a ``run_until``
    call per instant, as the 2PC driver ran it."""
    clock = scheduler.clock
    while (
        len(received) < expected
        and clock.now < deadline
        and (next_time := scheduler.next_event_time) is not None
    ):
        scheduler.run_until(min(deadline, next_time))
    return clock.now >= deadline and len(received) < expected


_replies = st.lists(
    st.tuples(
        _delays,                                  # when it is due
        st.booleans(),                            # cancelled before the wait
        st.booleans(),                            # it is a reply
        st.sampled_from([None, 0.0, 0.25, 1.0]),  # a follow-up it schedules
        st.sampled_from([0.0, 0.1]),              # clock time its work takes
    ),
    max_size=12,
)


def wait_world(wait, events, expected, deadline):
    """Queue ``events``, wait for ``expected`` replies by ``deadline``
    with ``wait``, and return everything observable."""
    scheduler = EventScheduler()
    received, log = [], []

    def follow_up(i):
        log.append(("follow-up", i, scheduler.clock.now))
        received.append(i)

    def event(i, replies, later, work):
        log.append(("ran", i, scheduler.clock.now))
        scheduler.clock.advance(work)
        if replies:
            received.append(i)
        if later is not None:
            scheduler.schedule(later, lambda: follow_up(i))

    for i, (due, cancelled, replies, later, work) in enumerate(events):
        handle = scheduler.schedule(
            due, lambda i=i, r=replies, l=later, w=work: event(i, r, l, w)
        )
        if cancelled:
            handle.cancel()
    timed_out = wait(scheduler, received, expected, deadline)
    return log, received, timed_out, scheduler.clock.now, scheduler.next_event_time


class TestRunUntilReceivedMatchesTheTwoCallWait:
    @settings(max_examples=300, deadline=None)
    @given(
        events=_replies,
        expected=st.integers(0, 6),
        deadline=st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 3.0]),
    )
    def test_dispatch_replies_result_and_clock_are_equal(
        self, events, expected, deadline
    ):
        assert wait_world(
            EventScheduler.run_until_received, events, expected, deadline
        ) == wait_world(two_call_wait, events, expected, deadline)

    def test_a_wait_with_nothing_to_run_does_not_time_out(self):
        scheduler = EventScheduler()
        assert scheduler.run_until_received([], 1, 5.0) is False
        assert scheduler.clock.now == 0.0

    def test_a_wait_whose_next_event_is_past_the_deadline_times_out_there(self):
        scheduler = EventScheduler()
        scheduler.schedule(9.0, lambda: None)
        assert scheduler.run_until_received([], 1, 5.0) is True
        assert (scheduler.clock.now, len(scheduler)) == (5.0, 1)

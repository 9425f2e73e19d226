"""Recovery policies: retry with backoff, circuit breaking, timeouts.

These are the behaviours that *survive* the faults
:mod:`repro.resilience.faults` injects.  All three are clock-driven off the
same :class:`~repro.core.clock.SimulationClock` the rest of the platform
uses, so recovery timing is deterministic and testable: a retry "sleeps" by
advancing simulated time, and a circuit breaker's cooldown expires when the
simulation says so, not when the wall clock does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, TypeVar

from ..core.clock import SimulationClock
from ..core.errors import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    FaultInjectedError,
)
from ..core.metrics import MetricsRegistry
from ..obs.tracing import NoopTracer, Tracer

T = TypeVar("T")


class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    The delay before retry ``i`` (0-based) is::

        min(max_delay_s, base_delay_s * multiplier ** i) * (1 - jitter * u_i)

    where ``u_i`` is the i-th draw from a private ``random.Random(seed)`` —
    two policies with the same seed produce the same delay sequence
    (property-tested), while ``jitter > 0`` still de-synchronises retry
    storms across policies with different seeds.  Sleeping means advancing
    the simulated clock, so backoff interacts correctly with time-windowed
    fault plans and breaker cooldowns.
    """

    def __init__(
        self,
        max_attempts: int = 4,
        base_delay_s: float = 0.01,
        multiplier: float = 2.0,
        max_delay_s: float = 1.0,
        jitter: float = 0.5,
        seed: int = 0,
        clock: SimulationClock | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if base_delay_s < 0 or max_delay_s < 0:
            raise ConfigurationError("delays must be >= 0")
        if multiplier < 1.0:
            raise ConfigurationError("multiplier must be >= 1")
        if not 0.0 <= jitter <= 1.0:
            raise ConfigurationError("jitter must be in [0, 1]")
        self.max_attempts = max_attempts
        self.base_delay_s = base_delay_s
        self.multiplier = multiplier
        self.max_delay_s = max_delay_s
        self.jitter = jitter
        self.seed = seed
        self.clock = clock
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NoopTracer()
        self._rng = random.Random(seed)

    def compute_delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (consumes one jitter draw)."""
        raw = min(self.max_delay_s, self.base_delay_s * self.multiplier**attempt)
        return raw * (1.0 - self.jitter * self._rng.random())

    def planned_delays(self) -> list[float]:
        """The full backoff schedule this policy would use, in order.

        Consumes the same RNG stream as :meth:`call`, so inspect it on a
        fresh policy (or one re-seeded via a new instance).
        """
        return [self.compute_delay(i) for i in range(self.max_attempts - 1)]

    def call(
        self,
        fn: Callable[[], T],
        retry_on: tuple[type[BaseException], ...] = (FaultInjectedError,),
    ) -> T:
        """Invoke ``fn``, retrying transient failures with backoff.

        Raises the last exception once attempts are exhausted.  Counters:
        ``resilience.retries`` (each backoff taken),
        ``resilience.retry.recovered`` (a retry eventually succeeded),
        ``resilience.retry.exhausted`` (gave up).
        """
        last: BaseException | None = None
        for attempt in range(self.max_attempts):
            try:
                result = fn()
            except retry_on as exc:
                last = exc
                if attempt == self.max_attempts - 1:
                    break
                delay = self.compute_delay(attempt)
                self.metrics.counter("resilience.retries").inc()
                self.tracer.log(
                    "info", "retrying after fault",
                    attempt=attempt + 1, delay_s=delay, error=type(exc).__name__,
                )
                if self.clock is not None:
                    self.clock.advance(delay)
            else:
                if attempt:
                    self.metrics.counter("resilience.retry.recovered").inc()
                return result
        self.metrics.counter("resilience.retry.exhausted").inc()
        assert last is not None
        raise last


class CircuitBreaker:
    """Closed → open → half-open breaker with a clock-driven cooldown.

    * **closed**: calls flow; ``failure_threshold`` consecutive failures
      trip the breaker open.
    * **open**: calls are rejected (:class:`CircuitOpenError`) until
      ``cooldown_s`` of simulated time has passed.
    * **half-open**: probe calls flow; ``half_open_successes`` consecutive
      successes re-close the breaker, any failure re-opens it (and restarts
      the cooldown).

    The gauge ``resilience.breaker.<name>.state`` exports 0/1/2 for
    closed/half-open/open so E23-style artifacts can plot trips.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"
    #: A state's code in the ``resilience.breaker.<name>.state`` gauge,
    #: and in the cluster's per-shard ``breaker_state`` gauge.
    STATE_CODES = {CLOSED: 0.0, HALF_OPEN: 1.0, OPEN: 2.0}

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown_s: float = 30.0,
        half_open_successes: int = 2,
        clock: SimulationClock | None = None,
        name: str = "default",
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ConfigurationError("failure_threshold must be >= 1")
        if cooldown_s <= 0:
            raise ConfigurationError("cooldown_s must be positive")
        if half_open_successes < 1:
            raise ConfigurationError("half_open_successes must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.half_open_successes = half_open_successes
        self.clock = clock if clock is not None else SimulationClock()
        self.name = name
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NoopTracer()
        self._state = self.CLOSED
        self._failures = 0
        self._probe_successes = 0
        self._opened_at = 0.0
        self.trips = 0

    @property
    def state(self) -> str:
        """Current state; an expired cooldown lazily moves open → half-open."""
        if self._state == self.OPEN and (
            self.clock.now - self._opened_at >= self.cooldown_s
        ):
            self._transition(self.HALF_OPEN)
        return self._state

    def allow(self) -> bool:
        """Whether a call may proceed right now."""
        if self.state == self.OPEN:
            self.metrics.counter(f"resilience.breaker.{self.name}.rejected").inc()
            return False
        return True

    def record_success(self) -> None:
        state = self.state
        if state == self.HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self.half_open_successes:
                self._transition(self.CLOSED)
        elif state == self.CLOSED:
            self._failures = 0

    def record_failure(self) -> None:
        state = self.state
        if state == self.HALF_OPEN:
            self._trip()
        elif state == self.CLOSED:
            self._failures += 1
            if self._failures >= self.failure_threshold:
                self._trip()

    def call(self, fn: Callable[[], T]) -> T:
        """Guard ``fn``: reject when open, record the outcome otherwise."""
        if not self.allow():
            raise CircuitOpenError(
                f"circuit {self.name!r} is open "
                f"(cooldown {self.cooldown_s}s from t={self._opened_at})"
            )
        try:
            result = fn()
        except Exception:
            self.record_failure()
            raise
        self.record_success()
        return result

    def _trip(self) -> None:
        self.trips += 1
        self._opened_at = self.clock.now
        self.metrics.counter(f"resilience.breaker.{self.name}.opened").inc()
        self._transition(self.OPEN)

    def _transition(self, state: str) -> None:
        self._state = state
        self._failures = 0
        self._probe_successes = 0
        self.metrics.gauge(f"resilience.breaker.{self.name}.state").set(
            self.STATE_CODES[state]
        )
        self.tracer.log("info", "breaker transition", breaker=self.name, state=state)


@dataclass(frozen=True)
class Timeout:
    """A declarative time budget; :meth:`guard` binds it to a clock."""

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds <= 0:
            raise ConfigurationError("timeout must be positive")

    def deadline_from(self, now: float) -> float:
        return now + self.seconds

    def guard(self, clock: SimulationClock, label: str = "") -> "Deadline":
        return Deadline(clock, self.deadline_from(clock.now), label)


class Deadline:
    """A live deadline against a simulated clock."""

    def __init__(self, clock: SimulationClock, at: float, label: str = "") -> None:
        self.clock = clock
        self.at = at
        self.label = label

    @property
    def remaining(self) -> float:
        return max(0.0, self.at - self.clock.now)

    @property
    def expired(self) -> bool:
        return self.clock.now >= self.at

    def check(self) -> None:
        """Raise :class:`DeadlineExceededError` if the deadline has passed."""
        if self.expired:
            label = f" ({self.label})" if self.label else ""
            raise DeadlineExceededError(
                f"deadline{label} exceeded at t={self.clock.now:.6f} "
                f"(deadline was {self.at:.6f})"
            )

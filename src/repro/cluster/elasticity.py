"""Closed-loop elasticity: autoscaling, hot-key salting, admission control.

The paper's elasticity argument (Sec. IV-E) is that a metaverse platform
must ride out order-of-magnitude load swings — diurnal cycles, flash
sales — without being provisioned for the peak.  The disaggregated
cluster already makes membership changes cheap (a join/leave is a pure
ring remap, zero data movement); this module closes the loop by *driving*
those membership changes from the cluster's own metrics:

* :class:`ScalingPolicy` — a pure hysteresis + cooldown decision core.
  It sees a stream of ``(now, p95 ingest wait, shard count)`` evaluations
  and answers scale out / scale in / hold.  Two bands
  (``slo_p95_wait_s`` above, ``clear_p95_wait_s`` below) with a dead zone
  between them, consecutive-evaluation streak requirements, and a
  post-action cooldown make the policy provably non-oscillating — the
  Hypothesis suite in ``tests/test_cluster_elasticity.py`` drives this
  class directly with generated signal streams.
* :class:`ElasticityController` — binds the policy to a live
  :class:`~repro.cluster.cluster.PlatformCluster`: reads windowed
  per-shard ingest-wait histograms (:meth:`Histogram.window
  <repro.core.metrics.Histogram.window>` — recent load, not lifetime
  quantiles), joins ``elastic-N`` compute shards on breach, retires them
  LIFO on sustained slack, and runs the hot-key and admission mechanisms
  below on the same cadence.
* **hot-key salting** — a :class:`~repro.selftune.heat.HeatSketch` over
  the purchase stream finds products drawing more than a configured share
  of recent traffic; the controller splits them across salt buckets on
  distinct shards (router-level salt map, merge-on-read stock, see
  :meth:`PlatformCluster.salt_product`) and merges them back when they
  cool.
* :class:`AdmissionController` — a per-shard :class:`TokenBucket` ahead
  of the circuit breaker.  When a shard's bucket runs dry, the lowest
  priority traffic is shed first: virtual-space LOD records are dropped,
  physical-space records are always admitted.  Already-admitted work is
  never shed — purchases and 2PC baskets do not pass through admission
  at all.

Everything is driven by the simulated clock, so a run is deterministic:
the same workload and seed produce the same scale actions, the same salt
decisions, and the same shed counts (experiment E29 commits to this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.clock import SimulationClock
from ..core.errors import ConfigurationError
from ..core.metrics import MetricsRegistry
from ..core.records import Space
from ..obs.tracing import NoopTracer, Tracer
from ..selftune.heat import HeatSketch
from .config import ElasticityConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cluster import PlatformCluster


@dataclass(frozen=True)
class ScaleAction:
    """One scale decision, for audit and test assertions."""

    at: float
    direction: str  # "out" | "in"
    from_shards: int
    to_shards: int
    p95_wait_s: float


class ScalingPolicy:
    """Pure hysteresis + cooldown scale-decision core.

    Stateful but clusterless: feed it evaluations via :meth:`decide` and
    it answers ``+1`` (scale out), ``-1`` (scale in), or ``0`` (hold).
    The anti-oscillation contract, held by the property tier:

    * at most one action per ``cooldown_s`` of evaluation time — inside
      a cooldown window every decision is ``0``;
    * an action requires the signal to sit past its band for
      ``breach_evals`` / ``clear_evals`` *consecutive* evaluations;
      a single sample in the dead zone resets both streaks;
    * shard counts never leave ``[min_shards, max_shards]``.
    """

    def __init__(self, config: ElasticityConfig) -> None:
        self.config = config.validate()
        self._breach_streak = 0
        self._clear_streak = 0
        self._last_action_at: float | None = None
        self.actions: list[ScaleAction] = []

    def in_cooldown(self, now: float) -> bool:
        return (
            self._last_action_at is not None
            and now - self._last_action_at < self.config.cooldown_s
        )

    def decide(self, now: float, p95_wait_s: float, n_shards: int) -> int:
        """One evaluation of the control signal; returns the shard delta."""
        cfg = self.config
        if p95_wait_s >= cfg.slo_p95_wait_s:
            self._breach_streak += 1
            self._clear_streak = 0
        elif p95_wait_s <= cfg.clear_p95_wait_s:
            self._clear_streak += 1
            self._breach_streak = 0
        else:
            # Dead zone between the bands: the load is neither bad enough
            # to grow nor calm enough to shrink — streaks restart.
            self._breach_streak = 0
            self._clear_streak = 0
        if self.in_cooldown(now):
            return 0
        if self._breach_streak >= cfg.breach_evals and n_shards < cfg.max_shards:
            self._record(now, "out", n_shards, n_shards + 1, p95_wait_s)
            return +1
        if self._clear_streak >= cfg.clear_evals and n_shards > cfg.min_shards:
            self._record(now, "in", n_shards, n_shards - 1, p95_wait_s)
            return -1
        return 0

    def _record(
        self, now: float, direction: str, before: int, after: int, p95: float
    ) -> None:
        self.actions.append(ScaleAction(now, direction, before, after, p95))
        self._last_action_at = now
        self._breach_streak = 0
        self._clear_streak = 0


class TokenBucket:
    """Deterministic token bucket on the simulated clock.

    Refills continuously at ``rate`` tokens/second up to ``burst``;
    :meth:`try_take` either takes one whole token or reports exhaustion.
    """

    def __init__(self, rate: float, burst: float, now: float) -> None:
        if rate <= 0 or burst <= 0:
            raise ConfigurationError("rate and burst must be positive")
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self._last_refill = now

    def try_take(self, now: float) -> bool:
        if now > self._last_refill:
            self.tokens = min(
                self.burst, self.tokens + (now - self._last_refill) * self.rate
            )
            self._last_refill = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class AdmissionController:
    """Load shedding *ahead* of the circuit breaker (paper Sec. IV-C).

    The breaker protects a failing downstream after the fact; admission
    control keeps an overloaded shard from being swamped in the first
    place.  Each shard gets a :class:`TokenBucket`; the shedding policy
    is strictly priority-ordered, the "low resolution instead of late"
    stance applied to ingest:

    * **physical-space records are always admitted** — they describe the
      real world and losing them is unacceptable; an exhausted bucket
      overdraws rather than sheds (counted separately);
    * **virtual-space (LOD) records are shed** when the bucket is dry;
    * **already-admitted work is never shed** — purchases and baskets do
      not pass through this gate at all.
    """

    def __init__(
        self,
        config: ElasticityConfig,
        clock: SimulationClock,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config
        self.clock = clock
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._buckets: dict[str, TokenBucket] = {}

    def _bucket(self, shard: str) -> TokenBucket:
        bucket = self._buckets.get(shard)
        if bucket is None:
            rate = self.config.admission_rate
            burst = (
                self.config.admission_burst
                if self.config.admission_burst is not None
                else rate
            )
            bucket = TokenBucket(rate, burst, self.clock.now)
            self._buckets[shard] = bucket
        return bucket

    def forget_shard(self, shard: str) -> None:
        """Drop a retired shard's bucket (its tokens retire with it)."""
        self._buckets.pop(shard, None)

    def admit(self, shard: str, space: Space) -> bool:
        """Admit or shed one ingest record bound for ``shard``."""
        if self._bucket(shard).try_take(self.clock.now):
            self.metrics.counter("cluster.elasticity.admitted").inc()
            return True
        if space is Space.PHYSICAL:
            # Physical observations must land; the bucket overdraws.
            self.metrics.counter(
                "cluster.elasticity.physical_overdraft"
            ).inc()
            return True
        self.metrics.counter("cluster.elasticity.shed_records").inc()
        return False


class ElasticityController:
    """The closed loop binding policy, sketch, and admission to a cluster.

    Owned by :class:`~repro.cluster.cluster.PlatformCluster` when its
    config carries an :class:`ElasticityConfig`; :meth:`tick` runs once
    per cluster tick, after ingest flush (so the wait histograms are
    fresh), gated to the configured control interval.
    """

    def __init__(
        self,
        cluster: "PlatformCluster",
        config: ElasticityConfig,
        clock: SimulationClock,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.cluster = cluster
        self.config = config.validate()
        self.clock = clock
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NoopTracer()
        self.policy = ScalingPolicy(config)
        self.sketch = HeatSketch()
        self.admission: AdmissionController | None = None
        if config.admission_rate is not None:
            self.admission = AdmissionController(
                config, clock=clock, metrics=self.metrics
            )
        self._last_eval_at: float | None = None
        self._elastic_seq = 0
        # Shards this controller added, newest last; scale-in retires
        # them LIFO and never touches the operator-provisioned base set.
        self._elastic_shards: list[str] = []
        self.node_seconds = 0.0

    # -- signals ------------------------------------------------------------

    def observe_purchase(self, product_id: str) -> None:
        """Feed the heat sketch (called by the cluster's purchase router)."""
        if self.config.hot_key_fraction is not None:
            self.sketch.observe(product_id)

    # -- the loop -----------------------------------------------------------

    def tick(self, dt: float) -> None:
        """One control-loop step; cheap no-op between control intervals."""
        self.node_seconds += len(self.cluster.shards) * dt
        self.metrics.gauge("cluster.elasticity.node_seconds").set(
            self.node_seconds
        )
        now = self.clock.now
        if (
            self._last_eval_at is not None
            and now - self._last_eval_at < self.config.control_interval_s
        ):
            return
        self._last_eval_at = now
        p95 = self.cluster.ingest_wait_p95(self.config.window)
        self.metrics.gauge("cluster.elasticity.p95_wait_s").set(p95)
        if self.config.autoscale:
            self._autoscale(now, p95)
        if self.config.hot_key_fraction is not None:
            self._retune_salting()
        self.metrics.gauge("cluster.elasticity.shards").set(
            float(len(self.cluster.shards))
        )

    def _autoscale(self, now: float, p95: float) -> None:
        delta = self.policy.decide(now, p95, len(self.cluster.shards))
        if delta > 0:
            name = f"elastic-{self._elastic_seq}"
            self._elastic_seq += 1
            self.cluster.add_shard(name)
            self._elastic_shards.append(name)
            self.metrics.counter("cluster.elasticity.scale_out").inc()
            self.tracer.log(
                "info", "elasticity scale-out", shard=name, p95_wait_s=p95
            )
        elif delta < 0 and self._elastic_shards:
            name = self._elastic_shards.pop()
            self.cluster.remove_shard(name)
            if self.admission is not None:
                self.admission.forget_shard(name)
            self.metrics.counter("cluster.elasticity.scale_in").inc()
            self.tracer.log(
                "info", "elasticity scale-in", shard=name, p95_wait_s=p95
            )

    def _retune_salting(self) -> None:
        """Salt products the sketch calls hot; unsalt the ones that cooled."""
        cfg = self.config
        hot = {
            key
            for key, _share in self.sketch.hot_keys(
                cfg.hot_key_fraction, min_total=float(cfg.hot_key_min_requests)
            )
        }
        router = self.cluster.router
        for pid in sorted(hot):
            if not router.is_salted(pid):
                self.cluster.salt_product(pid, cfg.salt_buckets)
                self.metrics.counter("cluster.elasticity.salted").inc()
                self.tracer.log("info", "hot product salted", product=pid)
        cool_floor = cfg.hot_key_fraction / 4.0
        for pid in list(router.salted_keys()):
            if pid not in hot and self.sketch.share(pid) < cool_floor:
                self.cluster.unsalt_product(pid)
                self.metrics.counter("cluster.elasticity.unsalted").inc()
                self.tracer.log("info", "product unsalted", product=pid)
        # Age the sketch once per evaluation so "hot" means hot *recently*.
        self.sketch.decay()

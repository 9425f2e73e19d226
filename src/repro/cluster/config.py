"""Declarative cluster construction config.

:class:`ClusterConfig` folds the shape of a :class:`PlatformCluster` —
shard count, deadlines, failover and disaggregation settings — into one
validated dataclass, leaving only the runtime collaborators (metrics
registry, tracer, fault injector) as constructor arguments.  Cross-field
rules live in :meth:`validate` instead of the constructor body, so a
config can be checked (and its error surfaced) before any shard is built.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import ConfigurationError


@dataclass
class ElasticityConfig:
    """Shape of the closed elasticity loop (:mod:`repro.cluster.elasticity`).

    Two independently switchable mechanisms:

    * **autoscaling** (``autoscale=True``) — hysteresis + cooldown scale
      decisions over the windowed p95 ingest wait, joining/leaving
      stateless compute shards between ``min_shards`` and ``max_shards``.
      Requires disaggregated mode (``n_storage_nodes``): only there is a
      membership change a zero-migration ring remap cheap enough for a
      control loop to issue.
    * **admission control** (``admission_rate`` set) — a token bucket
      per shard ahead of the circuit breaker; when a shard's bucket is
      dry, lowest-priority LOD traffic (virtual-space records) is shed
      first, physical-space records are always admitted.
    """

    # -- autoscaling --------------------------------------------------------
    autoscale: bool = True
    min_shards: int = 2
    max_shards: int = 8
    #: Evaluate the control signals at most once per this much simulated time.
    control_interval_s: float = 0.5
    #: Minimum simulated time between scale actions (the hysteresis window).
    cooldown_s: float = 2.0
    #: Scale-out band: windowed p95 ingest wait at or above this breaches SLO.
    slo_p95_wait_s: float = 0.5
    #: Scale-in band: windowed p95 ingest wait at or below this is slack.
    clear_p95_wait_s: float = 0.1
    #: Consecutive breached evaluations required before scaling out.
    breach_evals: int = 2
    #: Consecutive slack evaluations required before scaling in.
    clear_evals: int = 4
    #: Histogram window (samples) for controller reads.
    window: int = 16
    # -- admission control --------------------------------------------------
    #: Records per second per shard admitted at steady state (None disables).
    admission_rate: float | None = None
    #: Bucket capacity (burst absorbed before shedding starts); defaults
    #: to one second of admission_rate.
    admission_burst: float | None = None

    def validate(self) -> "ElasticityConfig":
        if self.min_shards < 1:
            raise ConfigurationError("min_shards must be >= 1")
        if self.max_shards < self.min_shards:
            raise ConfigurationError("max_shards must be >= min_shards")
        if self.control_interval_s <= 0 or self.cooldown_s <= 0:
            raise ConfigurationError(
                "control_interval_s and cooldown_s must be positive"
            )
        if self.slo_p95_wait_s <= self.clear_p95_wait_s:
            raise ConfigurationError(
                "slo_p95_wait_s must exceed clear_p95_wait_s (the hysteresis "
                "bands may not overlap)"
            )
        if self.breach_evals < 1 or self.clear_evals < 1:
            raise ConfigurationError("breach/clear evals must be >= 1")
        if self.window < 1:
            raise ConfigurationError("window must be >= 1")
        if self.admission_rate is not None and self.admission_rate <= 0:
            raise ConfigurationError("admission_rate must be positive")
        if self.admission_burst is not None and self.admission_burst <= 0:
            raise ConfigurationError("admission_burst must be positive")
        return self


@dataclass
class ClusterConfig:
    """Everything that decides a :class:`PlatformCluster`'s shape
    (``PlatformCluster()`` builds ``ClusterConfig()``).  Every field is
    one some caller sets to a second value; ``tests/test_config_surface.py``
    pins the list and DESIGN.md's "Options" names the callers."""

    n_shards: int = 4
    n_executors_per_shard: int = 4
    query_deadline_s: float = 0.25
    n_replicas: int = 1
    phi_threshold: float = 8.0
    n_storage_nodes: int | None = None
    #: Compact replica op logs once a shard's primary copy exceeds this
    #: many entries (None disables compaction entirely).
    replica_log_compact_threshold: int | None = 4096
    #: Records per second each shard drains from its ingest queue per
    #: tick (None = unbounded: every buffered record flushes
    #: immediately).  Setting it turns the per-shard
    #: buffers into real queues whose depth/wait the elasticity loop
    #: reads as its load signal.
    shard_drain_rate: float | None = None
    #: Closed-loop elasticity (autoscaling, admission control); None
    #: leaves the cluster fully static.
    elasticity: ElasticityConfig | None = None
    #: Per-shard semantic retrieval (repro.semantic).  Off by default —
    #: the numeric ingest hot paths never pay the embedding cost.
    semantic_index: bool = False

    def validate(self) -> "ClusterConfig":
        """Check cross-field invariants; returns self for chaining."""
        if self.n_shards < 1:
            raise ConfigurationError("need at least one shard")
        if not 1 <= self.n_replicas <= self.n_shards:
            raise ConfigurationError(
                f"n_replicas must be in [1, n_shards], got {self.n_replicas}"
            )
        if (
            self.replica_log_compact_threshold is not None
            and self.replica_log_compact_threshold < 1
        ):
            raise ConfigurationError(
                "replica_log_compact_threshold must be >= 1 (or None)"
            )
        if self.n_storage_nodes is not None:
            if self.n_storage_nodes < 1:
                raise ConfigurationError("need at least one storage node")
            if self.n_replicas >= 2:
                raise ConfigurationError(
                    "disaggregated mode and replica failover are mutually "
                    "exclusive: with a shared storage tier, availability "
                    "comes from re-mounting it, not from WAL replicas"
                )
        if self.shard_drain_rate is not None and self.shard_drain_rate <= 0:
            raise ConfigurationError("shard_drain_rate must be positive")
        if self.semantic_index and self.n_storage_nodes is not None:
            raise ConfigurationError(
                "semantic_index requires local shard engines: on a shared "
                "storage tier a compute node's ANN graph would go stale "
                "across re-mounts and ring remaps"
            )
        if self.elasticity is not None:
            self.elasticity.validate()
            if self.n_replicas >= 2:
                raise ConfigurationError(
                    "elasticity and replica failover are mutually exclusive "
                    "(the control loop assumes stateless compute shards)"
                )
            if self.elasticity.autoscale:
                if self.n_storage_nodes is None:
                    raise ConfigurationError(
                        "autoscaling requires disaggregated mode "
                        "(n_storage_nodes): only there is a membership "
                        "change a zero-migration ring remap"
                    )
                if not (
                    self.elasticity.min_shards
                    <= self.n_shards
                    <= self.elasticity.max_shards
                ):
                    raise ConfigurationError(
                        "n_shards must start inside "
                        "[min_shards, max_shards] when autoscaling"
                    )
        return self

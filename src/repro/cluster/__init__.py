"""Horizontal scale-out: sharded platform cluster (paper Sec. IV).

``repro.cluster`` turns N single-node :class:`~repro.platform.platform.
MetaversePlatform` instances into one horizontally scaled system:

* :class:`ShardRouter` — consistent-hash (vnode) key → shard mapping;
* :class:`PlatformCluster` — the facade: batched per-tick ingest,
  scatter-gather queries with per-shard deadlines, routed purchases,
  cross-shard 2PC baskets, live rebalancing;
* :class:`CrossShardCoordinator` / :class:`ShardParticipant` — the 2PC
  bridge binding the protocol driver in :mod:`repro.txn.twopc` to
  shard-local MVCC state;
* :class:`FailoverManager` / :class:`FailureDetector` /
  :class:`ShardReplicator` — shard crash survival: heartbeat-driven
  phi-accrual detection, ring-successor log replication with hinted
  handoff, replica promotion with WAL replay, and set-digest anti-entropy
  (enable with ``ClusterConfig(n_replicas=2)``).

Disaggregated mode (``ClusterConfig(n_storage_nodes=M)``) mounts every
compute shard on a shared :class:`~repro.storage.engine.StorageTier`
instead: membership changes become pure ring remaps with zero entity
migration, and a killed compute node recovers by re-mounting the tier.

Experiment E24 (``bench_cluster_scaleout.py``) measures the scaling
claim; E25 (``bench_cluster_failover.py``) the crash-survival claim;
E26 (``bench_disaggregated_scaleout.py``) the compute/storage split.
"""

from .cluster import BasketOutcome, GatherResult, PlatformCluster
from .config import ClusterConfig, ElasticityConfig
from .coordinator import CrossShardCoordinator, ShardParticipant
from .elasticity import (
    AdmissionController,
    ElasticityController,
    ScaleAction,
    ScalingPolicy,
    TokenBucket,
)
from .failover import FailoverManager, FailureDetector, ShardReplicator
from .router import ShardRouter

__all__ = [
    "AdmissionController",
    "BasketOutcome",
    "ClusterConfig",
    "CrossShardCoordinator",
    "ElasticityConfig",
    "ElasticityController",
    "FailoverManager",
    "FailureDetector",
    "GatherResult",
    "PlatformCluster",
    "ScaleAction",
    "ScalingPolicy",
    "ShardParticipant",
    "ShardReplicator",
    "ShardRouter",
    "TokenBucket",
]

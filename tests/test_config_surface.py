"""Every option is one someone sets: the construction surface is a
committed list.

The deployment shapes are built from a handful of configs and
constructors; this test compares their ``dataclasses.fields`` and
``inspect.signature`` parameters with the tuples below, so a new knob is
a visible edit here, never a quiet default.

Adding one: a knob earns its place only when two callers set it to
different values — a workload, a bench, an example or a test that needs
the second value to reach a code path.  Name both callers in a comment
beside the new entry (DESIGN.md's "Options" paragraph names them for the
knobs listed here).  A value nobody varies is a module constant at its
one use, with a comment saying why it has that value.

The same rule holds below the shapes (DESIGN.md's "Arguments"
paragraph): the constructors and calls in the second half of
:data:`PARAMETERS` had parameters no call site passed, which are now
constants, so re-adding one is an edit here too.
"""

import dataclasses
import inspect

from repro.cluster import ClusterConfig, PlatformCluster
from repro.cluster.config import ElasticityConfig
from repro.cluster.coordinator import CrossShardCoordinator
from repro.cluster.elasticity import TokenBucket
from repro.cluster.failover import FailoverManager, FailureDetector
from repro.geo import GeoConfig, GeoDeployment
from repro.platform import MetaversePlatform
from repro.resilience.policies import RetryPolicy
from repro.semantic import SemanticIndex, semantic_query
from repro.storage.engine import LocalStorageEngine, StorageTier

FIELDS = {
    ClusterConfig: (
        "n_shards",
        "n_executors_per_shard",
        "query_deadline_s",
        "n_replicas",
        "phi_threshold",
        "n_storage_nodes",
        "replica_log_compact_threshold",
        "shard_drain_rate",
        "elasticity",
        "semantic_index",
    ),
    GeoConfig: (
        "regions",
        "cluster",
        "wan_latencies_s",
        "compact_threshold",
        "seed",
    ),
    # Every field is set by the E29 bench (bench_elasticity.py).
    ElasticityConfig: (
        "autoscale",
        "min_shards",
        "max_shards",
        "control_interval_s",
        "cooldown_s",
        "slo_p95_wait_s",
        "clear_p95_wait_s",
        "breach_evals",
        "clear_evals",
        "window",
        "admission_rate",
        "admission_burst",
    ),
}

PARAMETERS = {
    MetaversePlatform: (
        "n_executors",
        "physical_priority",
        "metrics",
        "tracer",
        "faults",
        "engine",
        "semantic_index",
    ),
    PlatformCluster: ("config", "metrics", "tracer", "faults"),
    GeoDeployment: ("config", "faults", "metrics", "tracer"),
    FailoverManager: ("cluster",),
    LocalStorageEngine: ("metrics", "tracer", "faults"),
    StorageTier: (
        "n_nodes",
        "node_names",
        "vnodes",
        "clock",
        "metrics",
        "tracer",
        "engine_factory",
    ),
    StorageTier.mount: (
        "client",
        "faults",
        "rpc_timeout_s",
    ),
    # Below the shapes.  The detector's interval window and the purchase
    # conflict retries are constants; the 2PC timeout is the Coordinator
    # default; a token take is one token.
    FailureDetector: ("heartbeat_interval_s", "phi_threshold"),
    CrossShardCoordinator: ("shards", "clock", "metrics", "tracer"),
    TokenBucket.try_take: ("now",),
    RetryPolicy.call: ("fn", "retry_on"),
    MetaversePlatform.process_purchases: ("requests", "presorted"),
    PlatformCluster.process_purchases: ("requests",),
    GeoDeployment.process_purchases: ("requests",),
    # One embedding dimension: the index and every query use DEFAULT_DIM.
    SemanticIndex: (),
    semantic_query: ("text", "k", "ef"),
}

#: The six constructors the paper's deployment shapes are built from.
SHAPE_CONSTRUCTORS = (
    ClusterConfig,
    GeoConfig,
    MetaversePlatform,
    FailoverManager,
    LocalStorageEngine,
    StorageTier,
)


def options(target) -> tuple[str, ...]:
    if target in FIELDS:
        return tuple(field.name for field in dataclasses.fields(target))
    parameters = inspect.signature(target).parameters
    return tuple(name for name in parameters if name != "self")


def test_config_fields_are_the_committed_list():
    for config, expected in FIELDS.items():
        assert options(config) == expected, config.__name__


def test_constructor_parameters_are_the_committed_list():
    for target, expected in PARAMETERS.items():
        assert options(target) == expected, target.__qualname__


def test_the_deployment_shapes_have_33_settable_values():
    assert sum(len(options(target)) for target in SHAPE_CONSTRUCTORS) == 33

"""Which public callables of the program carry a span, and for which layer.

Layers are the repo's modules.  Each :class:`Target` names one callable
by import path and the per-layer ``*_s`` metric its *self time* is added
to.  The list is the benchmark's whole knowledge of the program's
internals: a renamed callable is skipped at install time (see
:func:`macrobench.spans.install`) and its time falls through to its
caller's layer, so ``bench.unattributed_share`` and the per-layer shares
show the gap instead of the run failing.

Per-record and ``*_batch`` twins are both listed even where no workload
calls one of them today, so that a later change that folds a twin into
the other keeps its time under the same metric name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    path: str
    metric: str
    #: ``size_of(args, result)``: rows or bytes this call moved.
    size_of: Optional[Callable] = None
    #: The callable is a generator function; consume it inside the span.
    drain: bool = False


def _result_len(args, result) -> int:
    return len(result)


def _arg_len(index: int) -> Callable:
    return lambda args, result: len(args[index])


def _one(args, result) -> int:
    return 1


def _targets(module: str, metric: str, *names: str, **options) -> list[Target]:
    return [Target(f"{module}:{name}", metric, **options) for name in names]


_GATEWAY = "repro.platform.gateway"
_PLATFORM = "repro.platform.platform"
_CLUSTER = "repro.cluster.cluster"
_FAILOVER = "repro.cluster.failover"
_ENGINE = "repro.storage.engine"
_KV = "repro.storage.kv"
_PLANE = "repro.query.plane"
_SEMANTIC = "repro.semantic.modality"
_GEO = "repro.geo.deployment"

TARGETS: list[Target] = [
    # -- platform.gateway ----------------------------------------------------
    *_targets(_GATEWAY, "gateway.ingest_s",
              "DeviceGateway.ingest", "DeviceGateway.ingest_many",
              "DeviceGateway.ingest_batch"),
    *_targets(_GATEWAY, "gateway.flush_s",
              "DeviceGateway.flush", "DeviceGateway.flush_batch"),
    # -- fusion --------------------------------------------------------------
    *_targets("repro.fusion.batch", "fusion.batch_build_s",
              "ObservationBatch.from_observations"),
    *_targets("repro.fusion.fuser", "fusion.fuse_s",
              "TruthFusion.fuse", "TruthFusion.fuse_batch"),
    # -- core.columns --------------------------------------------------------
    Target("repro.core.columns:RecordBatch.from_records", "columns.build_s",
           size_of=_result_len),
    *_targets("repro.core.columns", "columns.build_s",
              "RecordBatch.concat", "RecordBatch.take", "RecordBatch.payloads",
              "RecordBatch.space_values", "RecordBatch.to_records"),
    # -- platform ------------------------------------------------------------
    Target(f"{_PLATFORM}:MetaversePlatform.write_record", "platform.flush_s",
           size_of=_one),
    Target(f"{_PLATFORM}:MetaversePlatform.write_record_batch",
           "platform.flush_s", size_of=_arg_len(1)),
    *_targets(_PLATFORM, "platform.flush_s",
              "MetaversePlatform.flush", "MetaversePlatform.import_entity",
              "MetaversePlatform.import_product"),
    Target(f"{_PLATFORM}:MetaversePlatform.scan", "platform.query_s",
           size_of=_result_len),
    *_targets(_PLATFORM, "platform.query_s",
              "MetaversePlatform.query", "MetaversePlatform.scan_prefix",
              "MetaversePlatform.query_spatial",
              "MetaversePlatform.semantic_search"),
    *_targets(_PLATFORM, "platform.spatial_items_s",
              "MetaversePlatform.spatial_items"),
    *_targets(_PLATFORM, "platform.read_s", "MetaversePlatform.read"),
    *_targets(_PLATFORM, "platform.purchase_s",
              "MetaversePlatform.process_purchases",
              "MetaversePlatform.persist_committed",
              "MetaversePlatform.load_catalog", "MetaversePlatform.get_stock"),
    # -- cluster -------------------------------------------------------------
    *_targets(_CLUSTER, "cluster.route_s",
              "PlatformCluster.ingest", "PlatformCluster.ingest_many",
              "PlatformCluster.ingest_batch", "PlatformCluster.read",
              "PlatformCluster.write_record"),
    *_targets(_CLUSTER, "cluster.flush_s", "PlatformCluster.flush"),
    *_targets(_CLUSTER, "cluster.tick_s", "PlatformCluster.tick"),
    *_targets(_CLUSTER, "cluster.scatter_s",
              "PlatformCluster.query", "PlatformCluster.run_plan",
              "PlatformCluster.gather", "PlatformCluster.scan_prefix",
              "PlatformCluster.query_spatial"),
    *_targets(_CLUSTER, "cluster.purchase_route_s",
              "PlatformCluster.process_purchases",
              "PlatformCluster.load_catalog", "PlatformCluster.get_stock"),
    *_targets(_CLUSTER, "cluster.basket_s", "PlatformCluster.process_basket"),
    # -- cluster.failover ----------------------------------------------------
    *_targets(_FAILOVER, "failover.log_s", "ShardReplicator.log_op"),
    *_targets(_FAILOVER, "failover.tick_s", "FailoverManager.tick"),
    # -- txn (2PC; MVCC work stays inside its caller's span) ------------------
    *_targets("repro.cluster.coordinator", "txn.twopc_s",
              "CrossShardCoordinator.execute"),
    # Participant handlers run from a network delivery; without their own
    # span the prepare/commit work would be booked to net.deliver_s.
    *_targets("repro.txn.twopc", "txn.twopc_s",
              "Coordinator.execute", "Participant._on_prepare",
              "Participant._on_commit", "Participant._on_abort"),
    # -- storage.engine ------------------------------------------------------
    *_targets(_ENGINE, "storage.rpc_s",
              "RemoteStorageEngine.get", "RemoteStorageEngine.put",
              "RemoteStorageEngine.delete", "RemoteStorageEngine.scan",
              "RemoteStorageEngine.mget", "RemoteStorageEngine.mput",
              "RemoteStorageEngine.put_product",
              "RemoteStorageEngine.get_product",
              "RemoteStorageEngine.products", "StorageNode.execute"),
    # -- storage.kv / storage.wal / storage.lifecycle -------------------------
    *_targets(_KV, "kv.put_s", "KVStore.put", "KVStore.delete"),
    *_targets(_KV, "kv.mput_s", "KVStore.mput"),
    *_targets(_KV, "kv.get_s", "KVStore.get"),
    Target(f"{_KV}:KVStore.scan", "kv.scan_s", drain=True),
    *_targets(_KV, "kv.flush_s", "KVStore.flush"),
    *_targets(_KV, "kv.compact_s", "KVStore.compact"),
    Target("repro.storage.wal:WriteAheadLog.append", "wal.append_s",
           size_of=_arg_len(1)),
    Target("repro.storage.wal:WriteAheadLog.append_at", "wal.append_s",
           size_of=_arg_len(2)),
    *_targets(_CLUSTER, "lifecycle.maintain_s",
              "PlatformCluster.maintain_storage"),
    *_targets(_PLATFORM, "lifecycle.maintain_s",
              "MetaversePlatform.maintain_storage"),
    *_targets(_ENGINE, "lifecycle.maintain_s", "StorageTier.maintain"),
    *_targets("repro.storage.lifecycle", "lifecycle.maintain_s",
              "CheckpointManager.checkpoint"),
    # -- query.plane ---------------------------------------------------------
    *_targets(_PLANE, "query.plan_s", "QueryExecutor.resolve"),
    *_targets(_PLANE, "query.execute_s",
              "QueryExecutor.run_single", "PrefixScanModality.execute",
              "SpatialModality.execute"),
    *_targets(_SEMANTIC, "query.execute_s", "SemanticModality.execute"),
    *_targets(_PLANE, "query.merge_s",
              "PrefixScanModality.merge", "SpatialModality.merge"),
    *_targets(_SEMANTIC, "query.merge_s", "SemanticModality.merge"),
    # -- semantic ------------------------------------------------------------
    # Module-level functions are patched in the namespace that calls them.
    *_targets(_SEMANTIC, "semantic.embed_s", "embed_text"),
    *_targets("repro.semantic.index", "semantic.embed_s", "indexed_vector"),
    *_targets("repro.semantic.index", "semantic.search_s",
              "SemanticIndex.search"),
    *_targets("repro.semantic.index", "semantic.index_s",
              "SemanticIndex.index_record"),
    # -- geo -----------------------------------------------------------------
    *_targets(_GEO, "geo.purchase_s", "GeoDeployment.process_purchases"),
    *_targets(_GEO, "geo.write_s",
              "GeoDeployment.write_record", "GeoDeployment.ingest",
              "GeoDeployment.ingest_many", "GeoDeployment.load_catalog"),
    *_targets(_GEO, "geo.tick_s", "GeoDeployment.tick"),
    *_targets(_GEO, "geo.read_s",
              "GeoDeployment.read", "GeoDeployment.get_stock",
              "GeoDeployment.query", "GeoDeployment.scan_prefix"),
    *_targets("repro.geo.replication", "geo.repl.log_s",
              "GeoReplicator.log_op"),
    *_targets("repro.geo.replication", "geo.repl.deliver_s",
              "GeoReplicator.deliver"),
    *_targets("repro.geo.replication", "geo.repl.antientropy_s",
              "GeoReplicator.antientropy"),
    # -- net.simnet ----------------------------------------------------------
    *_targets("repro.net.simnet", "net.send_s", "SimulatedNetwork.send"),
    *_targets("repro.net.simnet", "net.deliver_s", "Node.deliver"),
]


def spans_of(metric: str) -> list[str]:
    """Span names whose self time feeds ``metric``."""
    return [t.path.partition(":")[2] for t in TARGETS if t.metric == metric]

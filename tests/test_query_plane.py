"""Unit tests for the modality-agnostic query plane (repro.query.plane).

The deployment layers are tested against the plane in
``test_api_dataplane.py``; this file pins the plane's own contracts —
registry semantics, planning once per query rather than once per shard,
and the zero-dispatch-edit extension point (a brand-new modality runs on
the platform, the cluster, and continuous queries without touching
either dispatch path).
"""

import pytest

from repro.cluster import ClusterConfig, PlatformCluster
from repro.core import ConfigurationError, DataKind, DataRecord, Space
from repro.platform import MetaversePlatform
from repro.query.plane import (
    DEFAULT_REGISTRY,
    ModalityRegistry,
    PrefixScanModality,
    QueryModality,
    QueryPlan,
    QueryRequest,
    prefix_query,
    register_modality,
    spatial_query,
)
from repro.spatial.geometry import BBox


def record(key, payload, timestamp=0.0):
    return DataRecord(
        key=key, payload=payload, space=Space.VIRTUAL,
        timestamp=timestamp, kind=DataKind.STRUCTURED, source="test",
    )


def seeded_platform(n=12):
    platform = MetaversePlatform()
    platform.ingest_many(
        [record(f"e/{i:02d}", {"x": float(i), "y": 0.0, "v": i}) for i in range(n)]
    )
    platform.tick(1.0)
    return platform


class TestRegistry:
    def test_duplicate_registration_is_rejected(self):
        registry = ModalityRegistry()

        class Dummy(QueryModality):
            name = "dummy"

        registry.register(Dummy())
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register(Dummy())
        registry.register(Dummy(), replace=True)  # explicit replace is fine
        assert registry.names() == ["dummy"]

    def test_unknown_modality_names_the_registered_ones(self):
        with pytest.raises(ConfigurationError, match="'prefix'"):
            DEFAULT_REGISTRY.get("no-such-modality")

    def test_builtins_are_registered_by_import(self):
        import repro.semantic  # noqa: F401 -- registering IS the import

        names = DEFAULT_REGISTRY.names()
        assert "prefix" in names and "spatial" in names and "semantic" in names


class TestPlanningAndRewrite:
    def test_prefix_plan_validates_parameter_type(self):
        modality = DEFAULT_REGISTRY.get("prefix")
        with pytest.raises(ConfigurationError, match="string 'prefix'"):
            modality.plan(QueryRequest("prefix", {"prefix": 7}))

    def test_spatial_plan_requires_a_bbox(self):
        modality = DEFAULT_REGISTRY.get("spatial")
        with pytest.raises(ConfigurationError, match="BBox"):
            modality.plan(QueryRequest("spatial", {"region": (0, 0, 1, 1)}))

    def test_planning_happens_once_not_per_shard(self, monkeypatch):
        """A 4-shard scatter plans the query once and hands the same plan
        to every shard's ``execute``."""
        planned, executed = [], []
        plan, execute = PrefixScanModality.plan, PrefixScanModality.execute

        def counting_plan(self, request):
            planned.append(plan(self, request))
            return planned[-1]

        def counting_execute(self, shard, query_plan):
            executed.append(query_plan)
            return execute(self, shard, query_plan)

        monkeypatch.setattr(PrefixScanModality, "plan", counting_plan)
        monkeypatch.setattr(PrefixScanModality, "execute", counting_execute)
        cluster = PlatformCluster(config=ClusterConfig(n_shards=4))
        cluster.ingest_many([record(f"e/{i:02d}", {"v": i}) for i in range(12)])
        cluster.flush()
        result = cluster.query(prefix_query("e/"))
        assert [k for k, _ in result.items] == [f"e/{i:02d}" for i in range(12)]
        assert len(planned) == 1
        assert len(executed) == 4
        assert all(query_plan is planned[0] for query_plan in executed)


class SumModality(QueryModality):
    """A deliberately non-(key, value) modality: each shard returns one
    ``(shard_tag, total)`` row and the merge folds them into a single
    grand-total row — exercising ``item_key`` and non-trivial merges."""

    name = "sum-v"

    def plan(self, request):
        params = dict(request.params)
        if not isinstance(params.get("prefix"), str):
            raise ConfigurationError("sum-v queries need a string 'prefix'")
        return QueryPlan(request.modality, params)

    def execute(self, shard, plan):
        prefix = plan.params["prefix"]
        rows = shard.scan(prefix, prefix + "￿")
        return [(key, value["payload"]["v"]) for key, value in rows]

    def merge(self, partials, plan):
        total = sum(v for partial in partials for _, v in partial)
        count = sum(len(partial) for partial in partials)
        return [("total", {"sum": total, "count": count})]


register_modality(SumModality(), replace=True)


class TestZeroDispatchEditExtension:
    """Registering a modality is the ONLY integration step: both
    deployment shapes run it through their unchanged dispatch paths."""

    def test_custom_modality_runs_on_the_platform(self):
        result = seeded_platform(10).query(QueryRequest("sum-v", {"prefix": "e/"}))
        assert result.items == [("total", {"sum": 45, "count": 10})]

    def test_custom_modality_scatter_gathers_on_the_cluster(self):
        cluster = PlatformCluster(config=ClusterConfig(n_shards=4))
        cluster.ingest_many(
            [record(f"e/{i:02d}", {"v": i}) for i in range(10)]
        )
        cluster.flush()
        result = cluster.query(QueryRequest("sum-v", {"prefix": "e/"}))
        assert not result.partial
        assert result.items == [("total", {"sum": 45, "count": 10})]

    def test_custom_modality_drives_continuous_queries(self):
        self.drive_running_sum(ClusterConfig(n_shards=2))

    def test_custom_modality_drives_continuous_queries_on_a_shared_tier(self):
        """Every shard sees every key of a shared tier; each shard's
        refresh keeps the items it owns, so each entity counts once."""
        self.drive_running_sum(ClusterConfig(n_shards=2, n_storage_nodes=2))

    @staticmethod
    def drive_running_sum(config):
        cluster = PlatformCluster(config=config)
        cluster.register_continuous_query(
            "running-sum", QueryRequest("sum-v", {"prefix": "e/"})
        )
        cluster.ingest_many([record(f"e/{i}", {"v": i}) for i in range(4)])
        results = cluster.tick(1.0)
        assert results["running-sum"].items == [("total", {"sum": 6, "count": 4})]
        cluster.ingest(record("e/9", {"v": 10}))
        results = cluster.tick(1.0)
        assert results["running-sum"].items == [("total", {"sum": 16, "count": 5})]


class TestWrapperEquivalence:
    def test_scan_prefix_is_a_thin_wrapper_over_query(self):
        platform = seeded_platform(8)
        assert platform.scan_prefix("e/").items == platform.query(
            prefix_query("e/")
        ).items

    def test_query_spatial_is_a_thin_wrapper_over_query(self):
        cluster = PlatformCluster(config=ClusterConfig(n_shards=3))
        cluster.ingest_many(
            [record(f"e/{i}", {"x": float(i), "y": 0.0}) for i in range(8)]
        )
        cluster.flush()
        region = BBox(2.0, -1.0, 5.0, 1.0)
        assert cluster.query_spatial(region).items == cluster.query(
            spatial_query(region)
        ).items

    def test_gather_escape_hatch_concatenates_in_ring_order(self):
        cluster = PlatformCluster(config=ClusterConfig(n_shards=3))
        cluster.ingest_many([record(f"e/{i}", {"v": i}) for i in range(9)])
        cluster.flush()
        result = cluster.gather(lambda shard: [len(shard.scan("e/", "e/￿"))])
        assert len(result.items) == 3 and sum(result.items) == 9

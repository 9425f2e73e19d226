"""A node answers for its own keys, and only routing asks the router.

``MetaversePlatform.answer`` is the one per-node query path: a single
node's ``query`` (``QueryExecutor.run_single``), every cluster scatter
(so the geo layer's too) and a standing query's re-evaluation all run the
plan through it, keeping the items the node ``owns``.  In the cluster
every ownership question that is not a routing decision asks the
placement once, uncounted, so ``cluster.router.lookups`` counts routed
calls and nothing else.
"""

import ast
import inspect

import pytest

from repro.cluster import ClusterConfig, PlatformCluster
from repro.cluster import cluster as cluster_module
from repro.core import DataKind, DataRecord, Space
from repro.geo import LINEARIZABLE, GeoConfig, GeoDeployment
from repro.geo import deployment as geo_module
from repro.platform import MetaversePlatform
from repro.platform import platform as platform_module
from repro.query import plane as plane_module
from repro.query.plane import prefix_query, spatial_query
from repro.spatial.geometry import BBox

BOX = BBox(0.0, 0.0, 9.0, 1.0)


def record(i):
    return DataRecord(
        key=f"e/{i:03d}", payload={"x": float(i % 20), "y": float(i // 20)},
        space=Space.VIRTUAL, kind=DataKind.STRUCTURED, source="test",
    )


def tier_cluster(n_keys=60):
    cluster = PlatformCluster(ClusterConfig(n_shards=3, n_storage_nodes=2))
    cluster.ingest_many([record(i) for i in range(n_keys)])
    cluster.flush()
    return cluster


def class_methods(module, name):
    """``{method name: FunctionDef}`` of class ``name`` in ``module``."""
    tree = ast.parse(inspect.getsource(module))
    (cls,) = [
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == name
    ]
    return {
        node.name: node for node in cls.body
        if isinstance(node, ast.FunctionDef)
    }


def is_owns(node):
    return (isinstance(node, ast.Name) and node.id == "owns") or (
        isinstance(node, ast.Attribute) and node.attr == "owns"
    )


def modality_executions(tree):
    """Every ``modality.execute(...)`` call under ``tree``."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "execute"
        and (
            (isinstance(node.func.value, ast.Name)
             and node.func.value.id == "modality")
            or (isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "modality")
        )
    ]


def router_lookups(function):
    """Every ``self.router.owner_of`` in ``function``."""
    return [
        node for node in ast.walk(function)
        if isinstance(node, ast.Attribute) and node.attr == "owner_of"
        and isinstance(node.value, ast.Attribute) and node.value.attr == "router"
    ]


class TestOneOwnedAnswer:
    def test_the_replaced_paths_are_gone(self):
        assert not hasattr(PlatformCluster, "_owned_slice")
        assert "_owned_slice" not in inspect.getsource(cluster_module)
        # Only ``answer`` runs a plan on a node.
        for module in (plane_module, cluster_module, geo_module):
            assert modality_executions(ast.parse(inspect.getsource(module))) == []
        methods = class_methods(platform_module, "MetaversePlatform")
        assert [
            name for name, method in methods.items()
            if modality_executions(method)
        ] == ["answer"]

    def test_the_platform_asks_owns_only_where_it_answers_or_hydrates(self):
        methods = class_methods(platform_module, "MetaversePlatform")
        callers = {
            name for name, method in methods.items()
            if any(
                isinstance(node, ast.Call) and is_owns(node.func)
                for node in ast.walk(method)
            )
        }
        assert callers == {"answer", "_hydrated"}
        # _sole_writer only checks whether the hook is set.
        sole_writer = methods["_sole_writer"]
        compares = [
            node for node in ast.walk(sole_writer)
            if isinstance(node, ast.Compare) and is_owns(node.left)
        ]
        assert len(compares) == 1
        assert isinstance(compares[0].ops[0], ast.IsNot)
        assert [n for n in ast.walk(sole_writer) if is_owns(n)] == [
            compares[0].left
        ]

    def test_no_ownership_sweep_asks_the_counting_router(self):
        methods = class_methods(cluster_module, "PlatformCluster")
        for name in ("_rebalance", "entity_locations", "_requeue_pending",
                     "_collect_entity_gauges", "_owns"):
            assert router_lookups(methods[name]) == [], name
        source = inspect.getsource(cluster_module)
        assert source.count("Placement.owner_of") == 1

    @pytest.mark.parametrize("read", [
        lambda cluster: cluster.query(prefix_query("e/")).items,
        lambda cluster: cluster.query(spatial_query(BOX)).items,
        lambda cluster: list(cluster.entity_locations()),
    ], ids=["prefix", "spatial", "entity_locations"])
    def test_a_query_or_a_location_sweep_books_no_lookup(self, read):
        cluster = tier_cluster()
        lookups = cluster.metrics.counter("cluster.router.lookups")
        before = lookups.value
        items = read(cluster)
        assert lookups.value == before
        assert items

    def test_a_tick_with_standing_queries_books_the_records_it_routes(self):
        cluster = tier_cluster()
        cluster.register_continuous("all", "e/")
        cluster.register_continuous_query("box", spatial_query(BOX))
        cluster.tick(0.5)
        lookups = cluster.metrics.counter("cluster.router.lookups")
        before = lookups.value
        cluster.ingest_many([record(i) for i in range(0, 60, 3)])
        routed = lookups.value - before
        results = cluster.tick(0.5)
        assert routed == 20
        assert lookups.value - before == routed
        assert len(results["all"].items) == 60
        assert len(results["box"].items) == 20

    def test_every_per_node_query_runs_through_answer(self, monkeypatch):
        answered = []
        answer = MetaversePlatform.answer

        def recorded(self, modality, plan):
            answered.append(modality.name)
            return answer(self, modality, plan)

        monkeypatch.setattr(MetaversePlatform, "answer", recorded)
        platform = MetaversePlatform()
        platform.ingest_many([record(i) for i in range(20)])
        platform.flush()
        assert len(platform.query_spatial(BOX).items) == 10
        assert answered == ["spatial"]

        answered.clear()
        cluster = tier_cluster()
        cluster.register_continuous_query("box", spatial_query(BOX))
        cluster.scan_prefix("e/")
        cluster.tick(0.5)
        assert answered == ["prefix"] * 3 + ["spatial"] * 3

        answered.clear()
        geo = GeoDeployment(GeoConfig(regions=("r0", "r1")))
        for i in range(20):
            geo.write_record(record(i))
        geo.query(prefix_query("e/"), LINEARIZABLE)
        shards = sum(len(geo.region(name).shards) for name in ("r0", "r1"))
        assert answered == ["prefix"] * shards == ["prefix"] * 4

    def test_a_node_with_owns_answers_its_own_keys_alone(self):
        platform = MetaversePlatform()
        platform.ingest_many([record(i) for i in range(20)])
        platform.flush()
        platform.owns = lambda key: int(key[-3:]) % 2 == 0
        keys = [key for key, _ in platform.scan_prefix("e/").items]
        assert keys == [f"e/{i:03d}" for i in range(0, 20, 2)]

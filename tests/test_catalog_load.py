"""A catalog load is one import per owner, so one log record per owner.

:meth:`PlatformCluster.load_catalog` hands the whole catalog to
:meth:`PlatformCluster.import_products`: one owner column from the
router, one bulk import (one MVCC commit) per owner and one op segment
per owner, so a replicated cluster logs one record per owner per load.

The load it replaced lives on here as the oracle
(:class:`PerProductCluster`): one ``import_product`` call per record, in
record order, inside one tap scope, which opens a new segment, and so a
new log record, whenever the owner changes.  Over drawn catalogs (empty,
duplicate keys, the last of which wins in both) on 1–4 shards, replicas
on and off, and loads while an owner is down, both clusters hold ``==``
shard catalogs, engine product records, replica stock levels, folds of
every owner's log union and the state a promoted shard serves; on a geo
deployment, every region's copy after a tick.
"""

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, PlatformCluster
from repro.cluster.cluster import _tap_scope
from repro.cluster.failover import UP
from repro.core import DataKind, DataRecord, NetworkError, Space
from repro.geo import GeoConfig, GeoDeployment, deployment
from repro.replication import fold

pytestmark = [pytest.mark.cluster]

#: Every shard of a 2-, 3- or 4-shard ring owns at least one of these.
PRODUCTS = [f"prod-{i}" for i in range(12)]
TICK = 0.05


class PerProductCluster(PlatformCluster):
    """The replaced load: one ``import_product`` per record."""

    @_tap_scope
    def load_catalog(self, records):
        for record in records:
            self.import_product(record.key, record.payload)


def record(key, stock):
    return DataRecord(
        key=key, payload={"name": key, "stock": stock}, space=Space.VIRTUAL,
        timestamp=0.0, kind=DataKind.STRUCTURED, source="test",
    )


catalogs = st.lists(
    st.tuples(st.sampled_from(PRODUCTS), st.integers(0, 9)), max_size=24
).map(lambda drawn: [record(key, stock) for key, stock in drawn])


def build(cls, n_shards, replicated):
    cluster = cls(ClusterConfig(
        n_shards=n_shards, n_replicas=2 if replicated else 1, phi_threshold=4.0,
    ))
    segments = []
    cluster.add_op_sink(segments.append)
    return cluster, segments


def tick_until_up(cluster):
    for _ in range(300):
        if all(cluster.failover.state(name) == UP for name in cluster.shards):
            return
        cluster.tick(TICK)
    raise AssertionError("a shard did not recover")


def observed(cluster, keys):
    """Every copy of the catalog the cluster holds, read without routing."""
    shards = cluster.shards.items()
    held = {
        "catalogs": {name: shard.catalog_snapshot() for name, shard in shards},
        "engines": {
            name: {key: shard.engine.get_product(key) for key in keys}
            for name, shard in shards
        },
    }
    if cluster.failover is not None:
        owners = cluster.router.shards
        held["replica_stock"] = {
            key: cluster.failover.replica_stock(owner, key)
            for key in keys for owner in owners
        }
        folds = [fold(cluster.failover.replicator.log(o).union()) for o in owners]
        # LSNs are not compared: the oracle logs more records.
        held["folds"] = [(s.entities, s.products, s.partial) for s in folds]
    return held


def load(cluster, segments, catalog):
    """Load ``catalog``; returns the owners of the segments it tapped."""
    segments.clear()
    cluster.load_catalog(catalog)
    return [owner for delivered in segments for owner, _ in delivered]


def play(n_shards, replicated, first, second, down, victim):
    batched, segments = build(PlatformCluster, n_shards, replicated)
    oracle, oracle_segments = build(PerProductCluster, n_shards, replicated)
    keys = sorted({r.key for r in first + second})
    load(batched, segments, first)
    load(oracle, oracle_segments, first)
    assert observed(batched, keys) == observed(oracle, keys)
    if replicated and down is not None:
        batched.kill_shard(batched.router.shards[down % n_shards])
        oracle.kill_shard(oracle.router.shards[down % n_shards])
    logs = batched.failover.replicator if replicated else None
    before = {o: logs.log(o).primary_count for o in batched.shards} if logs else {}
    owners = load(batched, segments, second)
    load(oracle, oracle_segments, second)
    # One record per owner per load: each owner's segment is tapped once.
    assert sorted(owners) == sorted(
        {batched.router.owner_of(r.key) for r in second}
    )
    if logs:
        assert {o: logs.log(o).primary_count - before[o] for o in before} == {
            o: int(o in owners) for o in before
        }
    assert observed(batched, keys) == observed(oracle, keys)
    if replicated:
        # Promote what is down, then a kill after the load: the promoted
        # replica serves what the log union folds to.
        for cluster in (batched, oracle):
            tick_until_up(cluster)
        for cluster in (batched, oracle):
            cluster.kill_shard(cluster.router.shards[victim % n_shards])
            tick_until_up(cluster)
        assert observed(batched, keys) == observed(oracle, keys)


class TestThePerProductLoadIsTheOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        n_shards=st.integers(1, 4),
        replicated=st.booleans(),
        first=catalogs,
        second=catalogs,
        down=st.none() | st.integers(0, 3),
        victim=st.integers(0, 3),
    )
    def test_a_batched_load_holds_what_the_per_product_load_held(
        self, n_shards, replicated, first, second, down, victim
    ):
        play(n_shards, replicated and n_shards > 1, first, second, down, victim)

    @pytest.mark.slow
    @settings(max_examples=1000, deadline=None)
    @given(
        n_shards=st.integers(1, 4),
        replicated=st.booleans(),
        first=catalogs,
        second=catalogs,
        down=st.none() | st.integers(0, 3),
        victim=st.integers(0, 3),
    )
    def test_sweep_the_per_product_load_oracle(
        self, request, n_shards, replicated, first, second, down, victim
    ):
        """The property above at 1,000 examples, for the nightly tier."""
        if not request.config.getoption("markexpr"):
            pytest.skip("1,000-example sweep: select it with -m slow")
        play(n_shards, replicated and n_shards > 1, first, second, down, victim)


def geo_of(cls):
    with patch.object(deployment, "PlatformCluster", cls):
        return GeoDeployment(GeoConfig())


def region_copies(geo):
    return {
        region: {
            name: shard.catalog_snapshot()
            for name, shard in geo.region(region).shards.items()
        }
        for region in geo.config.regions
    }


class TestAGeoLoadHoldsWhatThePerProductLoadHeld:
    @settings(max_examples=30, deadline=None)
    @given(catalog=catalogs, down=st.none() | st.integers(0, 2))
    def test_every_region_copy_after_a_tick(self, catalog, down):
        batched, oracle = geo_of(PlatformCluster), geo_of(PerProductCluster)
        refused = []
        for geo in (batched, oracle):
            if down is not None:
                geo.kill_region(geo.config.regions[down])
            try:
                geo.load_catalog(catalog)
            except NetworkError as error:
                refused.append(str(error))
            if down is not None:
                geo.restart_region(geo.config.regions[down])
            geo.tick(1.0)
        assert len(refused) in (0, 2) and len(set(refused)) <= 1
        assert region_copies(batched) == region_copies(oracle)
        for home in batched.config.regions:
            ours, theirs = (
                fold(geo.replicator.log(home).entries(home)) for geo in (batched, oracle)
            )
            assert (ours.products, ours.lsn) == (theirs.products, theirs.lsn)

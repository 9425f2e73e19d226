"""The cluster's op tap: what the sinks saw is what the cluster holds.

:meth:`PlatformCluster.add_op_sink` is the one place a committed mutation
leaves the cluster, as the :mod:`repro.replication` op it is logged as;
the failover manager and the geo deployment are subscribers.  Held here:

* **the tap is complete and exact** — over any interleaving of every
  write entry point, ``fold`` of the recorded ops equals the cluster's
  entities and product records; with replicas, each owner's recorded
  subsequence *is* its primary log, op for op; on a geo deployment each
  home's log is what its region's cluster emitted, minus landings;
* **the old hand derivation is the oracle** — the op a caller used to
  build beside its write (``entity_op(key, stored_record_value(r))``,
  ``product_op(key, payload)`` per record, in record order within each
  owner) equals the tapped one.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, PlatformCluster
from repro.core import (
    ConfigurationError,
    DataKind,
    DataRecord,
    KeyNotFoundError,
    RecordBatch,
    Space,
)
from repro.geo import GeoConfig, GeoDeployment
from repro.platform.platform import stored_record_value
from repro.replication import decode, entity_op, fold, product_op
from repro.storage import WalEntry
from repro.workloads.marketplace import PurchaseRequest
from tests.test_replication import encode, expanded

pytestmark = [pytest.mark.cluster]

ENTITIES = [f"ent/{i}" for i in range(4)]
PRODUCTS = [f"p{i}" for i in range(4)]


def record(key, payload, timestamp=0.0):
    return DataRecord(
        key=key, payload=payload, space=Space.VIRTUAL,
        timestamp=timestamp, kind=DataKind.LOCATION, source="test",
    )


def request(product_id, quantity, shopper="s"):
    return PurchaseRequest(
        shopper_id=shopper, product_id=product_id, space=Space.VIRTUAL,
        timestamp=0.0, quantity=quantity,
    )


def recorded_cluster(**config):
    cluster = PlatformCluster(ClusterConfig(n_shards=3, **config))
    ops = []
    cluster.add_op_sink(lambda segments: ops.extend(
        (shard, op) for shard, seg in segments for op in seg
    ))
    return cluster, ops


def folded(ops):
    return fold(
        WalEntry(lsn, encode([op])) for lsn, (_, op) in enumerate(ops, start=1)
    )


entity = st.sampled_from(ENTITIES)
product = st.sampled_from(PRODUCTS)
number = st.integers(0, 9).map(float)
stock = st.integers(0, 6)
quantity = st.integers(1, 3)

actions = st.lists(
    st.one_of(
        st.tuples(st.just("ingest"), entity, number),
        st.tuples(
            st.just("ingest_batch"),
            st.lists(st.tuples(entity, number), min_size=1, max_size=4),
        ),
        st.tuples(st.just("flush")),
        st.tuples(st.just("tick")),
        st.tuples(st.just("write_record"), entity, number),
        st.tuples(
            st.just("load_catalog"),
            st.lists(st.tuples(product, stock), min_size=1, max_size=4),
        ),
        st.tuples(
            st.just("process_purchases"),
            st.lists(st.tuples(product, quantity), min_size=1, max_size=5),
        ),
        # One product is a single-shard basket; two usually span shards (2PC).
        st.tuples(
            st.just("process_basket"),
            st.lists(st.tuples(product, quantity), min_size=1, max_size=2),
        ),
        st.tuples(st.just("salt_product"), product, st.integers(2, 3)),
        st.tuples(st.just("unsalt_product"), product),
        st.tuples(st.just("import_entity"), entity, number),
        st.tuples(st.just("drop_entity"), entity),
        st.tuples(st.just("import_product"), product, stock),
        st.tuples(st.just("drop_product"), product),
    ),
    max_size=24,
)


def perform(cluster, action, step):
    """Run one generated action; one the cluster refuses (unknown key,
    already salted, …) must change nothing and emit nothing."""
    name, *args = action
    now = float(step)
    if name in ("flush", "tick"):
        return cluster.flush() if name == "flush" else cluster.tick(0.1)
    if name in ("ingest", "write_record"):
        key, v = args
        return getattr(cluster, name)(record(key, {"v": v}, now))
    if name == "ingest_batch":
        return cluster.ingest_batch(RecordBatch.from_records(
            [record(key, {"v": v}, now) for key, v in args[0]]
        ))
    if name == "load_catalog":
        # Re-loading a salted product would fork its base record from
        # its buckets; the catalog is loaded for unsalted products.
        return cluster.load_catalog([
            record(pid, {"name": pid, "stock": n}) for pid, n in args[0]
            if not cluster.router.is_salted(pid)
        ])
    if name == "process_purchases":
        return cluster.process_purchases([
            request(pid, n, shopper=f"s{i}") for i, (pid, n) in enumerate(args[0])
        ])
    if name == "process_basket":
        return cluster.process_basket([request(pid, n) for pid, n in args[0]])
    if name == "import_entity":
        key, v = args
        return cluster.import_entity(
            key, stored_record_value(record(key, {"v": v}, now))
        )
    if name in ("import_product", "drop_product"):
        if cluster.router.is_salted(args[0]):
            return None
        if name == "import_product":
            return cluster.import_product(
                args[0], {"name": args[0], "stock": args[1]}
            )
    return getattr(cluster, name)(*args)


def run(cluster, script):
    for step, action in enumerate(script):
        try:
            perform(cluster, action, step)
        except (KeyNotFoundError, ConfigurationError):
            pass
    cluster.flush()


def assert_fold_is_the_cluster(cluster, ops):
    state = folded(ops)
    entities = {
        key: state.entity(key) for key in state.entities
        if state.entity(key) is not None
    }
    assert dict(cluster.scan_prefix("").items) == entities
    held = {}
    for shard in cluster.shards.values():
        held.update(shard.catalog_snapshot())
    assert held == {
        key: value for key, value in state.products.items() if value is not None
    }
    assert not state.partial
    for pid in PRODUCTS:
        buckets = cluster.router.buckets_of(pid)
        if all(bucket in held for bucket in buckets):
            assert cluster.get_stock(pid) == sum(
                state.stock_of(bucket) for bucket in buckets
            )
        elif len(buckets) == 1:
            with pytest.raises(KeyNotFoundError):
                cluster.get_stock(pid)


class TestTheTapIsCompleteAndExact:
    @settings(max_examples=60, deadline=None)
    @given(script=actions)
    def test_fold_of_the_recorded_ops_is_the_cluster_state(self, script):
        cluster, ops = recorded_cluster()
        run(cluster, script)
        assert_fold_is_the_cluster(cluster, ops)

    @settings(max_examples=25, deadline=None)
    @given(script=actions)
    def test_each_owners_recorded_ops_are_its_primary_log(self, script):
        cluster, ops = recorded_cluster(
            n_replicas=2, replica_log_compact_threshold=None
        )
        segments = []
        cluster.add_op_sink(segments.extend)
        run(cluster, script)
        assert_fold_is_the_cluster(cluster, ops)
        replicator = cluster.failover.replicator
        for owner in cluster.router.shards:
            entries = replicator.log(owner).entries(owner)
            assert expanded(entries) == [op for shard, op in ops if shard == owner]
            # One record per segment, holding its ops in commit order.
            assert [decode(entry.payload) for entry in entries] == [
                seg for shard, seg in segments if shard == owner
            ]

    def test_no_sink_builds_no_op(self, monkeypatch):
        from repro.cluster import cluster as module

        def never(*args):
            raise AssertionError("an op was built with no sink to see it")

        for name in ("entity_op", "product_op", "stock_op", "drop_product_op"):
            monkeypatch.setattr(module, name, never)
        cluster = PlatformCluster(ClusterConfig(n_shards=2))
        cluster.load_catalog([record("p0", {"name": "p0", "stock": 3})])
        cluster.ingest(record("ent/0", {"v": 1.0}))
        cluster.tick(0.1)
        assert cluster.process_purchases([request("p0", 1)])[0].success
        assert all(
            shard.purchase_log is None for shard in cluster.shards.values()
        )

    @settings(max_examples=15, deadline=None)
    @given(script=st.lists(
        st.one_of(
            st.tuples(st.just("write_record"), entity, number),
            st.tuples(
                st.just("load_catalog"),
                st.lists(st.tuples(product, stock), min_size=1, max_size=4),
            ),
            st.tuples(
                st.just("process_purchases"),
                st.lists(st.tuples(product, quantity), min_size=1, max_size=4),
            ),
            st.tuples(st.just("tick")),
        ),
        max_size=16,
    ))
    def test_each_homes_log_is_its_regions_ops_minus_landings(self, script):
        regions = ("east", "west")
        geo = GeoDeployment(GeoConfig(regions=regions))
        ops = {name: [] for name in regions}
        for name in regions:
            geo.region(name).add_op_sink(
                lambda segments, seen=ops[name]: seen.extend(
                    op for _, seg in segments for op in seg
                )
            )
        for step, (name, *args) in enumerate(script):
            if name == "tick":
                geo.tick(0.5)
            elif name == "write_record":
                geo.write_record(record(args[0], {"v": args[1]}, float(step)))
            elif name == "load_catalog":
                geo.load_catalog([
                    record(pid, {"name": pid, "stock": n}) for pid, n in args[0]
                ])
            else:
                geo.process_purchases([request(pid, n) for pid, n in args[0]])
        geo.tick(1.0)
        geo.tick(1.0)
        assert geo.max_replication_lag() == 0
        for name, other in (regions, regions[::-1]):
            own = [op for op in ops[name] if geo.home_of(op["k"]) == name]
            assert expanded(geo.replicator.log(name).entries(name)) == own
            # The rest are landings: every key of the other home's log, in
            # no more ops than its records hold (ops can fold).
            landings = [op for op in ops[name] if geo.home_of(op["k"]) == other]
            shipped = expanded(geo.replicator.log(other).entries(other))
            assert len(landings) <= len(shipped)
            assert {op["k"] for op in landings} == {op["k"] for op in shipped}


class TestTheHandDerivationIsTheOracle:
    """What callers used to build beside their write, kept as the check."""

    RECORDS = [record(f"p{i}", {"name": f"p{i}", "stock": i}) for i in range(12)]

    @staticmethod
    def per_owner(owners, records):
        """``(owner, product op)`` per record, owners in first-appearance
        order, record order within an owner: one segment per owner."""
        return [
            (owner, product_op(r.key, r.payload))
            for owner in dict.fromkeys(owners)
            for r, of in zip(records, owners) if of == owner
        ]

    def test_cluster_catalog_ops_are_product_ops_in_record_order(self):
        # In record order within each owner: a load is one import, so one
        # segment, per owner.
        cluster, ops = recorded_cluster()
        cluster.load_catalog(self.RECORDS)
        owners = [cluster.router.owner_of(r.key) for r in self.RECORDS]
        assert len(set(owners)) > 1
        assert ops == self.per_owner(owners, self.RECORDS)

    def test_geo_write_and_catalog_ops(self):
        geo = GeoDeployment(GeoConfig(regions=("east", "west", "south")))
        geo.load_catalog(self.RECORDS)
        for home in geo.config.regions:
            entries = geo.replicator.log(home).entries(home)
            records = [r for r in self.RECORDS if geo.home_of(r.key) == home]
            owners = [geo.region(home).router.owner_of(r.key) for r in records]
            assert expanded(entries) == [
                op for _, op in self.per_owner(owners, records)
            ]
        written = record("ent/7", {"x": 1.5, "y": -2.0}, timestamp=3.25)
        home = geo.home_of(written.key)
        lsn = geo.write_record(written)
        (last,) = [
            e for e in geo.replicator.log(home).entries(home) if e.lsn == lsn
        ]
        assert decode(last.payload) == [
            entity_op(written.key, stored_record_value(written))
        ]

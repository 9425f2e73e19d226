"""A purchase call settles once: the per-commit settle is the oracle.

Inside a ``process_purchases`` call :meth:`MetaversePlatform.commit_basket`
commits to MVCC and records the product's committed value; the call ends
with one :meth:`MetaversePlatform._settle` — one write-through and one
``stock`` op per product it touched.  The path this replaced settled after
every commit; it lives on here as :class:`PerCommitPlatform` and the two
run side by side:

* **invisible to a client** — outcomes, every ``get_stock``, every engine
  product record and the fold of every owner's primary log are equal;
* **the tap still is the log** — each owner's sink-recorded subsequence
  is its primary log, op for op (``tests/test_op_tap.py``'s property);
* **the bound** — a call logs at most one ``stock`` op per (shard,
  product) it committed;
* **the one flush point** — a call that raises has already settled what
  it committed (the ``finally``), and a commit outside a call settles at
  once (the scope of one).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, PlatformCluster
from repro.core import ConfigurationError, KeyNotFoundError
from repro.platform import MetaversePlatform
from repro.replication import encode, fold
from repro.resilience import FaultInjector, FaultPlan, FaultRule
from tests.test_op_tap import PRODUCTS, perform, product, quantity, record, request, stock

pytestmark = [pytest.mark.cluster, pytest.mark.failover]


class PerCommitPlatform(MetaversePlatform):
    """The replaced path: every commit writes through and reports."""

    def commit_basket(self, txn):
        self.txn.commit(txn)
        self._settle(txn.writes)


class PerCommitCluster(PlatformCluster):
    def _make_shard(self, name):
        shard = super()._make_shard(name)
        shard.__class__ = PerCommitPlatform  # adds no state
        return shard


def recorded(cluster_type):
    cluster = cluster_type(ClusterConfig(
        n_shards=3, n_replicas=2, replica_log_compact_threshold=None,
    ))
    ops = []
    cluster.add_op_sink(lambda shard, op: ops.append((shard, op)))
    cluster.load_catalog(
        [record(pid, {"name": pid, "stock": 6}) for pid in PRODUCTS]
    )
    return cluster, ops


actions = st.lists(
    st.one_of(
        st.tuples(
            st.just("process_purchases"),
            st.lists(st.tuples(product, quantity), min_size=1, max_size=8),
        ),
        st.tuples(
            st.just("process_basket"),
            st.lists(st.tuples(product, quantity), min_size=1, max_size=2),
        ),
        st.tuples(st.just("import_product"), product, stock),
        st.tuples(st.just("drop_product"), product),
        st.tuples(st.just("salt_product"), product, st.integers(2, 3)),
        st.tuples(st.just("unsalt_product"), product),
        st.tuples(st.just("tick")),
    ),
    max_size=20,
)


def outcome_of(cluster, action, step):
    """What a client sees of one action: the purchase outcomes, the
    basket verdict, or the refusal."""
    try:
        result = perform(cluster, action, step)
    except (KeyNotFoundError, ConfigurationError) as refused:
        return type(refused)
    if action[0] == "process_purchases":
        return result
    if action[0] == "process_basket":
        return result.committed, result.reason, result.shards
    return None


def stock_or_missing(cluster, pid):
    try:
        return cluster.get_stock(pid)
    except KeyNotFoundError:
        return None


def primary_ops(cluster, owner):
    return cluster.failover.replicator.log(owner).entries(owner)


class TestThePerCommitSettleIsTheOracle:
    @settings(max_examples=60, deadline=None)
    @given(script=actions)
    def test_a_call_scope_is_invisible_and_logs_each_product_once(self, script):
        folded, folded_ops = recorded(PlatformCluster)
        oracle, oracle_ops = recorded(PerCommitCluster)
        for step, action in enumerate(script):
            logged = len(folded_ops)
            assert outcome_of(folded, action, step) == outcome_of(
                oracle, action, step
            )
            for pid in PRODUCTS:
                assert stock_or_missing(folded, pid) == stock_or_missing(
                    oracle, pid
                )
            if action[0] == "process_purchases":
                stocked = [
                    (shard, op["k"]) for shard, op in folded_ops[logged:]
                    if op["op"] == "stock"
                ]
                assert len(stocked) == len(set(stocked))
        for owner in folded.router.shards:
            assert folded.shards[owner].engine.products() == (
                oracle.shards[owner].engine.products()
            )
            ours = fold(primary_ops(folded, owner))
            theirs = fold(primary_ops(oracle, owner))
            assert ours.entities == theirs.entities
            assert ours.products == theirs.products
            assert ours.partial == theirs.partial
            assert len(primary_ops(folded, owner)) <= len(
                primary_ops(oracle, owner)
            )
            for cluster, ops in ((folded, folded_ops), (oracle, oracle_ops)):
                assert [e.payload for e in primary_ops(cluster, owner)] == [
                    encode(op) for shard, op in ops if shard == owner
                ]

    def test_the_oracle_logs_every_decrement_and_the_call_scope_the_last(self):
        """The two differ where they are meant to: five purchases of one
        product are five ``stock`` ops per commit and one per call."""
        logged = {}
        for cluster_type in (PlatformCluster, PerCommitCluster):
            cluster, ops = recorded(cluster_type)
            del ops[:]
            outcomes = cluster.process_purchases(
                [request("p0", 1, shopper=f"s{i}") for i in range(5)]
            )
            assert all(o.success for o in outcomes)
            logged[cluster_type] = [op for _, op in ops]
        assert [op["stock"] for op in logged[PerCommitCluster]] == [5, 4, 3, 2, 1]
        assert logged[PlatformCluster] == logged[PerCommitCluster][-1:]


class TestTheOneFlushPoint:
    def test_a_call_that_raises_has_settled_what_it_committed(self, monkeypatch):
        cluster, ops = recorded(PlatformCluster)
        del ops[:]
        owner = cluster.router.owner_of("p0")
        shard = cluster.shards[owner]
        stage, calls = shard.stage_basket, []

        def stage_until_the_third(quantities):
            calls.append(quantities)
            if len(calls) == 3:
                raise RuntimeError("request 3")
            return stage(quantities)

        monkeypatch.setattr(shard, "stage_basket", stage_until_the_third)
        with pytest.raises(RuntimeError, match="request 3"):
            shard.process_purchases(
                [request("p0", 1, shopper=f"s{i}") for i in range(5)]
            )
        # Two commits reached MVCC before the raise; both are settled.
        assert shard.get_stock("p0") == 4
        assert shard.engine.get_product("p0")["stock"] == 4
        assert [(name, op["k"], op["stock"]) for name, op in ops] == [
            (owner, "p0", 4)
        ]
        assert cluster.failover.replica_stock(owner, "p0") == 4
        # And the scope closed with the call: the next commit settles.
        monkeypatch.setattr(shard, "stage_basket", stage)
        assert cluster.process_basket([request("p0", 2)]).committed
        assert shard.engine.get_product("p0")["stock"] == 2
        assert ops[-1] == (owner, {"op": "stock", "k": "p0", "stock": 2})

    def test_a_commit_outside_a_call_settles_at_once(self):
        """A single-shard basket and both participants of a 2PC basket
        are on the engine and in the log when ``process_basket`` returns."""
        cluster, ops = recorded(PlatformCluster)
        owners = {pid: cluster.router.owner_of(pid) for pid in PRODUCTS}
        other = next(p for p in PRODUCTS if owners[p] != owners["p0"])
        for basket in ([request("p0", 1)], [request("p0", 2), request(other, 3)]):
            del ops[:]
            outcome = cluster.process_basket(basket)
            assert outcome.committed
            assert (outcome.txn is not None) == (len(basket) == 2)
            for item in basket:
                pid, owner = item.product_id, owners[item.product_id]
                left = cluster.get_stock(pid)
                assert cluster.shards[owner].engine.get_product(pid)["stock"] == left
                assert cluster.failover.replica_stock(owner, pid) == left
                assert (owner, {"op": "stock", "k": pid, "stock": left}) in ops
            assert len(ops) == len(basket)

    def test_a_faulted_write_through_parks_once_per_product_and_redrives(self):
        """The settle goes through ``persist_committed``: a write-through
        that stays faulted parks the call's *final* value dirty, and the
        next persist re-drives it."""
        injector = FaultInjector(FaultPlan(rules=[FaultRule(
            site="storage.rpc", kind="crash", rate=1.0, start=1.0, end=2.0,
        )]))
        cluster = PlatformCluster(
            ClusterConfig(n_shards=2, n_storage_nodes=2), faults=injector
        )
        cluster.load_catalog([record("p0", {"name": "p0", "stock": 6})])
        shard = cluster.shards[cluster.router.owner_of("p0")]
        cluster.clock.advance(1.0 - cluster.clock.now)
        outcomes = cluster.process_purchases(
            [request("p0", 1, shopper=f"s{i}") for i in range(3)]
        )
        assert all(o.success for o in outcomes)
        assert dict(shard._dirty_products) == {"p0": {"name": "p0", "stock": 3}}
        tier = cluster.storage.node_of("p0").engine
        assert tier.get_product("p0")["stock"] == 6  # the tier missed it
        cluster.clock.advance(2.0)
        assert shard.flush_dirty_products() == 0
        assert tier.get_product("p0")["stock"] == 3

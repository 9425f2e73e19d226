"""Conformance suite for the :class:`repro.api.DataPlane` protocol.

One driver, three deployment shapes — a single platform node, a sharded
cluster, and a disaggregated cluster — held to the same observable
behaviour: ingest is invisible until flush/tick, queries return sorted
(key, value) pairs, continuous queries refresh per tick, and an
identically ordered purchase stream decides identically everywhere.

The query-plane class at the bottom runs the same request objects —
prefix, spatial, and semantic — against a platform node, a sharded
cluster, and a two-region geo deployment read through a
:class:`~repro.geo.GeoSession` at eventual consistency, and demands
identical items from all three.
"""

import ast
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import DataPlane, GatherResult
from repro.cluster import ClusterConfig, CrossShardCoordinator, PlatformCluster
from repro.core import (
    ConfigurationError,
    DataKind,
    DataRecord,
    FaultInjectedError,
    RecordBatch,
    Space,
)
from repro.geo import EVENTUAL, GeoConfig, GeoDeployment, GeoSession
from repro.platform import MetaversePlatform
from repro.query.plane import (
    PrefixScanModality,
    QueryRequest,
    prefix_query,
    spatial_query,
)
from repro.resilience import FaultInjector, FaultPlan, FaultRule
from repro.semantic import semantic_query
from repro.spatial.geometry import BBox
from repro.workloads import FlashSaleConfig, MarketplaceWorkload
from repro.workloads.marketplace import PurchaseRequest
from tests.test_position_index import assert_reads_kept, invalidating

SHAPES = ["platform", "cluster", "cluster-disagg"]
#: Replica failover folds columnar batches into per-record units, so the
#: write-queue rules are checked on that shape too.
WRITE_SHAPES = SHAPES + ["cluster-replicated"]

CLUSTER_SHAPES = {
    "cluster": {},
    "cluster-disagg": {"n_storage_nodes": 2},
    "cluster-replicated": {"n_replicas": 2},
}


def make_plane(shape, faults=None, n_shards=3, **config):
    if shape == "platform":
        return MetaversePlatform(faults=faults)
    return PlatformCluster(
        ClusterConfig(n_shards=n_shards, **CLUSTER_SHAPES[shape], **config),
        faults=faults,
    )


@pytest.fixture(params=SHAPES)
def plane(request):
    return make_plane(request.param)


def record(key, payload, timestamp=0.0):
    return DataRecord(
        key=key, payload=payload, space=Space.PHYSICAL,
        timestamp=timestamp, kind=DataKind.SENSOR, source="test",
    )


def seed_records(n=24):
    return [
        record(f"ent/{i:03d}", {"x": float(i), "y": float(i % 5), "v": i},
               timestamp=float(i))
        for i in range(n)
    ]


def make_workload(seed=1):
    config = FlashSaleConfig(
        n_products=10, n_shoppers=60, initial_stock=5,
        burst_rate=120.0, burst_start=0.0, burst_end=5.0, zipf_skew=1.0,
    )
    return MarketplaceWorkload(config, seed=seed)


def outcome_signature(outcomes):
    return [
        (o.request.shopper_id, o.request.product_id, o.success, o.reason)
        for o in outcomes
    ]


class TestProtocolConformance:
    def test_both_shapes_satisfy_the_protocol(self, plane):
        assert isinstance(plane, DataPlane)

    def test_ingest_is_invisible_until_flush(self, plane):
        plane.ingest_many(seed_records(12))
        assert plane.pending_count == 12
        assert plane.scan_prefix("ent/").items == []
        assert plane.flush() == 12
        assert plane.pending_count == 0
        items = plane.scan_prefix("ent/").items
        assert [k for k, _ in items] == sorted(k for k, _ in items)
        assert len(items) == 12

    def test_ingest_batch_is_invisible_until_flush(self, plane):
        plane.ingest_batch(RecordBatch.from_records(seed_records(12)))
        assert plane.pending_count == 12
        assert plane.scan_prefix("ent/").items == []
        assert plane.flush() == 12
        assert len(plane.scan_prefix("ent/").items) == 12

    def test_tick_advances_clock_flushes_and_refreshes(self, plane):
        plane.register_continuous("q", "ent/")
        assert plane.continuous_results("q") is None
        plane.ingest_many(seed_records(6))
        t0 = plane.clock.now
        results = plane.tick(0.5)
        # At least dt: storage RPC latency also advances the simulated
        # clock on the disaggregated shape.
        assert plane.clock.now >= t0 + 0.5
        assert plane.pending_count == 0
        assert len(results["q"].items) == 6
        assert plane.continuous_results("q") is results["q"]

    def test_duplicate_continuous_registration_rejected(self, plane):
        plane.register_continuous("q", "ent/")
        with pytest.raises(ConfigurationError):
            plane.register_continuous("q", "other/")

    def test_query_spatial_filters_by_position(self, plane):
        plane.ingest_many(seed_records(20))
        plane.flush()
        result = plane.query_spatial(BBox(4.0, 0.0, 9.0, 10.0))
        assert isinstance(result, GatherResult) and not result.partial
        keys = [k for k, _ in result.items]
        assert keys == [f"ent/{i:03d}" for i in range(4, 10)]

    def test_purchases_decide_identically_across_shapes(self):
        workload = make_workload()
        requests = workload.requests_between(0.0, 5.0)
        signatures = {}
        stocks = {}
        for shape in SHAPES:
            plane = make_plane(shape)
            plane.load_catalog(workload.catalog_records())
            signatures[shape] = outcome_signature(
                plane.process_purchases(requests)
            )
            stocks[shape] = [
                plane.get_stock(workload.product_id(i)) for i in range(10)
            ]
        assert signatures["cluster"] == signatures["platform"]
        assert signatures["cluster-disagg"] == signatures["platform"]
        assert stocks["cluster"] == stocks["platform"]
        assert stocks["cluster-disagg"] == stocks["platform"]

    def test_scan_results_identical_across_shapes(self):
        planes = {shape: make_plane(shape) for shape in SHAPES}
        for plane in planes.values():
            plane.ingest_many(seed_records(18))
            plane.tick(1.0)
        scans = {
            shape: plane.scan_prefix("ent/").items
            for shape, plane in planes.items()
        }
        spatial = {
            shape: plane.query_spatial(BBox(0.0, 0.0, 8.0, 3.0)).items
            for shape, plane in planes.items()
        }
        assert scans["cluster"] == scans["platform"]
        assert scans["cluster-disagg"] == scans["platform"]
        assert spatial["cluster"] == spatial["platform"]
        assert spatial["cluster-disagg"] == spatial["platform"]


class TestStandingQueries:
    """A standing query is planned once, at registration, and a standing
    prefix query answers from views that equal its re-evaluation."""

    @pytest.mark.parametrize("malformed", [
        QueryRequest("prefix", {"prefix": 3}),
        QueryRequest("no-such-modality", {}),
    ], ids=["non-string-prefix", "unknown-modality"])
    def test_a_malformed_standing_query_is_refused_at_registration(
        self, plane, malformed
    ):
        with pytest.raises(ConfigurationError):
            plane.register_continuous_query("bad", malformed)
        plane.register_continuous("good", "ent/")
        plane.ingest_many(seed_records(3))
        results = plane.tick(0.5)
        assert list(results) == ["good"] and len(results["good"].items) == 3
        plane.register_continuous("bad", "ent/00")  # the id was never taken
        assert len(plane.tick(0.5)["bad"].items) == 3

    def test_a_standing_query_is_planned_once(self, plane, monkeypatch):
        planned = []
        plan = PrefixScanModality.plan

        def counting_plan(self, request):
            planned.append(request)
            return plan(self, request)

        monkeypatch.setattr(PrefixScanModality, "plan", counting_plan)
        plane.register_continuous("q", "ent/")
        for _ in range(3):
            plane.tick(0.5)
        assert len(planned) == 1

    PREFIXES = ("ent/", "ent/00", "ent/01", "", "zz/")

    def test_a_standing_view_equals_reevaluation(self, plane):
        for prefix in self.PREFIXES:
            plane.register_continuous(prefix, prefix)
        scans = plane.metrics.counter("kv.scans")

        def refresh_and_check(hydrated=True):
            before = scans.value
            results = plane.tick(0.5)
            if hydrated:
                assert scans.value == before  # every view answered
            for prefix in self.PREFIXES:
                fresh = plane.query(prefix_query(prefix))
                assert results[prefix].items == fresh.items, prefix
                assert results[prefix].failed_shards == fresh.failed_shards

        plane.ingest_many(seed_records(12))
        refresh_and_check(hydrated=False)
        plane.ingest_batch(RecordBatch.from_records([
            record(f"ent/{i:03d}", {"v": -i}) for i in range(0, 20, 3)
        ]))
        plane.ingest(record("zz/a", {"v": 1}))
        refresh_and_check()
        plane.drop_entity("ent/004")
        plane.drop_entity("zz/a")
        refresh_and_check()


class TestKeptPages:
    """On every shape, a point read equals the same read on a twin whose
    pools drop a page on every write, and what storage holds, through
    writes, a batch that writes one key twice, a drop and a tick."""

    def test_reads_equal_an_invalidating_twin(self, plane, request):
        with invalidating():
            twin = make_plane(request.node.callspec.params["plane"])
        keys = [r.key for r in seed_records(8)]
        steps = [
            lambda p: (p.ingest_many(seed_records(8)), p.flush()),
            lambda p: (p.ingest_batch(RecordBatch.from_records([
                record("ent/000", {"v": 1}), record("ent/001", {"v": 1}),
                record("ent/000", {"v": 2}),
            ])), p.flush()),
            lambda p: p.write_record(record("ent/002", {"v": 3})),
            lambda p: p.drop_entity("ent/003"),
            lambda p: p.tick(0.5),
        ]
        for step in steps:
            step(plane)
            with invalidating():
                step(twin)
            reads = assert_reads_kept(plane, twin, keys)
        assert reads["ent/000"]["payload"] == {"v": 2}  # the later write
        assert reads["ent/002"]["payload"] == {"v": 3}
        assert reads["ent/003"] is None
        assert plane.metrics.counter("pool.hits").value > (
            twin.metrics.counter("pool.hits").value
        )


@pytest.mark.parametrize("shape", WRITE_SHAPES)
class TestWriteQueue:
    """Buffered writes are one arrival-ordered queue per node: the kind
    of ingest call (per-record or columnar) never reorders them, and a
    flush that fails loses nothing."""

    @pytest.mark.parametrize("batch_first", [True, False])
    def test_later_buffered_write_wins(self, shape, batch_first):
        plane = make_plane(shape)
        older = record("ent/k", {"v": 1.0}, 1.0)
        newer = record("ent/k", {"v": 2.0}, 2.0)
        if batch_first:
            plane.ingest_batch(RecordBatch.from_records([older]))
            plane.ingest(newer)
        else:
            plane.ingest(older)
            plane.ingest_batch(RecordBatch.from_records([newer]))
        assert plane.flush() == 2
        stored = plane.read("ent/k")
        assert (stored["timestamp"], stored["payload"]) == (2.0, {"v": 2.0})

    def test_a_record_no_write_can_carry_is_dead_lettered(self, shape):
        """A payload JSON cannot carry fails every write of its run; the
        run is written again record by record, that record alone is
        dropped and counted, and nothing queued behind it is wedged."""
        plane = make_plane(shape, n_shards=2)
        plane.ingest(record("ent/a", {"v": 1.0}))
        plane.ingest(record("ent/poison", {"x": object()}))
        plane.ingest(record("ent/b", {"v": 2.0}))
        plane.ingest_batch(RecordBatch.from_records([
            record("ent/c", {"v": 3.0})
        ]))
        plane.tick(1.0)
        assert plane.pending_count == 0
        assert [k for k, _ in plane.scan_prefix("ent/").items] == [
            "ent/a", "ent/b", "ent/c"
        ]
        layer = "platform" if shape == "platform" else "cluster"
        assert plane.metrics.counter(f"{layer}.write.rejected").value == 1
        plane.ingest(record("ent/d", {"v": 4.0}))
        plane.tick(1.0)  # the queue flows on
        assert plane.read("ent/d")["payload"] == {"v": 4.0}

    def test_failed_flush_keeps_every_unwritten_unit_queued(self, shape):
        # The write site a compute node's engine faults at: its own KV
        # store, or the RPC to the shared storage tier.
        site = "storage.rpc" if shape == "cluster-disagg" else "kv.put"
        plan = FaultPlan(
            rules=(FaultRule(site=site, kind="crash", rate=1.0, end=1.0),)
        )
        plane = make_plane(shape, faults=FaultInjector(plan))
        plane.ingest_many(seed_records(3))
        plane.ingest_batch(RecordBatch.from_records(seed_records(5)[3:]))
        assert plane.pending_count == 5
        with pytest.raises(FaultInjectedError):
            plane.flush()
        assert plane.pending_count == 5
        plane.clock.advance(2.0)  # past the fault window
        assert plane.flush() == 5
        assert plane.pending_count == 0
        assert len(plane.scan_prefix("ent/").items) == 5


@pytest.mark.parametrize("shape", ["cluster", "cluster-disagg"])
def test_drain_budget_splits_a_batch_queued_behind_records(shape):
    """A budget that ends inside a batch writes the batch's head, keeps
    its columnar tail at the front of the queue, and the next tick lands
    the tail before anything queued after it."""
    plane = make_plane(shape, n_shards=1, shard_drain_rate=4.0)
    plane.ingest(record("ent/a", {"v": 0.0}, 0.0))
    plane.ingest(record("ent/b", {"v": 0.0}, 0.0))
    plane.ingest_batch(RecordBatch.from_records([
        record(f"ent/{k}", {"v": 1.0}, 1.0) for k in ("a", "c", "d", "e")
    ]))
    plane.tick(1.0)  # budget 4: two records, then the batch's first two rows
    assert plane.pending_count == 2
    assert plane.read("ent/a")["timestamp"] == 1.0
    assert [k for k, _ in plane.scan_prefix("ent/").items] == [
        "ent/a", "ent/b", "ent/c"
    ]
    plane.ingest(record("ent/e", {"v": 2.0}, 2.0))  # behind the tail
    plane.tick(1.0)
    assert plane.pending_count == 0
    assert plane.read("ent/d")["timestamp"] == 1.0
    assert plane.read("ent/e")["timestamp"] == 2.0


def commerce_plane(shape, stocks):
    """A plane with products ``p0..`` at ``stocks``, its stock-sink calls,
    and every MVCC transaction it opens from here on."""
    plane = make_plane(shape, n_shards=2)
    plane.load_catalog([
        record(f"p{i}", {"stock": stock, "price": 1})
        for i, stock in enumerate(stocks)
    ])
    if shape == "cluster-disagg":
        # Stateless compute starts cold: every product hydrates from the
        # shared tier on first touch, whichever entry point touches it.
        for node in plane.shards.values():
            node.reset_caches()
    sunk, opened = [], []
    if shape == "platform":
        plane.purchase_log = lambda *call: sunk.append(call)
    else:
        plane.add_op_sink(lambda segments: sunk.extend(
            (op["k"], op["stock"])
            for _, ops in segments for op in ops if op["op"] == "stock"
        ))
    for node in [plane] if shape == "platform" else plane.shards.values():
        def begin(begin=node.txn.begin):
            opened.append(begin())
            return opened[-1]
        node.txn.begin = begin
    return plane, sunk, opened


def node_of(plane, product_id):
    if isinstance(plane, MetaversePlatform):
        return plane
    return plane.shards[plane.router.owner_of(product_id)]


def buy_as_purchase(plane, request):
    return plane.process_purchases([request])[0].success


def buy_as_basket(plane, request):
    if isinstance(plane, PlatformCluster):
        return plane.process_basket([request]).committed
    txn, _, _ = plane.stage_basket({request.product_id: request.quantity})
    if txn is not None:
        plane.commit_basket(txn)
    return txn is not None


def buy_as_twopc_round(plane, request):
    quantities = {request.product_id: request.quantity}
    if isinstance(plane, PlatformCluster):
        owner = plane.router.owner_of(request.product_id)
        return plane.coordinator.execute({owner: quantities}).committed
    twopc = CrossShardCoordinator({"node": plane}, clock=plane.clock)
    return twopc.execute({"node": quantities}).committed


def commerce_state(plane, product_ids, sunk):
    """MVCC product cache (read without hydrating it), engine product
    records and sink calls so far."""
    nodes = (
        plane.shards.values() if isinstance(plane, PlatformCluster)
        else [plane]
    )
    cached = {}
    for node in nodes:
        cached.update(node.catalog_snapshot())
    records = {
        pid: node_of(plane, pid).engine.get_product(pid)
        for pid in product_ids
    }
    return cached, records, list(sunk)


@pytest.mark.parametrize("shape", WRITE_SHAPES)
class TestPurchaseIsABasketOfOne:
    """One stock-commit path: a purchase, a single-shard basket of the
    same request and a one-participant 2PC round on the same quantities
    are the same stage and the same commit."""

    @settings(max_examples=15, deadline=None)
    @given(
        stocks=st.lists(st.integers(0, 4), min_size=1, max_size=3),
        stream=st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 3)), max_size=8
        ),
    )
    def test_three_entry_points_leave_identical_state(
        self, shape, stocks, stream
    ):
        # Product index len(stocks) is a product no catalog holds.
        pids = [f"p{i}" for i in range(len(stocks) + 1)]
        requests = [
            PurchaseRequest(f"s{n}", pids[i % len(pids)], Space.VIRTUAL,
                            float(n), quantity=quantity)
            for n, (i, quantity) in enumerate(stream)
        ]
        runs = []
        for buy in (buy_as_purchase, buy_as_basket, buy_as_twopc_round):
            plane, sunk, opened = commerce_plane(shape, stocks)
            verdicts = []
            state = commerce_state(plane, pids, sunk)
            for request in requests:
                before = state
                opened.clear()
                verdicts.append(buy(plane, request))
                assert all(
                    txn.status != "active" for txn in opened if txn.write_set
                )
                cached, *durable = state = commerce_state(plane, pids, sunk)
                # The cache is the tier's committed state, or empty.
                assert cached.items() <= durable[0].items()
                if not verdicts[-1]:
                    # A refused stage changes nothing (it may have
                    # hydrated what it looked at).
                    assert before[0].items() <= cached.items()
                    assert durable == list(before[1:])
            runs.append((verdicts, *state))
        assert runs[0] == runs[1] == runs[2]
        verdicts, _, records, _ = runs[0]
        sold = dict.fromkeys(pids, 0)
        for request, success in zip(requests, verdicts):
            sold[request.product_id] += request.quantity * success
        assert records == {
            **{
                pid: {"stock": stock - sold[pid], "price": 1}
                for pid, stock in zip(pids, stocks)
            },
            pids[-1]: None,
        }

    def test_refused_multi_product_stage_aborts_what_it_staged(self, shape):
        plane, sunk, opened = commerce_plane(shape, [5] * 6)
        node = node_of(plane, "p0")
        mine = [
            pid for pid in (f"p{i}" for i in range(6))
            if node_of(plane, pid) is node
        ]
        assert len(mine) >= 2
        before = commerce_state(plane, mine, sunk)
        for refusal, why in (({"ghost": 1}, "no such product"),
                             ({mine[-1]: 6}, "sold out")):
            opened.clear()
            refused = node.stage_basket({**dict.fromkeys(mine, 1), **refusal})
            assert refused == (None, why, next(iter(refusal)))
            staged = [txn.status for txn in opened if txn.write_set]
            assert "aborted" in staged and "active" not in staged
            after = commerce_state(plane, mine, sunk)
            assert before[0].items() <= after[0].items()
            assert after[1:] == before[1:]


class SourceGrep:
    ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"

    def hits(self, pattern):
        """The file of every match of ``pattern`` under ``src/repro``."""
        return [
            path.relative_to(self.ROOT).as_posix()
            for path in sorted(self.ROOT.rglob("*.py"))
            for _ in re.findall(pattern, path.read_text())
        ]


class TestOneStockCommitPath(SourceGrep):
    """The acceptance grep: under ``src/repro`` stock is checked,
    decremented, committed, written through and reported in one place."""

    def test_one_check_and_decrement_plus_the_replay(self):
        assert self.hits(r"stock < (\w+\.)?quantity") == ["platform/platform.py"]
        assert self.hits(r'\["stock"\] = .* - (\w+\.)?quantity') == [
            "cluster/coordinator.py", "platform/platform.py"
        ]
        # Check and decrement are one function, the basket stage and the
        # purchase call both reach it, and no renamed copy of the check
        # exists: every other ordering comparison in the module is
        # against a constant, a length or a box edge.
        tree = ast.parse((self.ROOT / "platform" / "platform.py").read_text())
        functions = [
            node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        ]
        assert [
            fn.name for fn in functions
            if "stock < quantity" in ast.unparse(fn)
            and "stock - quantity" in ast.unparse(fn)
        ] == ["_decrement"]
        assert sorted(
            fn.name for fn in functions for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_decrement"
        ) == ["process_purchases", "stage_basket"]

        def bounded(operand):
            return isinstance(operand, (ast.Constant, ast.BinOp)) or (
                isinstance(operand, ast.Name) and operand.id.isupper()
            ) or (
                isinstance(operand, ast.Call) and ast.unparse(operand.func) == "len"
            )

        assert [
            (fn.name, ast.unparse(node))
            for fn in functions for node in ast.walk(fn)
            if isinstance(node, ast.Compare) and len(node.ops) == 1
            and isinstance(node.ops[0], (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
            and not any(map(bounded, [node.left, *node.comparators]))
        ] == [("_decrement", "stock < quantity")]

    def test_only_the_platform_writes_through_and_reports(self):
        assert self.hits(r"\.purchase_log\(") == ["platform/platform.py"]
        assert set(self.hits(r"\.persist_committed\(")) == {
            "platform/platform.py"
        }

    def test_the_cluster_opens_no_shard_transaction(self):
        in_cluster = [
            name for name in self.hits(
                r"\.txn\.(begin|commit|abort)\(|txn\.read"
            )
            if name.startswith("cluster/")
        ]
        # The participant's release abort and the replay tail's one begin.
        assert in_cluster == ["cluster/coordinator.py"] * 2
        coordinator = (self.ROOT / "cluster" / "coordinator.py").read_text()
        assert coordinator.count(".txn.begin(") == 1
        assert coordinator.count(".txn.abort(") == 1

    def test_the_duplicate_bodies_stay_deleted(self):
        assert self.hits(
            r"_persist_product|_local_basket|_log_stocks|_persist_stocks"
            r"|_purchase_one|_purchase_attempts|_call_commits"
        ) == []


class TestOneOpTap(SourceGrep):
    """The acceptance grep: a mutation is logged where it commits.  The
    cluster builds every replication op and emits it through one tap;
    the replicators subscribe, and geo goes through the cluster facade."""

    OPS = r"\b(entity_op|drop_entity_op|product_op|drop_product_op|stock_op)\b"

    def test_only_the_cluster_and_the_resync_seed_build_an_op(self):
        assert set(self.hits(self.OPS)) == {
            "replication.py", "cluster/cluster.py", "cluster/failover.py"
        }
        failover = (self.ROOT / "cluster" / "failover.py").read_text()
        resync = failover[failover.index("def resync"):]
        resync = resync[:resync.index("\n    def ", 1)]
        calls = re.findall(self.OPS + r"\(", failover)
        assert calls and calls == re.findall(self.OPS + r"\(", resync)

    def test_one_emit_feeds_every_sink(self):
        cluster = (self.ROOT / "cluster" / "cluster.py").read_text()
        assert cluster.count("in self._op_sinks") == 1
        assert self.hits(r"\.add_op_sink\(") == [
            "cluster/failover.py", "geo/deployment.py"
        ]

    def test_sinks_are_called_in_one_place_the_scopes_delivery(self):
        cluster = ast.parse((self.ROOT / "cluster" / "cluster.py").read_text())
        functions = {
            node.name: node for node in ast.walk(cluster)
            if isinstance(node, ast.FunctionDef)
        }
        calling = {
            name for name, node in functions.items()
            if any(
                isinstance(call, ast.Call) and ast.unparse(call.func) == "sink"
                for call in ast.walk(node)
            )
        }
        assert calling == {"_deliver"}
        # The scope delivers at its outermost return; a stray op (no call
        # open) is the tap's one other way out, through the same method.
        delivering = sorted(
            name for name, node in functions.items()
            if name != "_deliver" and "self._deliver(" in ast.unparse(node)
        )
        assert delivering == ["_tap", "_tap_scope", "scoped"]

    def test_geo_keeps_no_outbox_and_failover_logs_no_single_op(self):
        assert [
            name for name in self.hits(r"_outbox|\b_calls\b|_shipping|_ship_outbox")
            if name.startswith("geo/")
        ] == []
        failover = ast.parse((self.ROOT / "cluster" / "failover.py").read_text())
        (log_op,) = [
            node for node in ast.walk(failover)
            if isinstance(node, ast.FunctionDef) and node.name == "log_op"
        ]
        assert [arg.arg for arg in log_op.args.args] == ["self", "owner", "ops"]

    def test_geo_reaches_into_no_shard_and_derives_no_op(self):
        in_geo = [
            name for name in self.hits(
                r"shard_of\(|stored_record_value|_committed_product|\.shards\b"
            )
            if name.startswith("geo/")
        ]
        assert in_geo == []
        assert "failover.replicator" not in (
            self.ROOT / "cluster" / "cluster.py"
        ).read_text()

    def test_the_old_hooks_stay_deleted(self):
        assert self.hits(
            r"add_stock_sink|_stock_sinks|_write_product|def _replicate"
        ) == []


class TestOneComparisonNoTree(SourceGrep):
    """The acceptance grep: a replicated log is compared by its set
    digest and nothing else — the ordered tree did not stay beside it."""

    def test_the_replicated_log_holds_no_tree(self):
        replication = (self.ROOT / "replication.py").read_text()
        assert re.findall(
            r"MerkleTree|ledger|_trees|def root|_grow", replication
        ) == []

    def test_no_replicator_asks_for_a_root(self):
        asked = [
            name for name in self.hits(r"\.root\(")
            if name.startswith(("geo/", "cluster/")) or name == "replication.py"
        ]
        assert asked == []

    def test_one_function_hashes(self):
        replication = (self.ROOT / "replication.py").read_text()
        digest = replication[replication.index("def set_digest"):]
        digest = digest[:digest.index("\n\n\n")]
        assert replication.count("hashlib.") == digest.count("hashlib.sha256") == 1


class TestDeprecatedSurface:
    def test_spatial_range_alias_is_gone(self):
        """The ``deprecated_alias`` shims were dropped: ``query_spatial``
        (and the generic ``query``) are the only spatial entry points."""
        from repro.api import dataplane

        assert not hasattr(dataplane, "deprecated_alias")
        cluster = PlatformCluster(config=ClusterConfig(n_shards=2))
        assert not hasattr(cluster, "spatial_range")
        cluster.ingest_many(seed_records(8))
        cluster.flush()
        region = BBox(0.0, 0.0, 3.0, 3.0)
        assert cluster.query_spatial(region).items == cluster.query(
            spatial_query(region)
        ).items


# -- query-plane conformance across deployment layers -----------------------

ROOMS = ("kitchen", "garden", "lobby")
TAGS = (
    ["red", "chair"], ["blue", "lamp"], ["wooden", "table"],
    ["stone", "statue"], ["glass", "vase"], ["red", "carpet"],
)


def scene_records(n=18):
    """Scene objects with both text payloads (semantic) and positions
    (spatial), so one corpus exercises every registered modality."""
    return [
        record(
            f"scene/{i:03d}",
            {
                "name": f"object {i}",
                "tags": list(TAGS[i % len(TAGS)]),
                "room": ROOMS[i % len(ROOMS)],
                "x": float(i),
                "y": float(i % 4),
            },
            timestamp=float(i),
        )
        for i in range(n)
    ]


class GeoEventualReads:
    """GeoSession eventual reads as a query-plane backend: one region's
    replica state answers, zero WAN traffic."""

    def __init__(self, geo, region, session):
        self.geo = geo
        self.region = region
        self.session = session

    def query(self, request):
        return self.geo.query(
            request,
            consistency=EVENTUAL,
            region=self.region,
            session=self.session,
        )


QUERY_BACKENDS = ["platform", "cluster", "geo-eventual"]


def make_query_backend(shape):
    records = scene_records()
    if shape == "platform":
        plane = MetaversePlatform(semantic_index=True)
        plane.ingest_many(records)
        plane.tick(1.0)
        return plane
    if shape == "cluster":
        plane = PlatformCluster(
            config=ClusterConfig(n_shards=3, semantic_index=True)
        )
        plane.ingest_many(records)
        plane.tick(1.0)
        return plane
    geo = GeoDeployment(
        GeoConfig(
            regions=("r-east", "r-west"),
            cluster=ClusterConfig(n_shards=2, semantic_index=True),
        )
    )
    session = GeoSession()
    for rec in records:
        geo.write_record(rec, session=session)
    for _ in range(64):  # replica-log shipping + hint delivery converge
        geo.tick(0.25)
        if geo.max_replication_lag() == 0:
            break
    assert geo.max_replication_lag() == 0
    return GeoEventualReads(geo, "r-east", session)


@pytest.fixture(scope="class")
def query_backends():
    return {shape: make_query_backend(shape) for shape in QUERY_BACKENDS}


class TestQueryPlaneConformance:
    """The same :class:`QueryRequest` objects produce identical items on a
    platform node, a sharded cluster, and geo eventual reads — no backend
    carries modality-specific dispatch code."""

    def run_all(self, query_backends, request_obj):
        return {
            shape: backend.query(request_obj)
            for shape, backend in query_backends.items()
        }

    def test_prefix_identical_across_backends(self, query_backends):
        results = self.run_all(query_backends, prefix_query("scene/"))
        for shape in QUERY_BACKENDS:
            assert not results[shape].partial
            assert results[shape].items == results["platform"].items
        assert len(results["platform"].items) == 18

    def test_spatial_identical_across_backends(self, query_backends):
        results = self.run_all(
            query_backends, spatial_query(BBox(3.0, 0.0, 11.0, 2.0))
        )
        keys = [k for k, _ in results["platform"].items]
        assert keys == [
            f"scene/{i:03d}" for i in range(3, 12) if i % 4 <= 2
        ]
        for shape in QUERY_BACKENDS:
            assert results[shape].items == results["platform"].items

    def test_semantic_identical_across_backends(self, query_backends):
        results = self.run_all(
            query_backends, semantic_query("red chair kitchen", k=5)
        )
        base = results["platform"].items
        assert len(base) == 5
        scores = [score for _, score in base]
        assert scores == sorted(scores, reverse=True)
        for shape in QUERY_BACKENDS:
            assert [k for k, _ in results[shape].items] == [
                k for k, _ in base
            ]
            for (_, got), (_, want) in zip(results[shape].items, base):
                assert got == pytest.approx(want, abs=1e-12)

    def test_unknown_modality_is_rejected_everywhere(self, query_backends):
        from repro.query.plane import QueryRequest

        for backend in query_backends.values():
            with pytest.raises(ConfigurationError, match="unknown query modality"):
                backend.query(QueryRequest(modality="no-such", params={}))

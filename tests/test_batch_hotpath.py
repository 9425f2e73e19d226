"""Byte-identity of the columnar hot path against the per-record path.

The vectorized pipeline (RecordBatch ingest, batched gateway aggregation,
fuse_batch) is a wire/compute format, not a different data model: over
the same rows it must leave the platform in *byte-identical* state and
return *equal* results — same floats, not merely close ones.  Hypothesis
drives the comparison, including under injected ``storage.rpc`` faults
where a dropped coalesced batch must time out and retry as a unit.
"""

import ast
import inspect
import json
import math
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, PlatformCluster
from repro.cluster.failover import UP, ReplicaStandIn
from repro.core import (
    ConfigurationError,
    DataKind,
    DataRecord,
    FaultInjectedError,
    RecordBatch,
    Space,
)
from repro.core.columns import _column_array, dense_codes
from repro.fusion import ObservationBatch, TruthFusion
from repro.fusion.sources import Observation
from repro.platform import DeviceGateway, MetaversePlatform
from repro.platform.gateway import batch_uplink_bytes
from repro.resilience import FaultInjector, FaultPlan
from repro.resilience.faults import FaultRule
from repro.storage import (
    KVStore,
    LocalStorageEngine,
    RemoteStorageEngine,
    StorageEngine,
    StorageTier,
    TieredStorageEngine,
)
from repro.storage.kv import MemTable

keys = st.integers(0, 40).map(lambda i: f"ent/{i:03d}")
floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
ints = st.integers(-(10**9), 10**9)


@st.composite
def record_lists(draw, min_size=1, max_size=40):
    """Uniform-payload record lists: one int and two float columns."""
    n = draw(st.integers(min_size, max_size))
    return [
        DataRecord(
            key=draw(keys),
            payload={
                "x": draw(floats), "y": draw(floats), "v": draw(ints),
            },
            space=draw(st.sampled_from([Space.PHYSICAL, Space.VIRTUAL])),
            timestamp=draw(st.floats(0, 1e4, allow_nan=False)),
            kind=DataKind.SENSOR,
            source="hyp",
        )
        for _ in range(n)
    ]


def engine_state(platform):
    """Everything the storage engine holds, JSON-serialized for byte
    comparison (int-vs-float payload drift would change the encoding)."""
    entities = platform.engine.scan("", "￿")
    products = sorted(platform.catalog_snapshot().items())
    return json.dumps(
        {"entities": entities, "products": products}, sort_keys=True
    )


class TestBatchIngestIdentity:
    @settings(max_examples=40, deadline=None)
    @given(records=record_lists())
    def test_local_engine_state_is_byte_identical(self, records):
        per_record = MetaversePlatform()
        per_record.ingest_many(records)
        per_record.flush()

        columnar = MetaversePlatform()
        columnar.ingest_batch(RecordBatch.from_records(records))
        columnar.flush()

        assert engine_state(columnar) == engine_state(per_record)
        assert (
            columnar.scan_prefix("ent/").items
            == per_record.scan_prefix("ent/").items
        )

    @settings(max_examples=15, deadline=None)
    @given(
        records=record_lists(min_size=4),
        seed=st.integers(0, 100),
        drop_rate=st.floats(0.0, 0.3),
    )
    def test_remote_engine_state_identical_under_rpc_faults(
        self, records, seed, drop_rate
    ):
        """A dropped coalesced batch times out as a unit, the platform's
        retry re-sends it, and the final tier state still matches the
        per-record path under its own identically-seeded fault stream.
        Either path may exhaust the 4-attempt retry budget outright
        (a batch is one retried unit, so its per-attempt failure rate
        spans every node it touches); re-ingesting is idempotent — the
        same values land — so the test re-drives until durable."""

        def build():
            tier = StorageTier(n_nodes=3)
            plan = FaultPlan(
                rules=[
                    FaultRule(site="storage.rpc", kind="drop", rate=drop_rate),
                    FaultRule(
                        site="storage.rpc", kind="delay", rate=0.2,
                        delay_s=0.005,
                    ),
                ],
                seed=seed,
            )
            injector = FaultInjector(plan, clock=tier.clock)
            platform = MetaversePlatform(
                engine=tier.mount("test", faults=injector),
                faults=injector,
            )
            return tier, platform

        def ingest_until_durable(platform, do_ingest):
            for _ in range(60):
                do_ingest()
                try:
                    platform.flush()
                    return
                except FaultInjectedError:
                    continue
            raise AssertionError("could not flush past injected faults")

        tier_a, per_record = build()
        ingest_until_durable(
            per_record, lambda: per_record.ingest_many(records)
        )

        tier_b, columnar = build()
        batch = RecordBatch.from_records(records)
        ingest_until_durable(columnar, lambda: columnar.ingest_batch(batch))

        state_a = sorted(tier_a.mget(tier_a.keys()).items())
        state_b = sorted(tier_b.mget(tier_b.keys()).items())
        assert json.dumps(state_b) == json.dumps(state_a)


    @settings(max_examples=10, deadline=None)
    @given(
        records=record_lists(min_size=4),
        drain_rate=st.sampled_from([None, 60.0]),
    )
    def test_replicated_cluster_promotes_identical_state(
        self, records, drain_rate
    ):
        """With ``n_replicas=2`` a columnar batch stays columnar in the
        queue, yet the failover log gets the same per-item post-states:
        after a kill and a promotion the promoted shard and its replicated
        log are byte-identical to the per-record run — also when the drain
        budget (3 records per tick here) splits the batch."""

        def run(ingest):
            cluster = PlatformCluster(ClusterConfig(
                n_shards=3, n_replicas=2, shard_drain_rate=drain_rate,
            ))
            ingest(cluster)
            for _ in range(len(records)):
                cluster.tick(0.05)
            assert cluster.pending_count == 0
            victim = cluster.router.owner_of(records[0].key)
            cluster.kill_shard(victim)
            for _ in range(300):
                cluster.tick(0.05)
                if cluster.failover.state(victim) == UP:
                    break
            assert cluster.failover.state(victim) == UP
            log = cluster.failover.replicator.log(victim)
            return engine_state(cluster.shards[victim]), [
                (entry.lsn, entry.payload) for entry in log.union()
            ]

        per_record = run(lambda c: c.ingest_many(records))
        batch = RecordBatch.from_records(records)
        columnar = run(lambda c: c.ingest_batch(batch))
        assert columnar == per_record
        assert per_record[1]  # the victim owned, and logged, something


def rec(key, v, timestamp=0.0):
    return DataRecord(
        key=key, payload={"v": v}, space=Space.VIRTUAL, timestamp=timestamp,
        kind=DataKind.STRUCTURED, source="run",
    )


class TestRunOfQueuedRecords:
    """The consecutive records at the head of a shard's queue are one
    write unit: one bulk write, cut at the drain budget, ended by a
    :class:`RecordBatch`."""

    def sizes(self, cluster):
        return cluster.metrics.histogram("cluster.router.batch_size").samples

    def queued(self, cluster, shard="shard-0"):
        """``shard``'s queued records in arrival order, units flattened."""
        return [
            record for unit in cluster._pending[shard]
            for record in (
                unit.to_records() if isinstance(unit, RecordBatch) else unit
            )
        ]

    def logged(self, cluster, shard="shard-0"):
        return [
            (op["k"], op["v"]["payload"]["v"])
            for entry in cluster.failover.replicator.log(shard).union()
            for op in json.loads(entry.payload)
        ]

    def test_a_batch_ends_a_run(self):
        cluster = PlatformCluster(ClusterConfig(n_shards=1, n_storage_nodes=2))
        batch = RecordBatch.from_records([rec(f"b/{i}", i) for i in range(5)])
        for unit in (rec("a", 1), rec("b", 1), batch, rec("a", 2), rec("c", 2)):
            if isinstance(unit, RecordBatch):
                cluster.ingest_batch(unit)
            else:
                cluster.ingest(unit)
        writes = []
        shard = cluster.shards["shard-0"]
        write_items = shard._write_items
        shard._write_items = lambda items, payloads, batch=None: (
            writes.append([key for key, _ in items])
            or write_items(items, payloads, batch)
        )
        assert cluster.flush() == 9
        assert writes == [["a", "b"], [f"b/{i}" for i in range(5)], ["a", "c"]]
        assert self.sizes(cluster) == [2.0, 5.0, 2.0]
        assert cluster.read("a")["payload"] == {"v": 2}

    @pytest.mark.parametrize("n_replicas", [1, 2])
    def test_duplicates_inside_a_run_later_wins(self, n_replicas):
        cluster = PlatformCluster(
            ClusterConfig(n_shards=n_replicas, n_replicas=n_replicas)
        )
        keys = ["k", "other", "k", "k"]
        owner = cluster.router.owner_of("k")
        run = [
            rec(key, v) for v, key in enumerate(keys)
            if cluster.router.owner_of(key) == owner
        ]
        for record in run:
            cluster.ingest(record)
        cluster.flush()
        assert self.sizes(cluster) == [float(len(run))]
        assert cluster.read("k")["payload"] == {"v": 3}
        if n_replicas == 2:
            # every post-state, in arrival order: a promoted replica
            # replays to the same final value
            assert self.logged(cluster, owner) == [
                (r.key, r.payload["v"]) for r in run
            ]
            assert ReplicaStandIn(cluster.failover, owner).read("k")["payload"] == {"v": 3}

    def test_drain_budget_cuts_a_run_and_keeps_the_tail_in_order(self):
        cluster = PlatformCluster(
            ClusterConfig(n_shards=1, shard_drain_rate=3.0)
        )
        for i in range(5):
            cluster.ingest(rec("k", i))
        cluster.ingest(rec("last", 9))
        cluster.tick(1.0)  # credit 3: the run's first three records
        assert self.sizes(cluster) == [3.0]
        assert cluster.read("k")["payload"] == {"v": 2}
        assert [r.payload["v"] for r in self.queued(cluster)] == [3, 4, 9]
        cluster.tick(1.0)
        assert self.sizes(cluster) == [3.0, 3.0]
        assert cluster.pending_count == 0
        assert cluster.read("k")["payload"] == {"v": 4}
        assert cluster.read("last")["payload"] == {"v": 9}

    @pytest.mark.parametrize("disaggregated", [False, True])
    def test_failed_run_stays_queued_and_a_retry_lands_each_key_once(
        self, disaggregated
    ):
        site = "storage.rpc" if disaggregated else "kv.put"
        injector = FaultInjector(FaultPlan(
            rules=[FaultRule(site=site, kind="crash", rate=1.0, start=1.0, end=2.0)]
        ))
        cluster = PlatformCluster(
            ClusterConfig(
                n_shards=1, n_storage_nodes=2 if disaggregated else None
            ),
            faults=injector,
        )
        cluster.ingest(rec("early", 0))
        cluster.flush()  # before the fault window
        run = [rec("a", 1), rec("b", 1), rec("a", 2)]
        for record in run:
            cluster.ingest(record)
        cluster.ingest_batch(RecordBatch.from_records([rec("c", 3)]))
        cluster.clock.advance(1.5)
        with pytest.raises(FaultInjectedError):
            cluster.flush()
        # The run and everything behind it: nothing left, nothing landed.
        assert cluster.pending_count == 4
        assert self.queued(cluster)[:3] == run
        cluster.clock.advance(1.0)  # past the fault window
        assert [k for k, _ in cluster.scan_prefix("").items] == ["early"]
        assert cluster.flush() == 4
        assert {
            key: value["payload"]["v"]
            for key, value in cluster.scan_prefix("").items
        } == {"a": 2, "b": 1, "c": 3, "early": 0}

    def test_a_tick_of_per_record_ingests_costs_one_mput_per_storage_node(self):
        """N records queued one by one on a 4 x 4 disaggregated cluster
        reach the tier in at most 4 ``mput`` round trips per shard (N at
        the parent), and the tier holds byte-identical state to writing
        them one round trip each."""
        records = [rec(f"e/{i % 60:03d}", i, float(i)) for i in range(240)]

        config = ClusterConfig(n_shards=4, n_storage_nodes=4)
        coalesced = PlatformCluster(config)
        for record in records:
            coalesced.ingest(record)
        before = coalesced.metrics.counter("storage.rpc.calls").value
        assert coalesced.flush() == len(records)
        calls = coalesced.metrics.counter("storage.rpc.calls").value - before
        assert calls <= 4 * 4
        assert self.sizes(coalesced) == [
            float(sum(coalesced.router.owner_of(r.key) == name for r in records))
            for name in coalesced.router.shards
        ]

        one_by_one = PlatformCluster(config)
        for record in records:
            one_by_one.write_record(record)
        calls = one_by_one.metrics.counter("storage.rpc.calls").value
        assert calls == len(records)
        tiers = [
            json.dumps(sorted(c.storage.mget(c.storage.keys()).items()))
            for c in (coalesced, one_by_one)
        ]
        assert tiers[0] == tiers[1]


class SourceGrep:
    """Helpers of the acceptance greps over ``src/repro``."""

    ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"

    def sources(self, sub=""):
        return {
            path.relative_to(self.ROOT).as_posix(): path.read_text()
            for path in sorted((self.ROOT / sub).rglob("*.py"))
        }

    def hits(self, pattern, sub=""):
        """The file of every match of ``pattern`` under ``src/repro/sub``."""
        return [
            name for name, text in self.sources(sub).items()
            for _ in re.findall(pattern, text)
        ]

    def platform_methods(self):
        """``MetaversePlatform``'s methods by name, as AST nodes."""
        tree = ast.parse(self.sources()["platform/platform.py"])
        platform = next(
            node for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == "MetaversePlatform"
        )
        return {
            node.name: node for node in platform.body
            if isinstance(node, ast.FunctionDef)
        }


class TestOneWritePath(SourceGrep):
    """A record is a batch of one: no layer regrows a per-record write
    body, a second WAL put format, or a second size function."""

    def test_every_put_is_a_one_line_delegation_to_mput(self):
        # Only the abstract base and the two classes the macro benchmark
        # spans by name define ``put``; the memtable has none.
        owners = [StorageEngine, RemoteStorageEngine, KVStore]
        for cls in (LocalStorageEngine, TieredStorageEngine, MemTable):
            assert "put" not in vars(cls), cls
        for cls in owners:
            assert "put" in vars(cls) and "mput" in vars(cls), cls
        bodies = [
            [ast.unparse(stmt) for stmt in node.body
             if not isinstance(getattr(stmt, "value", None), ast.Constant)]
            for text in self.sources("storage").values()
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.FunctionDef) and node.name == "put"
            and [arg.arg for arg in node.args.args] == ["self", "key", "value"]
        ]
        assert bodies == [["self.mput([(key, value)])"]] * len(owners)

    def test_one_write_call_site_per_layer(self):
        assert self.hits(r"engine\.put\(") == []
        assert self.hits(r"engine\.mput\(") == ["platform/platform.py"]
        assert self.hits(r"\.write_record_batch\(") == [
            "cluster/cluster.py", "platform/platform.py"
        ]
        assert self.hits(r"\.to_records\(", "cluster") == []

    def test_one_wal_put_format_and_one_size_function(self):
        quoted = "[\"']{}[\"']".format
        assert self.hits(quoted("put"), "storage") == []
        # written once by encode_mput, in either record shape, and read
        # once, by the one replay branch
        assert self.hits(quoted("mput"), "storage").count("storage/kv.py") == 2
        assert self.hits(r"len\(\s*json\.dumps") == ["storage/kv.py"]

    def test_a_write_batch_is_encoded_in_one_place_and_sized_by_its_record(self):
        # one encoder; the remote client and the store each call it once
        assert self.hits(r"def encode_mput\(") == ["storage/kv.py"]
        assert self.hits(r"= encode_mput\(") == [
            "storage/engine.py", "storage/kv.py"
        ]
        assert "payload_size" not in inspect.getsource(RemoteStorageEngine.mput)

    def test_a_write_batch_is_decoded_in_one_place_by_recovery_alone(self):
        # one reader for both record shapes, and replay is its one caller
        assert self.hits(r"def decode_mput\(") == ["storage/kv.py"]
        assert self.hits(r"(?<!def )decode_mput\(") == ["storage/kv.py"]
        assert "decode_mput(" in inspect.getsource(KVStore.recover)


class TestOneLifecycle(SourceGrep):
    """Derived state has one lifecycle, in one module: the platform's
    write, drop and reset steps reach the position index, the semantic
    index and every standing view only through ``DerivedState``, and
    name none of them."""

    STEPS = {
        "_write_items": ["reset"],  # a raised write, exact state only
        "_after_write": ["on_write"],
        "drop_entity": ["on_drop"],
        "reset_caches": ["reset"],
    }

    def test_each_step_drives_every_derived_state_through_one_method(self):
        methods = self.platform_methods()
        for name, lifecycle in self.STEPS.items():
            body = ast.unparse(methods[name])
            assert "for state in self._derived:" in body, name
            assert sorted({
                call.func.attr for call in ast.walk(methods[name])
                if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and ast.unparse(call.func.value) == "state"
            }) == lifecycle, name

    def test_no_step_names_the_position_index_or_a_view(self):
        methods = self.platform_methods()
        for name in self.STEPS:
            body = ast.unparse(methods[name])
            assert re.findall(r"_positions|_views|PositionIndex|PrefixView", body) == [], name
        # Built in __init__; read where a query asks for them; hydrated
        # by one method; named nowhere outside the platform.
        readers = {
            attr: sorted(
                name for name, node in methods.items()
                if re.search(rf"self\.{attr}\b", ast.unparse(node))
            )
            for attr in ("_positions", "_views", "_derived")
        }
        assert readers == {
            "_positions": ["__init__", "spatial_items"],
            "_views": ["__init__", "standing_items"],
            "_derived": [
                "__init__", "_after_write", "_write_items", "drop_entity",
                "reset_caches", "standing_items",
            ],
        }
        assert [
            name for name, node in methods.items()
            if ".hydrate(" in ast.unparse(node)
        ] == ["_hydrated"]
        assert self.hits(r"\._positions\b|\._views\b|\._derived\b", "cluster") == []

    def test_no_step_names_the_semantic_index_and_no_config_refuses_it(self):
        methods = self.platform_methods()
        for name in self.STEPS:
            assert "semantic" not in ast.unparse(methods[name]).lower(), name
        # Built in __init__, hydrated and searched by the one reader.
        assert sorted(
            name for name, node in methods.items()
            if re.search(r"self\.semantic\b", ast.unparse(node))
        ) == ["__init__", "semantic_search"]
        assert self.hits(r"(?m)^class DerivedState\b") == ["derived.py"]
        config = next(
            node for node in ast.parse(self.sources()["cluster/config.py"]).body
            if isinstance(node, ast.ClassDef) and node.name == "ClusterConfig"
        )
        validate = next(
            node for node in config.body
            if isinstance(node, ast.FunctionDef) and node.name == "validate"
        )
        assert "semantic" not in ast.unparse(validate)


class TestOneSoleWriter(SourceGrep):
    """Whether a platform is its keys' sole writer is decided in one
    place, ``MetaversePlatform._sole_writer``, and read by the three steps
    that act on it: the standing views, the kept semantic index and the
    kept pages.  The buffer pool's frames are its own."""

    def test_the_decision_is_made_once(self):
        decision = r"_own_engine or (?:self\.)?owns is not None"
        assert self.hits(decision) == ["platform/platform.py"]
        assert [
            name for name, node in self.platform_methods().items()
            if re.search(decision, ast.unparse(node))
        ] == ["_sole_writer"]

    def test_the_views_and_the_pages_read_it(self):
        assert sorted(
            name for name, node in self.platform_methods().items()
            if "self._sole_writer" in ast.unparse(node)
        ) == ["_after_write", "semantic_search", "standing_items"]

    def test_no_module_but_the_pool_names_its_frames(self):
        assert set(self.hits(r"\b_frames\b")) == {"storage/bufferpool.py"}


class TestOneCommitCore(SourceGrep):
    """A purchase call settles once, in one place: committed stock is
    written through and reported by ``MetaversePlatform._settle`` alone,
    and the fold it does is not regrown above it as a buffer, a batch op
    kind or a second sink signature."""

    def callers(self, file, method):
        """Names of the functions in ``file`` that call ``.method(...)``."""
        return sorted(
            node.name
            for node in ast.walk(ast.parse(self.sources()[file]))
            if isinstance(node, ast.FunctionDef)
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == method
        )

    def test_one_method_reports_and_writes_committed_stock_through(self):
        platform = "platform/platform.py"
        assert self.hits(r"\.purchase_log\(") == [platform]
        assert self.callers(platform, "purchase_log") == ["_settle"]
        assert self.hits(r"\.persist_committed\(") == [platform] * 3
        assert self.callers(platform, "persist_committed") == [
            "_settle", "drop_product", "import_products"
        ]
        # the drain behind every persist, and the cluster's remap drain
        # before a compute node drops the cache that may be the only
        # holder of a parked write
        assert self.hits(r"\.flush_dirty_products\(") == [
            "cluster/cluster.py", platform
        ]
        assert self.callers(platform, "flush_dirty_products") == [
            "persist_committed"
        ]
        assert self.callers(platform, "_settle") == [
            "commit_basket", "process_purchases"
        ]

    def test_the_tap_delivers_a_calls_ops_as_segments(self):
        # five op kinds, none a batch: a segment is a list of them
        assert sorted(
            re.findall(r'"op": "(\w+)"', self.sources()["replication.py"])
        ) == ["drop_entity", "drop_product", "entity", "product", "stock"]
        # one sink signature, and one delivery that hands it the segments
        deliver = next(
            node for node in ast.walk(ast.parse(self.sources()["cluster/cluster.py"]))
            if isinstance(node, ast.FunctionDef) and node.name == "_deliver"
        )
        assert [
            ast.unparse(stmt) for stmt in deliver.body
            if not isinstance(getattr(stmt, "value", None), ast.Constant)
        ] == [
            "for sink in self._op_sinks:\n"
            "    sink(segments)"
        ]


class TestOneCall(SourceGrep):
    """A synchronous round trip is priced in one place,
    ``SimulatedNetwork.call``: no other module advances a clock by a
    transfer delay, and the two copies it replaced are gone."""

    def test_no_module_but_the_network_prices_a_round_trip(self):
        uses = []
        for name, text in self.sources().items():
            tree = ast.parse(text)
            parent = {
                child: node for node in ast.walk(tree)
                for child in ast.iter_child_nodes(node)
            }
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "transfer_delay"):
                    continue
                enclosing = []
                while node in parent:
                    node = parent[node]
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                        enclosing.append(node.func.attr)
                uses.append((name, enclosing))
        assert {name for name, _ in uses} == {"net/simnet.py", "txn/twopc.py"}
        # 2PC's one-way abort wait hands an arrival time to the scheduler:
        # a message's leg, not a round trip.
        assert [
            enclosing for name, enclosing in uses if name == "txn/twopc.py"
        ] == [["run_until"]]

    def test_the_replaced_copies_are_gone(self):
        for name in ("_transact", "_reach", "_wan_rpc"):
            assert self.hits(rf"def {name}\(") == []
        assert sorted(self.hits(r"\b(?:net|wan)\.call\(")) == [
            "geo/deployment.py", "storage/engine.py"
        ]


class TestOneStoredCell(SourceGrep):
    """A stored cell is its value: ``storage/kv.py`` defines no class
    that wraps one, and a logged batch reaches the memtable as it came."""

    @staticmethod
    def wrappers(tree):
        """The classes that declare fields: a tuple or ``NamedTuple``
        base, a dataclass decorator, or class-level annotations or
        ``__slots__``."""
        found = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = {ast.unparse(base).rsplit(".", 1)[-1] for base in node.bases}
            decorators = {ast.unparse(d).split("(")[0].rsplit(".", 1)[-1]
                          for d in node.decorator_list}
            fields = [
                stmt for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                or isinstance(stmt, ast.Assign)
                and "__slots__" in map(ast.unparse, stmt.targets)
            ]
            if bases & {"NamedTuple", "tuple"} or "dataclass" in decorators or fields:
                found.append(node.name)
        return found

    @staticmethod
    def forwards_items(func):
        """``func`` makes one ``self._memtable.mput`` call, its first
        argument the ``items`` parameter, never rebound."""
        calls = [
            node for node in ast.walk(func) if isinstance(node, ast.Call)
            and ast.unparse(node.func) == "self._memtable.mput"
        ]
        rebound = [
            node for node in ast.walk(func) if isinstance(node, ast.Name)
            and node.id == "items" and isinstance(node.ctx, ast.Store)
        ]
        return (len(calls) == 1 and ast.unparse(calls[0].args[0]) == "items"
                and not rebound)

    def test_the_checks_find_the_replaced_cell(self):
        from tests.test_storage_kv import VersionedKVStore, _Versioned

        assert self.wrappers(ast.parse(inspect.getsource(_Versioned))) == [
            "_Versioned"
        ]
        replaced = ast.parse(
            textwrap.dedent(inspect.getsource(VersionedKVStore._apply_mput))
        ).body[0]
        assert not self.forwards_items(replaced)

    def test_no_class_wraps_a_stored_value(self):
        assert self.wrappers(ast.parse(self.sources("storage")["storage/kv.py"])) == []

    def test_a_logged_batch_lands_as_it_came(self):
        (func,) = [
            node for node in ast.walk(ast.parse(self.sources("storage")["storage/kv.py"]))
            if isinstance(node, ast.FunctionDef) and node.name == "_apply_mput"
        ]
        assert self.forwards_items(func)


class TestGatewayBatchIdentity:
    @settings(max_examples=60, deadline=None)
    @given(
        records=record_lists(),
        group_fn=st.sampled_from([
            lambda r: r.key.split("/")[0], lambda r: r.key[-1], None,
        ]),
    )
    def test_aggregated_flush_matches_per_record(self, records, group_fn):
        """One group, several groups repeating in any order, or a group
        per key (untagged rows group by key), each with mixed spaces:
        a group's space is its first row's."""
        per_record = DeviceGateway(
            aggregate=True, group_fn=group_fn or (lambda r: r.key)
        )
        per_record.ingest_many(records)
        out_records, uplink_records = per_record.flush()

        columnar = DeviceGateway(aggregate=True, group_fn=lambda r: r.key)
        batch = RecordBatch.from_records(records)
        if group_fn is not None:
            batch.groups = [group_fn(r) for r in records]
        columnar.ingest_batch(batch)
        out_batch, uplink_batch = columnar.flush_batch()

        assert uplink_batch == uplink_records
        expanded = out_batch.to_records()
        assert len(expanded) == len(out_records)
        for got, want in zip(expanded, out_records):
            assert got.key == want.key
            assert got.payload == want.payload  # same floats, int count
            assert got.timestamp == want.timestamp
            assert got.space is want.space

    def test_raw_flush_preserves_rows_and_uplink(self):
        records = [
            DataRecord(key=f"e/{i}", payload={"x": float(i), "y": 0.5, "v": i})
            for i in range(10)
        ]
        per_record = DeviceGateway(aggregate=False)
        per_record.ingest_many(records)
        out_records, uplink_records = per_record.flush()

        columnar = DeviceGateway(aggregate=False)
        columnar.ingest_batch(RecordBatch.from_records(records))
        out_batch, uplink_batch = columnar.flush_batch()

        assert uplink_batch == uplink_records
        assert [r.payload for r in out_batch.to_records()] == [
            r.payload for r in out_records
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 12),
        columns=st.dictionaries(
            st.sampled_from(["x", "v", "it's", "size_bytes", "a\\b"]),
            st.sampled_from([
                floats,
                ints,
                st.floats(allow_nan=True, allow_infinity=True),
                st.integers(-5, 5),
            ]),
            max_size=4,
        ),
        data=st.data(),
    )
    def test_uplink_bytes_from_columns_equal_summed_record_sizes(
        self, n, columns, data
    ):
        """Int and float columns, none at all, field names whose repr
        needs escaping or other quotes, and a ``size_bytes`` column (some
        rows negative or not finite, so stated and estimated sizes mix)."""
        stated = data.draw(st.sampled_from([
            st.integers(-5, 5),
            st.floats(-5.0, 500.0),
            st.floats(allow_nan=True, allow_infinity=True),
        ]))
        batch = RecordBatch(
            keys=[f"e/{i}" for i in range(n)],
            columns={
                name: data.draw(st.lists(
                    stated if name == "size_bytes" else values,
                    min_size=n, max_size=n,
                ))
                for name, values in columns.items()
            },
            timestamps=[0.0] * n,
        )
        assert batch_uplink_bytes(batch) == sum(
            record.size_bytes() for record in batch.to_records()
        )

    @pytest.mark.parametrize("stated", [math.inf, -math.inf, math.nan])
    def test_a_size_that_is_not_finite_is_estimated(self, stated):
        """A stated size that is not a finite number is treated like a
        negative one: estimated, on the per-record and columnar uplinks
        alike, and nothing raises."""
        records = [
            DataRecord(key=f"m/{i}", payload={"size_bytes": stated, "v": i})
            for i in range(3)
        ]
        estimates = [48 + len(repr(r.payload)) for r in records]
        assert [r.size_bytes() for r in records] == estimates
        assert batch_uplink_bytes(RecordBatch.from_records(records)) == sum(
            estimates
        )
        per_record = DeviceGateway(aggregate=False)
        per_record.ingest_many(records)
        columnar = DeviceGateway(aggregate=False)
        columnar.ingest_batch(RecordBatch.from_records(records))
        assert per_record.flush()[1] == columnar.flush_batch()[1] == sum(
            estimates
        )

    def test_empty_flush_batch(self):
        gateway = DeviceGateway(aggregate=False)
        assert gateway.flush_batch() == (None, 0)


class TestFusionBatchIdentity:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 120),
        seed=st.integers(0, 1000),
        iterations=st.integers(1, 6),
    )
    def test_fuse_batch_equals_fuse_bitwise(self, n, seed, iterations):
        import random

        rng = random.Random(seed)
        observations = [
            Observation(
                entity_id=f"e{rng.randrange(12)}",
                attribute=rng.choice(["x", "y"]),
                value=rng.uniform(-50, 50),
                source=f"s{rng.randrange(5)}",
                timestamp=float(i),
                confidence=rng.uniform(0.1, 1.0),
            )
            for i in range(n)
        ]
        reference = TruthFusion(iterations=iterations)
        expected = reference.fuse(observations)

        vectorized = TruthFusion(iterations=iterations)
        actual = vectorized.fuse_batch(
            ObservationBatch.from_observations(observations)
        )

        assert set(actual) == set(expected)
        for key, fused in expected.items():
            got = actual[key]
            assert got.value == fused.value  # bitwise, not approx
            assert got.support == fused.support
            assert got.contributors == fused.contributors
        assert vectorized.source_trust == reference.source_trust

    def test_categorical_observations_stay_per_record(self):
        with pytest.raises(ConfigurationError):
            ObservationBatch.from_observations(
                [Observation("e", "color", "red", "s", 0.0, 1.0)]
            )


class TestRecordBatchFormat:
    def test_round_trip_preserves_int_vs_float(self):
        records = [
            DataRecord(key="a", payload={"v": 3, "x": 1.5}),
            DataRecord(key="b", payload={"v": -2, "x": 0.25}),
        ]
        back = RecordBatch.from_records(records).to_records()
        assert [r.payload for r in back] == [r.payload for r in records]
        assert all(isinstance(r.payload["v"], int) for r in back)
        assert all(isinstance(r.payload["x"], float) for r in back)

    def test_mixed_int_float_column_is_rejected(self):
        with pytest.raises(ConfigurationError):
            RecordBatch.from_records(
                [
                    DataRecord(key="a", payload={"v": 1}),
                    DataRecord(key="b", payload={"v": 1.0}),
                ]
            )

    def test_non_numeric_payload_is_rejected(self):
        with pytest.raises(ConfigurationError):
            RecordBatch.from_records(
                [DataRecord(key="a", payload={"v": "text"})]
            )

    def test_take_and_concat(self):
        records = [
            DataRecord(key=f"k{i}", payload={"v": i}, timestamp=float(i))
            for i in range(6)
        ]
        batch = RecordBatch.from_records(records)
        subset = batch.take([4, 1])
        assert subset.keys == ["k4", "k1"]
        assert subset.columns["v"].tolist() == [4, 1]
        merged = RecordBatch.concat([batch.take([0, 1]), batch.take([2])])
        assert merged.keys == ["k0", "k1", "k2"]
        assert len(RecordBatch.concat([batch])) == 6


# -- column passes against the per-row loops they replaced ---------------------
#
# Each function below is a loop the columnar path ran until the column
# pass beside it took over; it stays here as the oracle that pass is held
# equal to.


def loop_codes(keys):
    """Per-row coding: one numpy element assigned per key."""
    index = {}
    codes = np.empty(len(keys), dtype=np.intp)
    for i, key in enumerate(keys):
        code = index.get(key)
        if code is None:
            code = index.setdefault(key, len(index))
        codes[i] = code
    return codes, list(index)


def loop_column_array(values):
    """Per-value numeric checks: three ``isinstance`` passes."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigurationError(
                "columnar payload fields must be int or float"
            )
    if all(isinstance(v, int) for v in values):
        return np.asarray(values, dtype=np.int64)
    if not all(isinstance(v, float) for v in values):
        raise ConfigurationError(
            "mixed int/float column; cast to one type before batching"
        )
    return np.asarray(values, dtype=np.float64)


def loop_from_observations(observations):
    """Per-observation check, then ``float()`` of every value."""
    for obs in observations:
        if isinstance(obs.value, bool) or not isinstance(
            obs.value, (int, float)
        ):
            raise ConfigurationError(
                "only numeric observations columnarize; fuse "
                "categorical claims through the per-record path"
            )
    return ObservationBatch(
        entity_ids=[o.entity_id for o in observations],
        attributes=[o.attribute for o in observations],
        values=[float(o.value) for o in observations],
        sources=[o.source for o in observations],
        timestamps=[o.timestamp for o in observations],
        confidences=[o.confidence for o in observations],
    )


def outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return "ok", fn(*args)
    except (ConfigurationError, OverflowError, TypeError, ValueError) as exc:
        return type(exc), str(exc)


def assert_same_column(values):
    """``_column_array`` returns the loop's dtype and bytes, or raises
    its error with its message."""
    got, want = outcome(_column_array, values), outcome(
        loop_column_array, values
    )
    assert got[0] == want[0]
    if got[0] == "ok":
        assert same_array(got[1], want[1])
    else:
        assert got[1] == want[1]


def same_array(got, want):
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


#: A numeric column's values as callers hand them over: plain ints and
#: floats, ints outside int64, bools, numpy floats, strings and None.
column_values = st.one_of(
    st.integers(-5, 5),
    st.integers(),
    st.integers(2**63 - 2, 2**64),
    st.floats(allow_nan=False),
    st.booleans(),
    st.floats(-5, 5).map(np.float64),
    st.text(max_size=2),
    st.none(),
)
names = st.text("abcxyz", min_size=1, max_size=3)


class TestColumnPassesEqualTheirLoops:
    @settings(max_examples=100, deadline=None)
    @given(
        entities=st.lists(names, max_size=60),
        data=st.data(),
    )
    def test_group_and_source_codes(self, entities, data):
        n = len(entities)
        batch = ObservationBatch(
            entity_ids=entities,
            attributes=data.draw(st.lists(names, min_size=n, max_size=n)),
            values=[0.0] * n,
            sources=data.draw(st.lists(names, min_size=n, max_size=n)),
        )
        for (codes, found), (want, expected) in (
            (batch.group_codes(),
             loop_codes(list(zip(batch.entity_ids, batch.attributes)))),
            (batch.source_codes(), loop_codes(batch.sources)),
        ):
            assert same_array(codes, want)
            assert found == expected

    @settings(max_examples=100, deadline=None)
    @given(groups=st.lists(names, max_size=60))
    def test_gateway_codes(self, groups):
        codes, found = dense_codes(groups)
        want, expected = loop_codes(groups)
        assert same_array(codes, want)
        assert found == expected

    @settings(max_examples=300, deadline=None)
    @given(values=st.one_of(
        st.lists(column_values, max_size=6),
        st.lists(st.integers(-5, 5), max_size=6),
        st.lists(st.floats(allow_nan=False), max_size=6),
    ))
    def test_column_array(self, values):
        assert_same_column(values)

    @pytest.mark.parametrize("values", [
        [], [True], [1, True], ["1"], [None], [1, 2.0], [2.0, 1],
        [np.float64(1.5), 2.5], [2**63], [-(2**63) - 1], [1.5, "x"],
    ])
    def test_column_array_edges(self, values):
        assert_same_column(values)

    @settings(max_examples=200, deadline=None)
    @given(values=st.one_of(
        st.lists(column_values, max_size=6),
        st.lists(st.floats(), max_size=6),
        st.lists(st.one_of(st.integers(), st.floats()), max_size=6),
    ))
    def test_from_observations(self, values):
        observations = [
            Observation(f"e{i % 3}", "x", value, f"s{i % 2}", float(i), 0.5)
            for i, value in enumerate(values)
        ]
        got = outcome(ObservationBatch.from_observations, observations)
        want = outcome(loop_from_observations, observations)
        assert got[0] == want[0]
        if got[0] != "ok":
            assert got[1] == want[1]
            return
        got, want = got[1], want[1]
        for name in ("values", "timestamps", "confidences"):
            assert same_array(getattr(got, name), getattr(want, name))
        for name in ("entity_ids", "attributes", "sources"):
            assert getattr(got, name) == getattr(want, name)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(0, 8),
        fields=st.lists(names, unique=True, max_size=4),
        data=st.data(),
    )
    def test_payloads_keep_the_column_order(self, n, fields, data):
        batch = RecordBatch(
            keys=[f"k{i}" for i in range(n)],
            columns={
                name: data.draw(st.one_of(
                    st.lists(ints, min_size=n, max_size=n),
                    st.lists(floats, min_size=n, max_size=n),
                ))
                for name in fields
            },
            timestamps=[0.0] * n,
        )
        payloads = batch.payloads()
        assert payloads == [
            {name: batch.columns[name][i].item() for name in fields}
            for i in range(n)
        ]
        assert [list(p) for p in payloads] == [fields] * n


class TestNoPerRowElementWrites(SourceGrep):
    """The columnar path codes and aggregates a column at a time: no
    ``for`` loop in these modules writes a numpy array one element at a
    time through a subscript."""

    FILES = ("fusion/batch.py", "core/columns.py", "platform/gateway.py")

    @staticmethod
    def element_writes(text):
        """``name[...] = ...`` inside a ``for`` loop, where ``name`` was
        bound in the same function to the result of an ``np.*`` call."""
        found = []
        for func in ast.walk(ast.parse(text)):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            arrays = {
                target.id
                for node in ast.walk(func) if isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and isinstance(node.value.func.value, ast.Name)
                and node.value.func.value.id == "np"
                for target in node.targets if isinstance(target, ast.Name)
            }
            for loop in ast.walk(func):
                if not isinstance(loop, ast.For):
                    continue
                for node in ast.walk(loop):
                    targets = (
                        node.targets if isinstance(node, ast.Assign)
                        else [node.target]
                        if isinstance(node, ast.AugAssign) else []
                    )
                    found += [
                        ast.unparse(target) for target in targets
                        if isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in arrays
                    ]
        return found

    def test_the_check_finds_the_loop_it_forbids(self):
        assert self.element_writes(inspect.getsource(loop_codes)) == [
            "codes[i]"
        ]

    def test_no_module_of_the_columnar_path_writes_elements_in_a_loop(self):
        sources = self.sources()
        assert {
            name: self.element_writes(sources[name]) for name in self.FILES
        } == {name: [] for name in self.FILES}

"""The storage-engine seam: Local/Remote parity, faults, and recovery.

Three families:

* **parity** — :class:`LocalStorageEngine` and :class:`RemoteStorageEngine`
  agree on the full operation mix (entities, products, objects), so a
  platform cannot tell where its state lives except through latency;
* **fault sites** — the ``storage.rpc`` site injects crash/delay/drop
  (drop surfaces as a client timeout that burns simulated time) and
  partitions sever the mount;
* **recovery** — a platform on a remote engine stays exactly-once through
  cache loss (hydration).
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import DataKind, DataRecord, SimulationClock, Space
from repro.core.errors import (
    ConfigurationError,
    FaultInjectedError,
    KeyNotFoundError,
    PartitionedError,
)
from repro.platform import MetaversePlatform
from repro.resilience import FaultInjector, FaultPlan, RetryPolicy
from repro.resilience.faults import FaultRule
from repro.storage import (
    LifecyclePolicy,
    LocalStorageEngine,
    RemoteStorageEngine,
    StorageNode,
    StorageTier,
    TieredStorageEngine,
)
from repro.storage.kv import payload_size
from repro.workloads import FlashSaleConfig, MarketplaceWorkload

pytestmark = pytest.mark.disagg


def remote_engine(n_nodes=2):
    tier = StorageTier(n_nodes=n_nodes)
    return tier, tier.mount("test")


def faulted_engine(rules, seed=1, **mount_kwargs):
    tier = StorageTier(n_nodes=2)
    injector = FaultInjector(
        FaultPlan(rules=tuple(rules), seed=seed), clock=tier.clock
    )
    return tier, tier.mount("test", faults=injector, **mount_kwargs)


def _kv_put_faults(seed):
    return FaultInjector(FaultPlan(
        rules=(FaultRule(site="kv.put", kind="crash", rate=0.2),
               FaultRule(site="kv.put", kind="delay", rate=0.2, delay_s=0.01)),
        seed=seed,
    ))


def _local_under_faults(seed):
    injector = _kv_put_faults(seed)
    return LocalStorageEngine(faults=injector), injector


def _remote_under_faults(seed):
    tier, engine = faulted_engine(
        [FaultRule(site="storage.rpc", kind=kind, rate=0.15, delay_s=0.01)
         for kind in ("crash", "drop", "delay")],
        seed=seed,
    )
    return engine, engine.faults


def _tiered_under_faults(seed):
    injector = _kv_put_faults(seed)
    return TieredStorageEngine(
        policy=LifecyclePolicy(hot_capacity=2, hot_ttl_s=1.0, warm_ttl_s=2.0),
        clock=injector.clock, faults=injector,
    ), injector


def write_one_by_one(build, seed, items, write):
    """Apply ``write(engine, key, value)`` per item on a fresh faulted
    engine; return everything a caller or an operator could observe."""
    engine, injector = build(seed)
    draws = []
    decide = injector.decide

    def recording_decide(site, target=None, **kwargs):
        decision = decide(site, target, **kwargs)
        draws.append((site, target, decision.kind))
        return decision

    injector.decide = recording_decide
    remote = isinstance(engine, RemoteStorageEngine)
    audit = engine.tier.keys if remote else engine.keys
    write_site = "storage.rpc" if remote else "kv.put"
    outcomes = []
    for position, (key, value) in enumerate(items):
        if position == len(items) // 2:
            # Age everything written so far (the tiered engine demotes it
            # cold), so later writes also land on cold keys.
            injector.clock.advance(10.0)
            engine.maintain(injector.clock.now)
        before, drawn = audit(), len(draws)
        try:
            write(engine, key, value)
            outcomes.append("ok")
        except FaultInjectedError as exc:
            outcomes.append(str(exc))
            assert audit() == before  # decided before any state changed
        # exactly one fault decision at the write's own site
        assert [site for site, _, _ in draws[drawn:]].count(write_site) == 1
    return {
        "outcomes": outcomes,
        "draws": draws,
        "clock": injector.clock.now,
        "rpcs": engine.metrics.counter("storage.rpc.calls").value,
        "reads": audit(),
        "engine": engine.describe(),
    }


def exercise_full_op_mix(engine):
    """Run every StorageEngine operation; return observable results."""
    engine.put("b", {"v": 2})
    engine.put("a", {"v": 1})
    engine.put("c", 3)
    engine.delete("c")
    engine.put_product("p1", {"stock": 5})
    engine.put_product("p2", {"stock": 7})
    engine.delete_product("p2")
    results = {
        "get": engine.get("a"),
        "scan": engine.scan("", "z"),
        "keys": engine.keys(),
        "product": engine.get_product("p1"),
        "missing_product": engine.get_product("p2"),
        "products": engine.products(),
    }
    try:
        engine.get("c")
    except KeyNotFoundError:
        results["deleted_raises"] = True
    return results


class TestEngineParity:
    def test_local_and_remote_agree_on_full_op_mix(self):
        local = exercise_full_op_mix(LocalStorageEngine())
        _, remote = remote_engine()
        assert exercise_full_op_mix(remote) == local

    def test_remote_scan_merges_sorted_across_nodes(self):
        tier, remote = remote_engine(n_nodes=3)
        keys = [f"k{i:02d}" for i in range(30)]
        for key in reversed(keys):
            remote.put(key, key)
        assert [k for k, _ in remote.scan("", "￿")] == keys
        # The keys genuinely spread over multiple nodes.
        populated = [n for n in tier.nodes.values() if n.engine.keys()]
        assert len(populated) > 1

    def test_tier_routing_is_stable_and_total(self):
        tier, _ = remote_engine()
        for key in (f"entity/{i}" for i in range(50)):
            assert tier.node_of(key) is tier.node_of(key)

    def test_rpcs_pay_simulated_latency(self):
        tier, remote = remote_engine()
        before = tier.clock.now
        remote.put("k", "v")
        remote.get("k")
        assert tier.clock.now > before
        assert remote.rpcs == 2
        assert tier.metrics.counter("storage.rpc.calls").value == 2.0

    def test_per_node_op_counters(self):
        tier, remote = remote_engine()
        for i in range(10):
            remote.put(f"k{i}", i)
        assert sum(node.ops for node in tier.nodes.values()) == 10

    def test_mounts_get_unique_endpoints(self):
        tier = StorageTier(n_nodes=1)
        first = tier.mount("shard-0")
        second = tier.mount("shard-0")  # a re-mount after a crash
        assert first.client != second.client
        first.put("k", 1)
        assert second.get("k") == 1  # same tier state behind both mounts


class TestCoalescedBulkOps:
    def test_mget_mput_round_trip(self):
        _, remote = remote_engine(n_nodes=3)
        remote.mput([(f"k{i:02d}", {"v": i}) for i in range(20)])
        got = remote.mget([f"k{i:02d}" for i in range(20)] + ["missing"])
        assert got == {f"k{i:02d}": {"v": i} for i in range(20)}

    def test_bulk_rpc_count_is_o_nodes_not_o_keys(self):
        """The coalescing contract: a tick's worth of keys costs one
        round trip per *storage node*, regardless of how many keys."""
        tier, remote = remote_engine(n_nodes=3)
        items = [(f"k{i:03d}", i) for i in range(200)]
        remote.mput(items)
        assert remote.rpcs <= len(tier.nodes)  # 200 puts, <= 3 RPCs
        rpcs_before = remote.rpcs
        remote.mget([key for key, _ in items])
        assert remote.rpcs - rpcs_before <= len(tier.nodes)
        assert tier.metrics.counter("storage.rpc.calls").value == remote.rpcs

    @settings(max_examples=25, deadline=None)
    @given(
        items=st.lists(
            st.tuples(
                st.sampled_from([f"k{i}" for i in range(8)]),
                st.integers(0, 99).map(lambda v: {"v": v}),
            ),
            min_size=1, max_size=20,
        ),
        seed=st.integers(0, 50),
    )
    def test_bulk_ops_match_per_key_state(self, items, seed):
        """A record is a batch of one: ``put(k, v)`` and ``mput([(k, v)])``
        leave identical reads, RPC count, fault-injector draw sequence
        and simulated clock on every engine, each write taking exactly
        one fault decision before any state changes — and one coalesced
        ``mput`` of all the items reads back like the per-key writes,
        each request sized as the WAL record it leaves."""
        for build in (
            _local_under_faults, _remote_under_faults, _tiered_under_faults
        ):
            assert write_one_by_one(
                build, seed, items, lambda e, k, v: e.put(k, v)
            ) == write_one_by_one(
                build, seed, items, lambda e, k, v: e.mput([(k, v)])
            )
        _, coalesced = remote_engine(n_nodes=2)
        _, per_key = remote_engine(n_nodes=2)
        coalesced.mput(items)
        for key, value in items:
            per_key.put(key, value)
        # The request on the wire is the record in the log ...
        sent = {}
        for name, engine in (("coalesced", coalesced), ("per_key", per_key)):
            sent[name] = engine.metrics.counter("storage.rpc.bytes").value
            assert sent[name] == sum(
                len(entry.payload)
                for node in engine.tier.nodes.values()
                for entry in node.engine.kv.wal.replay()
            )
        # ... so an item that shares a record trades that record's 24
        # bytes of framing for one comma.
        groups = len(coalesced.tier.group_by_node(key for key, _ in items))
        assert coalesced.rpcs == groups and per_key.rpcs == len(items)
        assert sent["per_key"] - sent["coalesced"] == 23 * (len(items) - groups)
        assert coalesced.scan("", "\uffff") == per_key.scan("", "\uffff")

    def test_local_engine_bulk_defaults(self):
        engine = LocalStorageEngine()
        engine.mput([("a", 1), ("b", 2)])
        assert engine.mget(["a", "b", "zzz"]) == {"a": 1, "b": 2}

    def test_dropped_batch_times_out_as_a_unit(self):
        """One drop decision burns one rpc_timeout for the whole batch —
        not one per key — and the retried batch lands atomically."""
        tier, engine = faulted_engine(
            [FaultRule(site="storage.rpc", kind="drop", rate=1.0, end=0.01)],
            rpc_timeout_s=0.05,
        )
        retry = RetryPolicy(
            max_attempts=4, base_delay_s=0.02, seed=1, clock=tier.clock
        )
        items = [(f"k{i}", i) for i in range(40)]
        before = tier.clock.now
        retry.call(lambda: engine.mput(items))
        elapsed = tier.clock.now - before
        # One timeout (0.05s) + backoff, then the fault window is past:
        # far below the 40 x 0.05s a per-key drop storm would burn.
        assert elapsed < 40 * 0.05
        assert engine.mget([k for k, _ in items]) == dict(items)

    def test_group_by_node_preserves_first_appearance_order(self):
        tier, _ = remote_engine(n_nodes=3)
        keys = [f"k{i:02d}" for i in range(12)]
        grouped = tier.group_by_node(keys)
        regrouped = [key for node_keys in grouped.values() for key in node_keys]
        assert sorted(regrouped) == sorted(keys)
        for node, node_keys in grouped.items():
            for key in node_keys:
                assert tier.node_of(key) is node

    def test_owner_cache_survives_churn(self):
        tier, _ = remote_engine(n_nodes=3)
        first = {f"k{i}": tier.node_of(f"k{i}").name for i in range(50)}
        second = {f"k{i}": tier.node_of(f"k{i}").name for i in range(50)}
        assert first == second


class TestTierValidation:
    def test_rejects_empty_tier(self):
        with pytest.raises(ConfigurationError):
            StorageTier(n_nodes=0)

    def test_rejects_duplicate_node_names(self):
        with pytest.raises(ConfigurationError):
            StorageTier(node_names=["a", "a"])

    def test_rejects_bad_rpc_timeout(self):
        tier = StorageTier(n_nodes=1)
        with pytest.raises(ConfigurationError):
            tier.mount("x", rpc_timeout_s=0.0)


class TestFaultSites:
    def test_injected_crash_raises(self):
        _, engine = faulted_engine(
            [FaultRule(site="storage.rpc", kind="crash", rate=1.0)]
        )
        with pytest.raises(FaultInjectedError):
            engine.put("k", 1)

    def test_injected_drop_burns_the_timeout_budget(self):
        tier, engine = faulted_engine(
            [FaultRule(site="storage.rpc", kind="drop", rate=1.0)],
            rpc_timeout_s=0.25,
        )
        before = tier.clock.now
        with pytest.raises(FaultInjectedError, match="timed out"):
            engine.get("k")
        assert tier.clock.now - before == pytest.approx(0.25)
        assert tier.metrics.counter("storage.rpc.timeouts").value == 1.0

    def test_injected_delay_slows_but_succeeds(self):
        tier, slow = faulted_engine(
            [FaultRule(site="storage.rpc", kind="delay", rate=1.0,
                       delay_s=0.1)]
        )
        slow.put("k", 1)
        delayed = tier.clock.now
        plain_tier, plain = remote_engine()
        plain.put("k", 1)
        assert delayed > plain_tier.clock.now
        assert slow.get("k") == 1

    def test_partition_severs_the_mount(self):
        tier, engine = remote_engine()
        engine.put("k", 1)
        node = tier.node_of("k")
        tier.net.partition(engine.client, node.name)
        with pytest.raises(PartitionedError):
            engine.get("k")
        tier.net.heal(engine.client, node.name)
        assert engine.get("k") == 1

    def test_fault_sequence_is_deterministic(self):
        def faulted_outcomes():
            _, engine = faulted_engine(
                [FaultRule(site="storage.rpc", kind="crash", rate=0.3)],
                seed=42,
            )
            outcomes = []
            for i in range(30):
                try:
                    engine.put(f"k{i}", i)
                    outcomes.append(True)
                except FaultInjectedError:
                    outcomes.append(False)
            return outcomes

        first = faulted_outcomes()
        assert first == faulted_outcomes()
        assert True in first and False in first


class TestPlatformOnEngines:
    def make_records(self):
        return [
            DataRecord(
                key=f"e/{i}", payload={"v": i}, kind=DataKind.STRUCTURED,
                space=Space.VIRTUAL, source="test", timestamp=float(i),
            )
            for i in range(12)
        ]

    def test_explicit_local_engine_is_the_default(self):
        """Injecting LocalStorageEngine() is indistinguishable from the
        implicit default — the refactor moved construction, not behavior."""
        workload = MarketplaceWorkload(
            FlashSaleConfig(n_products=10, initial_stock=5), seed=2
        )
        requests = workload.requests_between(0.0, 3.0)

        def outcomes(platform):
            platform.load_catalog(workload.catalog_records())
            return [
                (o.request.shopper_id, o.success, o.reason)
                for o in platform.process_purchases(requests)
            ]

        default = MetaversePlatform(n_executors=2)
        explicit = MetaversePlatform(
            n_executors=2, engine=LocalStorageEngine()
        )
        assert outcomes(default) == outcomes(explicit)
        assert default.kv is not None and explicit.kv is not None

    def test_platform_reads_and_writes_through_remote_engine(self):
        _, engine = remote_engine()
        platform = MetaversePlatform(n_executors=2, engine=engine)
        assert platform.kv is None  # no in-process store to expose
        for record in self.make_records():
            platform.write_record(record)
        assert platform.read("e/3")["payload"] == {"v": 3}
        assert [k for k, _ in platform.scan("e/", "e/￿")] == sorted(
            f"e/{i}" for i in range(12)
        )

    def test_purchases_hydrate_after_cache_loss(self):
        """Stateless compute: a platform that loses its MVCC cache
        re-hydrates committed product state from the shared tier."""
        tier, engine = remote_engine()
        workload = MarketplaceWorkload(
            FlashSaleConfig(n_products=6, initial_stock=4), seed=2
        )
        platform = MetaversePlatform(n_executors=2, engine=engine)
        platform.load_catalog(workload.catalog_records())
        requests = workload.requests_between(0.0, 2.0)
        half = len(requests) // 2
        sold = sum(
            o.success for o in platform.process_purchases(requests[:half])
        )
        # The compute node "restarts": new platform, fresh mount, no state.
        restarted = MetaversePlatform(
            n_executors=2, engine=tier.mount("restart")
        )
        sold += sum(
            o.success for o in restarted.process_purchases(requests[half:])
        )
        remaining = sum(
            restarted.get_stock(workload.product_id(i)) for i in range(6)
        )
        assert sold + remaining == 6 * 4  # exactly-once across the restart
        assert restarted.metrics.counter("platform.products_hydrated").value > 0

    def test_get_stock_hydrates_unknown_products(self):
        tier, engine = remote_engine()
        engine.put_product("ghost", {"stock": 9})
        platform = MetaversePlatform(n_executors=2, engine=engine)
        assert platform.get_stock("ghost") == 9

    def test_get_stock_still_raises_for_truly_missing_products(self):
        _, engine = remote_engine()
        platform = MetaversePlatform(n_executors=2, engine=engine)
        with pytest.raises(KeyNotFoundError):
            platform.get_stock("nowhere")

    def test_reset_caches_forces_engine_reload(self):
        tier, engine = remote_engine()
        platform = MetaversePlatform(n_executors=2, engine=engine)
        for record in self.make_records():
            platform.write_record(record)
        rpcs_before = engine.rpcs
        platform.read("e/0")  # warm the pool: no new storage read needed
        platform.read("e/0")
        platform.reset_caches()
        platform.read("e/0")
        assert engine.rpcs > rpcs_before  # cache loss went back to the tier

    def test_failed_write_through_is_parked_and_reflushed(self):
        clock = SimulationClock()
        tier = StorageTier(n_nodes=1, clock=clock)
        injector = FaultInjector(
            FaultPlan(
                rules=(
                    FaultRule(site="storage.rpc", kind="crash", rate=1.0,
                              end=0.5),
                ),
                seed=9,
            ),
            clock=clock,
        )
        engine = tier.mount("test", faults=injector)
        platform = MetaversePlatform(
            n_executors=2, engine=engine, faults=injector
        )
        platform.import_product("p", {"stock": 3})  # every RPC crashes: parked
        assert platform.metrics.counter(
            "platform.product_persist_deferred"
        ).value > 0
        clock.advance(1.0)  # fault window closes
        platform.import_product("q", {"stock": 1})  # re-flushes the backlog
        assert engine.get_product("p") == {"stock": 3}
        assert engine.get_product("q") == {"stock": 1}


# -- response sizing: once per value, never a different number -----------------

sizing_keys = st.sampled_from(
    ["a", "b", 'q"uote', "back\\slash", "é", "日本/1", "tab\there", "z"]
)
# 1 == 1.0 == True but they encode to 1, 3 and 4 bytes: an equal value is
# not the same response, which is why the memo goes by identity.
sizing_scalars = st.one_of(
    st.sampled_from([0, 0.0, False, 1, 1.0, True, None, 'say "hi"', "naïve"]),
    st.integers(-10**6, 10**6),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.text(max_size=6),
)
sizing_values = st.recursive(
    sizing_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=6,
)


class ResponseSizingMachine(RuleBasedStateMachine):
    """Whatever a node served, stored, dropped, demoted or promoted
    before, the size it reports for a read is ``payload_size(result)``,
    and it remembers nothing but keys it served and did not delete."""

    tiered = False

    def __init__(self):
        super().__init__()
        self.clock = SimulationClock()
        policy = LifecyclePolicy(hot_capacity=2, hot_ttl_s=1.0, warm_ttl_s=2.0)
        self.node = StorageNode(
            "n",
            engine_factory=(
                lambda metrics, tracer: TieredStorageEngine(
                    policy=policy, clock=self.clock,
                    metrics=metrics, tracer=tracer,
                )
            ) if self.tiered else None,
        )
        self.served: set[str] = set()

    def read(self, op, *args):
        result = self.node.execute(op, *args)
        assert self.node.response_size(op, args, result) == payload_size(result)
        return result

    @rule(items=st.lists(st.tuples(sizing_keys, sizing_values), max_size=5))
    def mput(self, items):
        self.node.execute("mput", items)

    @rule(
        key=sizing_keys,
        values=st.sampled_from(
            [(1, 1.0), (0.0, False), ({"a": 1}, {"a": True}), ([1.0], [1], [1])]
        ),
    )
    def overwrite_with_equal_values_of_other_sizes(self, key, values):
        """``==`` cannot stand in for ``is``: each of these compares equal
        to the one before it and encodes to another length (or is a
        distinct object of the same one)."""
        for value in values:
            self.node.execute("mput", [(key, copy.deepcopy(value))])
            self.read("get", key)
            self.read("scan", key, key)
        self.served.add(key)

    @rule(key=sizing_keys)
    def delete(self, key):
        self.node.execute("delete", key)
        self.served.discard(key)

    @rule(dt=st.sampled_from([0.5, 1.5, 3.0]))
    def age_and_maintain(self, dt):
        """On the tiered engine: hot eviction, then demotion to cold —
        a later read decodes (scan) or promotes (get) a fresh object."""
        self.clock.advance(dt)
        self.node.engine.maintain(self.clock.now)

    @rule(key=sizing_keys)
    def get(self, key):
        try:
            self.read("get", key)
        except KeyNotFoundError:
            return
        self.served.add(key)

    @rule(keys=st.lists(sizing_keys, max_size=4))
    def mget(self, keys):
        self.served.update(self.read("mget", keys))

    @rule(lo=st.sampled_from(["", "a", "b"]), hi=st.sampled_from(["a", "z", "￿"]))
    def scan(self, lo, hi):
        self.served.update(key for key, _ in self.read("scan", lo, hi))

    @invariant()
    def remembers_only_what_it_served_and_still_holds(self):
        assert set(self.node._sized) <= self.served


class TieredResponseSizingMachine(ResponseSizingMachine):
    tiered = True


TestResponseSizing = ResponseSizingMachine.TestCase
TestTieredResponseSizing = TieredResponseSizingMachine.TestCase


class TestResponseSizedOncePerValue:
    ITEMS = [(f"e/{i:03d}", {"payload": {"x": i * 0.5, "tag": "é" * (i % 3)}})
             for i in range(60)]

    def count_dumps(self, monkeypatch):
        calls = []
        real = json.dumps

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(json, "dumps", counting)
        return calls

    def test_rescan_of_an_unchanged_tier_serialises_nothing(self, monkeypatch):
        tier, engine = remote_engine(n_nodes=3)
        engine.mput(self.ITEMS)
        first = engine.scan("", "￿")
        calls = self.count_dumps(monkeypatch)
        before = tier.clock.now
        assert engine.scan("", "￿") == first
        assert calls == []  # every row was sized when it was first served
        assert tier.clock.now > before  # ... and still paid for on the clock
        # One overwrite brings one new object: that row alone is re-sized.
        monkeypatch.undo()
        engine.put("e/007", {"payload": {"x": 1}})
        calls = self.count_dumps(monkeypatch)
        engine.scan("", "￿")
        assert 1 <= len(calls) <= 2  # the value, and at most its key again

    def test_clock_equals_the_payload_size_oracle(self, monkeypatch):
        def drive(engine):
            engine.mput(self.ITEMS)
            engine.scan("", "￿")
            engine.get("e/003")
            engine.mget(["e/001", "e/002", "missing", "e/059"])
            engine.scan("e/01", "e/02")
            engine.scan("x", "y")  # empty on every node
            engine.put("e/003", {"payload": {"x": 1.0}})
            engine.delete("e/004")
            engine.put("e/004", {"payload": {"x": 1}})
            engine.get("e/003")
            engine.mget([])
            engine.scan("", "￿")
            engine.put_product("p", {"stock": 3})
            engine.products()

        tier, engine = remote_engine(n_nodes=3)
        drive(engine)
        oracle_tier, oracle_engine = remote_engine(n_nodes=3)
        monkeypatch.setattr(
            StorageNode, "response_size",
            lambda self, op, args, result: payload_size(result),
        )
        drive(oracle_engine)
        assert tier.clock.now == oracle_tier.clock.now
        latency = "storage.rpc.latency_s"
        assert (
            tier.metrics.histogram(latency).total
            == oracle_tier.metrics.histogram(latency).total
        )

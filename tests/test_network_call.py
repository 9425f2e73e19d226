"""A synchronous round trip is one ``SimulatedNetwork.call``.

The storage RPC (``RemoteStorageEngine``) and geo's WAN round trip
(``GeoDeployment``) each used to price their own call: a reachability
check, a fault decision, two transfer delays on the clock and counters
under their own prefix.  Both now hand ``SimulatedNetwork.call`` their
facts — a :class:`~repro.net.simnet.CallSite` — and it runs the round
trip.  The two replaced paths live on below as the oracles, held equal
under seeded fault plans, partitions, down regions and link latencies.
Each oracle carries the rule the one call chose, marked where it
differs from the code it was copied from: the partition is checked
before the fault decision, and every failure but an injected crash
burns the caller's timeout.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DataKind, DataRecord, Space
from repro.core.clock import EventScheduler, SimulationClock
from repro.core.errors import FaultInjectedError, PartitionedError
from repro.geo import LINEARIZABLE, GeoConfig, GeoDeployment
from repro.geo.deployment import RPC_BYTES, RPC_TIMEOUT_S
from repro.net import Link, SimulatedNetwork
from repro.obs.tracing import Tracer
from repro.resilience import FaultInjector, FaultPlan, FaultRule
from repro.resilience.faults import FAULT_KINDS
from repro.storage.engine import WRITE_OPS, RemoteStorageEngine, StorageTier

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
REGIONS = ("us-east", "eu-west", "ap-south")
N_NODES = 3
KEYS = [f"k/{i}" for i in range(6)]


def logged(faults):
    """Record every decision ``faults`` makes: site, target, kinds and
    the verdict."""
    log = []
    decide = faults.decide

    def recording(site, target=None, kinds=FAULT_KINDS):
        decision = decide(site, target=target, kinds=kinds)
        log.append((site, target, kinds, decision.kind, decision.delay_s))
        return decision

    faults.decide = recording
    return log


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:
        return "raised", type(exc)


def observed(metrics, faults, log):
    """Everything a caller or an operator could see of a run."""
    return {
        "snapshot": metrics.snapshot(),
        "samples": {
            name: list(h.samples) for name, h in metrics.all_histograms().items()
        },
        "decisions": log,
        "injected": faults.injected,
        "rng": faults._rng.getstate(),
    }


def record(key, payload):
    return DataRecord(
        key=key, payload=payload, space=Space.VIRTUAL,
        kind=DataKind.STRUCTURED, source="test",
    )


# -- the replaced storage path -----------------------------------------------------


class ParentMount(RemoteStorageEngine):
    """``_reach``, ``_transact`` and the scoped ``scan`` as they stood
    before the one call, with their own bound counters."""

    def __init__(self, tier, client, faults, rpc_timeout_s):
        super().__init__(tier, client=client, faults=faults, rpc_timeout_s=rpc_timeout_s)
        self.rpc_timeout_s = rpc_timeout_s
        self._calls, self._bytes = map(
            self.metrics.counter, ("storage.rpc.calls", "storage.rpc.bytes"))
        self._latency = self.metrics.histogram("storage.rpc.latency_s")

    def _rpc(self, node, op, request_size, *args):
        scans = self.tier._scans
        if scans and op in WRITE_OPS:
            scans.clear()
        return self._transact(node, op, request_size, *args)

    def _reach(self, node):
        if self.tier.net.is_partitioned(self.client, node.name):
            # The chosen rule, not the copied code: a partitioned call
            # burns the mount's timeout, as a dropped one does.
            self.tier.clock.advance(self.rpc_timeout_s)
            self.metrics.counter("storage.rpc.partitioned").inc()
            raise PartitionedError(
                f"{self.client} -> {node.name} is partitioned"
            )

    def _transact(self, node, op, request_size, *args):
        clock = self.tier.clock
        net = self.tier.net
        self._reach(node)
        extra_delay = 0.0
        if self.faults is not None:
            decision = self.faults.decide(
                "storage.rpc",
                target=f"{self.client}->{node.name}",
                kinds=("crash", "delay", "drop"),
            )
            if decision.kind == "crash":
                self.metrics.counter("storage.rpc.faults").inc()
                raise FaultInjectedError(
                    f"injected crash at storage.rpc ({op} -> {node.name})"
                )
            if decision.kind == "drop":
                clock.advance(self.rpc_timeout_s)
                self.metrics.counter("storage.rpc.faults").inc()
                self.metrics.counter("storage.rpc.timeouts").inc()
                raise FaultInjectedError(
                    f"storage.rpc timed out after {self.rpc_timeout_s}s "
                    f"({op} -> {node.name}: request dropped)"
                )
            if decision.kind == "delay":
                extra_delay = decision.delay_s
        link = net.link_for(self.client, node.name)
        started = clock.now
        with self.tracer.span("storage.rpc", op=op, node=node.name):
            clock.advance(link.transfer_delay(request_size) + extra_delay)
            result = node.execute(op, *args)
            clock.advance(link.transfer_delay(
                max(1, node.response_size(op, args, result))
            ))
        self.rpcs += 1
        self._calls.inc()
        self._bytes.inc(request_size)
        self._latency.observe(clock.now - started)
        return result

    def scan(self, lo, hi):
        scans = self.tier._scans
        rows = None if scans is None else scans.get((lo, hi))
        if rows is not None:
            for node in self.tier.nodes.values():
                self._reach(node)
            return list(rows)
        merged = []
        for part in self._fan_out("scan", len(lo) + len(hi), lo, hi):
            merged.extend(part)
        merged.sort(key=lambda row: row[0])
        if scans is not None:
            scans[(lo, hi)] = merged
            return list(merged)
        return merged


def storage_twin(mount, rules, seed, timeout, links):
    """A tier, its two mounts of class ``mount`` under one seeded
    injector, and the injector's decision log."""
    clock = SimulationClock()
    tier = StorageTier(n_nodes=N_NODES, clock=clock, tracer=Tracer(time_fn=clock))
    faults = FaultInjector(FaultPlan(rules=tuple(rules), seed=seed), clock=clock)
    log = logged(faults)
    mounts = [
        mount(tier, f"compute/m{i}@{i + 1}", faults, timeout) for i in range(2)
    ]
    for (m, n), latency in links:
        tier.net.set_link(mounts[m].client, f"storage-{n}", Link(latency_s=latency))
    return tier, mounts, faults, log


def storage_step(tier, mounts, op):
    kind, *rest = op
    if kind == "put":
        m, k, size = rest
        return outcome(mounts[m].put, KEYS[k], "x" * size)
    if kind == "get":
        return outcome(mounts[rest[0]].get, KEYS[rest[1]])
    if kind == "mget":
        return outcome(mounts[rest[0]].mget, [KEYS[k] for k in rest[1]])
    if kind == "delete":
        return outcome(mounts[rest[0]].delete, KEYS[rest[1]])
    if kind == "scan":
        return outcome(mounts[rest[0]].scan, "k/", "k/~")
    if kind == "scoped":
        with tier.read_scope():
            return [outcome(mount.scan, "k/", "k/~") for mount in mounts]
    if kind == "cut":
        return tier.net.partition(mounts[rest[0]].client, f"storage-{rest[1]}")
    if kind == "heal":
        return tier.net.heal(mounts[rest[0]].client, f"storage-{rest[1]}")
    return tier.clock.advance(rest[0])


mount_index = st.integers(0, 1)
key_index = st.integers(0, len(KEYS) - 1)
node_index = st.integers(0, N_NODES - 1)
waits = st.sampled_from([0.01, 0.1, 0.5])
storage_ops = st.one_of(
    st.tuples(st.just("put"), mount_index, key_index, st.integers(0, 3000)),
    st.tuples(st.just("get"), mount_index, key_index),
    st.tuples(st.just("mget"), mount_index, st.lists(key_index, max_size=4)),
    st.tuples(st.just("delete"), mount_index, key_index),
    st.tuples(st.just("scan"), mount_index),
    st.tuples(st.just("scoped")),
    st.tuples(st.just("cut"), mount_index, node_index),
    st.tuples(st.just("heal"), mount_index, node_index),
    st.tuples(st.just("wait"), waits),
)


def rules(site, kinds):
    return st.lists(
        st.builds(
            FaultRule,
            site=st.just(site),
            kind=st.sampled_from(kinds),
            rate=st.sampled_from([0.2, 0.5, 1.0]),
            delay_s=st.sampled_from([0.0, 0.004, 0.2]),
            start=st.sampled_from([0.0, 0.3]),
            end=st.sampled_from([0.6, float("inf")]),
        ),
        max_size=3,
    )


latencies = st.sampled_from([0.0, 0.0005, 0.003, 0.04])


class TestTheStorageCallMatchesItsOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        plan=rules("storage.rpc", ("crash", "drop", "delay", "partition")),
        seed=st.integers(0, 99),
        timeout=st.sampled_from([0.01, 0.05, 0.25]),
        links=st.lists(st.tuples(st.tuples(mount_index, node_index), latencies),
                       max_size=3),
        script=st.lists(storage_ops, min_size=1, max_size=25),
    )
    def test_one_call_equals_reach_and_transact(self, plan, seed, timeout, links, script):
        runs = []
        for mount in (RemoteStorageEngine, ParentMount):
            tier, mounts, faults, log = storage_twin(mount, plan, seed, timeout, links)
            steps = [(storage_step(tier, mounts, op), tier.clock.now) for op in script]
            runs.append((
                steps,
                [mount.rpcs for mount in mounts],
                [(span.name, span.attributes, span.start, span.end)
                 for span in tier.tracer.spans_named("storage.rpc")],
                observed(tier.metrics, faults, log),
            ))
        assert runs[0] == runs[1]


# -- the replaced geo path ---------------------------------------------------------


class ParentGeo(GeoDeployment):
    """``_wan_rpc`` as it stood before the one call.  The WAN's
    endpoints are the region names now, so the copy names them so."""

    def _round_trip(self, src, dst, op):
        self._wan_rpc(src, dst)

    def _wan_rpc(self, src, dst):
        if src == dst:
            return 0.0
        if src in self._down or dst in self._down:
            self.clock.advance(RPC_TIMEOUT_S)
            self.metrics.counter("geo.rpc.timeouts").inc()
            down = dst if dst in self._down else src
            raise PartitionedError(f"region {down!r} is down")
        # The chosen rule, not the copied code: the partition is checked
        # before the fault decision, so a partitioned call draws none.
        if self.wan.is_partitioned(src, dst):
            self.clock.advance(RPC_TIMEOUT_S)
            self.metrics.counter("geo.rpc.timeouts").inc()
            raise PartitionedError(f"{src} -> {dst} is partitioned")
        extra = 0.0
        decision = self.faults.decide(
            "geo.wan", target=f"{src}->{dst}", kinds=("partition", "drop", "delay")
        )
        if decision.kind == "partition":
            self.clock.advance(RPC_TIMEOUT_S)
            self.metrics.counter("geo.rpc.timeouts").inc()
            raise PartitionedError(f"injected WAN partition {src} -> {dst}")
        if decision.kind == "drop":
            self.clock.advance(RPC_TIMEOUT_S)
            self.metrics.counter("geo.rpc.timeouts").inc()
            raise FaultInjectedError(f"injected WAN drop {src} -> {dst}")
        if decision.kind == "delay":
            extra = decision.delay_s
        there = self.wan.link_for(src, dst)
        back = self.wan.link_for(dst, src)
        rtt = (
            there.transfer_delay(RPC_BYTES)
            + back.transfer_delay(RPC_BYTES)
            + extra
        )
        self.clock.advance(rtt)
        self.metrics.counter("geo.rpc.round_trips").inc()
        self.metrics.histogram("geo.rpc.rtt_s").observe(rtt)
        return rtt


def geo_step(geo, op):
    kind, *rest = op
    if kind == "trip":
        return outcome(geo._round_trip, REGIONS[rest[0]], REGIONS[rest[1]], "trip")
    if kind == "read":
        return outcome(geo.read, KEYS[rest[1]], LINEARIZABLE, REGIONS[rest[0]])
    if kind == "kill":
        return outcome(geo.kill_region, REGIONS[rest[0]])
    if kind == "restart":
        return outcome(geo.restart_region, REGIONS[rest[0]])
    if kind == "split":
        alone = REGIONS[rest[0]]
        return geo.partition_regions([[alone], [r for r in REGIONS if r != alone]])
    if kind == "heal":
        return geo.heal_wan()
    return geo.clock.advance(rest[0])


region_index = st.integers(0, len(REGIONS) - 1)
geo_ops = st.one_of(
    st.tuples(st.just("trip"), region_index, region_index),
    st.tuples(st.just("read"), region_index, key_index),
    st.tuples(st.just("kill"), region_index),
    st.tuples(st.just("restart"), region_index),
    st.tuples(st.just("split"), region_index),
    st.tuples(st.just("heal")),
    st.tuples(st.just("wait"), waits),
)
pairs = [(a, b) for i, a in enumerate(REGIONS) for b in REGIONS[i + 1:]]
wan_latencies = st.sampled_from([0.01, 0.04, 0.09])


class TestTheWanCallMatchesItsOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        plan=rules("geo.wan", ("partition", "drop", "delay", "crash")),
        seed=st.integers(0, 99),
        wan=st.dictionaries(st.sampled_from(pairs), wan_latencies, max_size=3),
        oneway=st.lists(st.tuples(region_index, region_index, wan_latencies), max_size=2),
        script=st.lists(geo_ops, min_size=1, max_size=20),
    )
    def test_one_call_equals_wan_rpc(self, plan, seed, wan, oneway, script):
        runs = []
        for deployment in (GeoDeployment, ParentGeo):
            faults = FaultInjector(FaultPlan(rules=tuple(plan), seed=seed))
            log = logged(faults)
            geo = deployment(GeoConfig(regions=REGIONS, wan_latencies_s=wan), faults=faults)
            # One-way links tell the request leg from the reply leg.
            for a, b, latency in oneway:
                geo.wan.set_link(REGIONS[a], REGIONS[b], Link(latency_s=latency),
                                 symmetric=False)
            steps = [(geo_step(geo, op), geo.clock.now) for op in script]
            runs.append((steps, observed(geo.metrics, faults, log)))
        assert runs[0] == runs[1]


# -- the chosen rule, pinned on both callers ---------------------------------------


class TestTheChosenRule:
    def test_a_partitioned_mount_get_burns_its_timeout(self):
        tier = StorageTier(n_nodes=2)
        engine = tier.mount("a", rpc_timeout_s=0.25)
        engine.put("k", 1)
        tier.net.partition(engine.client, tier.node_of("k").name)
        before = tier.clock.now
        with pytest.raises(PartitionedError):
            engine.get("k")
        assert tier.clock.now == before + 0.25
        assert tier.metrics.counter("storage.rpc.partitioned").value == 1

    def test_a_partitioned_geo_call_draws_no_wan_decision(self):
        faults = FaultInjector(FaultPlan(rules=(
            FaultRule(site="geo.wan", kind="drop", rate=1.0),
        )))
        log = logged(faults)
        geo = GeoDeployment(GeoConfig(regions=REGIONS), faults=faults)
        client, home = REGIONS[0], REGIONS[1]
        keys = [k for k in (f"e/{i}" for i in range(200)) if geo.home_of(k) == home][:3]
        geo.partition_regions([[client], [home, REGIONS[2]]])
        before = geo.clock.now
        with pytest.raises(PartitionedError):
            geo.ingest_many([record(key, {"v": 1}) for key in keys], region=client)
        assert [entry for entry in log if entry[0] == "geo.wan"] == []
        assert geo.clock.now == before + RPC_TIMEOUT_S
        assert geo.metrics.counter("geo.rpc.timeouts").value == 1

    def test_a_scan_served_from_the_read_scope_asks_the_network(self):
        tier = StorageTier(n_nodes=2)
        first, second = tier.mount("a"), tier.mount("b", rpc_timeout_s=0.25)
        first.put("k/1", 1)
        tier.net.partition(second.client, "storage-1")
        with tier.read_scope():
            assert first.scan("k/", "k/~") == [("k/1", 1)]
            before = tier.clock.now
            with pytest.raises(PartitionedError):
                second.scan("k/", "k/~")
            assert tier.clock.now == before + 0.25
        assert tier.metrics.counter("storage.rpc.partitioned").value == 1
        engine = (SRC / "storage" / "engine.py").read_text()
        assert "is_partitioned" not in engine
        assert "raise PartitionedError" not in engine


# -- one span, the callers' counters, and no message -------------------------------


def traced_geo(faults=None):
    faults = faults if faults is not None else FaultInjector(FaultPlan())
    tracer = Tracer(time_fn=faults.clock)
    return GeoDeployment(GeoConfig(regions=REGIONS), faults=faults, tracer=tracer), tracer


class TestOneSpanAndTheCallersCounters:
    def test_a_storage_round_trip_keeps_its_span(self):
        clock = SimulationClock()
        tracer = Tracer(time_fn=clock)
        tier = StorageTier(n_nodes=2, clock=clock, tracer=tracer)
        engine = tier.mount("a")
        engine.put("k", 1)
        assert engine.get("k") == 1
        node = tier.node_of("k").name
        spans = tracer.spans_named("storage.rpc")
        assert [span.attributes for span in spans] == [
            {"op": "mput", "node": node}, {"op": "get", "node": node},
        ]
        assert tier.metrics.histogram("storage.rpc.latency_s").samples == [
            span.end - span.start for span in spans
        ]
        assert tier.metrics.counter("net.messages_sent").value == 0

    def test_a_wan_round_trip_is_a_geo_wan_span(self):
        geo, tracer = traced_geo()
        client, home = REGIONS[0], REGIONS[2]
        geo._round_trip(client, home, "read")
        geo._round_trip(home, home, "read")
        (span,) = tracer.spans_named("geo.wan")
        assert span.attributes == {"op": "read", "node": home}
        (rtt,) = geo.metrics.histogram("geo.rpc.rtt_s").samples
        assert span.end == pytest.approx(span.start + rtt)
        assert geo.metrics.counter("net.messages_sent").value == 0

    def test_a_send_opens_no_span(self):
        clock = SimulationClock()
        tracer = Tracer(time_fn=clock)
        net = SimulatedNetwork(EventScheduler(clock), tracer=tracer)
        net.add_node("a")
        net.add_node("b")
        net.send("a", "b", "t", None)
        net.scheduler.run_until(1.0)
        assert tracer.roots() == []

    def test_geo_gains_no_call_counter(self):
        geo, _ = traced_geo(FaultInjector(FaultPlan(rules=(
            FaultRule(site="geo.wan", kind="drop", rate=1.0, end=0.1),
        ))))
        a, b, c = REGIONS
        for _ in range(3):
            try:
                geo._round_trip(a, b, "read")
            except FaultInjectedError:
                pass
        geo.partition_regions([[a], [b, c]])
        with pytest.raises(PartitionedError):
            geo._round_trip(a, c, "read")
        geo.heal_wan()
        geo.kill_region(c)
        with pytest.raises(PartitionedError):
            geo._round_trip(a, c, "read")
        names = {name for name in geo.metrics.snapshot() if name.startswith("geo.rpc.")}
        assert names == {
            "geo.rpc.round_trips", "geo.rpc.timeouts",
            "geo.rpc.rtt_s.count", "geo.rpc.rtt_s.mean", "geo.rpc.rtt_s.p99",
        }
        assert geo.metrics.counter("geo.rpc.timeouts").value == 4
        assert geo.metrics.counter("geo.rpc.round_trips").value == 1

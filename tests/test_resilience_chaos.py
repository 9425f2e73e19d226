"""Chaos tests: the platform's end-to-end invariants under seeded fault plans.

The acceptance bar for the resilience subsystem (experiment E23): with a
5% uniform fault plan active, the flash-sale pipeline still commits every
accepted purchase exactly once — no double-spend, no lost commit — while
lossy paths (pub/sub events, sensor ingest) shed work instead of failing
the pipeline.
"""

import pytest

from repro.core import EventScheduler, FaultInjectedError, PartitionedError, Space
from repro.ledger import LedgerDB
from repro.net import Publication, SimulatedNetwork, Subscription
from repro.platform import DeviceGateway, MetaversePlatform
from repro.resilience import FaultInjector, FaultPlan, FaultRule
from repro.storage import KVStore, WriteAheadLog
from repro.verify import exactly_once_violations, units_sold
from repro.workloads import FlashSaleConfig, MarketplaceWorkload

pytestmark = pytest.mark.chaos


def run_chaotic_sale(seed=1, fault_rate=0.05, fault_seed=7):
    """The flash-sale integration scenario with a uniform fault plan active."""
    config = FlashSaleConfig(
        n_products=20, n_shoppers=100, initial_stock=10,
        burst_rate=200.0, burst_start=0.0, burst_end=5.0, zipf_skew=1.0,
    )
    workload = MarketplaceWorkload(config, seed=seed)
    injector = FaultInjector(FaultPlan.uniform(fault_rate, seed=fault_seed))
    platform = MetaversePlatform(n_executors=4, faults=injector)
    platform.load_catalog(workload.catalog_records())
    ledger = LedgerDB(block_size=8)

    notifications = []
    platform.broker.subscribe(
        Subscription(
            subscriber="promo-board",
            topic_pattern="sale.*",
            callback=notifications.append,
        )
    )

    requests = workload.requests_between(0.0, 5.0)
    outcomes = platform.process_purchases(requests)
    for outcome in outcomes:
        if outcome.success:
            ledger.put(
                f"sale/{outcome.request.shopper_id}/{outcome.request.product_id}",
                {"space": outcome.request.space.value},
                timestamp=outcome.request.timestamp,
            )
            platform.publish(
                Publication(
                    topic="sale.completed",
                    payload={"product": outcome.request.product_id},
                    timestamp=outcome.request.timestamp,
                )
            )
    ledger.seal_block()
    return platform, ledger, outcomes, notifications, workload, injector


class TestFlashSaleUnderFaults:
    @pytest.mark.parametrize("fault_seed", [7, 23, 101])
    def test_exactly_once_inventory_conservation(self, fault_seed):
        """Every accepted purchase commits exactly once: units sold plus
        units left equals initial stock, for every product, despite faults."""
        platform, _, outcomes, _, workload, injector = run_chaotic_sale(
            fault_seed=fault_seed
        )
        stocks = {pid: platform.get_stock(pid) for pid in map(workload.product_id, range(20))}
        assert exactly_once_violations(
            dict.fromkeys(stocks, 10), units_sold(outcomes), stocks
        ) == []

    def test_ledger_records_every_success_exactly_once(self):
        _, ledger, outcomes, _, _, _ = run_chaotic_sale()
        successes = sum(o.success for o in outcomes)
        assert len(ledger.entries) == successes

    def test_lossy_paths_shed_instead_of_failing(self):
        """Publish faults never abort the sale pipeline: events are dropped
        and counted, and every loss shows up in the metrics."""
        platform, _, outcomes, notifications, _, injector = run_chaotic_sale()
        successes = sum(o.success for o in outcomes)
        failed = platform.metrics.counter("platform.publish_failed").value
        shed = platform.metrics.counter("platform.publish_shed").value
        assert len(notifications) + failed + shed == successes
        assert injector.injected > 0  # the plan actually fired

    def test_storage_tier_survives_the_plan(self):
        """write_record/read keep working under the 5% plan: retries absorb
        transient crashes and reads fall back to the stale cache past them."""
        platform, _, _, _, workload, _ = run_chaotic_sale()
        from repro.core import DataKind, DataRecord

        for i in range(20):
            pid = workload.product_id(i)
            record = DataRecord(
                key=f"stock/{pid}",
                payload={"stock": platform.get_stock(pid)},
                space=Space.PHYSICAL,
                timestamp=5.0,
                kind=DataKind.STRUCTURED,
                source="audit",
            )
            platform.write_record(record)
            value = platform.read(f"stock/{pid}")
            assert value["payload"]["stock"] == platform.get_stock(pid)


class TestStorageChaos:
    def test_wal_corruption_recovery_is_prefix(self):
        """Injected torn writes never fabricate or reorder history: recovery
        applies a strict prefix of the committed puts."""
        plan = FaultPlan(
            rules=[FaultRule(site="wal.append", kind="corrupt", rate=0.2)], seed=5
        )
        wal = WriteAheadLog(faults=FaultInjector(plan))
        kv = KVStore(wal=wal)
        for i in range(50):
            kv.put(f"k{i:03d}", i)
        recovered = KVStore(wal=wal)
        applied = recovered.recover()
        assert applied < 50  # rate 0.2 over 50 writes tears at least one
        for i in range(applied):
            assert recovered.get(f"k{i:03d}") == i
        for i in range(applied, 50):
            assert f"k{i:03d}" not in recovered

    def test_kv_crash_faults_are_atomic(self):
        """A put that crashes leaves neither WAL entry nor visible value."""
        plan = FaultPlan(rules=[FaultRule(site="kv.put", kind="crash", rate=1.0)])
        kv = KVStore(faults=FaultInjector(plan))
        with pytest.raises(FaultInjectedError):
            kv.put("a", 1)
        assert "a" not in kv
        assert len(kv.wal) == 0

    def test_stale_read_fallback_and_strict_mode(self):
        plan = FaultPlan(rules=[FaultRule(site="kv.get", kind="crash", rate=1.0)])
        platform = MetaversePlatform(faults=FaultInjector(plan))
        from repro.core import DataKind, DataRecord

        record = DataRecord(
            key="twin/1", payload={"x": 3.0}, space=Space.VIRTUAL,
            timestamp=0.0, kind=DataKind.STRUCTURED, source="test",
        )
        platform.write_record(record)
        value = platform.read("twin/1")  # storage is down; stale cache serves
        assert value["payload"] == {"x": 3.0}
        assert platform.metrics.counter("platform.stale_reads").value == 1
        with pytest.raises(FaultInjectedError):
            platform.read("twin/1", allow_stale=False)
        with pytest.raises(FaultInjectedError):
            platform.read("never-written")  # nothing cached: the fault surfaces


class TestNetworkChaos:
    def mk(self, rules, seed=0):
        scheduler = EventScheduler()
        injector = FaultInjector(FaultPlan(rules=rules, seed=seed),
                                 clock=scheduler.clock)
        network = SimulatedNetwork(scheduler, faults=injector)
        inbox = []
        network.add_node("a")
        network.add_node("b").on("t", inbox.append)
        return network, scheduler, inbox

    def test_injected_drop_loses_the_message(self):
        network, scheduler, inbox = self.mk(
            [FaultRule(site="net.link", kind="drop", rate=1.0)]
        )
        network.send("a", "b", "t", {"n": 1})
        scheduler.run_until(10.0)
        assert inbox == []
        assert network.metrics.counter("net.messages_dropped").value == 1

    def test_an_injected_drop_is_counted_like_a_link_loss(self):
        def counts(network):
            return {
                name: network.metrics.counter(name).value
                for name in ("net.messages_sent", "net.bytes_sent",
                             "net.messages_dropped", "net.messages_delivered")
            }

        injected, scheduler, _ = self.mk(
            [FaultRule(site="net.link", kind="drop", rate=1.0)]
        )
        injected.send("a", "b", "t", {"n": 1}, size_bytes=300)
        scheduler.run_until(10.0)
        lossy, scheduler, _ = self.mk([])
        lossy.default_link.loss_rate = 1.0
        lossy.send("a", "b", "t", {"n": 1}, size_bytes=300)
        scheduler.run_until(10.0)
        assert counts(injected) == counts(lossy) == {
            "net.messages_sent": 1, "net.bytes_sent": 300,
            "net.messages_dropped": 1, "net.messages_delivered": 0,
        }

    def test_injected_corruption_is_rejected_at_delivery(self):
        network, scheduler, inbox = self.mk(
            [FaultRule(site="net.link", kind="corrupt", rate=1.0)]
        )
        network.send("a", "b", "t", {"n": 1})
        scheduler.run_until(10.0)
        assert inbox == []
        assert network.metrics.counter("net.messages_rejected_corrupt").value == 1

    def test_injected_partition_raises_at_send(self):
        network, _, _ = self.mk(
            [FaultRule(site="net.link", kind="partition", rate=1.0)]
        )
        with pytest.raises(PartitionedError):
            network.send("a", "b", "t", {"n": 1})

    def test_injected_delay_slows_delivery(self):
        def arrival_time(rules):
            network, scheduler, _ = self.mk(rules)
            arrived = []
            network.nodes["b"].on("d", lambda m: arrived.append(scheduler.clock.now))
            network.send("a", "b", "d", {"n": 1})
            scheduler.run_until(10.0)
            assert len(arrived) == 1
            return arrived[0]

        clean = arrival_time([])
        slowed = arrival_time(
            [FaultRule(site="net.link", kind="delay", rate=1.0, delay_s=0.5)]
        )
        assert slowed == pytest.approx(clean + 0.5)

    def test_target_narrows_to_one_link(self):
        network, scheduler, inbox = self.mk(
            [FaultRule(site="net.link", kind="drop", rate=1.0, target="a->b")]
        )
        network.add_node("c").on("t", inbox.append)
        network.send("a", "b", "t", {"n": 1})  # dropped
        network.send("a", "c", "t", {"n": 2})  # unaffected link
        scheduler.run_until(10.0)
        assert [m.payload for m in inbox] == [{"n": 2}]


class TestGatewayChaos:
    def test_ingest_dropout_is_counted_not_raised(self):
        from repro.core import DataKind, DataRecord

        plan = FaultPlan(
            rules=[FaultRule(site="gateway.ingest", kind="drop", rate=0.3)], seed=11
        )
        gateway = DeviceGateway(aggregate=False, faults=FaultInjector(plan))
        for i in range(200):
            gateway.ingest(
                DataRecord(
                    key=f"s{i}", payload={"v": float(i)}, space=Space.PHYSICAL,
                    timestamp=float(i), kind=DataKind.SENSOR, source="dev",
                )
            )
        kept = gateway.metrics.counter("gateway.raw_records").value
        dropped = gateway.metrics.counter("gateway.dropped_records").value
        assert kept + dropped == 200
        assert 20 <= dropped <= 100  # ~30% of 200, deterministic for seed 11


class TestBreakerUnderSustainedFaults:
    def test_publish_shed_while_broker_is_down(self):
        """A hard broker outage trips the breaker: later publishes shed
        instead of burning retries, and none of them raises."""
        plan = FaultPlan(
            rules=[FaultRule(site="broker.publish", kind="crash", rate=1.0)]
        )
        platform = MetaversePlatform(faults=FaultInjector(plan))
        for i in range(20):
            matched = platform.publish(
                Publication(topic="t", payload={"i": i}, timestamp=float(i))
            )
            assert matched == []
        failed = platform.metrics.counter("platform.publish_failed").value
        shed = platform.metrics.counter("platform.publish_shed").value
        assert failed + shed == 20
        assert shed > 0  # breaker opened partway through
        assert platform.breaker.trips >= 1

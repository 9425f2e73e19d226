"""Integration: flash sale end-to-end across platform, pub/sub, and ledger.

Exercises the marketplace scenario through every layer at once: the
workload generator drives MVCC purchases on the platform, sale events flow
through the broker to subscribers, every successful purchase is recorded in
the verifiable ledger, and an auditor checkpoint confirms the history.
"""

from repro.core import Space
from repro.ledger import Auditor, LedgerDB
from repro.net import AttributePredicate, Publication, Subscription
from repro.platform import MetaversePlatform
from repro.verify import exactly_once_violations, units_sold
from repro.workloads import FlashSaleConfig, MarketplaceWorkload


def run_sale(seed=1):
    config = FlashSaleConfig(
        n_products=20, n_shoppers=100, initial_stock=10,
        burst_rate=200.0, burst_start=0.0, burst_end=5.0, zipf_skew=1.0,
    )
    workload = MarketplaceWorkload(config, seed=seed)
    platform = MetaversePlatform(n_executors=4)
    platform.load_catalog(workload.catalog_records())
    ledger = LedgerDB(block_size=8)
    auditor = Auditor(ledger)

    notifications = []
    platform.broker.subscribe(
        Subscription(
            subscriber="promo-board",
            topic_pattern="sale.*",
            predicates=(AttributePredicate("space", "==", "physical"),),
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
            platform.broker.publish(
                Publication(
                    topic="sale.completed",
                    payload={
                        "product": outcome.request.product_id,
                        "space": outcome.request.space.value,
                    },
                    timestamp=outcome.request.timestamp,
                )
            )
    ledger.seal_block()
    return platform, ledger, auditor, outcomes, notifications, workload


class TestFlashSaleEndToEnd:
    def test_inventory_conservation(self):
        """Units sold + units left == initial stock for every product."""
        platform, _, _, outcomes, _, workload = run_sale()
        stocks = {pid: platform.get_stock(pid) for pid in map(workload.product_id, range(20))}
        assert exactly_once_violations(
            dict.fromkeys(stocks, 10), units_sold(outcomes), stocks
        ) == []

    def test_no_oversell(self):
        platform, _, _, outcomes, _, workload = run_sale()
        for i in range(20):
            assert platform.get_stock(workload.product_id(i)) >= 0

    def test_ledger_records_every_sale(self):
        _, ledger, _, outcomes, _, _ = run_sale()
        sold = sum(o.success for o in outcomes)
        assert len(ledger.entries) == sold
        assert ledger.verify_chain()

    def test_ledger_receipts_verify(self):
        _, ledger, _, _, _, _ = run_sale()
        for index in range(0, len(ledger.entries), 7):
            assert LedgerDB.verify_receipt(ledger.receipt(index))

    def test_auditor_accepts_honest_history(self):
        _, ledger, auditor, _, _, _ = run_sale()
        assert auditor.checkpoint()
        ledger.put("post-audit-sale", {"space": "virtual"})
        assert auditor.checkpoint()
        assert auditor.failures == 0

    def test_subscribers_see_only_matching_space(self):
        _, _, _, outcomes, notifications, _ = run_sale()
        physical_sales = sum(
            o.success for o in outcomes if o.request.space is Space.PHYSICAL
        )
        assert len(notifications) == physical_sales
        assert all(n.payload["space"] == "physical" for n in notifications)

    def test_deterministic_given_seed(self):
        _, _, _, outcomes_a, _, _ = run_sale(seed=9)
        _, _, _, outcomes_b, _, _ = run_sale(seed=9)
        assert [o.success for o in outcomes_a] == [o.success for o in outcomes_b]

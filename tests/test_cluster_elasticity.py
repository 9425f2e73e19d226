"""Property + chaos tier for the closed elasticity loop (repro.cluster).

Three safety contracts, proven rather than demonstrated:

* **the policy cannot oscillate** — Hypothesis drives
  :class:`ScalingPolicy` with arbitrary signal streams and checks that
  no two actions ever land inside one cooldown window, that every action
  required its full consecutive-evaluation streak, and that shard counts
  never leave ``[min_shards, max_shards]``;
* **salting cannot lose stock** — generated flash-crowd purchase streams
  against a salted product always conserve ``sold + remaining ==
  initial`` exactly, and the bucket rotation never turns away a shopper
  while any bucket still has stock;
* **shedding cannot touch admitted work** — with the admission bucket
  fully exhausted, physical-space records still land and 2PC baskets
  still commit (or abort) exactly as on an unthrottled cluster.

The chaos tier re-runs the flash sale with 5% ``storage.rpc`` faults
while the controller scales 2→8→2 *mid-sale* and asserts the purchase
outcomes are byte-identical to a statically provisioned 8-shard cluster
under the same fault plan — scaling plus faults change latencies and
placement, never decisions.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterConfig,
    ElasticityConfig,
    PlatformCluster,
    ScalingPolicy,
    TokenBucket,
)
from repro.core import DataRecord, Space
from repro.resilience import FaultInjector, FaultPlan
from repro.resilience.faults import FaultRule
from repro.verify import exactly_once_violations, units_sold
from repro.workloads import FlashSaleConfig, MarketplaceWorkload, PurchaseRequest

pytestmark = pytest.mark.elasticity


# -- ScalingPolicy: the anti-oscillation contract ----------------------------

policy_configs = st.builds(
    ElasticityConfig,
    cooldown_s=st.floats(min_value=0.5, max_value=5.0),
    breach_evals=st.integers(min_value=1, max_value=4),
    clear_evals=st.integers(min_value=1, max_value=6),
    min_shards=st.just(2),
    max_shards=st.integers(min_value=3, max_value=8),
)

#: Signal streams mixing breaches (>= 0.5), clears (<= 0.1), and
#: dead-zone samples in between.
signals = st.lists(
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    min_size=1, max_size=120,
)

EVAL_DT = 0.25


def drive(policy: ScalingPolicy, stream: list[float]) -> list[int]:
    """Feed a signal stream at a fixed cadence, tracking the shard count
    the way the controller does (clamped by the policy itself)."""
    n = policy.config.min_shards
    counts = []
    for i, p95 in enumerate(stream):
        n += policy.decide(i * EVAL_DT, p95, n)
        counts.append(n)
    return counts


class TestScalingPolicyProperties:
    @settings(max_examples=200, deadline=None)
    @given(config=policy_configs, stream=signals)
    def test_never_two_actions_inside_one_cooldown(self, config, stream):
        policy = ScalingPolicy(config)
        drive(policy, stream)
        times = [action.at for action in policy.actions]
        for earlier, later in zip(times, times[1:]):
            assert later - earlier >= config.cooldown_s, (
                f"actions {earlier} and {later} inside cooldown "
                f"{config.cooldown_s}"
            )

    @settings(max_examples=200, deadline=None)
    @given(config=policy_configs, stream=signals)
    def test_shard_count_never_leaves_bounds(self, config, stream):
        policy = ScalingPolicy(config)
        counts = drive(policy, stream)
        assert all(
            config.min_shards <= n <= config.max_shards for n in counts
        )
        for action in policy.actions:
            assert action.to_shards - action.from_shards == (
                1 if action.direction == "out" else -1
            )

    @settings(max_examples=100, deadline=None)
    @given(config=policy_configs, stream=signals)
    def test_every_action_earned_its_streak(self, config, stream):
        """An action requires its full consecutive streak immediately
        before it: the action-triggering evaluation plus its
        predecessors all sit past the relevant band."""
        policy = ScalingPolicy(config)
        drive(policy, stream)
        for action in policy.actions:
            i = int(round(action.at / EVAL_DT))
            need = (config.breach_evals if action.direction == "out"
                    else config.clear_evals)
            window = stream[max(0, i - need + 1):i + 1]
            if action.direction == "out":
                assert all(s >= config.slo_p95_wait_s for s in window)
            else:
                assert all(s <= config.clear_p95_wait_s for s in window)

    def test_dead_zone_sample_resets_both_streaks(self):
        config = ElasticityConfig(breach_evals=2, clear_evals=2)
        policy = ScalingPolicy(config)
        mid = (config.clear_p95_wait_s + config.slo_p95_wait_s) / 2
        # breach, dead zone, breach, breach -> only the final pair counts
        assert policy.decide(0.0, 1.0, 2) == 0
        assert policy.decide(1.0, mid, 2) == 0
        assert policy.decide(2.0, 1.0, 2) == 0
        assert policy.decide(3.0, 1.0, 2) == +1

    @settings(max_examples=50, deadline=None)
    @given(
        rate=st.floats(min_value=0.5, max_value=100.0),
        burst=st.floats(min_value=1.0, max_value=50.0),
        takes=st.lists(
            st.floats(min_value=0.0, max_value=0.5), min_size=1, max_size=60
        ),
    )
    def test_token_bucket_never_admits_beyond_rate_plus_burst(
        self, rate, burst, takes
    ):
        bucket = TokenBucket(rate, burst, now=0.0)
        now, admitted = 0.0, 0
        for dt in takes:
            now += dt
            admitted += bucket.try_take(now)
        assert admitted <= burst + rate * now + 1e-6


# -- salting: conservation under generated purchase streams ------------------


class TestSaltingConservation:
    @settings(max_examples=15, deadline=None)
    @given(
        n_shoppers=st.integers(min_value=1, max_value=150),
        stock=st.integers(min_value=1, max_value=80),
        n_buckets=st.integers(min_value=2, max_value=6),
        salt=st.integers(min_value=0, max_value=1000),
    )
    def test_salted_sale_conserves_and_fully_utilises_stock(
        self, n_shoppers, stock, n_buckets, salt
    ):
        cluster = PlatformCluster(config=ClusterConfig(n_shards=4))
        workload = MarketplaceWorkload(
            FlashSaleConfig(n_products=2, initial_stock=stock), seed=3
        )
        cluster.load_catalog(workload.catalog_records())
        hot = workload.product_id(0)
        cluster.salt_product(hot, n_buckets)
        assert cluster.get_stock(hot) == stock  # merge-on-read, split exact

        outcomes = cluster.process_purchases([
            PurchaseRequest(
                shopper_id=f"s{salt}-{i:05d}", product_id=hot,
                space=Space.VIRTUAL, timestamp=float(i),
            )
            for i in range(n_shoppers)
        ])
        sold = units_sold(outcomes)
        # Rotation skips drained buckets: while total stock remains no
        # shopper is turned away, so utilisation is exact.
        assert sum(sold.values()) == min(n_shoppers, stock)
        assert exactly_once_violations({hot: stock}, sold, {hot: cluster.get_stock(hot)}) == []
        merged = cluster.unsalt_product(hot)
        assert exactly_once_violations({hot: stock}, sold, {hot: merged}) == []
        assert cluster.get_stock(hot) == merged

    @settings(max_examples=10, deadline=None)
    @given(
        quantities=st.lists(
            st.integers(min_value=1, max_value=4), min_size=1, max_size=40
        )
    )
    def test_conservation_holds_for_multi_unit_purchases(self, quantities):
        """With quantity > 1 a purchase may fail even though *total*
        stock remains (no single bucket can cover it) — stock must still
        be conserved exactly, never oversold."""
        stock = 30
        cluster = PlatformCluster(config=ClusterConfig(n_shards=4))
        workload = MarketplaceWorkload(
            FlashSaleConfig(n_products=2, initial_stock=stock), seed=3
        )
        cluster.load_catalog(workload.catalog_records())
        hot = workload.product_id(0)
        cluster.salt_product(hot, 4)
        outcomes = cluster.process_purchases([
            PurchaseRequest(
                shopper_id=f"q-{i:04d}", product_id=hot,
                space=Space.VIRTUAL, timestamp=float(i), quantity=q,
            )
            for i, q in enumerate(quantities)
        ])
        assert exactly_once_violations(
            {hot: stock}, units_sold(outcomes), {hot: cluster.get_stock(hot)}
        ) == []


# -- admission: shedding never touches admitted work -------------------------


def throttled_cluster(rate=5.0):
    return PlatformCluster(config=ClusterConfig(
        n_shards=4,
        elasticity=ElasticityConfig(
            autoscale=False, admission_rate=rate, admission_burst=rate,
        ),
    ))


def exhaust_admission(cluster, n=200):
    for i in range(n):
        cluster.ingest(DataRecord(
            key=f"flood-{i:04d}", source="test", space=Space.VIRTUAL,
            payload={"n": i},
        ))


class TestSheddingSparesAdmittedWork:
    def test_baskets_commit_identically_on_a_throttled_cluster(self):
        workload = MarketplaceWorkload(
            FlashSaleConfig(n_products=20, initial_stock=10), seed=3
        )
        pids = [workload.product_id(i) for i in range(20)]

        throttled = throttled_cluster()
        free = PlatformCluster(config=ClusterConfig(n_shards=4))
        for cluster in (throttled, free):
            cluster.load_catalog(workload.catalog_records())
        exhaust_admission(throttled)
        assert (
            throttled.metrics.counter(
                "cluster.elasticity.shed_records"
            ).value > 0
        )

        owners = {pid: throttled.router.owner_of(pid) for pid in pids}
        a, b = next(
            (x, y) for x in pids for y in pids if owners[x] != owners[y]
        )
        basket = [
            PurchaseRequest("buyer", pid, Space.VIRTUAL, 0.0, quantity=2)
            for pid in (a, b)
        ]
        outcome_throttled = throttled.process_basket(list(basket))
        outcome_free = free.process_basket(list(basket))
        assert outcome_throttled.committed and outcome_free.committed
        for pid in (a, b):
            assert throttled.get_stock(pid) == free.get_stock(pid) == 8

    def test_physical_records_always_land_when_bucket_is_dry(self):
        cluster = throttled_cluster()
        exhaust_admission(cluster)
        for i in range(40):
            cluster.ingest(DataRecord(
                key=f"phys-{i:04d}", source="test", space=Space.PHYSICAL,
                payload={"n": i},
            ))
        cluster.tick(0.01)  # flush, ~no refill
        assert len(cluster.scan_prefix("phys-").items) == 40
        assert (
            cluster.metrics.counter(
                "cluster.elasticity.physical_overdraft"
            ).value > 0
        )

    @settings(max_examples=20, deadline=None)
    @given(quantity=st.integers(min_value=1, max_value=12))
    def test_throttled_basket_decision_matches_unthrottled(self, quantity):
        """All-or-nothing holds at every quantity: the throttled cluster
        commits exactly when the free one does (stock 10 -> quantity 11+
        aborts), and aborted baskets leave stock untouched."""
        workload = MarketplaceWorkload(
            FlashSaleConfig(n_products=20, initial_stock=10), seed=3
        )
        throttled = throttled_cluster()
        free = PlatformCluster(config=ClusterConfig(n_shards=4))
        for cluster in (throttled, free):
            cluster.load_catalog(workload.catalog_records())
        exhaust_admission(throttled)
        basket = [
            PurchaseRequest(
                "buyer", workload.product_id(i), Space.VIRTUAL, 0.0,
                quantity=quantity,
            )
            for i in (0, 1)
        ]
        out_throttled = throttled.process_basket(list(basket))
        out_free = free.process_basket(list(basket))
        assert out_throttled.committed == out_free.committed
        for i in (0, 1):
            pid = workload.product_id(i)
            assert throttled.get_stock(pid) == free.get_stock(pid)


# -- controller loop on a live cluster ---------------------------------------

TICK_S = 0.5
DRAIN_RATE = 40.0  # records/s per shard


def elastic_config(**overrides):
    base = dict(
        min_shards=2, max_shards=8,
        control_interval_s=TICK_S, cooldown_s=TICK_S,
        slo_p95_wait_s=0.5, clear_p95_wait_s=0.05,
        breach_evals=1, clear_evals=2, window=2,
    )
    base.update(overrides)
    return ElasticityConfig(**base)


def elastic_cluster(faults=None, **overrides):
    return PlatformCluster(
        config=ClusterConfig(
            n_shards=2, n_storage_nodes=2, shard_drain_rate=DRAIN_RATE,
            elasticity=elastic_config(**overrides),
        ),
        faults=faults,
    )


def flood(cluster, n, tag="load"):
    start = int(cluster.metrics.counter("cluster.buffered_records").value)
    for i in range(n):
        cluster.ingest(DataRecord(
            key=f"{tag}-{start + i:06d}", source="test", space=Space.VIRTUAL,
            payload={"n": i}, timestamp=cluster.clock.now,
        ))


class TestControllerOnCluster:
    def test_scales_out_under_load_and_back_when_calm(self):
        cluster = elastic_cluster()
        base_shards = set(cluster.router.shards)
        for _ in range(12):
            flood(cluster, 150)
            cluster.tick(TICK_S)
        assert len(cluster.shards) > 2
        grown = set(cluster.router.shards)
        assert base_shards <= grown  # base shards never retired
        assert all(
            name.startswith("elastic-") for name in grown - base_shards
        )
        for _ in range(40):
            cluster.tick(TICK_S)
        assert set(cluster.router.shards) == base_shards
        controller = cluster.elasticity
        assert controller.policy.actions, "controller never acted"
        times = [a.at for a in controller.policy.actions]
        for earlier, later in zip(times, times[1:]):
            assert later - earlier >= TICK_S


# -- chaos: byte-identity through mid-sale scaling under faults --------------


def canonical(outcomes) -> bytes:
    return json.dumps(
        [
            [o.request.shopper_id, o.request.product_id, int(o.success),
             o.reason]
            for o in outcomes
        ],
        sort_keys=True,
    ).encode()


@pytest.mark.chaos
class TestElasticFlashSaleChaos:
    """Flash sale with 5% ``storage.rpc`` crash faults while the
    controller scales 2→8→2 mid-sale: purchase outcomes and final stocks
    must be byte-identical to a static 8-shard cluster under the same
    plan — the purchase decision path is globally ordered and lives in
    MVCC, so neither membership changes nor storage faults may reach it.
    """

    N_PRODUCTS = 12
    INITIAL_STOCK = 8

    def run_sale(self, elastic: bool, fault_seed: int):
        injector = FaultInjector(FaultPlan(
            rules=(FaultRule(site="storage.rpc", kind="crash", rate=0.05),),
            seed=fault_seed,
        ))
        if elastic:
            cluster = elastic_cluster(faults=injector)
        else:
            cluster = PlatformCluster(
                config=ClusterConfig(n_shards=8, n_storage_nodes=2),
                faults=injector,
            )
        workload = MarketplaceWorkload(
            FlashSaleConfig(
                n_products=self.N_PRODUCTS, n_shoppers=60,
                initial_stock=self.INITIAL_STOCK, burst_rate=40.0,
                burst_start=0.0, burst_end=6.0, zipf_skew=1.0,
            ),
            seed=5,
        )
        cluster.load_catalog(workload.catalog_records())
        outcomes = []
        for i in range(12):
            if elastic and 2 <= i < 9:
                flood(cluster, 150)  # spike >> 2-shard drain: forces 2->8
            outcomes += cluster.process_purchases(
                workload.requests_between(i * TICK_S, (i + 1) * TICK_S)
            )
            cluster.tick(TICK_S)
        for _ in range(40):  # calm tail: drain queues, scale back to 2
            cluster.tick(TICK_S)
        stocks = {
            workload.product_id(i): cluster.get_stock(workload.product_id(i))
            for i in range(self.N_PRODUCTS)
        }
        return cluster, outcomes, stocks, injector

    @pytest.mark.parametrize("fault_seed", [7, 23, 101])
    def test_outcomes_identical_to_static_cluster(self, fault_seed):
        elastic, e_out, e_stocks, e_inj = self.run_sale(True, fault_seed)
        static, s_out, s_stocks, s_inj = self.run_sale(False, fault_seed)

        assert canonical(e_out) == canonical(s_out)
        assert e_stocks == s_stocks
        assert exactly_once_violations(
            dict.fromkeys(e_stocks, self.INITIAL_STOCK), units_sold(e_out), e_stocks
        ) == []

        # the run actually exercised what it claims to: faults fired on
        # both sides while the controller rode the full 2->8->2 range
        assert e_inj.injected > 0 and s_inj.injected > 0
        scale_outs = elastic.metrics.counter(
            "cluster.elasticity.scale_out"
        ).value
        scale_ins = elastic.metrics.counter(
            "cluster.elasticity.scale_in"
        ).value
        assert scale_outs == scale_ins == 6.0
        assert len(elastic.shards) == 2
        assert len(static.shards) == 8

"""A purchase call is one transaction deciding each product once.

:meth:`MetaversePlatform.process_purchases` groups its requests by
product, hydrates in request order through one snapshot, decides each
product's requests in order in one call of the one stock check
(``_decrement``), commits once and settles once — one write-through and
one ``stock`` op per product it sold, in last-decision order.  Two paths
it replaced live on here as oracles and run beside it:

* **the per-request call** (:class:`PerRequestPlatform`) — one
  ``_decrement`` per request against the running stock.  Outcomes,
  stocks, engine records, the logged op stream, every executor's
  ``busy_time``/``processed`` and every metric are ``==`` to it, on a
  single platform, a replicated cluster and a disaggregated one through a
  storage outage;
* **the per-commit path** (:class:`PerCommitPlatform`) — each request
  staged and committed on its own, settled after every commit:

  - **invisible to a client** — outcomes, every ``get_stock``, every
    engine product record, every executor's ``busy_time``/``processed``
    and the fold of every owner's primary log are equal;
  - **the op stream per call** — each call logs exactly the oracle's ops
    with every (shard, product) but its last dropped;
  - **the tap still is the log** — each owner's sink-recorded
    subsequence is its primary log, op for op (``tests/test_op_tap.py``'s
    property).

And on their own:

* **one commit** — a call adds one to ``mvcc.commits`` when it sells
  anything and none when it does not;
* **one read and one check per product** — a call reads each product
  once and decides it in one ``_decrement``; a product hydrated mid-pass
  is read in a snapshot opened after the hydration's commit;
* **first committer wins** — a commit behind the call's back after its
  snapshot is never overwritten: the call re-decides against it;
* **the one flush point** — a call that raises has already committed and
  settled what it decided (the ``finally``), and a basket settles at once.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, PlatformCluster
from repro.core import ConfigurationError, KeyNotFoundError, Space, WriteConflictError
from repro.core.records import PurchaseRequest
from repro.platform import MetaversePlatform
from repro.platform.platform import PURCHASE_RETRIES, TXN_COST_S, PurchaseOutcome
from repro.replication import fold
from repro.resilience import FaultInjector, FaultPlan, FaultRule
from repro.txn.mvcc import Transaction
from tests.test_op_tap import PRODUCTS, perform, product, quantity, record, request, stock
from tests.test_purchase_order import purchase_sort_key
from tests.test_replication import expanded

pytestmark = [pytest.mark.cluster, pytest.mark.failover]


class PerCommitPlatform(MetaversePlatform):
    """The replaced path: each purchase is its own ``stage_basket`` and
    ``commit_basket`` (which settles at once), retried on conflict."""

    def process_purchases(self, requests, presorted=False):
        if not presorted:
            requests = sorted(
                requests,
                key=lambda r: purchase_sort_key(r, self.physical_priority),
            )
        return [self._purchase(request) for request in requests]

    def _purchase(self, request):
        executor = self.executors[self._executor_for(request.product_id)]
        for _ in range(PURCHASE_RETRIES + 1):
            executor.busy_time += TXN_COST_S
            txn, why, _ = self.stage_basket({request.product_id: request.quantity})
            if txn is None:
                if why == "sold out":
                    self.metrics.counter("platform.soldout").inc()
                return PurchaseOutcome(request, False, why)
            try:
                self.commit_basket(txn)
            except WriteConflictError:
                self.metrics.counter("platform.retries").inc()
                continue
            executor.processed += 1
            self.metrics.counter("platform.purchases").inc()
            return PurchaseOutcome(request, True)
        return PurchaseOutcome(request, False, "conflict retries exhausted")


class PerCommitCluster(PlatformCluster):
    def _make_shard(self, name):
        shard = super()._make_shard(name)
        shard.__class__ = PerCommitPlatform  # adds no state
        return shard


#: The disaggregated shape's one storage outage: every ``storage.rpc``
#: fails from ``OUTAGE`` through ``HEALED - 1``, instants only an
#: ``outage``/``heal`` action reaches (ticks and simulated RPC latency
#: stay far below).
OUTAGE, HEALED = 100.0, 10_000.0


def move_clock(cluster, to):
    cluster.clock.advance(max(0.0, to - cluster.clock.now))


def recorded(cluster_type, shape="replicated"):
    if shape == "replicated":
        config, faults = ClusterConfig(
            n_shards=3, n_replicas=2, replica_log_compact_threshold=None,
        ), None
    else:
        config = ClusterConfig(n_shards=3, n_storage_nodes=2)
        faults = FaultInjector(FaultPlan(rules=[FaultRule(
            site="storage.rpc", kind="crash", rate=1.0,
            start=OUTAGE, end=HEALED - 1,
        )]))
    cluster = cluster_type(config, faults=faults)
    ops = []
    cluster.add_op_sink(lambda segments: ops.extend(
        (shard, op) for shard, seg in segments for op in seg
    ))
    cluster.load_catalog(
        [record(pid, {"name": pid, "stock": 6}) for pid in PRODUCTS]
    )
    return cluster, ops


commerce = [
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
    st.tuples(st.just("tick")),
]
replicated_action = st.one_of(
    *commerce,
    st.tuples(st.just("salt_product"), product, st.integers(2, 3)),
    st.tuples(st.just("unsalt_product"), product),
)
outage_action = st.one_of(
    *commerce, st.tuples(st.sampled_from(["outage", "heal"]))
)
replicated_actions = st.lists(replicated_action, max_size=20)
outage_actions = st.lists(outage_action, max_size=20)


def outcome_of(cluster, action, step):
    """What a client sees of one action: the purchase outcomes, the
    basket verdict, or the refusal."""
    if action[0] in ("outage", "heal"):
        return move_clock(cluster, OUTAGE if action[0] == "outage" else HEALED)
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


def last_per_product(ops):
    """``ops`` with every (shard, product) but its last op dropped."""
    last = {(shard, op["k"]): i for i, (shard, op) in enumerate(ops)}
    return [ops[i] for i in sorted(last.values())]


def primary_ops(cluster, owner):
    return cluster.failover.replicator.log(owner).entries(owner)


def executor_stats(cluster):
    return {
        name: [(e.processed, e.busy_time) for e in shard.executors]
        for name, shard in cluster.shards.items()
    }


def run_side_by_side(script, shape):
    called, called_ops = recorded(PlatformCluster, shape)
    oracle, oracle_ops = recorded(PerCommitCluster, shape)
    for step, action in enumerate(script):
        logged, oracle_logged = len(called_ops), len(oracle_ops)
        assert outcome_of(called, action, step) == outcome_of(
            oracle, action, step
        )
        for pid in PRODUCTS:
            assert stock_or_missing(called, pid) == stock_or_missing(oracle, pid)
        ours, theirs = called_ops[logged:], oracle_ops[oracle_logged:]
        if action[0] == "process_purchases":
            theirs = last_per_product(theirs)
        assert ours == theirs
    assert executor_stats(called) == executor_stats(oracle)
    return (called, called_ops), (oracle, oracle_ops)


def tier_products(cluster):
    """The shared tier's product records, once the outage is over and
    every parked write-through is re-driven."""
    move_clock(cluster, HEALED)
    for shard in cluster.shards.values():
        assert shard.flush_dirty_products() == 0
    return next(iter(cluster.shards.values())).engine.products()


class TestThePerCommitSettleIsTheOracle:
    @settings(max_examples=60, deadline=None)
    @given(script=replicated_actions)
    def test_a_call_scope_is_invisible_and_logs_each_product_once(self, script):
        called, oracle = run_side_by_side(script, "replicated")
        for owner in called[0].router.shards:
            assert called[0].shards[owner].engine.products() == (
                oracle[0].shards[owner].engine.products()
            )
            ours = fold(primary_ops(called[0], owner))
            theirs = fold(primary_ops(oracle[0], owner))
            assert ours.entities == theirs.entities
            assert ours.products == theirs.products
            assert ours.partial == theirs.partial
            assert len(expanded(primary_ops(called[0], owner))) <= len(
                expanded(primary_ops(oracle[0], owner))
            )
            for cluster, ops in (called, oracle):
                assert expanded(primary_ops(cluster, owner)) == [
                    op for shard, op in ops if shard == owner
                ]

    @settings(max_examples=40, deadline=None)
    @given(script=outage_actions)
    # p1 and p2 share a shard: the oracle's first commit re-drives the
    # parked drop before p1's stage, the call hydrates p1 before it.
    @example(script=[("outage",), ("drop_product", "p1"), ("heal",),
                     ("process_purchases", [("p2", 1), ("p1", 1)])])
    def test_a_call_scope_is_invisible_through_a_storage_outage(self, script):
        called, oracle = run_side_by_side(script, "outage")
        assert tier_products(called[0]) == tier_products(oracle[0])

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


class TestOneCommitPerCall:
    @staticmethod
    def platform(**stocks):
        platform, logged = MetaversePlatform(), []
        platform.load_catalog([
            record(pid, {"name": pid, "stock": n}) for pid, n in stocks.items()
        ])
        platform.purchase_log = lambda *call: logged.append(call)
        return platform, logged

    @staticmethod
    def interloping(platform, monkeypatch, times, take):
        """Commit a basket of ``take`` units of ``p0`` behind the call's
        back — after its snapshot, before its commit — at the first
        decision of each of the call's first ``times`` attempts."""
        decide, attempts, inside = platform._decrement, [], []

        def decrement(txn, product_id, quantities, product=None):
            if not inside and txn not in attempts and len(attempts) < times:
                attempts.append(txn)
                inside.append(txn)
                platform.commit_basket(platform.stage_basket({"p0": take})[0])
                inside.pop()
            return decide(txn, product_id, quantities, product)

        monkeypatch.setattr(platform, "_decrement", decrement)

    @staticmethod
    def busy(platform, requests, attempts):
        """Each executor's ``busy_time``: one charge per request per
        attempt of the call."""
        busy = [0.0] * platform.n_executors
        for _ in range(attempts):
            for r in requests:
                busy[platform._executor_for(r.product_id)] += TXN_COST_S
        return busy

    @staticmethod
    def count(platform, name):
        return platform.metrics.snapshot().get(name, 0)

    def test_a_call_commits_once_when_it_sells_and_never_when_it_does_not(self):
        platform, _ = self.platform(p0=3, p1=0)
        for basket, commits in (
            ([("p0", 1), ("p0", 1)], 1),
            ([("p1", 1)], 0),
            ([("ghost", 1)], 0),
            ([("p0", 5), ("p1", 1), ("ghost", 2)], 0),
            ([("p1", 1), ("p0", 1), ("ghost", 1)], 1),
        ):
            before = self.count(platform, "mvcc.commits")
            platform.process_purchases(
                [request(pid, n, shopper=f"s{i}") for i, (pid, n) in enumerate(basket)]
            )
            assert self.count(platform, "mvcc.commits") - before == commits
        assert platform.get_stock("p0") == 0

    def test_a_commit_behind_the_calls_back_is_decided_against(self, monkeypatch):
        platform, logged = self.platform(p0=10, p1=1)
        self.interloping(platform, monkeypatch, times=1, take=5)
        requests = [
            request("p0", 1, shopper="s0"), request("p0", 1, shopper="s1"),
            request("p1", 2, shopper="s2"), request("p0", 1, shopper="s3"),
        ]
        outcomes = platform.process_purchases(requests)
        assert [(o.success, o.reason) for o in outcomes] == [
            (True, ""), (True, ""), (False, "sold out"), (True, ""),
        ]
        # The interloper's 5 are not overwritten: 10 - 5 - 3, not 10 - 3.
        assert platform.get_stock("p0") == 2
        assert platform.engine.get_product("p0")["stock"] == 2
        assert logged == [("p0", 5), ("p0", 2)]
        assert self.count(platform, "platform.retries") == 1
        assert self.count(platform, "mvcc.conflicts") == 1
        assert self.count(platform, "platform.purchases") == 3
        assert self.count(platform, "platform.soldout") == 1
        assert sum(e.processed for e in platform.executors) == 3
        assert [e.busy_time for e in platform.executors] == pytest.approx(
            self.busy(platform, requests, attempts=2)
        )

    def test_three_conflicts_in_a_row_apply_nothing(self, monkeypatch):
        platform, logged = self.platform(p0=10, p1=1)
        self.interloping(platform, monkeypatch, times=PURCHASE_RETRIES + 1, take=1)
        requests = [request("p0", 1, shopper=f"s{i}") for i in range(3)]
        requests.append(request("p1", 2, shopper="s3"))
        outcomes = platform.process_purchases(requests)
        assert [(o.success, o.reason) for o in outcomes] == [
            (False, "conflict retries exhausted")
        ] * 3 + [(False, "sold out")]
        assert platform.get_stock("p0") == 7
        assert platform.engine.get_product("p0")["stock"] == 7
        assert logged == [("p0", 9), ("p0", 8), ("p0", 7)]
        assert self.count(platform, "platform.retries") == 3
        assert self.count(platform, "mvcc.conflicts") == 3
        assert self.count(platform, "platform.purchases") == 0
        assert sum(e.processed for e in platform.executors) == 0
        assert [e.busy_time for e in platform.executors] == pytest.approx(
            self.busy(platform, requests, attempts=3)
        )

    def test_a_product_dropped_in_an_outage_stays_dropped(self):
        """Hydration asks a parked write-through before the tier: the
        tier still holds the dropped record until the drop is re-driven."""
        cluster, _ = recorded(PlatformCluster, "outage")
        shard = cluster.shards[cluster.router.owner_of("p1")]
        move_clock(cluster, OUTAGE)
        cluster.drop_product("p1")
        move_clock(cluster, HEALED)
        assert shard.engine.get_product("p1") == {"name": "p1", "stock": 6}
        with pytest.raises(KeyNotFoundError):
            cluster.get_stock("p1")
        [outcome] = cluster.process_purchases([request("p1", 1)])
        assert (outcome.success, outcome.reason) == (False, "no such product")
        assert shard.flush_dirty_products() == 0
        assert shard.engine.get_product("p1") is None


class TestTheOneFlushPoint:
    def test_a_call_that_raises_has_settled_what_it_committed(self, monkeypatch):
        cluster, ops = recorded(PlatformCluster)
        del ops[:]
        # p1 and p2 share a shard: the call decides p1, then raises at p2.
        owner = cluster.router.owner_of("p1")
        assert cluster.router.owner_of("p2") == owner
        shard = cluster.shards[owner]
        decide, calls = shard._decrement, []

        def decide_until_the_second(txn, product_id, quantities, product=None):
            calls.append(product_id)
            if len(calls) == 2:
                raise RuntimeError("product 2")
            return decide(txn, product_id, quantities, product)

        monkeypatch.setattr(shard, "_decrement", decide_until_the_second)
        with pytest.raises(RuntimeError, match="product 2"):
            shard.process_purchases([
                request(pid, 1, shopper=f"s{i}")
                for i, pid in enumerate(["p1", "p2", "p1", "p2", "p2"])
            ])
        # p1's two sales were decided before the raise; both are
        # committed and settled, and p2 is untouched.
        assert calls == ["p1", "p2"]
        assert shard.get_stock("p1") == 4
        assert shard.engine.get_product("p1")["stock"] == 4
        assert shard.get_stock("p2") == 6
        assert [(name, op["k"], op["stock"]) for name, op in ops] == [
            (owner, "p1", 4)
        ]
        assert cluster.failover.replica_stock(owner, "p1") == 4
        # And nothing stays open: the next basket settles at once.
        monkeypatch.setattr(shard, "_decrement", decide)
        assert cluster.process_basket([request("p1", 2)]).committed
        assert shard.engine.get_product("p1")["stock"] == 2
        assert ops[-1] == (owner, {"op": "stock", "k": "p1", "stock": 2})

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


class PerRequestPlatform(MetaversePlatform):
    """The replaced call: a hydration pass asking a fresh snapshot per
    product, then one ``_decrement`` per request in request order against
    the running stock in ``txn.writes``, re-seated on every sale."""

    def process_purchases(self, requests, presorted=False):
        if not presorted:
            requests = sorted(
                requests,
                key=lambda r: purchase_sort_key(r, self.physical_priority),
            )
        with self.tracer.span("platform.process_purchases", n=len(requests)):
            cached, unknown = set(), set()
            for i, request in enumerate(requests):
                if request.product_id not in cached:
                    if self._product(request.product_id) is None:
                        unknown.add(i)
                    else:
                        cached.add(request.product_id)
            executor = {
                product_id: self.executors[self._executor_for(product_id)]
                for product_id in {r.product_id for r in requests}
            }
            for _ in range(PURCHASE_RETRIES + 1):
                txn, whys = self.txn.begin(), []
                try:
                    for i, request in enumerate(requests):
                        executor[request.product_id].busy_time += TXN_COST_S
                        with self.tracer.sampled_span("platform.purchase"):
                            whys.append("no such product" if i in unknown else
                                        self._decide_one(txn, request.product_id,
                                                         request.quantity))
                finally:
                    if txn.writes:
                        try:
                            self.txn.commit(txn)
                        except WriteConflictError:
                            pass
                        else:
                            self._settle(txn.writes)
                if txn.status != "aborted":
                    break
                self.metrics.counter("platform.retries").inc()
            else:
                whys = [why or "conflict retries exhausted" for why in whys]
        for request, why in zip(requests, whys):
            if not why:
                executor[request.product_id].processed += 1
        for why, counter in self._decided.items():
            if why in whys:
                counter.inc(whys.count(why))
        return [PurchaseOutcome(r, not why, why) for r, why in zip(requests, whys)]

    def _decide_one(self, txn, product_id, quantity):
        product = txn.writes.get(product_id) or txn.read_or(product_id)
        if product is None:
            return "no such product"
        stock = product.get("stock", 0)
        if stock < quantity:
            return "sold out"
        updated = dict(product)
        updated["stock"] = stock - quantity
        txn.writes.pop(product_id, None)
        txn.writes[product_id] = updated
        return ""


class PerRequestCluster(PlatformCluster):
    def _make_shard(self, name):
        shard = super()._make_shard(name)
        shard.__class__ = PerRequestPlatform  # adds no state
        return shard


#: A call draws products the catalog never held, quantities from 0 up
#: (a 0 sells and writes an unchanged stock), both spaces and tied
#: arrival times, so physical priority reorders the stream.
CALL_PRODUCTS = PRODUCTS + ["ghost"]
purchase_call = st.tuples(
    st.just("purchase_call"),
    st.lists(
        st.tuples(
            st.sampled_from(CALL_PRODUCTS), st.integers(0, 4),
            st.sampled_from(list(Space)), st.integers(0, 2).map(float),
        ),
        min_size=1, max_size=12,
    ),
)
# Calls are drawn twice as often as any other action, here and below.
single_actions = st.lists(
    st.one_of(
        purchase_call,
        purchase_call,
        st.tuples(
            st.just("basket"),
            st.dictionaries(st.sampled_from(CALL_PRODUCTS), quantity,
                            min_size=1, max_size=2),
        ),
        st.tuples(st.just("import_product"), product, stock),
        st.tuples(st.just("drop_product"), product),
        # Behind the MVCC cache: the next call hydrates the product.
        st.tuples(st.just("engine_put"), product, stock),
        st.tuples(st.just("reset_products")),
    ),
    max_size=16,
)
cluster_call_actions = {
    shape: st.lists(st.one_of(purchase_call, purchase_call, action), max_size=20)
    for shape, action in (
        ("replicated", replicated_action), ("outage", outage_action)
    )
}


def call_requests(drawn):
    return [
        PurchaseRequest(
            shopper_id=f"s{i}", product_id=pid, space=space, timestamp=t,
            quantity=n,
        )
        for i, (pid, n, space, t) in enumerate(drawn)
    ]


def single_platform(platform_type):
    platform, logged = platform_type(), []
    platform.load_catalog(
        [record(pid, {"name": pid, "stock": 6}) for pid in PRODUCTS]
    )
    platform.purchase_log = lambda *call: logged.append(call)
    return platform, logged


def single_step(platform, action):
    name, *args = action
    if name == "purchase_call":
        return platform.process_purchases(call_requests(args[0]))
    if name == "basket":
        txn, why, pid = platform.stage_basket(args[0])
        if txn is not None:
            platform.commit_basket(txn)
        return why, pid
    if name == "import_product":
        return platform.import_product(args[0], {"name": args[0], "stock": args[1]})
    if name == "engine_put":
        return platform.engine.put_product(
            args[0], {"name": args[0], "stock": args[1]}
        )
    return getattr(platform, name)(*args)


def executors_of(platform):
    return [(e.processed, e.busy_time) for e in platform.executors]


def play_single(script):
    (called, called_log), (oracle, oracle_log) = (
        single_platform(MetaversePlatform), single_platform(PerRequestPlatform)
    )
    for action in script:
        assert single_step(called, action) == single_step(oracle, action)
        assert called_log == oracle_log
        assert called.engine.products() == oracle.engine.products()
        assert executors_of(called) == executors_of(oracle)
        assert called.metrics.snapshot() == oracle.metrics.snapshot()
        for pid in CALL_PRODUCTS:
            assert stock_or_missing(called, pid) == stock_or_missing(oracle, pid)


def play_cluster(script, shape):
    """Both clusters step by step: outcomes, stocks and each call's op
    stream equal; executors, metrics and engine records equal at the end."""
    called, called_ops = recorded(PlatformCluster, shape)
    oracle, oracle_ops = recorded(PerRequestCluster, shape)
    for step, action in enumerate(script):
        if action[0] == "purchase_call":
            outcomes = [
                cluster.process_purchases(call_requests(action[1]))
                for cluster in (called, oracle)
            ]
            assert outcomes[0] == outcomes[1]
        else:
            assert outcome_of(called, action, step) == outcome_of(
                oracle, action, step
            )
        assert called_ops == oracle_ops
        for pid in CALL_PRODUCTS:
            assert stock_or_missing(called, pid) == stock_or_missing(oracle, pid)
    assert executor_stats(called) == executor_stats(oracle)
    assert called.metrics.snapshot() == oracle.metrics.snapshot()
    if shape == "replicated":
        for owner in called.router.shards:
            assert called.shards[owner].engine.products() == (
                oracle.shards[owner].engine.products()
            )
    else:
        assert tier_products(called) == tier_products(oracle)


class TestThePerRequestCallIsTheOracle:
    """A call deciding per product is the per-request call it replaced:
    every figure below is ``==``, busy-time floats included."""

    @settings(max_examples=80, deadline=None)
    @given(script=single_actions)
    def test_a_single_platform(self, script):
        play_single(script)

    @pytest.mark.parametrize("shape", ["replicated", "outage"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_a_cluster(self, shape, data):
        play_cluster(data.draw(cluster_call_actions[shape]), shape)

    @pytest.mark.slow
    @pytest.mark.parametrize("shape", ["single", "replicated", "outage"])
    @settings(max_examples=1000, deadline=None)
    @given(data=st.data())
    def test_sweep_the_per_request_oracle(self, request, shape, data):
        """The properties above at 1,000 examples, for the nightly tier."""
        if not request.config.getoption("markexpr"):
            pytest.skip("nightly sweep: select it with -m slow")
        if shape == "single":
            play_single(data.draw(single_actions))
        else:
            play_cluster(data.draw(cluster_call_actions[shape]), shape)


class TestOneReadPerProduct:
    """A call reads each product once and decides it in one
    ``_decrement``: the hydration pass's snapshot is the first attempt's,
    and its reads are the ones decided on."""

    @pytest.mark.parametrize("cold", [False, True])
    def test_a_call_reads_and_decides_each_product_once(self, monkeypatch, cold):
        products = [f"p{i}" for i in range(10)]
        platform, _ = TestOneCommitPerCall.platform(**dict.fromkeys(products, 50))
        if cold:
            platform.reset_products()  # every product hydrates in the pass
        decide, decided, reads = platform._decrement, [], []

        def counting_decide(txn, product_id, quantities, product=None):
            decided.append((product_id, len(quantities)))
            return decide(txn, product_id, quantities, product)

        read = Transaction.read

        def counting_read(txn, key):
            reads.append(key)
            return read(txn, key)

        monkeypatch.setattr(platform, "_decrement", counting_decide)
        monkeypatch.setattr(Transaction, "read", counting_read)
        outcomes = platform.process_purchases([
            request(products[i % 10], 1, shopper=f"s{i}") for i in range(1000)
        ])
        assert decided == [(pid, 100) for pid in products]
        assert reads == products
        assert sum(o.success for o in outcomes) == 500
        monkeypatch.undo()
        assert [platform.get_stock(pid) for pid in products] == [0] * 10


class TestTheCallsSnapshot:
    def test_a_product_hydrated_mid_pass_is_decided_against_its_record(self):
        """The pass opens a new snapshot after it hydrates: the call's
        commit then sees no conflict with the hydration's own commit."""
        platform, logged = TestOneCommitPerCall.platform(p0=5)
        platform.engine.put_product("p1", {"name": "p1", "stock": 2})
        commits = TestOneCommitPerCall.count(platform, "mvcc.commits")
        requests = [
            request(pid, 1, shopper=f"s{i}")
            for i, pid in enumerate(["p0", "p1", "p1", "p0", "p1"])
        ]
        outcomes = platform.process_purchases(requests)
        assert [(o.success, o.reason) for o in outcomes] == [
            (True, ""), (True, ""), (True, ""), (True, ""), (False, "sold out"),
        ]
        assert (platform.get_stock("p0"), platform.get_stock("p1")) == (3, 0)
        assert platform.engine.get_product("p1") == {"name": "p1", "stock": 0}
        # Settled in last-decision order: p1's last sale is request 2.
        assert logged == [("p1", 0), ("p0", 3)]
        # The hydration's commit and the call's, with no retry between.
        assert TestOneCommitPerCall.count(platform, "mvcc.commits") == commits + 2
        assert TestOneCommitPerCall.count(platform, "mvcc.conflicts") == 0
        assert TestOneCommitPerCall.count(platform, "platform.retries") == 0
        assert [e.busy_time for e in platform.executors] == (
            TestOneCommitPerCall.busy(platform, requests, attempts=1)
        )

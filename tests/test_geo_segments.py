"""What one cluster call commits crosses the WAN once (repro.geo).

The region cluster's op tap delivers what one of its calls committed when
the call returns; the geo op sink logs those ops in the home log as one
record and ships it — one ``geo.repl`` message per destination carrying
the ``[(lsn, payload)]`` segment.  Delivery folds a segment once and
lands it as one entity import and one product import per shard, and a
geo ``ingest_many`` makes one forward round trip and one cluster write
per home.

The paths this replaced live on here as oracles:

* **per-op, per-entry delivery** is a log holding each op as its own
  record, delivered one record at a time: any cut of a home's records
  into segments, delivered reordered, duplicated or dropped, then one
  anti-entropy round, leaves every region's state, every copy's fold and
  ops, and the watermark and lag counted in ops equal to it;
* **the per-record write loop** is ``write_record`` (a batch of one):
  ``ingest_many`` leaves region states, home-log ops and folds, the
  session's read-your-writes answers and its writes' reach, counted in
  ops, equal to it under region kills and WAN partitions.
"""

import ast
import inspect
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataKind, DataRecord, Space
from repro.geo import READ_YOUR_WRITES, GeoConfig, GeoDeployment, GeoSession
from repro.geo.replication import GeoReplicator
from repro.obs.tracing import Tracer
from repro.replication import apply, decode, fold
from repro.resilience import FaultInjector, FaultPlan
from tests.test_replication import FakeShard, expanded, replica_calls

pytestmark = pytest.mark.geo

REGIONS = ("us-east", "eu-west", "ap-south")
WAN_LATENCIES = {
    ("us-east", "eu-west"): 0.04,
    ("us-east", "ap-south"): 0.09,
    ("eu-west", "ap-south"): 0.07,
}


def record(key, payload, timestamp=0.0):
    return DataRecord(
        key=key, payload=payload, space=Space.VIRTUAL,
        timestamp=timestamp, kind=DataKind.LOCATION, source="test",
    )


def make_geo(faults=None, tracer=None):
    config = GeoConfig(regions=REGIONS, wan_latencies_s=dict(WAN_LATENCIES))
    return GeoDeployment(config, faults=faults, tracer=tracer)


def keys_homed(geo, home, n, prefix="player"):
    keys = (f"{prefix}-{i:04d}" for i in range(1000))
    return [key for key in keys if geo.home_of(key) == home][:n]


def counter(geo, name):
    return geo.metrics.counter(name).value


class TestSegments:
    def test_one_call_ships_one_segment_per_destination(self):
        geo = make_geo()
        home = REGIONS[0]
        records = [
            record(key, {"x": float(i)})
            for i, key in enumerate(keys_homed(geo, home, 6))
        ]
        geo.ingest_many(records)
        assert counter(geo, "geo.repl.logged") == 1  # one record of six ops
        assert len(decode(geo.replicator.log(home).entries(home)[0].payload)) == 6
        assert counter(geo, "geo.repl.shipped") == 2  # one per destination
        assert counter(geo, "net.messages_sent") == 2
        geo.tick(0.5)
        assert geo.max_replication_lag() == 0
        assert counter(geo, "geo.repl.delivered") == 2  # records, not ops
        assert counter(geo, "geo.repl.applied") == 2
        for region in REGIONS:
            for r in records:
                assert geo.region(region).read(r.key)["payload"] == r.payload

    def test_a_direct_region_call_ships_once_when_it_returns(self):
        """The ship point is the region cluster's call, not a deployment
        call: a caller writing to a region's cluster directly ships what
        the call committed as one segment per destination."""
        geo = make_geo()
        home = REGIONS[1]
        keys = keys_homed(geo, home, 3)
        geo.region(home).write_records(
            [record(key, {"v": i}) for i, key in enumerate(keys)]
        )
        assert counter(geo, "geo.repl.logged") == 1
        assert counter(geo, "geo.repl.shipped") == 2
        geo.tick(0.5)
        for region in REGIONS:
            for i, key in enumerate(keys):
                assert geo.region(region).read(key)["payload"] == {"v": i}

    def test_ingest_forwards_once_per_home_and_ships_before_the_next(self):
        """Homes in name order; each home's segment leaves at the instant
        its write lands, before the next home's forward round trip."""
        faults = FaultInjector(FaultPlan())
        tracer = Tracer(time_fn=faults.clock)
        geo = make_geo(faults=faults, tracer=tracer)
        client = "ap-south"  # first in name order: its records need no forward
        records = [
            record(key, {"v": i})
            for home in REGIONS
            for i, key in enumerate(keys_homed(geo, home, 3))
        ]
        start = geo.clock.now
        geo.ingest_many(records, region=client)
        assert counter(geo, "geo.rpc.round_trips") == 2
        assert counter(geo, "geo.writes.forwarded") == 6
        to_eu, to_us = geo.metrics.histogram("geo.rpc.rtt_s").samples
        first, second = start + to_eu, start + to_eu + to_us
        assert [
            (span.start, span.attributes["dst"])
            for span in tracer.spans_named("geo.repl.ship")
        ] == [
            (start, "us-east"), (start, "eu-west"),
            (first, "us-east"), (first, "ap-south"),
            (second, "eu-west"), (second, "ap-south"),
        ]

    def test_hints_drain_as_one_segment_per_pair_in_log_order(self):
        geo = make_geo()
        home = REGIONS[0]
        key = keys_homed(geo, home, 1)[0]
        geo.partition_regions([[home], [r for r in REGIONS if r != home]])
        for i in range(5):
            geo.write_record(record(key, {"x": i}))
        assert counter(geo, "geo.repl.hints_buffered") == 10  # records
        assert counter(geo, "geo.repl.shipped") == 0
        geo.heal_wan()
        geo.tick(0.5)
        assert counter(geo, "geo.repl.shipped") == 2
        assert counter(geo, "geo.repl.hints_delivered") == 10
        for region in REGIONS:
            assert geo.region(region).read(key)["payload"] == {"x": 4}

    def test_a_landing_commits_each_shards_products_once(self):
        """A segment's product records land as one import per shard: one
        MVCC commit per (destination, shard), not one per product."""
        geo = make_geo()
        home = REGIONS[0]
        products = [
            record(f"product-{i:03d}", {"name": f"p{i}", "stock": i})
            for i in range(40)
        ]
        homed = [r for r in products if geo.home_of(r.key) == home]
        geo.load_catalog(homed)
        before = counter(geo, "mvcc.commits")
        geo.tick(0.5)
        shards = sum(
            len({geo.region(dst).router.owner_of(r.key) for r in homed})
            for dst in REGIONS if dst != home
        )
        assert len(homed) > shards
        assert counter(geo, "mvcc.commits") - before == shards
        for region in REGIONS:
            for r in homed:
                assert geo.region(region).get_stock(r.key) == r.payload["stock"]

    def test_ship_and_deliver_spans_count_what_the_counters_count(self):
        tracer = Tracer()
        geo = make_geo(tracer=tracer)
        products = [
            record(f"product-{i:03d}", {"name": f"p{i}", "stock": 50})
            for i in range(9)
        ]
        geo.load_catalog(products)
        for step in range(3):
            geo.ingest_many(
                [record(f"player-{i:04d}", {"x": step}) for i in range(10)],
                region=REGIONS[step],
            )
            geo.tick(0.5)
        ship = tracer.spans_named("geo.repl.ship")
        deliver = tracer.spans_named("geo.repl.deliver")
        assert len(ship) == counter(geo, "geo.repl.shipped") > 0
        assert len(deliver) == len(ship)
        delivered = counter(geo, "geo.repl.delivered")
        assert sum(s.attributes["entries"] for s in deliver) == delivered
        assert sum(s.attributes["fresh"] for s in deliver) == delivered
        assert sum(s.attributes["entries"] for s in ship) == delivered
        assert all(s.attributes["landed"] > 0 for s in deliver)
        assert {s.attributes["dst"] for s in ship} == set(REGIONS)


# -- the replaced per-op, per-entry delivery is the oracle -------------------------


def ops_of(log, lsns):
    """How many ops the records of the primary's ``lsns`` hold."""
    return sum(len(decode(e.payload)) for e in log.entries("a") if e.lsn in lsns)


class Copies:
    """Home ``a``'s log shipped to ``b`` and ``c``, each landing on its own
    region state behind the per-key applied-LSN guard, as the deployment
    lands a segment."""

    def __init__(self):
        self.rep = GeoReplicator(("a", "b", "c"))
        self.regions = {dst: FakeShard() for dst in ("b", "c")}
        self.applied = {dst: {} for dst in ("b", "c")}

    def land(self, dst, state):
        if state is not None:
            apply(state, self.applied[dst], lambda key: self.regions[dst])

    def deliver(self, dst, entries):
        self.land(dst, self.rep.deliver("a", dst, entries))

    def antientropy(self):
        for dst in ("b", "c"):
            self.land(dst, self.rep.antientropy("a", dst))

    def view(self):
        """Per copy: region state, fold, ops held, and the watermark and
        lag counted in ops."""
        log = self.rep.log("a")
        primary = {e.lsn for e in log.entries("a")}
        views = {}
        for dst in ("b", "c"):
            copy = log.entries(dst)
            held = {e.lsn for e in copy}
            assert self.rep.lag("a", dst) == len(primary - held)
            state = fold(copy)
            watermark = self.rep.watermark("a", dst)
            views[dst] = (
                self.regions[dst].dump(),
                (state.entities, state.products, state.partial),
                expanded(copy),
                ops_of(log, {lsn for lsn in primary if lsn <= watermark}),
                ops_of(log, primary - held),
            )
        return views


class TestSegmentDeliveryIsPerEntryDelivery:
    @settings(max_examples=80, deadline=None)
    @given(calls=replica_calls, data=st.data())
    def test_any_cut_reorder_duplication_and_drop(self, calls, data):
        segmented, per_entry = Copies(), Copies()
        shipped = [segmented.rep.log_op("a", ops, 0.0) for ops in calls]
        alone = [
            [per_entry.rep.log_op("a", [op], 0.0) for op in ops] for ops in calls
        ]
        cuts = sorted(data.draw(st.sets(st.integers(1, max(1, len(calls) - 1)))))
        bounds = [0, *[c for c in cuts if c < len(calls)], len(calls)]
        spans = list(zip(bounds, bounds[1:]))
        for dst in ("b", "c"):
            order = data.draw(st.permutations(range(len(spans))))
            fates = data.draw(st.lists(
                st.sampled_from(["once", "twice", "drop"]),
                min_size=len(spans), max_size=len(spans),
            ))
            for i in order:
                lo, hi = spans[i]
                for _ in range({"once": 1, "twice": 2, "drop": 0}[fates[i]]):
                    segmented.deliver(dst, shipped[lo:hi])
                    for entries in alone[lo:hi]:
                        for entry in entries:
                            per_entry.deliver(dst, [entry])
                    assert segmented.view() == per_entry.view()
        segmented.antientropy()
        per_entry.antientropy()
        assert segmented.view() == per_entry.view()
        assert [segmented.rep.lag("a", dst) for dst in ("b", "c")] == [0, 0]


# -- the replaced per-record write loop is the oracle ------------------------------

KEYS = [f"player-{i:03d}" for i in range(10)]

step = st.one_of(
    st.tuples(
        st.just("ingest"),
        st.lists(st.tuples(st.sampled_from(KEYS), st.integers(0, 9)),
                 min_size=1, max_size=8),
        st.sampled_from([None, *REGIONS]),
    ),
    st.tuples(st.just("kill"), st.sampled_from(REGIONS)),
    st.tuples(st.just("restart"), st.sampled_from(REGIONS)),
    st.tuples(st.just("partition"), st.sampled_from(REGIONS)),
    st.tuples(st.just("heal")),
    st.tuples(st.just("tick")),
)


def outcome(call):
    try:
        return call(), None
    except Exception as exc:  # noqa: BLE001 - compared by type below
        return None, type(exc)


def home_ops(geo, home, lsns=None):
    """How many ops ``home``'s primary holds in the records ``lsns`` names
    (all of them by default)."""
    return sum(
        len(decode(e.payload))
        for e in geo.replicator.log(home).entries(home)
        if lsns is None or lsns(e.lsn)
    )


def reach(geo, session):
    """Per home, how many of its log's ops the session's writes reach —
    the read-your-writes bound, counted in ops."""
    return {
        home: home_ops(geo, home, lambda lsn, top=top: lsn <= top)
        for home, top in session.vector.items()
    }


def ops_behind(geo):
    """Per (home, destination): the ops of the home's records the
    destination's copy lacks — replication lag, counted in ops."""
    behind = {}
    for home in geo.config.regions:
        log = geo.replicator.log(home)
        for dst in log.holders:
            held = {e.lsn for e in log.entries(dst)}
            behind[home, dst] = home_ops(geo, home, lambda lsn: lsn not in held)
            assert geo.replicator.lag(home, dst) == len(
                {e.lsn for e in log.entries(home)} - held
            )
    return behind


def logged_in(geo, home, lsn, written):
    """Whether ``home``'s record ``lsn`` holds the entity op of ``written``."""
    (entry,) = [e for e in geo.replicator.log(home).entries(home) if e.lsn == lsn]
    return any(
        op["k"] == written.key and op["v"]["payload"] == written.payload
        for op in decode(entry.payload)
    )


def per_key(ops):
    """Each key's ops, in log order."""
    keyed = {}
    for op in ops:
        keyed.setdefault(op["k"], []).append(op)
    return keyed


class TestIngestManyIsTheWriteLoop:
    def view(self, geo, session, calm):
        regions = {
            region: [geo.region(region).read(key) for key in KEYS]
            for region in REGIONS
        }
        folds = {
            (home, name): fold(geo.replicator.log(home).entries(name)).entities
            for home in REGIONS for name in REGIONS
        }
        # A call groups its ops by shard, so only each key's ops keep
        # the loop's order.
        ops = {
            (home, name): per_key(expanded(geo.replicator.log(home).entries(name)))
            for home in REGIONS for name in REGIONS
        }
        ryw = None
        if calm:  # every home reachable: no read fails, no breaker moves
            ryw = [
                outcome(lambda: geo.read(
                    key, READ_YOUR_WRITES, region=region, session=session
                ))
                for region in REGIONS for key in KEYS
            ]
        return regions, folds, ops, reach(geo, session), ryw, ops_behind(geo)

    @settings(max_examples=40, deadline=None)
    @given(steps=st.lists(step, min_size=1, max_size=12))
    def test_under_region_kills_and_wan_partitions(self, steps):
        loop, batched = make_geo(), make_geo()
        loop_session, batched_session = GeoSession(), GeoSession()
        down: set[str] = set()
        cut = False
        for n, (kind, *args) in enumerate(steps):
            if kind == "ingest":
                pairs, client = args
                records = [record(k, {"v": v}, float(n)) for k, v in pairs]
                want, want_exc = outcome(lambda: [
                    loop.write_record(r, region=client, session=loop_session)
                    for r in records
                ])
                got, got_exc = outcome(lambda: batched.ingest_many(
                    records, region=client, session=batched_session
                ))
                assert got_exc == want_exc
                if want_exc is not None:
                    # The loop wrote a prefix of the records, the batch
                    # whole homes: both refused, the states part here.
                    return
                assert [lsn is None for lsn in got] == [
                    lsn is None for lsn in want
                ]
                # Each LSN names the home record that logged its write.
                for geo, lsns in ((loop, want), (batched, got)):
                    for r, lsn in zip(records, lsns):
                        if lsn is not None:
                            assert logged_in(geo, geo.home_of(r.key), lsn, r)
            for geo in (loop, batched):
                if kind == "kill" and args[0] not in down:
                    geo.kill_region(args[0])
                elif kind == "restart" and args[0] in down:
                    geo.restart_region(args[0])
                elif kind == "partition":
                    geo.partition_regions(
                        [[args[0]], [r for r in REGIONS if r != args[0]]]
                    )
                elif kind == "heal":
                    geo.heal_wan()
                elif kind == "tick":
                    geo.tick(0.5)
            if kind == "kill":
                down.add(args[0])
            elif kind == "restart":
                down.discard(args[0])
            elif kind in ("partition", "heal"):
                cut = kind == "partition"
            calm = not down and not cut
            assert self.view(loop, loop_session, calm) == self.view(
                batched, batched_session, calm
            )


# -- acceptance greps --------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"


def functions(name):
    """Bodies, docstrings dropped, of every ``def name`` under src/repro."""
    return [
        [ast.unparse(stmt) for stmt in node.body
         if not isinstance(getattr(stmt, "value", None), ast.Constant)]
        for path in sorted(ROOT.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]


class TestOneShipPath:
    def test_one_wan_send_carries_geo_replication(self):
        sends = [
            call
            for path in sorted((ROOT / "geo").rglob("*.py"))
            for call in ast.walk(ast.parse(path.read_text()))
            if isinstance(call, ast.Call)
            and ast.unparse(call.func).endswith("wan.send")
        ]
        assert len(sends) == 1
        assert [
            arg.value for arg in sends[0].args if isinstance(arg, ast.Constant)
        ] == ["geo.repl"]

    def test_delivery_takes_a_segment_and_has_no_per_entry_twin(self):
        assert [name for name in vars(GeoReplicator) if "deliver" in name] == [
            "deliver"
        ]
        assert list(inspect.signature(GeoReplicator.deliver).parameters) == [
            "self", "home", "dst", "entries"
        ]

    def test_every_import_entity_is_a_batch_of_one(self):
        bodies = functions("import_entity")
        assert bodies and bodies == [
            ["self.import_entities([(key, value)])"]
        ] * len(bodies)

    def test_every_import_product_is_a_batch_of_one(self):
        bodies = functions("import_product")
        assert sorted(bodies) == [
            ["self.import_products([(key, value)])"],
            ["self.import_products([(product_id, value)])"],
        ]

    def test_a_geo_write_is_an_ingest_of_one(self):
        (body,) = [
            [ast.unparse(stmt) for stmt in node.body
             if not isinstance(getattr(stmt, "value", None), ast.Constant)]
            for node in ast.walk(ast.parse(
                inspect.getsource(GeoDeployment.write_record).strip()
            ))
            if isinstance(node, ast.FunctionDef)
        ]
        assert body == [
            "return self.ingest_many([record], region=region, session=session)[0]"
        ]

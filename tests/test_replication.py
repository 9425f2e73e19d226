"""Replication-core properties (repro.replication), over both replicators.

The op format, its LSN-ordered fold and the replicated log are owned by
one module; :class:`~repro.cluster.failover.ShardReplicator` and
:class:`~repro.geo.replication.GeoReplicator` are peer-set/transport
policies over it.  Every property in :class:`TestBothReplicators` runs
against both through one small harness, rather than being written twice:

* **delivery order is irrelevant** — one owner's entries reaching a copy
  permuted, duplicated, and partly late through the hint buffer fold to
  the state the primary folds to (the cluster path cannot reorder state,
  by construction of the fold);
* **compaction preserves the union fold** — for any hole pattern, torn
  primary tail and any subset of copies compacted;
* **one anti-entropy round converges** — every copy's Merkle root equals
  the authority's afterwards;
* **the cached root is the cold root** — at every point of the three
  sequences above, each log's incrementally kept root equals
  ``merkle_root`` over its entries.

``TestSteadyRoundCost`` pins what the cached roots buy: a round over
converged logs hashes and parses the same, however long the logs are.

``_fold`` below is an independent reference the production
``fold``/``apply`` pair is checked against.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.failover import ShardReplicator
from repro.cluster.router import ShardRouter
from repro.core.errors import KeyNotFoundError
from repro.geo.replication import GeoReplicator
from repro.replication import (
    PostState,
    apply,
    compact_entries,
    decode,
    drop_entity_op,
    drop_product_op,
    encode,
    entity_op,
    fold,
    merkle_root,
    product_op,
    stock_op,
)
from repro.storage import WalEntry, wal

pytestmark = [pytest.mark.lifecycle]

# -- strategies and the reference fold -----------------------------------------

keys = st.integers(0, 12).map(lambda i: f"k{i:02d}")
values = st.recursive(
    st.one_of(
        st.integers(-(10**9), 10**9),
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        st.text(max_size=8),
        st.booleans(),
        st.none(),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=4), children, max_size=3),
    ),
    max_leaves=6,
)
replica_ops = st.lists(
    st.one_of(
        st.builds(entity_op, keys, values),
        st.builds(drop_entity_op, keys),
        st.builds(
            product_op,
            keys,
            st.fixed_dictionaries(
                {"name": st.text(max_size=6), "stock": st.integers(0, 99)}
            ),
        ),
        st.builds(drop_product_op, keys),
        st.builds(stock_op, keys, st.integers(0, 99)),
    ),
    min_size=1,
    max_size=50,
)


def _fold(entries):
    """Reference replay fold: every op applied one by one in LSN order."""
    entities: dict[str, object] = {}
    products: dict[str, dict] = {}
    for entry in sorted(entries, key=lambda e: e.lsn):
        op = decode(entry.payload)
        kind = op["op"]
        if kind == "entity":
            entities[op["k"]] = op["v"]
        elif kind == "drop_entity":
            entities.pop(op["k"], None)
        elif kind == "product":
            products[op["k"]] = dict(op["v"])
        elif kind == "drop_product":
            products.pop(op["k"], None)
        elif kind == "stock":
            products.setdefault(op["k"], {})["stock"] = int(op["stock"])
    return json.dumps({"e": entities, "p": products}, sort_keys=True)


class FakeShard:
    """The five calls :func:`repro.replication.apply` makes on a shard."""

    def __init__(self):
        self.entities: dict[str, object] = {}
        self.products: dict[str, dict] = {}

    def import_entity(self, key, value):
        self.entities[key] = value

    def drop_entity(self, key):
        if key not in self.entities:
            raise KeyNotFoundError(key)
        del self.entities[key]

    def import_product(self, key, value):
        self.products[key] = dict(value)

    def drop_product(self, key):
        if key not in self.products:
            raise KeyNotFoundError(key)
        del self.products[key]

    def committed_product(self, key):
        return self.products.get(key)

    def dump(self):
        return json.dumps({"e": self.entities, "p": self.products}, sort_keys=True)


def folded(entries) -> str:
    """Production fold + apply onto a fresh shard, in ``_fold``'s format."""
    shard = FakeShard()
    apply(fold(entries), {}, lambda key: shard)
    return shard.dump()


def _union(copies):
    merged = {}
    for copy in copies:
        for entry in copy:
            merged.setdefault(entry.lsn, entry)
    return [merged[lsn] for lsn in sorted(merged)]


def _materialize(ops):
    """Primary log entries (LSNs 1..n) for an op stream."""
    return [
        WalEntry(lsn=lsn, payload=encode(op)) for lsn, op in enumerate(ops, start=1)
    ]


# -- the pure functions ----------------------------------------------------------


class TestCompactionPreservesUnion:
    @settings(max_examples=80, deadline=None)
    @given(
        ops=replica_ops,
        hole_seed=st.lists(st.booleans(), max_size=50),
        torn=st.integers(0, 10),
    )
    def test_union_fold_identical(self, ops, hole_seed, torn):
        """Compacting any subset of copies never changes the union fold."""
        primary = _materialize(ops)
        # Replica copy: primary minus a hole pattern (dropped replication).
        holes = (hole_seed + [False] * len(primary))[: len(primary)]
        replica = [e for e, drop in zip(primary, holes) if not drop]
        # Torn tail on the primary: only its valid prefix survives.
        primary_prefix = primary[: max(0, len(primary) - torn)]
        copies = [primary_prefix, replica]
        baseline = _fold(_union(copies))
        assert folded(_union(copies)) == baseline
        # Compact every subset of copies; the fold must never move.
        for mask in range(1, 4):
            compacted = [
                compact_entries(copy) if (mask >> i) & 1 else copy
                for i, copy in enumerate(copies)
            ]
            assert _fold(_union(compacted)) == baseline
            assert folded(_union(compacted)) == baseline
        # Compaction is idempotent and only ever shrinks.
        once = compact_entries(primary_prefix)
        assert compact_entries(once) == once
        assert len(once) <= len(primary_prefix)

    def test_superseded_stock_collapses(self):
        entries = _materialize(
            [product_op("p", {"name": "x", "stock": 9})]
            + [stock_op("p", i) for i in range(20)]
        )
        compacted = compact_entries(entries)
        # Last product op + last stock op survive, nothing else.
        assert len(compacted) == 2
        assert compacted[0].lsn == 1 and compacted[1].lsn == 21
        assert _fold(compacted) == _fold(entries)

    def test_product_newer_than_stock_stands_alone(self):
        entries = _materialize(
            [stock_op("p", 5), product_op("p", {"name": "x", "stock": 3})]
        )
        compacted = compact_entries(entries)
        assert [e.lsn for e in compacted] == [2]

    def test_unknown_ops_kept_verbatim(self):
        alien = WalEntry(lsn=7, payload=encode({"op": "future", "k": "z"}))
        entries = _materialize([entity_op("a", 1)]) + [alien]
        assert alien in compact_entries(entries)


class TestApplyGuard:
    def state(self, lsn, op) -> PostState:
        return fold([WalEntry(lsn, encode(op))])

    def test_older_post_state_never_regresses_a_newer_one(self):
        shard, applied = FakeShard(), {}
        apply(self.state(7, entity_op("e", "new")), applied, lambda k: shard)
        landed = apply(self.state(5, entity_op("e", "old")), applied, lambda k: shard)
        assert landed == [] and shard.entities == {"e": "new"}
        assert applied == {"e": 7}

    def test_equal_lsn_lands_again(self):
        """A re-fold after a repaired hole reaches the same LSN with the
        fields the hole had hidden; it must land."""
        shard, applied = FakeShard(), {}
        stock = WalEntry(7, encode(stock_op("p", 3)))
        apply(fold([stock]), applied, lambda k: shard)
        assert shard.products == {"p": {"stock": 3}}
        product = WalEntry(5, encode(product_op("p", {"name": "x", "stock": 9})))
        assert apply(fold([stock, product]), applied, lambda k: shard) == ["p"]
        assert shard.products == {"p": {"name": "x", "stock": 3}}

    def test_lone_stock_level_lands_on_the_committed_record(self):
        shard = FakeShard()
        shard.import_product("p", {"name": "x", "stock": 9})
        apply(self.state(2, stock_op("p", 4)), {}, lambda k: shard)
        assert shard.products == {"p": {"name": "x", "stock": 4}}

    def test_key_without_a_shard_is_recorded_not_landed(self):
        applied = {}
        assert apply(self.state(3, entity_op("e", 1)), applied, lambda k: None) == []
        assert applied == {"e": 3}

    def test_dropping_what_the_shard_never_held_is_a_no_op(self):
        shard = FakeShard()
        entries = _materialize([drop_entity_op("e"), drop_product_op("p")])
        assert apply(fold(entries), {}, lambda k: shard) == ["e", "p"]
        assert shard.dump() == FakeShard().dump()


# -- both replicators, one suite -------------------------------------------------


class ClusterHarness:
    """Owner ``a`` on a three-shard ring; its one ring-successor holder is
    kept *down* while ops are logged so every entry comes out as a hint
    the test then delivers however it likes."""

    def __init__(self):
        self.rep = ShardReplicator(ShardRouter(["a", "b", "c"]), 2)
        self.owner = "a"
        self.holder = self.rep.holders("a")[1]
        self.rep.mark_down(self.holder)
        self.log = self.rep.log("a")

    def write(self, op):
        self.rep.log_op(self.owner, op)
        return self.log.take_hints(self.holder)[0]

    def deliver(self, lsn, payload):
        self.log.adopt(self.holder, lsn, payload)

    def hint(self, lsn, payload):
        self.log.buffer_hint(self.holder, lsn, payload)

    def flush_hints(self):
        self.rep.mark_up(self.holder)

    def authority(self):
        return self.log.union()

    def antientropy(self):
        self.rep.sync_owner(self.owner)


class GeoHarness:
    """Home ``a`` of three regions; ``b`` is the copy the test feeds and
    ``c`` never hears anything until anti-entropy."""

    def __init__(self):
        self.rep = GeoReplicator(("a", "b", "c"))
        self.owner, self.holder = "a", "b"
        self.log = self.rep.log("a")

    def write(self, op):
        return self.rep.log_op(self.owner, op, 0.0)

    def deliver(self, lsn, payload):
        self.rep.deliver(self.owner, self.holder, lsn, payload)

    def hint(self, lsn, payload):
        self.rep.buffer_hint(self.owner, self.holder, lsn, payload)

    def flush_hints(self):
        for lsn, payload in self.rep.take_hints(self.owner, self.holder):
            self.deliver(lsn, payload)

    def authority(self):
        return self.log.entries(self.owner)

    def antientropy(self):
        for dst in self.log.holders:
            self.rep.antientropy(self.owner, dst)


def assert_cached_roots(h):
    """Every log's cached root is ``merkle_root`` of its entries.  Also
    warms the per-log trees, so whatever the test does next has a cache
    to invalidate."""
    for name in (h.owner, *h.log.holders):
        assert h.log.root(name) == merkle_root(h.log.entries(name)), name


# Parametrised with the harness *class*: Hypothesis re-runs the test body
# per example and each example needs fresh logs.
@pytest.mark.parametrize(
    "make_harness", [ClusterHarness, GeoHarness], ids=["cluster", "geo"]
)
class TestBothReplicators:
    @settings(max_examples=60, deadline=None)
    @given(ops=replica_ops, data=st.data())
    def test_any_delivery_order_folds_to_the_same_state(
        self, make_harness, ops, data
    ):
        h = make_harness()
        shipped = [h.write(op) for op in ops]
        order = data.draw(st.permutations(shipped))
        flags = data.draw(
            st.lists(
                st.sampled_from(["once", "twice", "late"]),
                min_size=len(order), max_size=len(order),
            )
        )
        for i, ((lsn, payload), flag) in enumerate(zip(order, flags)):
            if i == len(order) // 2:
                assert_cached_roots(h)
            if flag == "late":
                h.hint(lsn, payload)
                continue
            h.deliver(lsn, payload)
            if flag == "twice":
                h.deliver(lsn, payload)
        h.flush_hints()
        assert_cached_roots(h)
        primary = h.log.entries(h.owner)
        copy = h.log.entries(h.holder)
        assert {e.lsn for e in copy} == {e.lsn for e in primary}
        assert folded(copy) == folded(primary) == _fold(primary)

    @settings(max_examples=60, deadline=None)
    @given(
        ops=replica_ops,
        holes=st.lists(st.booleans(), min_size=50, max_size=50),
        torn=st.integers(0, 40),
        skip_mask=st.integers(0, 3),
    )
    def test_compacting_any_subset_of_logs_keeps_the_union_fold(
        self, make_harness, ops, holes, torn, skip_mask
    ):
        h = make_harness()
        for (lsn, payload), hole in zip([h.write(op) for op in ops], holes):
            if not hole:
                h.deliver(lsn, payload)
        assert_cached_roots(h)
        h.log.tear(torn)
        assert_cached_roots(h)
        baseline = _fold(h.log.union())
        names = [h.owner, h.holder]
        h.log.compact(skip=[n for i, n in enumerate(names) if (skip_mask >> i) & 1])
        assert_cached_roots(h)
        assert folded(h.log.union()) == baseline
        for i, name in enumerate(names):
            if not (skip_mask >> i) & 1:  # a compacted log is a fixpoint
                entries = h.log.entries(name)
                assert compact_entries(entries) == entries

    @settings(max_examples=60, deadline=None)
    @given(
        ops=replica_ops,
        holes=st.lists(st.booleans(), min_size=50, max_size=50),
        compact_first=st.booleans(),
    )
    def test_one_antientropy_round_converges_every_copy(
        self, make_harness, ops, holes, compact_first
    ):
        h = make_harness()
        for (lsn, payload), hole in zip([h.write(op) for op in ops], holes):
            if not hole:
                h.deliver(lsn, payload)
        assert_cached_roots(h)
        if compact_first:
            h.log.compact()
            assert_cached_roots(h)
        before = _fold(h.log.union())
        h.antientropy()
        authority = h.authority()
        root = merkle_root(authority)
        for name in (h.owner, *h.log.holders):
            assert merkle_root(h.log.entries(name)) == root
        assert_cached_roots(h)
        assert folded(authority) == before
        # A repaired copy keeps converging as the primary grows.
        for lsn, payload in [h.write(op) for op in ops[:5]]:
            h.deliver(lsn, payload)
        assert_cached_roots(h)
        assert h.log.root(h.holder) == h.log.root(h.owner)


class TestSteadyRoundCost:
    """Anti-entropy over converged logs costs O(log n), not O(n)."""

    def converged(self, n):
        rep = GeoReplicator(("a", "b", "c"), compact_threshold=None)
        for i in range(n):
            lsn, payload = rep.log_op("a", entity_op(f"k{i}", i), 0.0)
            for dst in ("b", "c"):
                rep.deliver("a", dst, lsn, payload)
        return rep

    def steady_round_work(self, n, monkeypatch):
        """(SHA-256 calls, WAL entries parsed) by one round after a first
        round has found every copy converged."""
        rep = self.converged(n)
        for dst in ("b", "c"):
            assert rep.antientropy("a", dst) is None
        work = {"sha256": 0, "parsed": 0}

        def counting(fn, name):
            def counted(*args, **kwargs):
                work[name] += 1
                return fn(*args, **kwargs)
            return counted

        with monkeypatch.context() as patch:
            # merkle.py calls ``hashlib.sha256`` through the module.
            patch.setattr(hashlib, "sha256", counting(hashlib.sha256, "sha256"))
            patch.setattr(wal, "WalEntry", counting(WalEntry, "parsed"))
            for dst in ("b", "c"):
                assert rep.antientropy("a", dst) is None
        return work

    def test_steady_round_does_not_grow_with_the_log(self, monkeypatch):
        # 500 and 4 000 have the same number of set bits, hence the same
        # frontier length: the counts are equal, not merely both small.
        small = self.steady_round_work(500, monkeypatch)
        large = self.steady_round_work(4000, monkeypatch)
        assert small == large
        assert small["parsed"] == 0 and 0 < small["sha256"] < 64

    def test_agreeing_log_is_never_materialised(self, monkeypatch):
        rep = self.converged(40)
        log = rep.log("a")
        lsn, payload = rep.log_op("a", entity_op("late", 1), 0.0)
        rep.deliver("a", "b", lsn, payload)  # c misses it
        asked = []
        entries = log.entries
        monkeypatch.setattr(
            log, "entries", lambda name: asked.append(name) or entries(name)
        )
        lacked = log.repair(["b", "c"], authority="a")
        assert [e.lsn for e in lacked["c"]] == [lsn] and "b" not in lacked
        assert "b" not in asked
        asked.clear()
        assert log.repair(["b", "c"], authority="a") == {}
        assert asked == []

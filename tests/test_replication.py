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
* **one anti-entropy round converges** — every copy holds the
  authority's entries afterwards;
* **the cached digest is the cold digest** — at every point of the three
  sequences above, each log's incrementally kept digest equals
  ``set_digest`` over its entries.

``TestSetDigest`` holds the digest equal to what it replaced — the
RFC-6962 root over the LSN-sorted entries (``merkle_root`` below, over
the :mod:`repro.ledger` exhibit) — and ``TestReorderIsNotDivergence``
pins what it buys: a copy that holds the primary's entries in another
order is left alone, one that really differs is rebuilt as before.
``TestSteadyRoundCost`` pins the price: a round over converged logs
hashes and parses nothing, however long the logs are.

``_fold`` below is an independent reference the production
``fold``/``apply`` pair is checked against.

A log entry is one *record*: what one call committed for one owner.  The
one-op-per-entry log it replaced lives on as the oracle
(``TestRecordLogIsThePerOpLog``): a per-op log is a record log whose
records each hold one op, and under any delivery, drop, hint, torn tail
and compaction the record log folds, and answers for a down owner, as
that log does.  ``TestOneRecordPerSegment`` is the acceptance grep.
"""

import ast
import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.failover import ReplicaStandIn, ShardReplicator
from repro.cluster.router import ShardRouter
from repro.core.errors import ConfigurationError, KeyNotFoundError
from repro.geo.replication import GeoReplicator
from repro.ledger.merkle import MerkleTree
from repro.replication import (
    PostState,
    ReplicatedLog,
    apply,
    compact_entries,
    decode,
    drop_entity_op,
    drop_product_op,
    entity_op,
    fold,
    product_op,
    set_digest,
    stock_op,
)
from repro.storage import WalEntry, wal
from repro.storage.wal import WriteAheadLog
from tests.test_position_index import sweep_only

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
replica_op = st.one_of(
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
)
replica_ops = st.lists(replica_op, min_size=1, max_size=50)
#: What calls commit: each call's ops, one record each.
replica_calls = st.lists(
    st.lists(replica_op, min_size=1, max_size=4), min_size=1, max_size=20
)


def encode(ops) -> bytes:
    """The record format: a list of ops as compact sorted-key JSON."""
    return json.dumps(ops, sort_keys=True, separators=(",", ":")).encode("utf-8")


def expanded(entries):
    """The ops of ``entries``, records in LSN order, each in op order."""
    return [op for e in sorted(entries, key=lambda e: e.lsn) for op in decode(e.payload)]


def _fold(entries):
    """Reference replay fold: every op applied one by one in LSN order."""
    entities: dict[str, object] = {}
    products: dict[str, dict] = {}
    for op in expanded(entries):
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
    """The calls :func:`repro.replication.apply` makes on a shard."""

    def __init__(self):
        self.entities: dict[str, object] = {}
        self.products: dict[str, dict] = {}

    def import_entities(self, items):
        self.entities.update(items)

    def drop_entity(self, key):
        if key not in self.entities:
            raise KeyNotFoundError(key)
        del self.entities[key]

    def import_product(self, key, value):
        self.import_products([(key, value)])

    def import_products(self, items):
        for key, value in items:
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
    """Per-op primary log entries (LSNs 1..n), one op per record."""
    return _records([[op] for op in ops])


def _records(calls):
    """Primary log entries (LSNs 1..n), one record per call."""
    return [
        WalEntry(lsn=lsn, payload=encode(ops)) for lsn, ops in enumerate(calls, start=1)
    ]


def merkle_root(entries) -> bytes:
    """RFC-6962 root over ``(lsn, payload)`` leaves in the given order:
    what a replicated log compared before :func:`set_digest`, kept as its
    oracle."""
    tree = MerkleTree()
    for entry in entries:
        tree.append(f"{entry.lsn}:".encode("utf-8") + entry.payload)
    return tree.root()


def by_lsn(entries):
    """LSN order, payload breaking a tie so that the order — and the
    root over it — is a function of the multiset alone."""
    return sorted(entries, key=lambda e: (e.lsn, e.payload))


# -- the pure functions ----------------------------------------------------------


class TestOpFormat:
    @settings(max_examples=200, deadline=None)
    @given(ops=st.lists(replica_op, min_size=1, max_size=6))
    def test_encode_is_sorted_key_json(self, ops):
        """One append writes the call's ops as one compact sorted-key
        JSON list: payload sizes and digests rest on these bytes."""
        log = ReplicatedLog("a", ["b"])
        lsn, payload = log.append(ops)
        assert payload == encode(ops)
        assert decode(payload) == ops
        assert log.entries("a") == [WalEntry(lsn, payload)]

    @settings(max_examples=200, deadline=None)
    @given(ops=st.lists(replica_op, min_size=1, max_size=6))
    def test_a_record_is_no_longer_than_its_ops_logged_alone(self, ops):
        """Why the separators are compact: the one-op-per-entry log wrote
        ``json.dumps(op, sort_keys=True)`` per op, and a record of the
        same ops never writes more bytes, frame headers aside."""
        alone = [json.dumps(op, sort_keys=True).encode("utf-8") for op in ops]
        assert len(encode(ops)) <= sum(map(len, alone))


class TestSetDigest:
    FATES = ("keep", "keep", "drop", "dup", "change")

    def draw_copy(self, data, base, extras):
        fates = data.draw(
            st.lists(
                st.sampled_from(self.FATES), min_size=len(base), max_size=len(base)
            )
        )
        copy = []
        for entry, fate in zip(base, fates):
            if fate == "change":
                entry = WalEntry(entry.lsn, entry.payload + b"!")
            copy += [entry] * {"drop": 0, "dup": 2}.get(fate, 1)
        copy += data.draw(st.lists(st.sampled_from(extras), max_size=2))
        return data.draw(st.permutations(copy))

    @settings(max_examples=300, deadline=None)
    @given(ops=replica_ops, mirror=st.booleans(), data=st.data())
    def test_equal_digests_iff_equal_sorted_roots(self, ops, mirror, data):
        """Two copies sharing, dropping, duplicating, altering and adding
        entries: their digests agree exactly when the roots the old
        comparison would have reached over LSN-sorted copies agree."""
        entries = _materialize(ops)
        base, extras = entries[: len(entries) // 2 + 1], entries[len(entries) // 2 :]
        a = self.draw_copy(data, base, extras)
        b = (
            data.draw(st.permutations(a)) if mirror
            else self.draw_copy(data, base, extras)
        )
        same_root = (
            len(a) == len(b)
            and merkle_root(by_lsn(a)) == merkle_root(by_lsn(b))
        )
        assert (set_digest(a) == set_digest(b)) == same_root
        assert same_root == (by_lsn(a) == by_lsn(b))
        # The incremental form is the definition.
        cut = data.draw(st.integers(0, len(a)))
        assert set_digest(a[cut:], set_digest(a[:cut])) == set_digest(a)

    def test_a_duplicate_does_not_cancel_itself(self):
        """Why the sum is an addition and carries the count: under XOR a
        twice-delivered entry would vanish from the digest."""
        one, other = _materialize([entity_op("a", 1), entity_op("b", 2)])
        assert set_digest([one, other, other]) != set_digest([one])
        assert set_digest([one, other, other]) != set_digest([one, other])
        assert set_digest([one, other, other]) != set_digest([one, one, one])
        assert set_digest([]) == (0, 0)


class TestCompactionPreservesUnion:
    @settings(max_examples=80, deadline=None)
    @given(
        calls=replica_calls,
        hole_seed=st.lists(st.booleans(), max_size=50),
        torn=st.integers(0, 10),
    )
    def test_union_fold_identical(self, calls, hole_seed, torn):
        """Compacting any subset of copies never changes the union fold."""
        primary = _records(calls)
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
            # Survivors are verbatim records of the copy, once each.
            for copy, kept in zip(copies, compacted):
                assert [e for e in copy if e in kept] == kept
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

    def test_a_record_survives_whole_while_any_op_in_it_is_live(self):
        entries = _records([
            [entity_op("a", 1), entity_op("b", 1), stock_op("p", 4)],
            [entity_op("a", 2), product_op("p", {"name": "x", "stock": 3})],
        ])
        assert compact_entries(entries) == entries  # b's last op is in 1
        later = entries + [WalEntry(3, encode([entity_op("b", 2)]))]
        assert [e.lsn for e in compact_entries(later)] == [2, 3]
        assert _fold(compact_entries(later)) == _fold(later)

    def test_a_record_holding_several_last_ops_survives_once(self):
        entries = _records([
            [entity_op("a", 0)],
            [entity_op("a", 1), entity_op("b", 1), stock_op("p", 2)],
        ])
        assert compact_entries(entries) == entries[1:]

    def test_unknown_ops_kept_verbatim(self):
        alien = WalEntry(lsn=7, payload=encode([{"op": "future", "k": "z"}]))
        entries = _materialize([entity_op("a", 1)]) + [alien]
        assert alien in compact_entries(entries)


class TestApplyGuard:
    def state(self, lsn, op) -> PostState:
        return fold([WalEntry(lsn, encode([op]))])

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
        stock = WalEntry(7, encode([stock_op("p", 3)]))
        apply(fold([stock]), applied, lambda k: shard)
        assert shard.products == {"p": {"stock": 3}}
        product = WalEntry(5, encode([product_op("p", {"name": "x", "stock": 9})]))
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
    kept *down* while calls are logged so every record comes out as a
    hint the test then delivers however it likes."""

    def __init__(self):
        self.rep = ShardReplicator(ShardRouter(["a", "b", "c"]), 2)
        self.owner = "a"
        self.holder = self.rep.holders("a")[1]
        self.rep.mark_down(self.holder)
        self.log = self.rep.log("a")

    def write(self, ops):
        """Log one call's ``ops``; return its ``(lsn, payload)``."""
        self.rep.log_op(self.owner, ops)
        *earlier, entry = self.log.take_hints(self.holder)
        self.log.buffer_hints(self.holder, earlier)  # hinted by the test
        return entry

    def deliver(self, lsn, payload):
        self.log.adopt(self.holder, lsn, payload)

    def hint(self, lsn, payload):
        self.log.buffer_hints(self.holder, [(lsn, payload)])

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

    def write(self, ops):
        return self.rep.log_op(self.owner, ops, 0.0)

    def deliver(self, lsn, payload):
        self.rep.deliver(self.owner, self.holder, [(lsn, payload)])

    def hint(self, lsn, payload):
        self.rep.buffer_hints(self.owner, self.holder, [(lsn, payload)])

    def flush_hints(self):
        for lsn, payload in self.rep.take_hints(self.owner, self.holder):
            self.deliver(lsn, payload)

    def authority(self):
        return self.log.entries(self.owner)

    def antientropy(self):
        for dst in self.log.holders:
            self.rep.antientropy(self.owner, dst)


def assert_cached_digests(h):
    """Every log's cached digest is ``set_digest`` of its entries.  Also
    warms the per-log caches, so whatever the test does next has a cache
    to invalidate."""
    for name in (h.owner, *h.log.holders):
        assert h.log._digest(name) == set_digest(h.log.entries(name)), name


# Parametrised with the harness *class*: Hypothesis re-runs the test body
# per example and each example needs fresh logs.
@pytest.mark.parametrize(
    "make_harness", [ClusterHarness, GeoHarness], ids=["cluster", "geo"]
)
class TestBothReplicators:
    @settings(max_examples=60, deadline=None)
    @given(calls=replica_calls, data=st.data())
    def test_any_delivery_order_folds_to_the_same_state(
        self, make_harness, calls, data
    ):
        h = make_harness()
        shipped = [h.write(ops) for ops in calls]
        order = data.draw(st.permutations(shipped))
        flags = data.draw(
            st.lists(
                st.sampled_from(["once", "twice", "late"]),
                min_size=len(order), max_size=len(order),
            )
        )
        for i, ((lsn, payload), flag) in enumerate(zip(order, flags)):
            if i == len(order) // 2:
                assert_cached_digests(h)
            if flag == "late":
                h.hint(lsn, payload)
                continue
            h.deliver(lsn, payload)
            if flag == "twice":
                h.deliver(lsn, payload)
        h.flush_hints()
        assert_cached_digests(h)
        primary = h.log.entries(h.owner)
        copy = h.log.entries(h.holder)
        assert {e.lsn for e in copy} == {e.lsn for e in primary}
        assert folded(copy) == folded(primary) == _fold(primary)

    @settings(max_examples=60, deadline=None)
    @given(
        calls=replica_calls,
        holes=st.lists(st.booleans(), min_size=50, max_size=50),
        torn=st.integers(0, 40),
        skip_mask=st.integers(0, 3),
    )
    def test_compacting_any_subset_of_logs_keeps_the_union_fold(
        self, make_harness, calls, holes, torn, skip_mask
    ):
        h = make_harness()
        for (lsn, payload), hole in zip([h.write(ops) for ops in calls], holes):
            if not hole:
                h.deliver(lsn, payload)
        assert_cached_digests(h)
        h.log.tear(torn)
        assert_cached_digests(h)
        baseline = _fold(h.log.union())
        names = [h.owner, h.holder]
        h.log.compact(skip=[n for i, n in enumerate(names) if (skip_mask >> i) & 1])
        assert_cached_digests(h)
        assert folded(h.log.union()) == baseline
        for i, name in enumerate(names):
            if not (skip_mask >> i) & 1:  # a compacted log is a fixpoint
                entries = h.log.entries(name)
                assert compact_entries(entries) == entries

    @settings(max_examples=60, deadline=None)
    @given(
        calls=replica_calls,
        holes=st.lists(st.booleans(), min_size=50, max_size=50),
        compact_first=st.booleans(),
    )
    def test_one_antientropy_round_converges_every_copy(
        self, make_harness, calls, holes, compact_first
    ):
        h = make_harness()
        for (lsn, payload), hole in zip([h.write(ops) for ops in calls], holes):
            if not hole:
                h.deliver(lsn, payload)
        assert_cached_digests(h)
        if compact_first:
            h.log.compact()
            assert_cached_digests(h)
        before = _fold(h.log.union())
        h.antientropy()
        authority = h.authority()
        for name in (h.owner, *h.log.holders):
            assert by_lsn(h.log.entries(name)) == authority
        assert_cached_digests(h)
        assert folded(authority) == before
        # A repaired copy keeps converging as the primary grows.
        for lsn, payload in [h.write(ops) for ops in calls[:5]]:
            h.deliver(lsn, payload)
        assert_cached_digests(h)
        assert h.log._digest(h.holder) == h.log._digest(h.owner)


class TestDigestLifecycle:
    """Each place a log's body is replaced resets its cached digest
    (remove either reset and the test named for it fails); the
    assignment after a repair is held by
    ``TestSteadyRoundCost.test_round_after_a_repair_hashes_nothing``."""

    def warm(self):
        h = ClusterHarness()
        for i in range(6):
            h.deliver(*h.write([entity_op(f"k{i}", i)]))
        assert_cached_digests(h)
        return h

    def test_tear_resets_the_primary(self):
        h = self.warm()
        h.log.tear(5)
        assert len(h.log.entries(h.owner)) == 5
        assert_cached_digests(h)

    def test_rebuild_resets_the_rebuilt_log(self):
        h = self.warm()
        h.log.rebuild(h.holder, h.log.entries(h.holder)[:3])
        assert_cached_digests(h)
        h.log.compact()  # every op is its key's last: nothing to drop
        h.deliver(*h.write([entity_op("k0", "newer")]))
        h.log.compact()
        assert_cached_digests(h)


class TestReorderIsNotDivergence:
    """Converged means the same set.  A copy appends in arrival order
    and a WAN reorders; only a copy that lacks, adds or damages an entry
    has diverged.  The shuffled cases fail on an order-sensitive root."""

    N = 12

    def shipped(self, h):
        return [h.write([entity_op(f"k{i}", i)]) for i in range(self.N)]

    def shuffled(self, shipped):
        order = shipped[::-1]
        order[3], order[7] = order[7], order[3]
        return order

    def geo(self, withheld=()):
        h = GeoHarness()
        shipped = self.shuffled(self.shipped(h))
        for dst in ("b", "c"):
            for lsn, payload in shipped:
                if dst == "c" or lsn not in withheld:
                    h.rep.deliver("a", dst, [(lsn, payload)])
        return h, shipped

    def rounds(self, h):
        return h.rep.metrics.counter("geo.antientropy.rounds").value

    def test_a_shuffled_geo_copy_is_not_rebuilt(self):
        h, _ = self.geo()
        buffers = {dst: h.log._logs[dst]._buf for dst in ("b", "c")}
        for _ in range(2):
            for dst in ("b", "c"):
                assert h.rep.antientropy("a", dst) is None
        assert self.rounds(h) == 0
        for dst in ("b", "c"):
            assert h.log._logs[dst]._buf is buffers[dst]
            assert h.log.entries(dst) != h.log.entries("a")  # still shuffled
            assert h.rep.lag("a", dst) == 0

    def repaired(self, h, lacked):
        """One round rebuilds ``b`` having lacked ``lacked``; the next
        finds it converged."""
        state = h.rep.antientropy("a", "b")
        assert state is not None
        assert sorted(state.lsn.values()) == lacked
        counter = h.rep.metrics.counter("geo.antientropy.repaired_entries")
        assert counter.value == len(lacked)
        assert h.log.entries("b") == h.log.entries("a")
        assert h.rep.antientropy("a", "b") is None
        assert h.rep.antientropy("a", "c") is None  # shuffled, untouched
        assert self.rounds(h) == 1

    def test_a_geo_copy_lacking_an_entry_is_repaired_in_one_round(self):
        h, _ = self.geo(withheld={5})
        self.repaired(h, [5])

    def test_a_geo_copy_holding_an_extra_entry_is_repaired_in_one_round(self):
        h, _ = self.geo()
        h.log.adopt("b", 99, encode([entity_op("ghost", 0)]))
        self.repaired(h, [])

    def test_a_geo_copy_with_a_torn_tail_is_repaired_in_one_round(self):
        h, shipped = self.geo()
        h.log._logs["b"].corrupt_tail(3)
        self.repaired(h, [shipped[-1][0]])  # the copy's last append

    def cluster(self, withheld=()):
        h = ClusterHarness()
        for lsn, payload in self.shuffled(self.shipped(h)):
            if lsn not in withheld:
                h.hint(lsn, payload)
        h.flush_hints()  # the holder returns: hints land out of LSN order
        return h

    def test_hints_delivered_out_of_order_leave_nothing_to_sync(self):
        h = self.cluster()
        buffer = h.log._logs[h.holder]._buf
        assert h.rep.sync_owner(h.owner) is False
        assert h.log._logs[h.holder]._buf is buffer
        assert h.log.entries(h.holder) != h.log.entries(h.owner)

    def test_a_withheld_hint_is_synced_in_one_round(self):
        h = self.cluster(withheld={5})
        assert h.rep.sync_owner(h.owner) is True
        assert h.log.entries(h.holder) == h.log.entries(h.owner)
        assert h.rep.sync_owner(h.owner) is False


class TestSteadyRoundCost:
    """Anti-entropy over converged logs costs two tuple comparisons."""

    def converged(self, n):
        rep = GeoReplicator(("a", "b", "c"), compact_threshold=None)
        for i in range(n):
            lsn, payload = rep.log_op("a", [entity_op(f"k{i}", i)], 0.0)
            for dst in ("b", "c"):
                rep.deliver("a", dst, [(lsn, payload)])
        return rep

    def round_work(self, rep, monkeypatch):
        """(SHA-256 calls, WAL entries parsed) by one round that finds
        every copy converged."""
        work = {"sha256": 0, "parsed": 0}

        def counting(fn, name):
            def counted(*args, **kwargs):
                work[name] += 1
                return fn(*args, **kwargs)
            return counted

        with monkeypatch.context() as patch:
            # replication.py calls ``hashlib.sha256`` through the module.
            patch.setattr(hashlib, "sha256", counting(hashlib.sha256, "sha256"))
            patch.setattr(wal, "WalEntry", counting(WalEntry, "parsed"))
            for dst in ("b", "c"):
                assert rep.antientropy("a", dst) is None
        return work

    def test_steady_round_does_not_grow_with_the_log(self, monkeypatch):
        for n in (500, 4000):
            rep = self.converged(n)
            # The first round catches the three digests up: each entry once.
            first = self.round_work(rep, monkeypatch)
            assert first == {"sha256": 3 * n, "parsed": 3 * n}
            assert self.round_work(rep, monkeypatch) == {"sha256": 0, "parsed": 0}

    def test_round_after_a_repair_hashes_nothing(self, monkeypatch):
        """A rebuilt copy takes the authority's digest: same entries."""
        rep = self.converged(40)
        lsn, payload = rep.log_op("a", [entity_op("late", 1)], 0.0)
        rep.deliver("a", "b", [(lsn, payload)])  # c misses it
        assert rep.antientropy("a", "b") is None
        assert rep.antientropy("a", "c") is not None
        assert self.round_work(rep, monkeypatch)["sha256"] == 0

    def test_agreeing_log_is_never_materialised(self, monkeypatch):
        rep = self.converged(40)
        log = rep.log("a")
        lsn, payload = rep.log_op("a", [entity_op("late", 1)], 0.0)
        rep.deliver("a", "b", [(lsn, payload)])  # c misses it
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


# -- the per-op log is the oracle -------------------------------------------------

FATES = ("deliver", "twice", "drop", "late")
KEYS = [f"k{i:02d}" for i in range(13)]


def frame(payload: bytes) -> int:
    """Bytes one record takes in a WAL: header and payload."""
    return wal._HEADER.size + len(payload)


class Twins:
    """A record log and the per-op log it replaced, driven alike: each
    call is one record in the first and one record per op in the second,
    and whatever happens to a call's record happens to each of its ops."""

    def __init__(self, make_harness):
        self.records, self.per_op = make_harness(), make_harness()
        self.calls = []  # per call: its record, then its per-op entries

    def write(self, ops):
        self.calls.append(
            (self.records.write(ops), [self.per_op.write([op]) for op in ops])
        )

    def deliver(self, call, fate):
        record, alone = self.calls[call]
        for h, entries in ((self.records, [record]), (self.per_op, alone)):
            for lsn, payload in entries:
                if fate == "late":
                    h.hint(lsn, payload)
                for _ in range({"deliver": 1, "twice": 2}.get(fate, 0)):
                    h.deliver(lsn, payload)

    def tear(self, calls, into):
        """Tear the last ``calls`` calls off both primaries: into the
        first of them by ``into`` bytes in the record log, at its first
        op's frame boundary in the per-op log."""
        if not calls:
            return
        torn = self.calls[-calls:]
        first = frame(torn[0][0][1])
        self.records.log.tear(
            sum(frame(record[1]) for record, _ in torn[1:]) + 1 + into % first
        )
        self.per_op.log.tear(
            sum(frame(payload) for _, alone in torn for _, payload in alone)
        )

    def logs(self, h):
        """Every copy's ops in LSN order, with how many of them it holds
        twice, and every hint buffer's ops in ship order."""
        names = (h.owner, *h.log.holders)

        def copy(entries):
            once = {e.lsn: e for e in entries}
            return expanded(once.values()), len(expanded(entries)) - len(
                expanded(once.values())
            )

        return (
            {name: copy(h.log.entries(name)) for name in names},
            {
                name: [op for _, payload in h.log._hints[name] for op in decode(payload)]
                for name in h.log.holders
            },
        )

    def answers(self, h):
        """The union's fold, and what a stand-in for the down owner says."""
        state = fold(h.log.union())
        stand_in = ReplicaStandIn(
            SimpleNamespace(replicator=h.rep, metrics=h.rep.metrics), h.owner
        )
        stock = []
        for key in KEYS:
            try:
                stock.append(stand_in.get_stock(key))
            except ConfigurationError:
                stock.append(None)
        return (
            (state.entities, state.products, state.partial),
            _fold(h.log.union()),
            [stand_in.read(key) for key in KEYS],
            stock,
            [stand_in.committed_product(key) for key in KEYS],
        )

    def assert_same_logs(self):
        assert self.logs(self.records) == self.logs(self.per_op)

    def assert_same_answers(self):
        assert self.answers(self.records) == self.answers(self.per_op)


twin_scripts = st.fixed_dictionaries({
    "calls": replica_calls,
    "fates": st.lists(st.sampled_from(FATES), min_size=20, max_size=20),
    "torn": st.integers(0, 3),
    "into": st.integers(0, 10**6),
    "after": st.lists(st.lists(replica_op, min_size=1, max_size=4), max_size=3),
    "skip_mask": st.integers(0, 7),
})


def play_twins(make_harness, script):
    twins = Twins(make_harness)
    for ops in script["calls"]:
        twins.write(ops)
    for call, fate in enumerate(script["fates"][: len(twins.calls)]):
        twins.deliver(call, fate)
    twins.assert_same_logs()
    twins.tear(min(script["torn"], len(twins.calls)), script["into"])
    twins.assert_same_logs()
    twins.assert_same_answers()
    for ops in script["after"]:  # the torn primary writes on
        twins.write(ops)
        twins.deliver(len(twins.calls) - 1, "deliver")
    twins.assert_same_logs()
    twins.assert_same_answers()
    for h in (twins.records, twins.per_op):
        names = (h.owner, *h.log.holders)
        h.log.compact(
            skip=[n for i, n in enumerate(names) if (script["skip_mask"] >> i) & 1]
        )
    # Compaction keeps records whole, so the logs part here; what they
    # say does not.
    twins.assert_same_answers()
    for h in (twins.records, twins.per_op):
        h.flush_hints()
    twins.assert_same_answers()
    for h in (twins.records, twins.per_op):
        h.antientropy()
    twins.assert_same_answers()


@pytest.mark.parametrize(
    "make_harness", [ClusterHarness, GeoHarness], ids=["cluster", "geo"]
)
class TestRecordLogIsThePerOpLog:
    """Before compaction every copy and hint buffer holds, expanded, the
    per-op log's ops; through torn tails, drops, hints, compaction of any
    subset of copies and anti-entropy, the union folds and a down owner's
    stand-in answers as the per-op log's do."""

    @settings(max_examples=60, deadline=None)
    @given(script=twin_scripts)
    def test_the_record_log_folds_and_answers_as_the_per_op_log(
        self, make_harness, script
    ):
        play_twins(make_harness, script)

    @pytest.mark.slow
    @settings(max_examples=1000, deadline=None)
    @given(script=twin_scripts)
    def test_sweep_the_record_log_folds_and_answers_as_the_per_op_log(
        self, make_harness, request, script
    ):
        """The property above at 1,000 examples, for the nightly tier."""
        sweep_only(request)
        play_twins(make_harness, script)


class TestATornTailDropsWholeCalls:
    CALLS = [
        [entity_op("a", 1), entity_op("b", 1)],
        [entity_op("c", 1)],
        [entity_op("a", 2), stock_op("p", 3), entity_op("d", 4)],
    ]

    def logged(self):
        rep = ShardReplicator(ShardRouter(["a", "b", "c"]), 2)
        for ops in self.CALLS:
            rep.log_op("a", ops)
        return rep.log("a")

    @pytest.mark.parametrize("into", [1, 9, None], ids=["byte", "some", "whole"])
    def test_tearing_into_the_last_record_drops_that_call_only(self, into):
        log = self.logged()
        last = log.entries("a")[-1]
        log.tear(frame(last.payload) if into is None else into)
        assert expanded(log.entries("a")) == self.CALLS[0] + self.CALLS[1]
        # The holder's copy carries the call: the union loses no op.
        assert expanded(log.union()) == [op for ops in self.CALLS for op in ops]

    def test_tearing_one_byte_further_drops_the_call_before_whole(self):
        log = self.logged()
        log.tear(frame(log.entries("a")[-1].payload) + 1)
        assert expanded(log.entries("a")) == self.CALLS[0]


# -- acceptance grep ---------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


class TestOneRecordPerSegment:
    def counting(self, monkeypatch):
        """Count ``WriteAheadLog.append`` and ``append_at`` calls."""
        calls = {"append": 0, "append_at": 0}
        for name in calls:
            def counted(self, *args, _name=name, _original=getattr(WriteAheadLog, name)):
                calls[_name] += 1
                return _original(self, *args)
            monkeypatch.setattr(WriteAheadLog, name, counted)
        return calls

    def test_a_cluster_segment_is_one_append_and_one_adopt_per_up_holder(
        self, monkeypatch
    ):
        rep = ShardReplicator(ShardRouter(["a", "b", "c", "d"]), 3)
        rep.log("a")
        calls = self.counting(monkeypatch)
        rep.log_op("a", [entity_op(f"k{i}", i) for i in range(5)])
        assert calls == {"append": 1, "append_at": 2}
        down = rep.holders("a")[2]
        rep.mark_down(down)
        rep.log_op("a", [entity_op("k0", 9), stock_op("p", 1)])
        assert calls == {"append": 2, "append_at": 3}
        assert len(rep.log("a")._hints[down]) == 1
        rep.mark_up(down)
        assert calls == {"append": 2, "append_at": 4}
        counted = rep.metrics.counter
        assert counted("cluster.failover.replicated_ops").value == 7
        assert counted("cluster.failover.hints_buffered").value == 1
        assert counted("cluster.failover.hints_delivered").value == 1

    def test_a_geo_record_is_one_append_and_one_adopt_per_destination(
        self, monkeypatch
    ):
        rep = GeoReplicator(("a", "b", "c"))
        calls = self.counting(monkeypatch)
        entry = rep.log_op("a", [entity_op(f"k{i}", i) for i in range(5)], 0.0)
        assert calls == {"append": 1, "append_at": 0}
        for dst in ("b", "c"):
            rep.deliver("a", dst, [entry])
        assert calls == {"append": 1, "append_at": 2}
        assert rep.metrics.counter("geo.repl.logged").value == 1
        assert rep.metrics.counter("geo.repl.delivered").value == 2

    def test_no_caller_maps_or_loops_a_log_append(self):
        """The replicators append to a :class:`ReplicatedLog` in one call
        each, never in a loop or a ``map``."""
        loops = (ast.For, ast.While, ast.ListComp, ast.GeneratorExp, ast.SetComp)

        def is_log(node):
            text = ast.unparse(node)
            return text == "log" or text.startswith("self._logs[")

        appends = []
        for path in sorted([SRC / "cluster" / "failover.py", *(SRC / "geo").glob("*.py")]):
            tree = ast.parse(path.read_text())
            called = {
                id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)
            }
            looped = {
                id(inner)
                for loop in ast.walk(tree) if isinstance(loop, loops)
                for inner in ast.walk(loop)
            }
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr == "append"
                    and is_log(node.value)
                ):
                    assert id(node) in called, f"{path.name}: {ast.unparse(node)} passed on"
                    assert id(node) not in looped, f"{path.name}: looped {ast.unparse(node)}"
                    appends.append((path.name, ast.unparse(node)))
        assert appends == [
            ("failover.py", "log.append"),
            ("replication.py", "self._logs[home].append"),
        ]

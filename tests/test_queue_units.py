"""A queued write is a run of records or a batch.

A shard's ingest queue holds two unit shapes: a run of consecutive
records (a ``list``) and a columnar :class:`RecordBatch`.  Both have
``len`` and both are written by one ``write_record_batch`` call.  A
cluster appends every queued record to its queue's tail run, or starts a
run after a batch (``_queue_records``), so consecutive records are one
unit however they arrived: per-record ingest, a write-through deferred
behind a down owner, or a requeue after the ring moved.  A flush cuts
the unit at its head at the drain budget.  A single platform queues each
record as a run of one, so it pays one storage round trip per record.

The queue it replaced lives on here as the oracle
(:class:`RecordUnitCluster`): one unit per queued record, the run built
at flush time from the records at the queue's head, and a per-item owner
callback for every split.  Over drawn interleavings of ingest, columnar
ingest, write-throughs, budgeted ticks, flushes, kills, joins, leaves
and poison payloads, both clusters hold ``==`` engine state, WAL bytes,
op-tap segments, queue contents and depths, written units, rejected
keys and metrics, the ``cluster.router.batch_size`` samples included.
"""

from collections import deque
from itertools import islice, takewhile
from operator import attrgetter, itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ElasticityConfig, PlatformCluster
from repro.cluster.cluster import _tap_scope
from repro.core import (
    ConfigurationError,
    DataKind,
    DataRecord,
    RecordBatch,
    Space,
)
from repro.platform import MetaversePlatform
from repro.platform.platform import stored_record_value
from repro.replication import product_op
from repro.resilience import FaultInjector, FaultPlan, FaultRule
from repro.storage import StorageTier
from tests.test_batch_hotpath import SourceGrep
from tests.test_batch_upkeep import loop_group
from tests.test_position_index import sweep_only

pytestmark = [pytest.mark.cluster]


def rec(key, v, timestamp=0.0, space=Space.VIRTUAL, poison=False):
    """A record of ``{"v": v}``; a ``poison`` one carries a set, which
    JSON cannot: a flush dead-letters it and a write-through raises."""
    return DataRecord(
        key=key, payload={"v": {v}} if poison else {"v": v}, space=space,
        timestamp=timestamp, kind=DataKind.STRUCTURED, source="queue",
    )


# -- the replaced queue, as the oracle ---------------------------------------


def unit_len(unit):
    """Records in one queued write unit: a record is 1, a batch its rows."""
    return len(unit) if isinstance(unit, RecordBatch) else 1


class RecordUnitCluster(PlatformCluster):
    """The replaced queue, verbatim: each queued record is its own unit,
    a flush builds the run at a queue's head with ``takewhile``, and
    every split asks an ``owner_of`` callback per item."""

    def ingest(self, record):
        if self.faults is not None:
            if self.faults.decide("cluster.ingest", kinds=("drop",)).faulted:
                self.metrics.counter("cluster.dropped_records").inc()
                return
        owner = self.router.owner_of(record.key)
        if not self._admit(owner, record.space):
            return
        self._pending.setdefault(owner, deque()).append(record)
        self._buffered.inc()

    def ingest_batch(self, batch):
        if self.faults is not None:
            keep = [
                i for i in range(len(batch))
                if not self.faults.decide(
                    "cluster.ingest", kinds=("drop",)
                ).faulted
            ]
            dropped = len(batch) - len(keep)
            if dropped:
                self.metrics.counter("cluster.dropped_records").inc(dropped)
                if not keep:
                    return
                batch = batch.take(keep)
        if self.elasticity is not None and self.elasticity.admission is not None:
            spaces = batch.space_values()
            admitted = [
                i
                for i, key in enumerate(batch.keys)
                if self._admit(self.router.owner_of(key), spaces[i])
            ]
            if len(admitted) < len(batch):
                if not admitted:
                    return
                batch = batch.take(admitted)
        owners = self.router.group(range(len(batch)), batch.keys.__getitem__)
        for name, rows in owners.items():
            shard_batch = batch if len(rows) == len(batch) else batch.take(rows)
            self._pending.setdefault(name, deque()).append(shard_batch)
        self._buffered.inc(len(batch))

    def shard_queue_depth(self, name):
        return sum(unit_len(unit) for unit in self._pending.get(name, ()))

    def _flush_shard(self, name, budget):
        queue = self._pending.get(name)
        if not queue:
            return 0
        observe = self._batch_sizes.observe
        taken = written = 0
        while queue and (budget is None or taken < budget):
            room = None if budget is None else budget - taken
            head = queue[0]
            if isinstance(head, DataRecord):
                unit = list(takewhile(
                    lambda u: isinstance(u, DataRecord), islice(queue, room)
                ))
            elif room is None or len(head) <= room:
                unit = head
            else:
                unit = head.take(range(room))
            stored, rejected = self.shards[name].write_queued(unit)
            self._emit_stored(name, stored)
            if rejected:
                self.metrics.counter("cluster.write.rejected").inc(
                    len(rejected)
                )
                self.tracer.log(
                    "warn", "records rejected", shard=name, keys=rejected
                )
            if isinstance(unit, list):
                for _ in unit:
                    queue.popleft()
            elif unit is head:
                queue.popleft()
            else:
                queue[0] = head.take(range(room, len(head)))
            observe(len(unit))
            taken += len(unit)
            written += len(stored)
        return written

    @_tap_scope
    def write_records(self, records):
        for owner, unit in loop_group(
            self.router.owner_of, records, attrgetter("key")
        ).items():
            if self._is_down(owner):
                self._pending.setdefault(owner, deque()).extend(unit)
                self.metrics.counter("cluster.failover.deferred_writes").inc(
                    len(unit)
                )
                continue
            if self._pending.get(owner):
                self._ingested.inc(self._flush_shard(owner, None))
            self._emit_stored(owner, self.shards[owner].write_record_batch(unit))

    @_tap_scope
    def import_entities(self, items):
        for owner, batch in loop_group(
            self.router.owner_of, items, itemgetter(0)
        ).items():
            self.shards[owner].import_entities(batch)
            self._emit_stored(owner, batch)

    @_tap_scope
    def import_products(self, items):
        for owner, batch in loop_group(
            self.router.owner_of, items, itemgetter(0)
        ).items():
            self.shards[owner].import_products(batch)
            if self._op_sinks:
                self._tap(owner, [product_op(key, value) for key, value in batch])

    def _requeue_pending(self):
        if not any(self._pending.values()):
            return
        requeued = {}
        for queue in self._pending.values():
            for unit in queue:
                if isinstance(unit, DataRecord):
                    requeued.setdefault(
                        self._owner_of(unit.key), deque()
                    ).append(unit)
                    continue
                groups = loop_group(
                    self._owner_of, range(len(unit)), unit.keys.__getitem__
                )
                for name, rows in groups.items():
                    requeued.setdefault(name, deque()).append(
                        unit if len(rows) == len(unit) else unit.take(rows)
                    )
        self._pending = requeued


# -- both clusters, side by side ---------------------------------------------


def recording(cls):
    """``cls`` recording every unit a shard's flush writes — the shard,
    the unit's keys and the keys it dead-lettered — and every op-tap
    segment."""

    class Recording(cls):
        def __init__(self, *args, **kwargs):
            self.units = []
            self.segments = []
            super().__init__(*args, **kwargs)
            self.add_op_sink(self.segments.append)

        def _make_shard(self, name):
            shard = super()._make_shard(name)
            write_queued = shard.write_queued

            def recorded(unit):
                stored, rejected = write_queued(unit)
                keys = unit.keys if isinstance(unit, RecordBatch) else [
                    record.key for record in unit
                ]
                self.units.append((name, list(keys), rejected))
                return stored, rejected

            shard.write_queued = recorded
            return shard

    return Recording


RunCluster = recording(PlatformCluster)
OracleCluster = recording(RecordUnitCluster)

KEYS = [f"e/{i}" for i in range(12)]

#: Drain credit is ``DRAIN_RATE * TICK_S`` = 1 record per shard a tick,
#: banked up to 2, so queues stay deep and most runs and batches are cut
#: at the budget.
DRAIN_RATE = 2.0
TICK_S = 0.5


def build(cls, shape):
    """Three shards on a two-node storage tier (a kill re-mounts at the
    next tick), with or without a drain budget, or with two replicas and
    a drain budget (a kill is promoted once the detector suspects it).
    Without a budget a tick drains whole units, so a run that joined a
    deferred write flushes as one write."""
    if shape in ("tier", "tier-drained"):
        return cls(ClusterConfig(
            n_shards=3, n_storage_nodes=2,
            shard_drain_rate=DRAIN_RATE if shape == "tier-drained" else None,
        ))
    faults = FaultInjector(FaultPlan(rules=[
        FaultRule(site="cluster.replicate", kind="drop", rate=0.3),
    ], seed=5))
    return cls(
        ClusterConfig(
            n_shards=3, n_replicas=2, phi_threshold=2.0,
            shard_drain_rate=DRAIN_RATE,
        ),
        faults=faults,
    )


key = st.sampled_from(KEYS)
value = st.integers(0, 9)
poison = st.integers(0, 9).map(lambda n: n == 0)

# Kills, write-throughs and joins are drawn often enough that writes
# are deferred behind a down owner and requeued when the ring moves.
queue_actions = st.lists(
    st.one_of(
        st.tuples(st.just("ingest"), key, value, poison),
        st.tuples(st.just("ingest"), key, value, poison),
        st.tuples(
            st.just("ingest_batch"),
            st.lists(st.tuples(key, value), min_size=1, max_size=5),
        ),
        st.tuples(
            st.just("write_records"),
            st.lists(st.tuples(key, value, poison), min_size=1, max_size=4),
        ),
        st.tuples(
            st.just("write_records"),
            st.lists(st.tuples(key, value, poison), min_size=1, max_size=4),
        ),
        st.tuples(st.just("tick")),
        st.tuples(st.just("flush")),
        st.tuples(st.just("kill"), st.integers(0, 4)),
        st.tuples(st.just("kill"), st.integers(0, 4)),
        st.tuples(st.just("add_shard")),
        st.tuples(st.just("remove_shard"), st.integers(0, 4)),
        st.tuples(st.just("import_entity"), key, value),
    ),
    max_size=30,
)


def perform(cluster, action, step):
    """Run one action; returns what it returned, or the name of what it
    raised: a refused membership change, or the ``TypeError`` of a
    write-through carrying a poison record."""
    name, *args = action
    now = float(step)
    names = cluster.router.shards
    try:
        if name == "ingest":
            k, v, bad = args
            return cluster.ingest(rec(k, v, now, poison=bad))
        if name == "ingest_batch":
            return cluster.ingest_batch(RecordBatch.from_records(
                [rec(k, v, now) for k, v in args[0]]
            ))
        if name == "write_records":
            return cluster.write_records(
                [rec(k, v, now, poison=bad) for k, v, bad in args[0]]
            )
        if name == "tick":
            return cluster.tick(TICK_S)
        if name == "flush":
            return cluster.flush()
        if name == "kill":
            victim = names[args[0] % len(names)]
            up = [s for s in names if not cluster._is_down(s)]
            if up != [victim] and not cluster._is_down(victim):
                cluster.kill_shard(victim)
            return None
        if name == "add_shard":
            if len(names) < 5:
                return cluster.add_shard(f"joined-{step}")
            return None
        if name == "remove_shard":
            return cluster.remove_shard(names[args[0] % len(names)])
        k, v = args
        return cluster.import_entity(k, stored_record_value(rec(k, v, now)))
    except ConfigurationError as error:  # e.g. removing a down shard
        return type(error).__name__
    except TypeError as error:
        if name != "write_records" or not any(bad for *_, bad in args[0]):
            raise
        return type(error).__name__


def flattened(cluster):
    """Each shard's queued records in arrival order, units flattened."""
    return {
        name: [
            (record.key, repr(record.payload))
            for unit in queue
            for record in (
                unit.to_records() if isinstance(unit, RecordBatch)
                else unit if isinstance(unit, list) else [unit]
            )
        ]
        for name, queue in cluster._pending.items()
        if queue
    }


def kv_state(kv):
    """A store's cells and WAL bytes, read without touching its counters."""
    return (
        dict(kv._memtable._data),
        [list(run.items()) for run in kv._runs],
        bytes(kv.wal._buf),
    )


def storage_state(cluster):
    if cluster.storage is not None:
        return {
            name: kv_state(node.engine.kv)
            for name, node in cluster.storage.nodes.items()
        }
    return {name: kv_state(shard.kv) for name, shard in cluster.shards.items()}


def observed(cluster):
    return (
        cluster.pending_count,
        {name: cluster.shard_queue_depth(name) for name in cluster.router.shards},
        flattened(cluster),
        cluster.units,
        cluster.segments,
        storage_state(cluster),
        cluster.metrics.snapshot(),
        cluster.metrics.histogram("cluster.router.batch_size").samples,
    )


#: Two down shards' queued runs requeued when a shard joins: the joiner
#: takes keys from both, so its queue joins them into one run.  A drawn
#: script rarely has two shards down with records queued at a join.
REQUEUE_ONTO_ONE_OWNER = [
    ("kill", 0), ("kill", 1),
    *[("ingest", k, 1, False) for k in KEYS],
    ("add_shard",), ("tick",), ("flush",),
]


def play(shape, script):
    runs, oracle = build(RunCluster, shape), build(OracleCluster, shape)
    for step, action in enumerate(script):
        assert perform(runs, action, step) == perform(oracle, action, step)
        assert observed(runs) == observed(oracle)
    runs.flush()
    oracle.flush()
    assert observed(runs) == observed(oracle)


SHAPES = [
    pytest.param("tier", id="tier", marks=pytest.mark.disagg),
    pytest.param("tier-drained", id="tier-drained", marks=pytest.mark.disagg),
    pytest.param("replicated", id="replicated", marks=pytest.mark.failover),
]


class TestTheRecordUnitQueueIsTheOracle:
    """A queue of runs and batches is the queue of records and batches
    it replaced: every figure below is ``==`` after every step."""

    @pytest.mark.parametrize("shape", SHAPES)
    @settings(max_examples=100, deadline=None)
    @given(script=queue_actions)
    @example(script=REQUEUE_ONTO_ONE_OWNER)
    def test_runs_write_what_the_record_queue_wrote(self, shape, script):
        play(shape, script)

    @pytest.mark.slow
    @pytest.mark.parametrize("shape", SHAPES)
    @settings(max_examples=1000, deadline=None)
    @given(script=queue_actions)
    def test_sweep_the_record_unit_oracle(self, request, shape, script):
        """The property above at 1,000 examples, for the nightly tier."""
        sweep_only(request)
        play(shape, script)


# -- the append rules ---------------------------------------------------------


class TestAQueuedRecordJoinsTheTailRun:
    """A cluster writes the consecutive records it queued as one write;
    a single platform writes each buffered record alone."""

    def sizes(self, cluster):
        return cluster.metrics.histogram("cluster.router.batch_size").samples

    def test_a_single_platform_pays_one_round_trip_per_record(self):
        tier = StorageTier(n_nodes=2)
        platform = MetaversePlatform(engine=tier.mount(client="solo"))
        for i in range(7):
            platform.ingest(rec(f"e/{i % 3}", i))
        assert platform.pending_count == 7
        calls = tier.metrics.counter("storage.rpc.calls")
        before = calls.value
        assert platform.flush() == 7
        assert calls.value - before == 7

    def test_a_run_of_n_is_one_write(self):
        cluster = PlatformCluster(ClusterConfig(n_shards=1))
        for i in range(6):
            cluster.ingest(rec(f"e/{i}", i))
        assert len(cluster._pending["shard-0"]) == 1
        assert cluster.flush() == 6
        assert self.sizes(cluster) == [6.0]

    def test_a_run_cut_at_the_budget_keeps_its_tail_as_one_run(self):
        cluster = PlatformCluster(ClusterConfig(n_shards=1, shard_drain_rate=2.0))
        for i in range(5):
            cluster.ingest(rec(f"e/{i}", i))
        cluster.tick(1.0)  # credit 2: the run's first two records
        for i in range(5, 7):
            cluster.ingest(rec(f"e/{i}", i))  # join the tail run
        assert [len(unit) for unit in cluster._pending["shard-0"]] == [5]
        assert cluster.flush() == 5
        assert self.sizes(cluster) == [2.0, 5.0]

    def test_a_batch_ends_a_run_and_a_record_after_it_starts_one(self):
        cluster = PlatformCluster(ClusterConfig(n_shards=1))
        cluster.ingest(rec("a", 0))
        cluster.ingest_batch(RecordBatch.from_records([rec("b", 1), rec("c", 2)]))
        cluster.ingest(rec("d", 3))
        cluster.ingest(rec("e", 4))
        queue = cluster._pending["shard-0"]
        assert [type(unit).__name__ for unit in queue] == [
            "list", "RecordBatch", "list"
        ]
        assert cluster.flush() == 5
        assert self.sizes(cluster) == [1.0, 2.0, 2.0]

    def test_a_write_deferred_behind_a_down_owner_joins_its_run(self):
        cluster = PlatformCluster(ClusterConfig(n_shards=2, n_storage_nodes=2))
        owner = cluster.router.owner_of("e/0")
        mine = [k for k in (f"e/{i}" for i in range(40))
                if cluster.router.owner_of(k) == owner][:4]
        cluster.kill_shard(owner)
        cluster.ingest(rec(mine[0], 0))
        cluster.write_records([rec(k, 1) for k in mine[1:3]])
        cluster.ingest(rec(mine[3], 2))
        assert [len(unit) for unit in cluster._pending[owner]] == [4]
        cluster.tick(0.1)  # re-mount, then flush
        assert self.sizes(cluster) == [4.0]
        assert cluster.pending_count == 0

    def test_runs_requeued_onto_one_owner_are_one_write(self):
        # Two down shards hold queued runs; the joiner takes keys from
        # both, and its queue holds them as one run, in queue order.
        cluster = PlatformCluster(ClusterConfig(n_shards=3, n_storage_nodes=2))
        records = [rec(f"e/{i:02d}", i) for i in range(60)]
        cluster.kill_shard("shard-0")
        cluster.kill_shard("shard-1")
        old = {r.key: cluster.router.owner_of(r.key) for r in records}
        for record in records:
            cluster.ingest(record)
        cluster.add_shard("joined")  # flushes shard-2, requeues the rest
        moved = [
            r for r in records
            if cluster.router.owner_of(r.key) == "joined" and old[r.key] != "shard-2"
        ]
        assert {old[r.key] for r in moved} == {"shard-0", "shard-1"}
        queue = cluster._pending["joined"]
        assert len(queue) == 1
        queues = list(dict.fromkeys(old[r.key] for r in records))  # requeue order
        assert queue[0] == sorted(moved, key=lambda r: queues.index(old[r.key]))
        cluster.tick(0.1)  # re-mounts, then flushes
        assert float(len(moved)) in self.sizes(cluster)
        assert cluster.pending_count == 0


class TestBatchIngestCountsOneLookupPerRow:
    """``ingest_batch`` asks the owner column once: admission reads it
    and the split reuses it, so a batch counts the router lookups the
    same rows ingested one by one count."""

    @pytest.mark.parametrize("admission", [None, 3.0])
    def test_per_record_and_batch_ingest_count_the_same_lookups(self, admission):
        elasticity = (
            None if admission is None
            else ElasticityConfig(autoscale=False, admission_rate=admission)
        )
        rows = [
            rec(f"e/{i}", i, space=Space.PHYSICAL if i % 3 == 0 else Space.VIRTUAL)
            for i in range(10)
        ]
        counts, queued = [], []
        for ingest in ("records", "batch"):
            cluster = PlatformCluster(ClusterConfig(n_shards=3, elasticity=elasticity))
            lookups = cluster.metrics.counter("cluster.router.lookups")
            if ingest == "records":
                for record in rows:
                    cluster.ingest(record)
            else:
                cluster.ingest_batch(RecordBatch.from_records(rows))
            counts.append(lookups.value)
            queued.append(flattened(cluster))
        assert counts == [10.0, 10.0]
        assert queued[0] == queued[1]  # the same rows under the same owners
        if admission is not None:  # the bucket shed some virtual rows
            assert sum(map(len, queued[0].values())) < len(rows)


# -- the acceptance greps ---------------------------------------------------


class TestOneQueueUnit(SourceGrep):
    """A queue unit is a run or a batch, and an owner split takes a
    column: the record-unit helpers and the per-item split are gone."""

    def test_no_queue_code_asks_whether_a_unit_is_a_record(self):
        assert self.hits(r"isinstance\([^)]*DataRecord") == []

    def test_the_record_unit_helpers_are_gone(self):
        for name in ("unit_len", "write_unit", "takewhile", "_group_by_column"):
            assert self.hits(rf"\b{name}\b") == [], name

    def test_group_by_owner_takes_an_owner_column(self):
        from inspect import signature

        from repro.placement import group_by_owner

        assert list(signature(group_by_owner).parameters) == ["owners", "items"]

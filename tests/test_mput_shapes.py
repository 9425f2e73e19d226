"""A write batch is logged in one of two shapes; the rows are the oracle.

``encode_mput`` writes a node group of ``COLUMNAR_MIN_ITEMS`` or more
stored-record wrappers whose payloads share one ordered set of string
field names as parallel columns (numeric ones packed as binary), and
every other batch as rows.  The row record — the JSON object with an
``items`` list that every batch was logged as before — is the path the
columns replaced, and it stays the oracle here: for any item list,
``decode_mput`` of the record equals the row record's items, compared with
``==`` and as ``json.dumps`` bytes (which tell ``1`` from ``1.0`` from
``true``, ``0.0`` from ``-0.0``, and see dict key order); and a WAL that
mixes both shapes, torn at any byte of its last record, recovers to the
scan and snapshot the row-only log recovers to.  A group encoded from
its :class:`RecordBatch`'s arrays is byte for byte the group encoded
from its items.
"""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RecordBatch
from repro.core.errors import StorageError
from repro.platform.platform import MetaversePlatform, stored_record_value
from repro.storage import KVStore, LifecyclePolicy, TieredStorageEngine
from repro.storage import kv as kv_module
from repro.storage.engine import StorageTier
from repro.storage.kv import COLUMNAR_MIN_ITEMS, decode_mput, encode_mput
from repro.storage.wal import WriteAheadLog
from tests.test_position_index import sweep_only

INT64 = (-(2**63), 2**63 - 1)
SPACES = st.sampled_from(["physical", "virtual", "é\""])


def row_record(items):
    """The row shape: what every batch was logged as before columns."""
    return json.dumps(
        {"op": "mput", "items": items}, separators=(",", ":")
    ).encode("utf-8")


def nan_free(value):
    """``value`` with every NaN replaced by a marker, so ``==`` can hold
    two decodes equal (a NaN is not equal to itself)."""
    if isinstance(value, float) and math.isnan(value):
        return "<nan>"
    if isinstance(value, list):
        return [nan_free(v) for v in value]
    if isinstance(value, dict):
        return {k: nan_free(v) for k, v in value.items()}
    return value


def assert_same_rows(items):
    rows = decode_mput(json.loads(encode_mput(items)))
    oracle = json.loads(row_record(items))["items"]
    assert json.dumps(rows) == json.dumps(oracle)
    assert nan_free(rows) == nan_free(oracle)


def is_columnar(items):
    return "keys" in json.loads(encode_mput(items))


# -- item lists -------------------------------------------------------------

edge_ints = st.sampled_from(
    [0, -1, *INT64, INT64[0] - 1, INT64[1] + 1, 2**70, -(2**70)]
)
scalars = st.one_of(
    st.integers(INT64[0], INT64[1]), edge_ints,
    st.floats(), st.sampled_from([0.0, -0.0, math.nan, math.inf]),
    st.booleans(), st.none(), st.text(alphabet='a"\\é\n', max_size=3),
)
nested = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(alphabet="ab", max_size=2), inner, max_size=2),
    ),
    max_leaves=5,
)
#: What a column's values are drawn from.
COLUMN = {
    "float": st.floats(),
    "int64": st.integers(INT64[0], INT64[1]),
    "int": st.one_of(st.integers(INT64[0], INT64[1]), edge_ints),
    "bool": st.booleans(),
    "mixed": scalars,
    "nested": nested,
}
columns = st.sampled_from(sorted(COLUMN))
fields = st.one_of(
    st.lists(
        st.sampled_from(["x", "y", "height", 'q"', "é"]), unique=True,
        max_size=3,
    ),
    # JSON makes these keys strings; a column shape must not take them.
    st.lists(st.sampled_from(["x", 1, None, 2.5]), unique=True, max_size=2),
)
WRAPPER = ("payload", "space", "timestamp")
wrapper_orders = st.one_of(st.just(WRAPPER), st.permutations(WRAPPER))
keys = st.sampled_from(["k", "ent/001", "ent/002", 'q"', "é", ""])


@st.composite
def odd_value(draw, names):
    """A value that is not a wrapper with payload fields ``names``."""
    payload = {name: draw(scalars) for name in names}
    return draw(st.sampled_from([
        draw(nested),
        {"space": "virtual", "payload": payload, "timestamp": 0.0},
        {"payload": payload, "space": "virtual", "timestamp": 0.0, "x": 1},
        {"payload": payload, "space": "virtual"},
        {"payload": dict(reversed(list(payload.items()))),
         "space": "virtual", "timestamp": 0.0},
        {"payload": {**payload, 1: 2}, "space": "virtual", "timestamp": 0.0},
        {"payload": {**payload, "extra": 2}, "space": "virtual", "timestamp": 0.0},
        {"payload": list(payload.values()), "space": "virtual", "timestamp": 0.0},
    ]))


@st.composite
def item_lists(draw):
    """A node group of wrappers with one payload shape and one key order,
    each column drawn from one kind, around the cutoff in size; some rows
    swapped for a value of another shape."""
    names = draw(fields)
    kinds = {name: COLUMN[draw(columns)] for name in names}
    part = {
        "space": draw(st.one_of(st.just(SPACES), columns.map(COLUMN.get))),
        "timestamp": draw(columns.map(COLUMN.get)),
    }
    order = draw(wrapper_orders)
    n = draw(st.integers(0, 2 * COLUMNAR_MIN_ITEMS + 1))
    items = []
    for _ in range(n):
        value = {name: draw(kinds[name]) for name in names}
        row = {"payload": value, **{k: draw(v) for k, v in part.items()}}
        items.append((draw(keys), {k: row[k] for k in order}))
    if n:
        for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
            items[i] = (items[i][0], draw(odd_value(names)))
    return items


class TestRowsAreTheOracle:
    @settings(max_examples=300, deadline=None)
    @given(items=item_lists())
    def test_decode_of_either_shape_equals_the_row_record(self, items):
        assert_same_rows(items)

    @pytest.mark.slow
    @settings(max_examples=1000, deadline=None)
    @given(items=item_lists())
    def test_sweep_decode_of_either_shape_equals_the_row_record(
        self, request, items
    ):
        """The property above at 1,000 examples, for the nightly tier."""
        sweep_only(request)
        assert_same_rows(items)

    def test_the_cutoff_and_the_shapes_a_group_takes(self):
        def wrappers(n, payload=lambda i: {"x": float(i), "n": i}):
            return [
                (f"e/{i}", {"payload": payload(i), "space": "virtual",
                            "timestamp": float(i)})
                for i in range(n)
            ]

        assert not is_columnar(wrappers(COLUMNAR_MIN_ITEMS - 1))
        assert is_columnar(wrappers(COLUMNAR_MIN_ITEMS))
        assert is_columnar(wrappers(COLUMNAR_MIN_ITEMS, lambda i: {}))
        # Field order is part of the shape.
        assert not is_columnar(wrappers(
            COLUMNAR_MIN_ITEMS,
            lambda i: {"x": 0.0, "n": 0} if i else {"n": 0, "x": 0.0},
        ))
        assert not is_columnar(wrappers(
            COLUMNAR_MIN_ITEMS, lambda i: {i % 2: 1},
        ))
        assert not is_columnar([(f"k{i}", i) for i in range(8)])
        assert not is_columnar(wrappers(
            COLUMNAR_MIN_ITEMS, lambda i: {1: float(i)},
        ))
        assert not is_columnar([
            (key, dict(reversed(value.items())))
            for key, value in wrappers(COLUMNAR_MIN_ITEMS)
        ])
        record = json.loads(encode_mput(wrappers(5, lambda i: {
            "f": float(i), "i": i, "b": bool(i), "w": 2**63 + i,
        })))
        packed = [isinstance(c, str) for c in record["payload"]]
        assert packed == [True, True, False, False]
        assert isinstance(record["timestamp"], str)
        assert record["space"] == ["virtual"] * 5

    def test_a_row_group_keeps_its_row_bytes(self):
        items = [("a", 1), ("b", {"payload": {}, "space": "v"})]
        assert encode_mput(items) == row_record(items)

    @pytest.mark.parametrize("bad, error", [
        (object(), TypeError),
        ({1, 2}, TypeError),
        ((lambda cycle: cycle.append(cycle) or cycle)([]), ValueError),
    ])
    def test_a_value_json_cannot_carry_still_raises(self, bad, error):
        items = [
            (f"e/{i}", {"payload": {"x": bad if i == 2 else 0.0},
                        "space": "virtual", "timestamp": 0.0})
            for i in range(COLUMNAR_MIN_ITEMS)
        ]
        with pytest.raises(error):
            encode_mput(items)

    def test_ragged_columns_raise_at_replay(self):
        items = [
            (f"e/{i}", {"payload": {"x": float(i)}, "space": "virtual",
                        "timestamp": 0.0})
            for i in range(COLUMNAR_MIN_ITEMS)
        ]
        record = json.loads(encode_mput(items))
        assert decode_mput(record) == json.loads(row_record(items))["items"]
        for column, short in [
            ("keys", record["keys"][1:]),
            ("space", record["space"][1:]),
            ("timestamp", "d" + "A" * 8),
            ("payload", []),
        ]:
            wal = WriteAheadLog()
            wal.append(json.dumps({**record, column: short}).encode())
            with pytest.raises(StorageError):
                KVStore(wal=wal).recover()


# -- replay ----------------------------------------------------------------

writes = st.lists(
    st.one_of(item_lists(), keys.map(lambda key: ("delete", key))),
    min_size=1, max_size=5,
)


def scan_and_snapshot(wal):
    kv = KVStore(memtable_budget_bytes=256, max_runs=2, wal=wal)
    kv.recover()
    return json.dumps(list(kv.scan("", "￿"))), json.dumps(kv.snapshot_state())


def logs(steps):
    """The WAL a store writes for ``steps``, and the row-only WAL."""
    live = KVStore(memtable_budget_bytes=256, max_runs=2)
    oracle = KVStore(memtable_budget_bytes=256, max_runs=2)
    for step in steps:
        if isinstance(step, tuple):
            live.delete(step[1])
            oracle.delete(step[1])
        elif step:
            live.mput(step)
            oracle.mput(step, row_record(step))
    return live.wal, oracle.wal


def torn(wal, nbytes):
    copy = WriteAheadLog()
    copy.rebuild(wal.replay())
    copy.corrupt_tail(nbytes)
    return copy


def without_last(wal):
    """``wal`` with its last record gone."""
    copy = WriteAheadLog()
    copy.rebuild(list(wal.replay())[:-1])
    return copy


def check_replay(steps):
    live, oracle = logs(steps)
    assert scan_and_snapshot(live) == scan_and_snapshot(oracle)
    if not live.entry_count:
        return
    expected = scan_and_snapshot(without_last(oracle))
    for cut in range(1, len(live) - len(without_last(live)) + 1):
        assert scan_and_snapshot(torn(live, cut)) == expected


class TestAMixedLogReplaysAsTheRowLog:
    @settings(max_examples=40, deadline=None)
    @given(steps=writes)
    def test_recovery_and_every_tear_of_the_last_record(self, steps):
        check_replay(steps)

    @pytest.mark.slow
    @settings(max_examples=1000, deadline=None)
    @given(steps=writes)
    def test_sweep_recovery_and_every_tear_of_the_last_record(
        self, request, steps
    ):
        """The property above at 1,000 examples, for the nightly tier."""
        sweep_only(request)
        check_replay(steps)

    def test_checkpoint_plus_tail_recovery_reads_both_shapes(self):
        engine = TieredStorageEngine(
            policy=LifecyclePolicy(checkpoint_interval_ops=2)
        )
        batches = [
            [(f"e/{i}", {"payload": {"x": float(i + step)}, "space": "virtual",
                         "timestamp": float(step)}) for i in range(6)]
            for step in range(5)
        ]
        for step, batch in enumerate(batches):
            engine.mput(batch if step % 2 else batch[:2])
            engine.maintain()
        engine.mput(batches[-1][:5])
        assert engine.checkpointer.checkpoint_lsn > 0
        before = engine.scan("", "￿")
        assert engine.recover().scan("", "￿") == before


# -- encoding from a batch's arrays -------------------------------------------
#
# ``write_record_batch`` hands the engine the batch its stored items were
# built from, and ``encode_mput`` packs float64 and int64 columns straight
# from its arrays.  The oracle is ``encode_mput`` of the items alone: the
# bytes are equal, for every row subset a storage node's group can be.

ARRAY_COLUMNS = {
    "float64": (np.float64, st.one_of(
        st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]),
    )),
    "int64": (np.int64, st.integers(INT64[0], INT64[1])),
    # every other dtype takes the item path
    "bool": (np.bool_, st.booleans()),
    "float32": (np.float32, st.floats(width=32)),
    "int32": (np.int32, st.integers(-(2**31), 2**31 - 1)),
    "uint8": (np.uint8, st.integers(0, 255)),
}
batch_keys = st.text(alphabet='ab/é"\\\n 😀', max_size=4)
batch_fields = st.one_of(
    st.lists(st.sampled_from(["x", "y", 'q"', "é", ""]), unique=True, max_size=3),
    st.lists(st.sampled_from(["x", 1]), unique=True, max_size=2),
)


@st.composite
def batches(draw, dtypes=tuple(sorted(ARRAY_COLUMNS))):
    """A :class:`RecordBatch` of 0–9 rows, each column of one dtype, and
    the row subset one storage node's group takes (``None``: all)."""
    n = draw(st.integers(0, 2 * COLUMNAR_MIN_ITEMS + 1))
    columns = {}
    for name in draw(batch_fields):
        dtype, values = ARRAY_COLUMNS[draw(st.sampled_from(dtypes))]
        columns[name] = np.array(draw(st.lists(values, min_size=n, max_size=n)),
                                 dtype=dtype)
    batch = RecordBatch(
        keys=draw(st.lists(batch_keys, min_size=n, max_size=n)),
        columns=columns,
        timestamps=draw(st.lists(st.floats(), min_size=n, max_size=n)),
        spaces=draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
    )
    rows = draw(st.one_of(st.none(), st.lists(st.integers(0, n - 1), max_size=9)
                          if n else st.none()))
    return batch, rows


def stored_items(batch):
    """The batch's stored items, built record by record."""
    return [(record.key, stored_record_value(record))
            for record in batch.to_records()]


def node_group(batch, rows):
    items = stored_items(batch)
    return items if rows is None else [items[i] for i in rows]


class TestArraysEncodeAsTheItems:
    @settings(max_examples=300, deadline=None)
    @given(drawn=batches())
    def test_the_bytes_are_the_items_bytes(self, drawn):
        batch, rows = drawn
        items = node_group(batch, rows)
        assert encode_mput(items, batch, rows) == encode_mput(items)

    @pytest.mark.parametrize("n", range(2 * COLUMNAR_MIN_ITEMS + 2))
    def test_groups_around_the_cutoff(self, n):
        batch = RecordBatch(
            keys=[f"é/{i}\"" for i in range(n)],
            columns={"f": np.array([math.nan, -0.0, math.inf, 1.5] * 3)[:n],
                     "i": np.arange(n, dtype=np.int64) - 2**62},
            timestamps=np.linspace(0.0, 1.0, n),
            spaces=[i % 2 for i in range(n)],
        )
        for rows in (None, list(range(n))[::-2], [0] * n if n else None):
            items = node_group(batch, rows)
            assert encode_mput(items, batch, rows) == encode_mput(items)

    def test_float64_and_int64_columns_never_reach_the_item_path(self):
        batch = RecordBatch(
            keys=[f"k{i}" for i in range(6)],
            columns={"f": np.linspace(-1.0, 1.0, 6), "i": np.arange(6)},
            timestamps=np.zeros(6),
        )
        flags = RecordBatch(batch.keys, {"b": np.ones(6, dtype=bool)}, np.zeros(6))
        items, flag_items = stored_items(batch), stored_items(flags)
        whole, part = encode_mput(items), encode_mput(items[1:5])
        with mock.patch.object(kv_module, "_columns", side_effect=AssertionError):
            assert encode_mput(items, batch) == whole
            assert encode_mput(items[1:5], batch, [1, 2, 3, 4]) == part
            with pytest.raises(AssertionError):  # a bool column is not packed
                encode_mput(flag_items, flags)

    @settings(max_examples=60, deadline=None)
    @given(drawn=st.lists(batches(), min_size=1, max_size=4))
    def test_a_log_written_both_ways_recovers_equal(self, drawn):
        from_arrays = KVStore(memtable_budget_bytes=256, max_runs=2)
        from_items = KVStore(memtable_budget_bytes=256, max_runs=2)
        for batch, rows in drawn:
            items = node_group(batch, rows)
            if rows is None:
                from_arrays.mput(items, batch=batch)
            else:  # a remote node logs the group its client encoded
                from_arrays.mput(items, encode_mput(items, batch, rows))
            from_items.mput(items)
        assert ([entry.payload for entry in from_arrays.wal.replay()]
                == [entry.payload for entry in from_items.wal.replay()])
        assert scan_and_snapshot(from_arrays.wal) == scan_and_snapshot(from_items.wal)

    def test_a_platform_write_logs_what_the_records_log(self):
        """A batch written through a mount encodes each node's group
        from the arrays; each node logs the bytes the same rows written
        as records log."""
        batch = RecordBatch([f"e/{i}" for i in range(40)],
                            {"x": np.arange(40.0), "n": np.arange(40)},
                            np.full(40, 2.5), spaces=[i % 2 for i in range(40)])
        tiers = StorageTier(n_nodes=3), StorageTier(n_nodes=3)
        columnar, per_record = (MetaversePlatform(engine=tier.mount()) for tier in tiers)
        with mock.patch.object(kv_module, "_columns", side_effect=AssertionError):
            columnar.write_record_batch(batch)
        per_record.write_record_batch(batch.to_records())
        logs = [
            {name: [entry.payload for entry in node.engine.kv.wal.replay()]
             for name, node in tier.nodes.items()}
            for tier in tiers
        ]
        assert logs[0] == logs[1]
        assert sum(len(log) for log in logs[0].values()) == 3


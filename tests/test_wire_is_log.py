"""The request on the wire is the record in the log.

A remote write batch is serialised once, on the compute node; the storage
node appends those bytes to its WAL instead of encoding the items again.
The path that replaces — a store that encodes what it is handed — stays in
``KVStore.mput(items)`` and is the oracle here: whatever engine carried a
batch, every store under it must hold exactly the bytes a server-side-
encoding store would have logged, and must recover from them.

The second half pins what moving the encode bought at the failure edge: a
value JSON cannot carry fails before any round trip begins, and an engine
handed no record encodes each batch once.
"""

import json
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience import FaultInjector, FaultPlan
from repro.resilience.faults import FaultRule
from repro.storage import (
    KVStore,
    LifecyclePolicy,
    LocalStorageEngine,
    RemoteStorageEngine,
    StorageNode,
    StorageTier,
    TieredStorageEngine,
)
from repro.storage import engine as engine_module
from repro.storage import kv as kv_module
from repro.storage.kv import encode_mput

pytestmark = pytest.mark.disagg

# A small pool, so batches repeat keys; quotes, escapes and non-ASCII in it.
keys = st.sampled_from(
    ["k", "ent/001", 'q"uote', "back\\slash", "new\nline", "café", "日本", ""]
)
scalars = st.one_of(
    st.sampled_from([1, 1.0, True, 0, 0.0, False, None, -0.0, 1e300, 2**70]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(alphabet='a"\\\né日\U0001f600', max_size=4),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(alphabet='a"é', max_size=2), inner, max_size=3),
    ),
    max_leaves=8,
)
batches = st.lists(st.lists(st.tuples(keys, values), max_size=6), max_size=5)


def _tiered(metrics=None, tracer=None):
    return TieredStorageEngine(
        policy=LifecyclePolicy(hot_capacity=2), metrics=metrics, tracer=tracer
    )


ENGINES = {
    "local": lambda n: LocalStorageEngine(),
    "tiered": lambda n: _tiered(),
    "remote": lambda n: StorageTier(n_nodes=n).mount("test"),
    "remote-over-tiered": lambda n: StorageTier(
        n_nodes=n, engine_factory=_tiered
    ).mount("test"),
}


def stores_of(engine):
    """Every KV store under ``engine``, by node name."""
    if isinstance(engine, RemoteStorageEngine):
        return {name: node.engine.kv for name, node in engine.tier.nodes.items()}
    return {"local": engine.kv}


def applied_by(engine, batch):
    """The part of ``batch`` each store under ``engine`` applies."""
    if isinstance(engine, RemoteStorageEngine):
        grouped = engine.tier.group_by_node(batch, itemgetter(0))
        return {node.name: part for node, part in grouped.items()}
    return {"local": batch} if batch else {}


def logged(kv):
    return [entry.payload for entry in kv.wal.replay()]


def rows(kv):
    """A scan as JSON text: tells ``1`` from ``1.0`` from ``true``, and
    reads a tuple as the list it is logged as."""
    return json.dumps(list(kv.scan("", "￿")))


def check_wire_is_log(engine, batch_list, pre_encoded=False):
    """Write ``batch_list`` through ``engine`` and hold every store under
    it to the oracle.  ``pre_encoded`` hands a local engine the record
    with the items, as a storage node does."""
    stores = stores_of(engine)
    oracle = {name: KVStore() for name in stores}  # encodes what it is handed
    expected = {name: [] for name in stores}
    for batch in batch_list:
        if pre_encoded and batch:
            engine.mput(batch, encode_mput(batch))
        else:
            engine.mput(batch)
        for name, part in applied_by(engine, batch).items():
            oracle[name].mput(part)
            expected[name].append(encode_mput(part))
    for name, live in stores.items():
        assert logged(live) == expected[name] == logged(oracle[name])
        recovered = KVStore(wal=live.wal)
        recovered.recover()
        assert rows(recovered) == rows(live) == rows(oracle[name])


class TestTheReplacedPathIsTheOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(sorted(ENGINES)),
        n_nodes=st.integers(1, 4),
        batch_list=batches,
        pre_encoded=st.booleans(),
    )
    def test_every_store_logs_what_a_server_side_encode_would(
        self, kind, n_nodes, batch_list, pre_encoded
    ):
        check_wire_is_log(ENGINES[kind](n_nodes), batch_list, pre_encoded)

    def test_a_node_handed_another_groups_record_is_caught(self, monkeypatch):
        """Mutation check: the oracle must notice a node that logs bytes
        which are not the encoding of the items it applied."""
        engine = ENGINES["remote"](2)
        batch = [(f"k{i}", {"v": i}) for i in range(12)]
        records = {
            name: encode_mput(part)
            for name, part in applied_by(engine, batch).items()
        }
        assert len(records) == 2
        first, second = records
        crossed = {first: records[second], second: records[first]}
        execute = StorageNode.execute

        def execute_crossed(node, op, *args):
            if op == "mput":
                args = (args[0], crossed[node.name])
            return execute(node, op, *args)

        check_wire_is_log(ENGINES["remote"](2), [batch])
        monkeypatch.setattr(StorageNode, "execute", execute_crossed)
        with pytest.raises(AssertionError):
            check_wire_is_log(ENGINES["remote"](2), [batch])


def count_encodes(monkeypatch):
    """Count every ``encode_mput`` call, client side and server side."""
    calls = []

    def counting(items):
        calls.append(items)
        return encode_mput(items)

    monkeypatch.setattr(engine_module, "encode_mput", counting)
    monkeypatch.setattr(kv_module, "encode_mput", counting)
    return calls


class TestEncodedBeforeTheRoundTrip:
    @pytest.mark.parametrize("bad, error", [
        (object(), TypeError),
        ({1, 2}, TypeError),
        ((lambda cycle: cycle.append(cycle) or cycle)([]), ValueError),
    ])
    def test_an_unserialisable_value_costs_no_part_of_an_rpc(self, bad, error):
        tier = StorageTier(n_nodes=2)
        injector = FaultInjector(
            FaultPlan(rules=[FaultRule(site="storage.rpc", kind="delay",
                                       rate=0.5, delay_s=0.01)], seed=3),
            clock=tier.clock,
        )
        engine = tier.mount("test", faults=injector)
        engine.mput([("good", 1)])
        decisions = []
        decide = injector.decide
        injector.decide = lambda *a, **kw: decisions.append(a) or decide(*a, **kw)

        def observed():
            return {
                "clock": tier.clock.now,
                "calls": tier.metrics.counter("storage.rpc.calls").value,
                "bytes": tier.metrics.counter("storage.rpc.bytes").value,
                "latencies": tier.metrics.histogram("storage.rpc.latency_s").count,
                "ops": [node.ops for node in tier.nodes.values()],
                "rng": injector._rng.getstate(),
                "keys": tier.keys(),
            }

        before = observed()
        with pytest.raises(error):
            engine.mput([("bad", bad)])
        assert observed() == before and decisions == []

    def test_an_engine_handed_no_record_encodes_once(self, monkeypatch):
        calls = count_encodes(monkeypatch)
        batch = [("a", 1), ("b", (2, 3))]
        for engine in (LocalStorageEngine(), _tiered()):
            engine.mput(batch)
            engine.put("c", 4)
        assert calls == [batch, [("c", 4)]] * 2

"""Tests for repro.obs tracing: span nesting, propagation, end-to-end."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import (
    ConfigurationError,
    DataKind,
    DataRecord,
    MetricsRegistry,
    SimulationClock,
    Space,
)
from repro.ledger import LedgerDB
from repro.obs import LogSink, NoopTracer, Tracer
from repro.platform import DeviceGateway, MetaversePlatform
from repro.workloads import FlashSaleConfig, MarketplaceWorkload


def sensor_record(i: int) -> DataRecord:
    return DataRecord(
        key=f"sensor-{i}",
        payload={"temp": 20.0 + i},
        space=Space.PHYSICAL,
        timestamp=float(i),
        kind=DataKind.SENSOR,
        source="test",
    )


class TestSpanBasics:
    def test_nesting_sets_parent_ids(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                with tracer.span("grandchild") as grandchild:
                    pass
        assert root.parent_id is None
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id

    def test_siblings_share_parent(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id
        assert tracer.children_of(root.span_id) == [a, b]

    def test_active_span_tracks_stack(self):
        tracer = Tracer()
        assert tracer.active_span is None
        with tracer.span("outer"):
            assert tracer.active_span.name == "outer"
            with tracer.span("inner"):
                assert tracer.active_span.name == "inner"
            assert tracer.active_span.name == "outer"
        assert tracer.active_span is None

    def test_attributes_and_exception_marking(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom", key="v"):
                raise ValueError("nope")
        [span] = tracer.finished_spans()
        assert span.attributes["key"] == "v"
        assert span.attributes["error"] == "ValueError"

    def test_sim_clock_timestamps(self):
        clock = SimulationClock()
        tracer = Tracer(time_fn=clock)
        with tracer.span("op") as span:
            clock.advance(2.5)
        assert span.start == 0.0
        assert span.end == 2.5
        assert span.duration == 2.5

    def test_bounded_memory(self):
        tracer = Tracer(max_spans=5)
        for i in range(8):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.finished_spans()) == 5
        assert tracer.dropped_spans == 3
        # The oldest spans were dropped, newest retained.
        assert [s.name for s in tracer.finished_spans()] == [
            "s3", "s4", "s5", "s6", "s7",
        ]

    def test_max_spans_validated(self):
        with pytest.raises(ConfigurationError):
            Tracer(max_spans=0)

    def test_render_tree_indents_children(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("leaf"):
                pass
        tree = tracer.render_tree()
        lines = tree.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  leaf")

    def test_reset(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        tracer.reset()
        assert tracer.finished_spans() == []
        assert tracer.active_span is None


class TestHeadSampling:
    def test_sample_every_validated(self):
        with pytest.raises(ConfigurationError):
            Tracer(sample_every=0)

    def test_records_one_root_trace_in_k(self):
        tracer = Tracer(sample_every=2)
        for i in range(4):
            with tracer.span(f"root{i}"):
                with tracer.span("child"):
                    pass
        names = [s.name for s in tracer.finished_spans()]
        # Traces 0 and 2 kept, 1 and 3 suppressed — whole trees at a time.
        assert names == ["child", "root0", "child", "root2"]
        assert tracer.sampled_out == 2

    def test_suppressed_spans_yield_none(self):
        tracer = Tracer(sample_every=2)
        with tracer.span("kept") as kept:
            pass
        assert kept is not None
        with tracer.span("suppressed") as outer:
            with tracer.span("nested") as inner:
                assert inner is None
            assert outer is None
        # Suppression lifts at the boundary: the next root records again.
        with tracer.span("kept2") as kept2:
            pass
        assert kept2 is not None

    def test_sampled_span_is_a_boundary_inside_a_batch(self):
        tracer = Tracer(sample_every=4)
        with tracer.span("batch") as batch:  # root: trace 0, recorded
            for _ in range(8):
                with tracer.sampled_span("request"):
                    with tracer.span("commit"):
                        pass
        requests = tracer.spans_named("request")
        assert len(requests) == 2  # 1 in 4 of the 8 requests
        assert all(s.parent_id == batch.span_id for s in requests)
        request_ids = {s.span_id for s in requests}
        commits = tracer.spans_named("commit")
        assert len(commits) == 2
        assert all(s.parent_id in request_ids for s in commits)

    def test_sampled_span_records_everything_by_default(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.sampled_span("request"):
                pass
        assert len(tracer.spans_named("request")) == 3
        assert tracer.sampled_out == 0


def per_request(tracer, name, n):
    """The oracle: one empty ``sampled_span`` boundary per request, as a
    purchase call opened them before it decided them in one call."""
    for _ in range(n):
        with tracer.sampled_span(name):
            pass


def boundaries_at(boundaries, sample_every, start, where, n, max_spans):
    """Run ``boundaries(tracer, n)`` after ``start`` root traces, at the
    root, inside a recorded batch span or inside a sampled-out one, and
    return what a tracer shows of it."""
    tracer = Tracer(sample_every=sample_every, max_spans=max_spans)
    for _ in range(start):
        with tracer.span("before"):
            pass
    if where == "root":
        boundaries(tracer, "request", n)
    else:
        # The next root is recorded exactly when its sequence number is a
        # multiple of sample_every.
        while (tracer._trace_seq % sample_every == 0) != (where == "kept"):
            with tracer.span("before"):
                pass
        with tracer.span("batch"):
            boundaries(tracer, "request", n)
    return (
        tracer._trace_seq, tracer.sampled_out, tracer.dropped_spans,
        [(span.name, span.parent_id) for span in tracer.finished_spans()],
    )


class TestOneSamplingCallMatchesTheBoundaryPerRequest:
    @settings(max_examples=300, deadline=None)
    @given(
        sample_every=st.sampled_from([1, 2, 64]),
        start=st.integers(0, 200),
        where=st.sampled_from(["root", "kept", "suppressed"]),
        n=st.integers(0, 300),
        max_spans=st.sampled_from([3, 10_000]),
    )
    def test_sequence_counts_and_spans_are_equal(
        self, sample_every, start, where, n, max_spans
    ):
        assume(not (sample_every == 1 and where == "suppressed"))
        args = (sample_every, start, where, n, max_spans)
        assert boundaries_at(Tracer.sampled_spans, *args) == boundaries_at(
            per_request, *args
        )

    def test_one_request_in_k_records_its_span_under_the_batch(self):
        tracer = Tracer(sample_every=4)
        with tracer.span("batch") as batch:  # root: trace 0, recorded
            tracer.sampled_spans("request", 10)
        requests = tracer.spans_named("request")
        assert len(requests) == 2  # sequence numbers 4 and 8 of 1..10
        assert all(span.parent_id == batch.span_id for span in requests)
        assert (tracer._trace_seq, tracer.sampled_out) == (11, 8)

    def test_a_kept_boundary_at_the_root_records(self):
        """A boundary's keep decision is its only one: a kept root-level
        boundary records its span instead of deciding again."""
        tracer = Tracer(sample_every=4)
        for _ in range(8):
            with tracer.sampled_span("request"):
                pass
        assert len(tracer.spans_named("request")) == 2
        assert (tracer._trace_seq, tracer.sampled_out) == (8, 6)

    def test_the_noop_tracer_decides_nothing(self):
        tracer = NoopTracer()
        tracer.sampled_spans("request", 100)
        assert tracer.finished_spans() == []
        assert (tracer._trace_seq, tracer.sampled_out) == (0, 0)


class TestNoopTracer:
    def test_records_nothing(self):
        tracer = NoopTracer()
        with tracer.span("anything", big="attr"):
            pass
        assert tracer.finished_spans() == []
        assert not tracer.enabled

    def test_span_handle_is_shared(self):
        tracer = NoopTracer()
        assert tracer.span("a") is tracer.span("b")

    def test_components_default_to_noop(self):
        platform = MetaversePlatform()
        assert isinstance(platform.tracer, NoopTracer)
        gateway = DeviceGateway(aggregate=False)
        assert isinstance(gateway.tracer, NoopTracer)
        assert not gateway.tracer_injected


class TestLogSink:
    def test_span_annotation(self):
        sink = LogSink(capacity=10)
        tracer = Tracer(sink=sink)
        with tracer.span("op") as span:
            tracer.log("info", "inside", key="v")
        [record] = sink.records()
        assert record.span_id == span.span_id
        assert record.span_name == "op"
        assert record.fields["key"] == "v"
        assert '"msg": "inside"' in sink.to_json_lines()

    def test_capacity_bound(self):
        sink = LogSink(capacity=3)
        for i in range(5):
            sink.log("info", f"m{i}")
        assert len(sink) == 3
        assert sink.dropped == 2

    def test_bad_level_rejected(self):
        with pytest.raises(ConfigurationError):
            LogSink().log("loud", "msg")


class TestEndToEndTrace:
    """Span tree covers device -> cloud -> storage on the real facade."""

    def make_traced_platform(self):
        tracer = Tracer()
        metrics = MetricsRegistry()
        platform = MetaversePlatform(metrics=metrics, tracer=tracer)
        return platform, tracer

    def test_flush_gateways_span_tree(self):
        platform, tracer = self.make_traced_platform()
        gateway = DeviceGateway(aggregate=False)
        platform.register_gateway("edge", gateway)
        assert gateway.tracer is tracer  # adopted on registration
        gateway.ingest_many([sensor_record(i) for i in range(4)])
        platform.flush_gateways()

        [flush_root] = tracer.spans_named("platform.flush_gateways")
        assert flush_root.parent_id is None
        children = {s.name for s in tracer.children_of(flush_root.span_id)}
        assert "gateway.flush" in children       # device tier
        assert "broker.publish" in children      # cloud tier
        # ingest happened before the flush root, as its own batch span
        [ingest] = tracer.spans_named("gateway.ingest")
        assert ingest.attributes["batch"] == 4

    def test_storage_tier_spans_nest_under_read(self):
        platform, tracer = self.make_traced_platform()
        gateway = DeviceGateway(aggregate=False)
        platform.register_gateway("edge", gateway)
        gateway.ingest(sensor_record(0))
        platform.flush_gateways()
        tracer.reset()

        with tracer.span("user.read") as root:
            platform.read("sensor-0")
        [load] = tracer.spans_named("pool.load")
        assert load.parent_id == root.span_id
        [kv_get] = tracer.spans_named("kv.get")
        assert kv_get.parent_id == load.span_id

    def test_purchase_to_ledger_round_trip(self):
        """flush_gateways -> purchase -> ledger, all under one root span."""
        platform, tracer = self.make_traced_platform()
        ledger = LedgerDB(block_size=4, tracer=tracer)
        gateway = DeviceGateway(aggregate=False)
        platform.register_gateway("edge", gateway)

        workload = MarketplaceWorkload(
            FlashSaleConfig(
                n_products=2, initial_stock=5,
                burst_rate=50.0, burst_start=0.0, burst_end=1.0,
            ),
            seed=1,
        )
        platform.load_catalog(workload.catalog_records())
        requests = workload.requests_between(0.0, 1.0)[:5]
        tracer.reset()

        with tracer.span("checkout") as root:
            gateway.ingest_many([sensor_record(i) for i in range(3)])
            platform.flush_gateways()
            outcomes = platform.process_purchases(requests)
            for outcome in outcomes:
                if outcome.success:
                    ledger.put(
                        f"sale:{outcome.request.shopper_id}",
                        {"product": outcome.request.product_id},
                    )

        names = {s.name for s in tracer.finished_spans()}
        # every tier appears in one trace
        assert {"gateway.flush", "platform.flush_gateways", "broker.publish",
                "platform.process_purchases", "platform.purchase",
                "txn.commit", "ledger.append"} <= names
        # parent propagation: purchases and the call's one commit hang off
        # the batch span, and everything roots at "checkout".
        [batch] = tracer.spans_named("platform.process_purchases")
        assert batch.parent_id == root.span_id
        purchases = tracer.spans_named("platform.purchase")
        assert purchases and all(
            s.parent_id == batch.span_id for s in purchases
        )
        [commit] = tracer.spans_named("txn.commit")
        assert commit.parent_id == batch.span_id
        appends = tracer.spans_named("ledger.append")
        assert appends and all(s.parent_id == root.span_id for s in appends)

    def test_trace_disabled_by_default_and_equivalent_results(self):
        """The traced and untraced platforms compute identical outcomes."""
        results = []
        for tracer in (None, Tracer()):
            platform = MetaversePlatform(tracer=tracer)
            workload = MarketplaceWorkload(
                FlashSaleConfig(
                    n_products=2, initial_stock=3,
                    burst_rate=50.0, burst_start=0.0, burst_end=1.0,
                ),
                seed=7,
            )
            platform.load_catalog(workload.catalog_records())
            outcomes = platform.process_purchases(
                workload.requests_between(0.0, 1.0)[:8]
            )
            results.append([(o.success, o.reason) for o in outcomes])
        assert results[0] == results[1]

"""Tests for the metrics registry."""

import pytest

from repro.core import ConfigurationError, MetricsRegistry
from repro.core.metrics import Histogram


class TestCounterGauge:
    def test_counter_increments(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.counter("a").inc(2.5)
        assert reg.counter("a").value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("a").inc(-1)

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(10)
        reg.gauge("g").add(-3)
        assert reg.gauge("g").value == 7


class TestHistogram:
    def test_empty_histogram_stats_are_zeroes(self):
        h = Histogram()
        assert h.count == 0
        assert h.mean == 0.0

    def test_empty_histogram_quantile_raises(self):
        with pytest.raises(ConfigurationError):
            Histogram().p99()
        with pytest.raises(ConfigurationError):
            Histogram().quantile(0.5)

    def test_empty_histogram_snapshot_omits_quantiles(self):
        reg = MetricsRegistry()
        reg.histogram("h")  # created but never observed
        snap = reg.snapshot()
        assert snap["h.count"] == 0.0
        assert "h.p99" not in snap

    def test_mean_and_extremes(self):
        h = Histogram()
        for v in [1.0, 2.0, 3.0, 4.0]:
            h.observe(v)
        assert h.mean == 2.5
        assert h.minimum == 1.0
        assert h.maximum == 4.0

    def test_quantiles_exact(self):
        h = Histogram()
        for v in range(1, 101):
            h.observe(float(v))
        assert h.p50() == pytest.approx(50.5)
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 100.0

    def test_quantile_range_checked(self):
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)

    def test_stddev(self):
        h = Histogram()
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]:
            h.observe(v)
        assert h.stddev() == pytest.approx(2.138, abs=1e-3)

    def test_single_sample_quantile(self):
        h = Histogram()
        h.observe(42.0)
        assert h.p99() == 42.0
        assert h.stddev() == 0.0

    def test_sorted_view_is_cached_and_invalidated_on_observe(self):
        h = Histogram()
        for v in [5.0, 1.0, 3.0]:
            h.observe(v)
        assert h.p50() == 3.0
        assert h._sorted == [1.0, 3.0, 5.0]  # cached after first quantile
        assert h.quantile(0.0) == 1.0  # served from the cache
        h.observe(0.0)
        assert h._sorted is None  # observe invalidates
        assert h.quantile(0.0) == 0.0

    def test_quantiles_survive_direct_samples_mutation(self):
        # .samples is a public field; the cache must not serve a stale
        # view when someone appends to it directly.
        h = Histogram()
        h.observe(2.0)
        assert h.p50() == 2.0
        h.samples.append(1.0)
        assert h.quantile(0.0) == 1.0


class TestHistogramWindow:
    """Bounded sliding-window reads for control loops.

    The base histogram stores every sample forever by design (exact
    lifetime quantiles for tests); a controller polling it must see
    *recent* load instead, through a bounded snapshot view.
    """

    def test_window_covers_last_n_samples(self):
        h = Histogram()
        for v in range(1, 101):
            h.observe(float(v))
        w = h.window(10)
        assert w.count == 10
        assert w.samples == tuple(float(v) for v in range(91, 101))
        assert w.mean == pytest.approx(95.5)
        assert w.maximum == 100.0

    def test_window_quantile_reflects_recent_load_not_lifetime(self):
        # A burst long past must not keep the windowed p95 elevated —
        # exactly the defect lifetime quantiles have for controllers.
        h = Histogram()
        for _ in range(50):
            h.observe(100.0)  # old burst
        for _ in range(50):
            h.observe(1.0)    # recent calm
        assert h.p95() == 100.0          # lifetime view still sees the burst
        assert h.window(32).p95() == 1.0  # windowed view has moved on

    def test_window_shorter_than_request_takes_everything(self):
        h = Histogram()
        h.observe(3.0)
        h.observe(1.0)
        w = h.window(100)
        assert w.count == 2
        assert w.p50() == 2.0

    def test_window_is_an_immutable_snapshot(self):
        h = Histogram()
        h.observe(1.0)
        w = h.window(4)
        h.observe(99.0)
        assert w.samples == (1.0,)  # later observations do not leak in
        assert h.window(4).samples == (1.0, 99.0)

    def test_empty_window_quantile_raises_like_histogram(self):
        w = Histogram().window(8)
        assert w.count == 0
        assert w.mean == 0.0
        with pytest.raises(ConfigurationError):
            w.p95()

    def test_window_quantile_range_checked(self):
        h = Histogram()
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.window(4).quantile(-0.1)

    def test_window_size_validated(self):
        with pytest.raises(ConfigurationError):
            Histogram().window(0)

    def test_window_matches_histogram_quantile_on_same_samples(self):
        h = Histogram()
        full = Histogram()
        for v in [5.0, 1.0, 4.0, 2.0, 3.0]:
            h.observe(v)
            full.observe(v)
        for q in (0.0, 0.25, 0.5, 0.75, 0.95, 1.0):
            assert h.window(5).quantile(q) == full.quantile(q)

    def test_window_does_not_disturb_sorted_cache(self):
        # Pin the interaction with the existing cache-invalidation
        # behaviour: taking a window neither populates nor clears the
        # cache, and observe() still invalidates it afterwards.
        h = Histogram()
        for v in [5.0, 1.0, 3.0]:
            h.observe(v)
        assert h._sorted is None
        h.window(2)
        assert h._sorted is None          # window did not populate it
        assert h.p50() == 3.0
        assert h._sorted == [1.0, 3.0, 5.0]
        h.window(2)
        assert h._sorted == [1.0, 3.0, 5.0]  # window did not clear it
        h.observe(0.0)
        assert h._sorted is None          # observe still invalidates


class TestRegistry:
    def test_snapshot_flattens(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(5)
        reg.gauge("g").set(2)
        reg.histogram("h").observe(1.0)
        snap = reg.snapshot()
        assert snap["c"] == 5
        assert snap["g"] == 2
        assert snap["h.count"] == 1.0
        assert snap["h.mean"] == 1.0

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.reset()
        assert reg.counter("c").value == 0

    def test_reset_zeroes_in_place_so_a_held_metric_still_counts(self):
        reg = MetricsRegistry()
        held = reg.counter("c")
        held.inc(3)
        reg.gauge("g").set(7)
        hist = reg.histogram("h")
        hist.observe(5.0)
        assert hist.p50() == 5.0  # populates the sorted cache
        reg.reset()
        assert reg.snapshot() == {"c": 0.0, "g": 0.0, "h.count": 0.0}
        assert hist._sorted is None
        held.inc()
        hist.observe(2.0)
        assert reg.counter("c").value == 1.0
        assert reg.histogram("h").p50() == 2.0

    def test_same_name_returns_same_metric(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_collectors_run_on_whole_registry_reads_only(self):
        """A collector computes its gauges when the registry is read as a
        whole — ``snapshot()`` and ``all_gauges()``, what the exporters
        call — and never on a named read or on the paths that change
        what it measures."""
        reg = MetricsRegistry()
        population = []
        runs = []

        def collect():
            runs.append(len(population))
            reg.gauge("population").set(float(len(population)))

        reg.add_collector(collect)
        population.extend("abc")
        assert reg.gauge("population").value == 0.0 and runs == []
        assert reg.snapshot()["population"] == 3.0
        population.append("d")
        assert reg.all_gauges()["population"].value == 4.0
        assert runs == [3, 4]
        reg.all_counters(), reg.all_histograms()
        assert runs == [3, 4]
        # reset() zeroes values; the registration survives it.
        reg.reset()
        assert reg.snapshot()["population"] == 4.0

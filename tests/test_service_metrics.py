"""Unit tests for the stdlib metrics layer: families and children,
Prometheus text rendering, and histogram quantiles.  How the admission
counters survive a restart (a fold of the journal) is tested with the
job manager."""

import pytest

from repro.service.metrics import DEFAULT_BUCKETS, MetricsRegistry


class TestFamilies:
    def test_counter_only_goes_up(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total").default
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_goes_both_ways(self):
        gauge = MetricsRegistry().gauge("depth").default
        gauge.set(5)
        gauge.dec(2)
        gauge.inc()
        assert gauge.value == 4.0

    def test_labels_split_children(self):
        registry = MetricsRegistry()
        family = registry.counter("jobs_total", labelnames=("tenant",))
        family.labels(tenant="alice").inc()
        family.labels(tenant="alice").inc()
        family.labels(tenant="bob").inc()
        assert family.labels(tenant="alice").value == 2
        assert family.labels(tenant="bob").value == 1
        with pytest.raises(ValueError):
            family.labels(user="alice")
        with pytest.raises(ValueError):
            family.default  # labelled family has no unlabelled child

    def test_reregistration_must_match(self):
        registry = MetricsRegistry()
        registry.counter("x", help_text="first")
        registry.counter("x")  # same shape: fine
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.counter("x", labelnames=("tenant",))


class TestHistogram:
    def test_buckets_are_cumulative(self):
        hist = MetricsRegistry().histogram(
            "lat", buckets=(0.1, 1.0, 10.0)).default
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        data = hist._data()
        assert data["buckets"] == {"0.1": 1, "1": 3, "10": 4}
        assert data["inf"] == 5
        assert data["count"] == 5
        assert data["sum"] == pytest.approx(56.05)

    def test_quantile_is_bucket_upper_bound(self):
        hist = MetricsRegistry().histogram(
            "lat", buckets=(0.1, 1.0, 10.0)).default
        for value in (0.05,) * 50 + (0.5,) * 45 + (5.0,) * 5:
            hist.observe(value)
        assert hist.quantile(0.5) == 0.1
        assert hist.quantile(0.95) == 1.0
        assert hist.quantile(0.99) == 10.0
        assert hist.quantile(0.0) == 0.1

    def test_quantile_edge_cases(self):
        hist = MetricsRegistry().histogram("lat", buckets=(1.0,)).default
        assert hist.quantile(0.5) == 0.0  # empty
        hist.observe(99.0)
        assert hist.quantile(1.0) == float("inf")  # beyond last bucket
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_default_buckets_cover_cache_hit_to_minutes(self):
        assert DEFAULT_BUCKETS[0] <= 0.005
        assert DEFAULT_BUCKETS[-1] >= 60.0
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestRendering:
    def test_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("repro_jobs_total", "Jobs admitted.",
                         labelnames=("tenant",)) \
            .labels(tenant="alice").inc(3)
        registry.gauge("repro_queue_depth", "Queued jobs.").default.set(2)
        text = registry.render()
        assert "# HELP repro_jobs_total Jobs admitted." in text
        assert "# TYPE repro_jobs_total counter" in text
        assert 'repro_jobs_total{tenant="alice"} 3' in text
        assert "# TYPE repro_queue_depth gauge" in text
        assert "repro_queue_depth 2" in text
        assert text.endswith("\n")

    def test_histogram_rendering_is_cumulative_with_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.1, 1.0)).default
        hist.observe(0.05)
        hist.observe(0.5)
        text = registry.render()
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1"} 2' in text
        assert 'lat_bucket{le="+Inf"} 2' in text
        assert "lat_count 2" in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("x", labelnames=("t",)) \
            .labels(t='a"b\\c\nd').inc()
        text = registry.render()
        assert 'x{t="a\\"b\\\\c\\nd"} 1' in text


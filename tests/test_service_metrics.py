"""Unit tests for the stdlib metrics layer: families and children,
Prometheus text rendering, histogram quantiles, and the restart
baseline (a previous front's counters keep counting, its gauges drop
out)."""

import json
import os

import pytest

from repro.service.metrics import (
    DEFAULT_BUCKETS,
    MetricsDir,
    MetricsRegistry,
    render_snapshot,
)


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


class TestMerge:
    """:meth:`MetricsRegistry.restore` merges an earlier snapshot into a
    live registry: counters and histograms add, gauges stay live."""

    @staticmethod
    def _snapshot(pid, counter=0.0, gauge=0.0):
        registry = MetricsRegistry()
        registry.counter("done_total").default.inc(counter)
        registry.gauge("running").default.set(gauge)
        registry.histogram("latency", buckets=(1.0, 5.0)).default \
            .observe(counter)
        snapshot = registry.snapshot()
        snapshot["pid"] = pid
        return snapshot

    def test_counters_sum_across_dead_processes(self):
        live = MetricsRegistry()
        live.counter("done_total").default.inc(4)
        latency = live.histogram("latency", buckets=(1.0, 5.0)).default
        live.restore(self._snapshot(1, counter=3))
        assert live.counter("done_total").default.value == 7.0
        assert (latency.count, latency.sum) == (1, 3.0)
        assert latency.quantile(1.0) == 5.0

    def test_gauges_only_from_live_processes(self):
        live = MetricsRegistry()
        live.gauge("running").default.set(2)
        live.restore(self._snapshot(1, gauge=5))
        assert live.gauge("running").default.value == 2.0

    def test_merged_snapshot_renders(self):
        live = MetricsRegistry()
        live.counter("done_total").default.inc(2)
        live.gauge("running").default.set(2)
        live.histogram("latency", buckets=(1.0, 5.0))
        live.restore(self._snapshot(1, counter=1, gauge=1))
        text = live.render()
        assert "done_total 3" in text
        assert "running 2" in text
        assert 'latency_bucket{le="5"} 1' in text


class TestMetricsDir:
    def test_flush_and_render_roundtrip(self, tmp_path):
        registry = MetricsRegistry()
        metrics = MetricsDir(str(tmp_path), registry)
        registry.counter("done_total").default.inc(2)
        metrics.flush()
        assert "done_total 2" in registry.render()
        assert os.path.exists(metrics.path)
        with open(metrics.path) as handle:
            assert render_snapshot(json.load(handle)) == registry.render()

    def test_dead_sibling_counters_survive_gauges_drop(self, tmp_path):
        # a SIGKILLed front: its last flush is on disk under a pid that
        # no longer exists, and the next front starts from it
        dead = MetricsRegistry()
        dead.counter("done_total").default.inc(10)
        dead.gauge("running").default.set(7)
        snapshot = dead.snapshot()
        snapshot["pid"] = 999999999  # certainly dead
        (tmp_path / "snapshot.json").write_text(json.dumps(snapshot))

        live = MetricsRegistry()
        live.counter("done_total").default.inc(1)
        live.gauge("running").default.set(2)
        MetricsDir(str(tmp_path), live)
        text = live.render()
        assert "done_total 11" in text  # dead counter still counts
        assert "running 2" in text      # dead gauge dropped

    def test_same_pid_restart_retires_stale_gauges(self, tmp_path):
        # an in-process manager restart: the old file carries OUR pid,
        # and its gauges must not come back either
        first = MetricsRegistry()
        first.counter("done_total").default.inc(5)
        first.gauge("running").default.set(3)
        MetricsDir(str(tmp_path), first).flush()

        second = MetricsRegistry()
        second.counter("done_total").default.inc(1)
        second.gauge("running").default.set(1)
        MetricsDir(str(tmp_path), second)
        text = second.render()
        assert "done_total 6" in text  # history kept
        assert "running 1" in text     # stale gauge retired

    def test_dead_files_fold_into_one_baseline(self, tmp_path):
        # three fronts in a row, each SIGKILLed after its last flush:
        # the directory keeps one snapshot whatever the restart count,
        # and it carries every front's counters but no dead gauge
        for _ in range(3):
            registry = MetricsRegistry()
            done, running = registry.counter("done_total"), \
                registry.gauge("running")
            metrics = MetricsDir(str(tmp_path), registry)
            done.default.inc(2)
            running.default.set(1)
            metrics.flush()
        assert os.listdir(str(tmp_path)) == ["snapshot.json"]
        live = MetricsRegistry()
        live.counter("done_total").default.inc(1)
        MetricsDir(str(tmp_path), live)
        text = live.render()
        assert "done_total 7" in text  # 3 x 2 dead + 1 live
        assert "running" not in text   # dead gauges dropped

    def test_recycled_pid_gauges_are_not_resurrected(self, tmp_path):
        # the snapshot's pid now names a live, unrelated process: gauges
        # are never restored, whatever that pid is doing
        ghost = MetricsRegistry()
        ghost.counter("done_total").default.inc(4)
        ghost.gauge("running").default.set(9)
        snapshot = ghost.snapshot()
        snapshot["pid"] = os.getppid() or 1  # alive
        (tmp_path / "snapshot.json").write_text(json.dumps(snapshot))
        live = MetricsRegistry()
        live.counter("done_total").default.inc(1)
        MetricsDir(str(tmp_path), live)
        text = live.render()
        assert "done_total 5" in text  # the work still happened
        assert "running 9" not in text  # the ghost gauge stays dead

    def test_unreadable_snapshot_is_a_zero_baseline(self, tmp_path):
        (tmp_path / "snapshot.json").write_text('{"families": {"x": ')
        live = MetricsRegistry()
        live.counter("done_total").default.inc(1)
        MetricsDir(str(tmp_path), live)
        assert "done_total 1" in live.render()

"""MetricsRegistry semantics: kinds, gating, snapshots, merging."""

import math

import pytest

from repro import obs
from repro.obs import Counter, Gauge, Histogram, MetricsRegistry, metrics


class TestMetricKinds:
    def test_counter(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_gauge(self):
        g = Gauge()
        g.set(2.5)
        g.set(1.0)
        assert g.value == 1.0

    def test_histogram_summary(self):
        h = Histogram()
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == 6.0
        assert h.min == 1.0
        assert h.max == 3.0
        assert h.mean == 2.0

    def test_histogram_empty(self):
        h = Histogram()
        assert h.mean == 0.0
        d = h.to_dict()
        assert d["count"] == 0
        assert d["min"] is None and d["max"] is None


class TestUngatedRegistry:
    def test_writers_always_record(self):
        reg = MetricsRegistry()
        reg.inc("calls")
        reg.inc("calls", 2)
        reg.set_gauge("depth", 3.0)
        reg.observe("wall", 0.5)
        snap = reg.snapshot()
        assert snap["counters"]["calls"] == 3
        assert snap["gauges"]["depth"] == 3.0
        assert snap["histograms"]["wall"]["count"] == 1

    def test_accessors_create_on_first_use(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")
        assert sorted(reg) == ["a", "b", "c"]

    def test_rows_expand_histograms(self):
        reg = MetricsRegistry()
        reg.inc("n", 2)
        reg.observe("t", 1.0)
        reg.observe("t", 3.0)
        rows = dict(reg.rows())
        assert rows["n"] == 2
        assert rows["t.count"] == 2
        assert rows["t.mean"] == 2.0
        assert rows["t.min"] == 1.0
        assert rows["t.max"] == 3.0
        assert rows["t.sum"] == 4.0

    def test_reset_drops_everything(self):
        reg = MetricsRegistry()
        reg.inc("x")
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {},
                                  "histograms": {}}


class TestGatedRegistry:
    def test_global_registry_is_gated_off_by_default(self):
        metrics.inc("ignored")
        metrics.set_gauge("ignored.g", 1.0)
        metrics.observe("ignored.h", 1.0)
        snap = metrics.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_global_registry_records_when_enabled(self, obs_on):
        metrics.inc("batch.cache.hits", 3)
        assert metrics.snapshot()["counters"]["batch.cache.hits"] == 3

    def test_metrics_only_mode(self):
        obs.enable(trace=False, metrics=True)
        metrics.inc("m")
        assert metrics.snapshot()["counters"]["m"] == 1
        assert not obs.tracing_enabled() and obs.metrics_enabled()


class TestMerge:
    def test_merge_adds_counters_and_histograms(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.inc("calls", 2)
        b.inc("calls", 3)
        a.observe("wall", 1.0)
        b.observe("wall", 3.0)
        b.set_gauge("depth", 9.0)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["calls"] == 5
        assert snap["histograms"]["wall"] == {
            "count": 2, "sum": 4.0, "min": 1.0, "max": 3.0, "mean": 2.0}
        assert snap["gauges"]["depth"] == 9.0

    def test_merge_empty_snapshot_is_noop(self):
        a = MetricsRegistry()
        a.inc("x")
        before = a.snapshot()
        a.merge({})
        assert a.snapshot() == before

    def test_merge_empty_histogram_keeps_extremes_empty(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        b.histogram("h")  # registered but never observed
        a.merge(b.snapshot())
        assert a.histogram("h").count == 0
        assert math.isinf(a.histogram("h").min)


class TestIsolation:
    def test_push_pop_isolated_captures_delta_only(self, obs_on):
        metrics.inc("before")
        frame = metrics.push_isolated()
        metrics.inc("during", 7)
        captured = metrics.pop_isolated(frame)
        assert captured["counters"] == {"during": 7}
        snap = metrics.snapshot()
        assert snap["counters"] == {"before": 1}


class TestStateHelpers:
    def test_enable_disable_roundtrip(self):
        assert not obs.enabled()
        obs.enable()
        assert obs.enabled() and obs.tracing_enabled() \
            and obs.metrics_enabled()
        obs.disable()
        assert not obs.enabled()

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("true", True), ("ON", True),
        ("", False), ("0", False), ("false", False), ("off", False),
    ])
    def test_env_flag_parsing(self, value, expected, monkeypatch):
        from repro.obs.state import _env_flag
        monkeypatch.setenv("REPRO_OBS_TEST_FLAG", value)
        assert _env_flag("REPRO_OBS_TEST_FLAG") is expected


class TestNearestRank:
    def test_pinned_percentiles(self):
        from repro.obs.registry import nearest_rank
        assert nearest_rank([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
        values = [float(v) for v in range(1, 101)]
        assert nearest_rank(values, 0.99) == 99.0
        assert nearest_rank(values, 1.0) == 100.0
        assert nearest_rank(values, 0.0) == 1.0
        assert math.isnan(nearest_rank([], 0.5))

    def test_loadgen_and_replay_share_it(self):
        # One convention everywhere: the load generator's report and
        # the replay run dir both use this helper.
        from repro import loadgen
        from repro.obs.registry import nearest_rank
        from repro.replay import engine
        assert loadgen.nearest_rank([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
        assert loadgen.nearest_rank(list(range(1, 9)), 0.5) == 4
        assert loadgen.nearest_rank is nearest_rank
        assert engine.nearest_rank is nearest_rank

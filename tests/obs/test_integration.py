"""Hooks in the batch engine, cache, core optimizers, and the CLI."""

import json

import numpy as np
import pytest

from repro import obs
from repro.batch import default_cache, evaluate_batch, transistor_cost_batch
from repro.batch.cache import MAX_ENTRIES
from repro.batch.engine import SCALAR_MAX_POINTS
from repro.core import CostLandscape, TransistorCostModel, WaferCostModel
from repro.core.optimization import optimal_feature_size
from repro.geometry import Wafer
from repro.yieldsim import PoissonYield


def _names():
    return [r.name for r in obs.get_trace()]


def _counters():
    return obs.metrics.snapshot()["counters"]


#: Enough points for the vectorized kernels: at most SCALAR_MAX_POINTS
#: are priced by the scalar reference, which neither caches nor
#: records compute spans.
COUNTS = np.geomspace(1e6, 2e6, SCALAR_MAX_POINTS + 1)


@pytest.fixture
def model():
    return TransistorCostModel(
        wafer_cost=WaferCostModel(reference_cost_dollars=500.0,
                                  cost_growth_rate=1.4),
        wafer=Wafer(radius_cm=7.5))


class TestBatchEngineHooks:
    def test_transistor_cost_batch_span_and_metrics(self, obs_on):
        transistor_cost_batch(COUNTS, 0.8)
        names = _names()
        assert "batch.transistor_cost" in names
        assert "batch.compute.dies_per_wafer" in names
        assert "batch.compute.wafer_cost" in names
        counters = _counters()
        assert counters["batch.evaluate.calls"] == 1
        assert counters["batch.evaluate.cells"] == COUNTS.size
        hist = obs.metrics.snapshot()["histograms"]
        assert hist["batch.evaluate.seconds"]["count"] == 1

    def test_compute_spans_nest_under_evaluation(self, obs_on):
        transistor_cost_batch(COUNTS, 0.8)
        recs = {r.name: r for r in obs.get_trace()}
        outer = recs["batch.transistor_cost"]
        assert recs["batch.compute.dies_per_wafer"].parent_id \
            == outer.span_id
        assert recs["batch.compute.wafer_cost"].parent_id == outer.span_id

    def test_cache_hits_skip_compute_spans(self, obs_on):
        transistor_cost_batch(COUNTS, 0.8)
        obs.clear_trace()
        transistor_cost_batch(COUNTS, 0.8)
        names = _names()
        assert "batch.transistor_cost" in names
        assert not any(n.startswith("batch.compute.") for n in names)

    def test_evaluate_batch_metrics(self, obs_on, model):
        evaluate_batch(model, n_transistors=[1e6, 2e6, 3e6],
                       feature_sizes_um=0.8, design_density=150.0,
                       yield_model=PoissonYield(),
                       defect_density_per_cm2=0.5)
        assert "batch.evaluate" in _names()
        counters = _counters()
        assert counters["batch.evaluate.calls"] == 1
        assert counters["batch.evaluate.cells"] == 3

    def test_cache_counters_promoted_to_registry(self, obs_on):
        cache = default_cache()
        cache.get_or_compute("a", lambda: np.ones(2))
        cache.get_or_compute("a", lambda: np.ones(2))
        for key in range(MAX_ENTRIES):  # the last one evicts "a"
            cache.get_or_compute(key, lambda: np.ones(2))
        counters = _counters()
        assert counters["batch.cache.hits"] == 1
        assert counters["batch.cache.misses"] == MAX_ENTRIES + 1
        assert counters["batch.cache.evictions"] == 1

    def test_disabled_leaves_no_record(self, model):
        evaluate_batch(model, n_transistors=1e6, feature_sizes_um=0.8,
                       design_density=150.0, yield_value=0.7)
        assert obs.get_trace() == []
        assert _counters() == {}


class TestCoreHooks:
    def test_landscape_grid_span_and_counter(self, obs_on):
        landscape = CostLandscape(
            feature_sizes_um=np.linspace(0.5, 1.0, 4),
            transistor_counts=np.geomspace(1e5, 1e6, 3))
        landscape.grid()
        landscape.grid()  # cached: no second evaluation
        assert _names().count("core.landscape.grid") == 1
        assert _counters()["core.landscape.grids"] == 1
        grid_rec = next(r for r in obs.get_trace()
                        if r.name == "core.landscape.grid")
        assert tuple(grid_rec.attrs["shape"]) == (3, 4)

    def test_optimal_feature_size_span_and_counter(self, obs_on):
        optimal_feature_size(1e6)
        assert "core.optimal_feature_size" in _names()
        assert _counters()["core.optimize.calls"] == 1


class TestCliObservability:
    def test_trace_and_metrics_flags(self, tmp_path, capsys):
        from repro.cli import main
        trace_path = tmp_path / "trace.jsonl"
        code = main(["simulate", "--lot-size", "2", "--seed", "3",
                     "--trace", str(trace_path), "--metrics"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mc.wafers_simulated" in out
        assert "batch.cache" in out
        records = [json.loads(line)
                   for line in trace_path.read_text().splitlines()]
        names = [r["name"] for r in records]
        assert "cli.simulate" in names
        assert names.count("mc.wafer") == 2
        roots = [r for r in records if r["parent_id"] is None]
        assert [r["name"] for r in roots] == ["cli.simulate"]

    def test_flags_accepted_by_every_command(self, capsys):
        from repro.cli import main
        assert main(["optimize", "--die-area", "1.0", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "batch.evaluate.calls" in out

    def test_metrics_flag_on_uninstrumented_command(self, capsys):
        from repro.cli import main
        assert main(["table", "table1", "--metrics"]) == 0
        assert "(no metrics recorded)" in capsys.readouterr().out

    def test_no_flags_means_no_observability_output(self, capsys):
        from repro.cli import main
        assert main(["table", "table1"]) == 0
        out = capsys.readouterr().out
        assert "metric" not in out
        assert not obs.enabled()

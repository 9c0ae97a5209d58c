"""Cross-process trace/metric capture on the sharded Monte Carlo path.

The ISSUE-3 contract: spans recorded inside pool workers are shipped
back and merged into the parent trace as children of the launching
span, metric deltas add into the parent registry, and the sequential
fallback (pool unavailable) produces an *equivalent* span tree and
identical metric totals — so a trace reads the same no matter how the
lot was actually scheduled.
"""

import os

import pytest

from repro import obs
from repro import pool as pool_mod
from repro.geometry import Die, Wafer
from repro.obs.capture import absorb, begin_capture, capture_flags, \
    end_capture
from repro.yieldsim import ParallelExecutionWarning, SpotDefectSimulator


@pytest.fixture
def sim():
    return SpotDefectSimulator(Wafer(radius_cm=7.5), Die.square(1.0),
                               defect_density_per_cm2=0.6)


def _tree_shape(records):
    """The trace as a nested (name, attrs, children) structure, ignoring
    ids, timings, pids — everything that legitimately varies between a
    pooled and a sequential run."""
    known = {r.span_id for r in records}

    def node(rec):
        kids = sorted((node(k) for k in records
                       if k.parent_id == rec.span_id), key=str)
        return (rec.name, tuple(sorted(rec.attrs.items())), tuple(kids))

    return tuple(sorted((node(r) for r in records
                         if r.parent_id not in known), key=str))


def _mc_counters():
    counters = obs.metrics.snapshot()["counters"]
    return {k: v for k, v in counters.items() if k.startswith("mc.")}


class TestCaptureBracket:
    def test_capture_flags_none_when_off(self):
        assert capture_flags() is None

    def test_capture_flags_mirror_state(self, obs_on):
        assert capture_flags() == (True, True)

    def test_bracket_isolates_and_absorb_reparents(self, obs_on):
        with obs.span("launcher"):
            frame = begin_capture((True, True))
            with obs.span("inside"):
                pass
            obs.metrics.inc("inside.count", 2)
            payload = end_capture(frame)
            # Nothing leaked into the parent trace/registry yet.
            assert all(r.name != "inside" for r in obs.get_trace())
            assert "inside.count" not in obs.metrics.snapshot()["counters"]
            absorb(payload)
        recs = {r.name: r for r in obs.get_trace()}
        assert recs["inside"].parent_id == recs["launcher"].span_id
        assert obs.metrics.snapshot()["counters"]["inside.count"] == 2

    def test_bracket_forces_flags_in_cold_process(self):
        # Models a spawn-child that never saw the parent's enable().
        assert not obs.enabled()
        frame = begin_capture((True, True))
        with obs.span("child.work"):
            pass
        payload = end_capture(frame)
        assert not obs.enabled()  # restored
        assert [s["name"] for s in payload["spans"]] == ["child.work"]

    def test_absorb_none_is_noop(self, obs_on):
        absorb(None)
        assert obs.get_trace() == []


class TestPooledMerge:
    def test_worker_spans_merge_into_parent_trace(self, sim, obs_on):
        sim.simulate_lot(6, seed=42, workers=2)
        recs = obs.get_trace()
        by_name = {}
        for r in recs:
            by_name.setdefault(r.name, []).append(r)
        (lot,) = by_name["mc.simulate_lot"]
        shards = by_name["mc.shard"]
        wafers = by_name["mc.wafer"]
        assert lot.parent_id is None
        assert len(shards) == 2
        assert all(s.parent_id == lot.span_id for s in shards)
        assert len(wafers) == 6
        shard_ids = {s.span_id for s in shards}
        assert all(w.parent_id in shard_ids for w in wafers)
        assert sorted(w.attrs["wafer"] for w in wafers) == list(range(6))

    def test_worker_spans_carry_worker_pids(self, sim, obs_on):
        import warnings
        with warnings.catch_warnings():
            # A fallback run would execute everything in this process;
            # fail loudly instead so the assertion below means something.
            warnings.simplefilter("error", ParallelExecutionWarning)
            sim.simulate_lot(4, seed=7, workers=2)
        wafer_pids = {r.pid for r in obs.get_trace()
                      if r.name == "mc.wafer"}
        assert wafer_pids and os.getpid() not in wafer_pids

    def test_worker_metrics_merge(self, sim, obs_on):
        sim.simulate_lot(6, seed=42, workers=2)
        counters = _mc_counters()
        assert counters["mc.wafers_simulated"] == 6
        assert counters["mc.lots_simulated"] == 1
        wall = obs.metrics.snapshot()["histograms"][
            "mc.worker.wall_seconds"]
        assert wall["count"] == 2  # one observation per shard


class TestFallbackEquivalence:
    def test_sequential_fallback_produces_equivalent_tree(
            self, sim, obs_on, monkeypatch):
        sim.simulate_lot(6, seed=42, workers=2)
        pooled_tree = _tree_shape(obs.get_trace())
        pooled_counters = _mc_counters()

        obs.clear_trace()
        obs.metrics.reset()
        pool_mod.shutdown()  # a cached pool would bypass the patch
        monkeypatch.setattr(
            pool_mod, "ProcessPoolExecutor",
            _ExplodingExecutor)
        with pytest.warns(ParallelExecutionWarning):
            sim.simulate_lot(6, seed=42, workers=2)
        assert _tree_shape(obs.get_trace()) == pooled_tree
        assert _mc_counters() == pooled_counters

    def test_workers_one_produces_single_shard_tree(self, sim, obs_on):
        sim.simulate_lot(4, seed=9, workers=1)
        recs = obs.get_trace()
        assert len([r for r in recs if r.name == "mc.shard"]) == 1
        assert len([r for r in recs if r.name == "mc.wafer"]) == 4
        # The in-process bracket restored the parent's storage cleanly.
        assert obs.enabled()

    def test_disabled_run_records_nothing(self, sim):
        sim.simulate_lot(4, seed=9, workers=2)
        assert obs.get_trace() == []
        assert obs.metrics.snapshot()["counters"] == {}


class _ExplodingExecutor:
    """Stand-in for a fork-restricted host: pool creation is denied."""

    def __init__(self, *args, **kwargs):
        raise PermissionError("process spawning disabled in this sandbox")

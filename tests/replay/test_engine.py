"""Replay engine: parity, modes, skipping, measurement plumbing."""

import json

import pytest

from repro.errors import ParameterError
from repro.obs.recording import (
    RecordedQuery,
    load_recorded_log,
    signature_key,
)
from repro.replay import replay_log
from repro.serve import FabCostQuery, MicroBatchScheduler


def _record_log(tmp_path, n=40):
    log_path = tmp_path / "traffic.jsonl"
    queries = [FabCostQuery(1e5 * (i % 10 + 1), 0.6 + 0.1 * (i % 3))
               for i in range(n)]
    with MicroBatchScheduler(max_batch_size=16, record=log_path) as sched:
        for t in sched.submit_many(queries):
            t.result(timeout=10.0)
    return log_path


class TestConfigValidation:
    def test_bad_mode_and_speed(self, tmp_path):
        log_path = _record_log(tmp_path, n=4)
        with pytest.raises(ParameterError, match="mode"):
            replay_log(log_path, mode="sideways")
        with pytest.raises(ParameterError, match="speed"):
            replay_log(log_path, mode="open", speed=0.0)


class TestParity:
    @pytest.mark.parametrize("mode", ["open", "closed"])
    def test_zero_mismatches_against_own_recording(self, tmp_path, mode):
        log_path = _record_log(tmp_path)
        result = replay_log(log_path, mode=mode, speed=1000.0)
        assert result.n_queries == 40
        assert result.n_skipped == 0
        assert result.mismatches == 0
        assert result.wall_s > 0.0
        assert result.p50_ms <= result.p95_ms <= result.p99_ms

    def test_accepts_log_object_and_path(self, tmp_path):
        log_path = _record_log(tmp_path, n=8)
        log = load_recorded_log(log_path)
        by_path = replay_log(log_path, mode="closed")
        by_obj = replay_log(log, mode="closed")
        assert by_path.mismatches == by_obj.mismatches == 0

    def test_corrupted_cost_counts_as_mismatch(self, tmp_path):
        log_path = _record_log(tmp_path, n=8)
        log = load_recorded_log(log_path)
        records = list(log.records)
        bad = records[3]
        records[3] = RecordedQuery(
            t=bad.t, kind=bad.kind, sig=bad.sig, flush=bad.flush,
            backend=bad.backend, cost=(bad.cost or 1.0) * 1.5,
            query=bad.query)
        result = replay_log(records, mode="closed")
        assert result.mismatches == 1

    def test_unreplayable_records_are_skipped(self, tmp_path):
        log_path = _record_log(tmp_path, n=8)
        log = load_recorded_log(log_path)
        records = list(log.records)
        records.append(RecordedQuery(t=1.0, kind="model", sig="x",
                                     flush=9, backend="thread",
                                     cost=None, query=None))
        result = replay_log(records, mode="closed")
        assert result.n_queries == 8
        assert result.n_skipped == 1
        assert result.mismatches == 0


#: Three lines exactly as the previous release wrote them while serving
#: on its shared-memory process backend (fab, model and chiplet
#: queries, one flush).
PROCESS_POOL_LOG = """\
{"v": 1, "t": 0.01980903600269812, "kind": "fab", "sig": "910f9c480fec4262", "flush": 1, "backend": "process", "cost": 8.186405267264413e-06, "q": {"n": 200000.0, "lam": 1.2, "fab": {"cost_growth_rate": 1.4, "reference_cost_dollars": 500.0, "wafer_radius_cm": 7.5, "design_density": 152.0, "defect_coefficient": 1.72, "size_exponent_p": 4.07}}}
{"v": 1, "t": 0.01980903600269812, "kind": "model", "sig": "a6bbfe75b6c36836", "flush": 1, "backend": "process", "cost": 1.3369726981879394e-05, "q": {"n": 2000000.0, "lam": 0.8, "wafer": {"radius_cm": 7.5, "edge_exclusion_cm": 0.0}, "wafer_cost": {"reference_cost_dollars": 700.0, "cost_growth_rate": 1.8, "reference_feature_um": 1.0, "overhead_dollars": 0.0, "generation_model": "SHRINK_LOG", "shrink": 0.7, "linear_step_um": 0.15}, "volume_wafers": null, "design_density": 150.0, "aspect_ratio": 1.0, "defect_density_per_cm2": null, "yield": {"law": "ReferenceAreaYield", "params": {"reference_yield": 0.7, "reference_area_cm2": 1.0}}}}
{"v": 1, "t": 0.01980903600269812, "kind": "chiplet", "sig": "de57f70e63f77d53", "flush": 1, "backend": "process", "cost": 2.8463573765846532e-05, "q": {"n": 1000000.0, "lam": 1.0, "chiplet": {"chiplets": 2, "fab": {"cost_growth_rate": 1.4, "reference_cost_dollars": 500.0, "wafer_radius_cm": 7.5, "design_density": 152.0, "defect_coefficient": 1.72, "size_exponent_p": 4.07}, "packaging": {"name": "organic", "base_cost_dollars": 2.0, "cost_per_die_dollars": 0.4, "cost_per_cm2_dollars": 1.25, "bond_yield": 0.98}, "test": {"tester_rate_dollars_per_hour": 300.0, "probe_base_seconds": 2.0, "probe_seconds_per_kilotransistor": 0.002, "final_base_seconds": 5.0, "final_seconds_per_kilotransistor": 0.004}, "probe_coverage": 0.95}}}
"""


class TestLogFromProcessPool:
    @pytest.fixture
    def log_path(self, tmp_path):
        path = tmp_path / "process.jsonl"
        path.write_text(PROCESS_POOL_LOG)
        return path

    def test_loads_with_its_signature_digests(self, log_path):
        log = load_recorded_log(log_path)
        assert len(log.replayable()) == 3
        for rec in log.records:
            assert rec.backend == "process"
            assert rec.sig == signature_key(rec.query.signature())

    @pytest.mark.parametrize("mode", ["open", "closed"])
    def test_replays_with_zero_mismatches(self, log_path, mode):
        result = replay_log(log_path, mode=mode, speed=1000.0)
        assert result.n_queries == 3
        assert result.mismatches == 0

    def test_rerecorded_lines_keep_the_format(self, log_path, tmp_path):
        # Replaying the log through a recording scheduler writes the
        # same sig and cost per line; only backend reads "thread".
        out = tmp_path / "again.jsonl"
        queries = [r.query for r in load_recorded_log(log_path).records]
        with MicroBatchScheduler(record=out) as sched:
            for t in sched.submit_many(queries):
                t.result(timeout=10.0)
        old = [json.loads(line) for line in PROCESS_POOL_LOG.splitlines()]
        new = [json.loads(line) for line in out.read_text().splitlines()]
        for a, b in zip(old, new):
            assert b["backend"] == "thread"
            for key in ("v", "kind", "sig", "cost", "q"):
                assert a[key] == b[key]


class TestMeasurement:
    def test_flush_telemetry_and_derived_stats(self, tmp_path):
        log_path = _record_log(tmp_path)
        result = replay_log(log_path, mode="closed")
        assert result.flushes >= 1
        assert result.qps > 0.0
        assert sum(f.requests for f in result.flush_records) == 40
        assert 0.0 <= result.dedup_rate < 1.0
        assert 0.0 < result.mean_occupancy <= 1.0
        assert sum(result.flush_size_hist.values()) == result.flushes
        doc = result.to_dict()
        assert doc["n_queries"] == 40
        assert doc["mismatches"] == 0
        assert doc["max_batch_size"] == 256

    def test_open_loop_respects_speedup(self, tmp_path):
        # With a huge speed factor the recorded gaps collapse; the
        # replay must still finish and preserve parity.
        log_path = _record_log(tmp_path, n=12)
        result = replay_log(log_path, mode="open", speed=1e6)
        assert result.mismatches == 0
        assert result.max_queue_depth >= 0

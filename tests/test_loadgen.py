"""The open-loop load generator: workload, driving, verification."""

import json

import pytest

from repro.errors import ParameterError
from repro.loadgen import (
    LoadResult,
    build_workload,
    format_report,
    run_load,
)
from repro.obs.recording import load_recorded_log
from repro.replay import replay_log
from repro.serve.http import ServerThread


class TestBuildWorkload:
    def test_reproducible_and_mixed(self):
        specs_a = build_workload(200, seed=11)
        specs_b = build_workload(200, seed=11)
        assert [(s.kind, s.body) for s in specs_a] \
            == [(s.kind, s.body) for s in specs_b]
        kinds = {s.kind for s in specs_a}
        assert kinds == {"cost", "bulk", "optimize"}

    def test_every_cost_spec_carries_its_reference(self):
        for spec in build_workload(100, seed=2):
            if spec.kind == "cost":
                assert spec.expected is not None
                assert len(spec.expected) == 1
            elif spec.kind == "bulk":
                assert spec.expected is not None
                assert len(spec.expected) == len(
                    json.loads(spec.body)["queries"])
            else:
                assert spec.expected is None
                assert spec.die_areas is not None

    def test_both_single_cost_body_shapes_appear(self):
        specs = [s for s in build_workload(100, mix={"cost": 1.0}, seed=0)]
        bodies = [json.loads(s.body) for s in specs]
        assert any("q" in b for b in bodies)
        assert any("transistors" in b for b in bodies)

    def test_mix_validation(self):
        with pytest.raises(ParameterError):
            build_workload(10, mix={"nope": 1.0})
        with pytest.raises(ParameterError):
            build_workload(10, mix={"cost": 0.0})
        with pytest.raises(ParameterError):
            build_workload(0)
        with pytest.raises(ParameterError):
            build_workload(10, bulk_size=0)


class TestRunLoad:
    def test_mixed_load_against_live_server_bitwise_clean(self, tmp_path):
        # Every served cost matches the scalar reference bitwise, and
        # the traffic the server recorded replays with no mismatch.
        log = tmp_path / "http-traffic.jsonl"
        specs = build_workload(80, bulk_size=8, seed=5, mix={
            "cost": 0.4, "bulk": 0.1, "optimize": 0.1, "chiplet": 0.4})
        assert {s.kind for s in specs} \
            == {"cost", "bulk", "optimize", "chiplet"}
        with ServerThread(record=log) as srv:
            result = run_load("127.0.0.1", srv.port, specs,
                              rps=800.0, connections=4)
        # Leaving the block drained the server and closed the log.
        assert result.requests == 80
        assert result.completed == 80
        assert result.status_counts.get("200") == 80
        assert result.mismatches == 0
        assert result.verified_costs > 80  # bulks verify many per request
        assert result.timeouts == 0
        assert result.connection_errors == 0
        assert result.latency_ms["p50"] <= result.latency_ms["p95"] \
            <= result.latency_ms["p99"] <= result.latency_ms["max"]

        recorded = load_recorded_log(log)
        assert len(recorded) == sum(len(s.expected) for s in specs
                                    if s.kind != "optimize")
        assert {r.kind for r in recorded.records} \
            == {"fab", "model", "chiplet"}
        replayed = replay_log(recorded)
        assert replayed.n_queries == len(recorded)
        assert replayed.n_skipped == 0
        assert replayed.mismatches == 0

    def test_verification_catches_a_lying_server(self):
        # Same workload, but the expected answers are deliberately
        # wrong: the bitwise check must flag every served cost.
        specs = build_workload(10, mix={"cost": 1.0}, seed=1)
        import dataclasses
        lies = [dataclasses.replace(s, expected=(-1.0,) * len(s.expected))
                for s in specs]
        with ServerThread() as srv:
            result = run_load("127.0.0.1", srv.port, lies,
                              rps=500.0, connections=2)
        assert result.mismatches == result.verified_costs == 10

    def test_connection_errors_counted_not_raised(self):
        # Nothing is listening on this port: every request should be
        # classified as a connection error, never an exception.
        specs = build_workload(5, mix={"cost": 1.0}, seed=0)
        result = run_load("127.0.0.1", 1, specs, rps=1000.0,
                          connections=2, timeout_s=5.0)
        assert result.connection_errors == 5
        assert result.completed == 0

    def test_parameter_validation(self):
        specs = build_workload(2, seed=0)
        with pytest.raises(ParameterError):
            run_load("127.0.0.1", 80, specs, rps=0.0)
        with pytest.raises(ParameterError):
            run_load("127.0.0.1", 80, specs, rps=10.0, connections=0)


class TestReport:
    def test_format_report_mentions_everything(self):
        result = LoadResult(
            requests=10, completed=9,
            status_counts={"200": 8, "429": 1}, timeouts=1,
            connection_errors=0, mismatches=0, verified_costs=42,
            duration_s=0.5, offered_rps=100.0, achieved_rps=18.0,
            latency_ms={"p50": 1.0, "p95": 2.0, "p99": 3.0,
                        "mean": 1.2, "max": 3.5})
        report = format_report(result)
        assert "p99=3.00" in report
        assert "429" in report
        assert "0 bitwise mismatches" in report
        assert result.error_budget["http_429"] == 1
        assert result.error_budget["timeouts"] == 1

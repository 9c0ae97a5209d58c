"""The network tier — open-loop HTTP load with bitwise parity.

The acceptance claim: **>= 1,000 concurrent open-loop requests**
(mixed single-``/v1/cost`` and ``/v1/cost/bulk`` bodies, plus a slice
of ``/v1/optimize``) driven by :mod:`repro.loadgen` against a live
``repro.serve.http`` server produce **zero bitwise mismatches** versus
the scalar reference, and their p50/p95/p99 end-to-end latency plus
error budget (429s, timeouts, connection errors) land in
``benchmarks/BENCH_http.json``.  The traffic is recorded over HTTP and
then replayed through ``python -m repro replay`` — parity exit 0 —
closing the live-traffic → replay loop across the network boundary.

Parity always asserts.  The throughput/latency SLO assert (achieved
rate keeps up with the offered rate and the error budget stays empty)
self-skips below 4 CPUs, like the other benches, and
``REPRO_BENCH_PARITY_ONLY=1`` lowers the offered rate to a smoke pace
for CI — the request *count* stays >= 1,000 either way so the parity
surface never shrinks.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import emit, emit_json
from repro.loadgen import build_workload, run_load
from repro.serve.http import ServerThread

PARITY_ONLY = bool(os.environ.get("REPRO_BENCH_PARITY_ONLY"))

N_REQUESTS = 1_000
BULK_SIZE = 16
CONNECTIONS = 16
OFFERED_RPS = 400.0 if PARITY_ONLY else 2_000.0
MIN_THROUGHPUT_FRACTION = 0.5
SLO_CPUS = 4

_BENCH_HTTP_JSON = Path(__file__).resolve().parent / "BENCH_http.json"


def _update_bench_json(key, record):
    """Read-modify-write one claim's record into BENCH_http.json."""
    data = {}
    if _BENCH_HTTP_JSON.exists():
        try:
            data = json.loads(_BENCH_HTTP_JSON.read_text())
        except (OSError, ValueError):
            data = {}
    if not isinstance(data, dict) or "kind" in data:
        data = {}
    data[key] = record
    _BENCH_HTTP_JSON.write_text(json.dumps(data, indent=2) + "\n")


def _flush_stats(flushes) -> dict:
    if not flushes:
        return {"flushes": 0}
    sizes = sorted(f.requests for f in flushes)
    return {
        "flushes": len(sizes),
        "total_queries": sum(sizes),
        "mean_queries_per_flush": sum(sizes) / len(sizes),
        "max_queries_per_flush": sizes[-1],
    }


def _replay_recorded_log(log: Path, run_dir: Path) -> int:
    import repro
    env = dict(os.environ)
    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    result = subprocess.run(
        [sys.executable, "-m", "repro", "replay", "--log", str(log),
         "--run-dir", str(run_dir)],
        env=env, capture_output=True, text=True, timeout=600)
    if result.returncode != 0:
        emit("HTTP replay FAILED", result.stdout + "\n" + result.stderr)
    return result.returncode


def test_http_open_loop_parity_latency_and_replay(tmp_path):
    log = tmp_path / "http-traffic.jsonl"
    specs = build_workload(N_REQUESTS, bulk_size=BULK_SIZE, seed=9)
    with ServerThread(record=log, flush_history=65536, cache=None) as srv:
        result = run_load("127.0.0.1", srv.port, specs,
                          rps=OFFERED_RPS, connections=CONNECTIONS,
                          timeout_s=120.0, seed=9)
        srv.drain()  # flush + close the recorder before replaying
        flush_stats = _flush_stats(srv.server.service
                                   .scheduler.recent_flushes)

    # Parity: always asserted, every served cost, bitwise.
    assert result.mismatches == 0, (
        f"{result.mismatches} of {result.verified_costs} HTTP-served "
        f"costs were not bitwise equal to the scalar reference")
    assert result.verified_costs >= N_REQUESTS  # bulks verify many each

    # The recorded-over-HTTP log replays cleanly: parity exit 0.
    replay_rc = _replay_recorded_log(log, tmp_path / "replay-run")
    assert replay_rc == 0, "python -m repro replay exited non-zero"

    cpus = os.cpu_count() or 1
    slo_asserted = cpus >= SLO_CPUS and not PARITY_ONLY
    budget = result.error_budget
    record = {
        "kind": "http_open_loop",
        "requests": N_REQUESTS,
        "bulk_size": BULK_SIZE,
        "connections": CONNECTIONS,
        "offered_rps": result.offered_rps,
        "achieved_rps": result.achieved_rps,
        "duration_s": result.duration_s,
        "latency_ms": result.latency_ms,
        "status_counts": result.status_counts,
        "error_budget": budget,
        "verified_costs": result.verified_costs,
        "bitwise_mismatches": result.mismatches,
        "flush_coalescing": flush_stats,
        "replay_exit_code": replay_rc,
        "cpus": cpus,
        "parity_only": PARITY_ONLY,
        "slo_asserted": slo_asserted,
        "min_throughput_fraction": MIN_THROUGHPUT_FRACTION,
    }
    _update_bench_json("open_loop", record)
    emit_json(record)

    lat = result.latency_ms
    gate = "asserted" if slo_asserted else (
        "parity-only run" if PARITY_ONLY else f"skipped (< {SLO_CPUS} CPUs)")
    emit("HTTP open-loop load — repro.loadgen vs live repro.serve.http",
         f"workload      : {N_REQUESTS} requests "
         f"(mixed cost/bulk/optimize, bulk={BULK_SIZE}, "
         f"{CONNECTIONS} connections)\n"
         f"offered       : {result.offered_rps:8.1f} rps (Poisson, "
         f"open-loop)\n"
         f"achieved      : {result.achieved_rps:8.1f} rps over "
         f"{result.duration_s:.2f} s\n"
         f"latency       : p50 {lat['p50']:7.2f} ms  "
         f"p95 {lat['p95']:7.2f} ms  p99 {lat['p99']:7.2f} ms  "
         f"max {lat['max']:7.2f} ms\n"
         f"error budget  : {budget}\n"
         f"coalescing    : {flush_stats}\n"
         f"parity        : {result.verified_costs} costs verified, "
         f"{result.mismatches} bitwise mismatches; "
         f"recorded log replayed with exit {replay_rc}\n"
         f"SLO gate      : {gate}")

    if slo_asserted:
        assert result.achieved_rps \
            >= MIN_THROUGHPUT_FRACTION * result.offered_rps, (
                f"achieved {result.achieved_rps:.0f} rps fell below "
                f"{MIN_THROUGHPUT_FRACTION:.0%} of the offered "
                f"{result.offered_rps:.0f} rps")
        assert budget["timeouts"] == 0 and budget["connection_errors"] == 0

"""Parallel paths — the timing gates that need at least 4 CPUs.

Four legs time a parallel path against its one-process baseline:

* **sweep pool** — a 1000 × 1000 (10⁶-cell) Fig.-8 landscape through
  :class:`~repro.batch.sweep.TiledSweepRunner` at 4 workers (tiles of
  50,000 cells) against one cold full-grid
  :func:`~repro.batch.engine.transistor_cost_batch` call: **≥ 2×**;
* **chiplet pool** — the 8 × 15,000 (k, N_tr) crossover grid through
  :class:`~repro.batch.sweep.ChipletCrossoverSweep` at 4 workers
  (tiles of 20,000 cells) against one direct ``evaluate_tile`` call:
  **≥ 1.3×**;
* **MC shards** — an 8-wafer spot-defect lot sharded over 4 workers
  (``simulate_lot(..., seed=s, workers=4)``) against ``workers=1``:
  **≥ 2×**;
* **HTTP** — 1,000 open-loop requests (single, bulk and optimize
  bodies) offered at 2,000 rps over 16 connections to a live
  :mod:`repro.serve.http` server: achieved **≥ 50%** of offered, with
  no timeouts and no connection errors.

Every leg asserts bitwise parity (pool and shards against the
one-process result, HTTP against the scalar reference) on any host.
The timing gates assert only where this process may use at least 4
CPUs (``len(os.sched_getaffinity(0)) >= 4``): with fewer, 4 workers
cannot run at once, so the timings are recorded with
``gate_asserted: false``.  Each time is the best of 2 calls after one
warm-up call (:func:`_best_of_2`).  The two pool legs time cold work
on both sides: each one-process call and each pooled tile starts on an
emptied batch cache (:class:`_Cold`), so no timed call replays the
warm-up's wafer costs.

Records land in ``benchmarks/BENCH_parallel.json`` (one key per leg)
and the shared ``BENCH_repro.json``.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from conftest import emit, emit_json, update_bench_json
from repro.batch import default_cache
from repro.batch.engine import transistor_cost_batch
from repro.batch.sweep import (
    ChipletCrossoverSweep,
    FabCostSweep,
    TiledSweepRunner,
)
from repro.geometry import Die, Wafer
from repro.loadgen import build_workload, run_load
from repro.serve.http import ServerThread
from repro.system.chiplet import ChipletCostModel
from repro.yieldsim import DefectSizeDistribution, SpotDefectSimulator

WORKERS = 4
CPUS = len(os.sched_getaffinity(0))
GATE_ASSERTED = CPUS >= WORKERS
REPS = 2


def _best_of_2(fn):
    """One warm-up call, then the best of ``REPS`` timed calls.

    Returns ``(seconds, result of the last call)``.
    """
    result = fn()
    best = math.inf
    for _ in range(REPS):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


@dataclass(frozen=True)
class _Cold:
    """A sweep spec whose every tile starts on an emptied batch cache,
    in whichever process prices it."""

    spec: Any

    def fingerprint(self) -> str:
        return self.spec.fingerprint()

    def evaluate_tile(self, row_values, col_values, out) -> None:
        default_cache().clear()
        self.spec.evaluate_tile(row_values, col_values, out)


def _record(key: str, title: str, lines: str, record: dict) -> None:
    record.update(workers=WORKERS, cpus=CPUS, reps=REPS,
                  gate_asserted=GATE_ASSERTED)
    update_bench_json("BENCH_parallel.json", key, record)
    emit_json(record)
    gate = "asserted" if GATE_ASSERTED else f"recorded only: {CPUS} CPU(s)"
    emit(title, f"{lines}\ngate          : {gate}")


def _pool_leg(key, title, points, t_single, t_pool, mismatches,
              min_speedup, extra):
    speedup = t_single / t_pool
    _record(key, title,
            f"cells         : {points:,}\n"
            f"one process   : {t_single * 1e3:9.1f} ms\n"
            f"process pool  : {t_pool * 1e3:9.1f} ms -> {speedup:5.2f}x "
            f"at {WORKERS} workers (>= {min_speedup}x)\n"
            f"mismatches    : {mismatches}",
            {"kind": key, "points": points, "single_process_s": t_single,
             "pool_s": t_pool, "speedup": speedup,
             "min_speedup_required": min_speedup,
             "bitwise_mismatches": mismatches, **extra})
    assert mismatches == 0, \
        f"{mismatches} cells differ from the one-process result"
    if GATE_ASSERTED:
        assert speedup >= min_speedup, \
            f"{key}: {speedup:.2f}x < required {min_speedup}x at " \
            f"{WORKERS} workers on {CPUS} CPUs"


def test_sweep_pool_vs_single_process():
    counts = np.geomspace(1e5, 1e7, 1000)
    lams = np.linspace(0.3, 2.0, 1000)
    tile_size = 50_000
    # Both sides run cold: a warm cache would make their timed calls
    # replay the warm-up's wafer costs.
    def one_process():
        default_cache().clear()
        return transistor_cost_batch(counts[:, None], lams[None, :])

    t_single, want = _best_of_2(one_process)
    with TiledSweepRunner(workers=WORKERS,
                          tile_size=tile_size) as runner:
        t_pool, result = _best_of_2(
            lambda: runner.run(_Cold(FabCostSweep()), counts, lams))
    mismatches = int(np.count_nonzero(
        result.values != want.cost_per_transistor_dollars))
    _pool_leg("sweep_pool", "Fig.-8 mega-sweep — process pool vs one "
              "process", counts.size * lams.size, t_single, t_pool,
              mismatches, 2.0,
              {"tile_size": tile_size, "tile_stats": result.stats})


def test_chiplet_sweep_pool_vs_single_process():
    ks = np.arange(1, 9, dtype=float)
    counts = np.geomspace(1e5, 1e9, 15_000)
    tile_size = 20_000
    spec = _Cold(ChipletCrossoverSweep(feature_size_um=0.8,
                                       model=ChipletCostModel()))

    def one_process():
        out = np.empty((ks.size, counts.size))
        spec.evaluate_tile(ks, counts, out)
        return out

    t_single, want = _best_of_2(one_process)
    with TiledSweepRunner(workers=WORKERS,
                          tile_size=tile_size) as runner:
        t_pool, result = _best_of_2(lambda: runner.run(spec, ks, counts))
    mismatches = int(np.count_nonzero(result.values != want))
    _pool_leg("chiplet_pool", "Chiplet crossover sweep — process pool vs "
              "one process", ks.size * counts.size, t_single, t_pool,
              mismatches, 1.3,
              {"tile_size": tile_size, "tile_stats": result.stats})


def test_mc_shards_vs_sequential_lot():
    # A dense Fig.-5 defect population over a fine die grid: one wafer
    # costs ~7-8 ms on a 2-vCPU VM, so the lot is short next to pool
    # start-up, which only the untimed warm-up call pays.
    sim = SpotDefectSimulator(
        Wafer(radius_cm=7.5), Die.square(0.35),
        defect_density_per_cm2=200.0,
        size_distribution=DefectSizeDistribution(r0_um=0.3, p=4.07),
        kill_radius_um=0.5)
    n_wafers, seed = 8, 2024
    t_seq, lot_seq = _best_of_2(
        lambda: sim.simulate_lot(n_wafers, seed=seed, workers=1))
    t_par, lot_par = _best_of_2(
        lambda: sim.simulate_lot(n_wafers, seed=seed, workers=WORKERS))

    assert len(lot_par) == len(lot_seq) == n_wafers
    for mp, ms in zip(lot_par, lot_seq):
        assert np.array_equal(mp.die_centers_cm, ms.die_centers_cm)
        assert np.array_equal(mp.defect_counts, ms.defect_counts)
        assert mp.n_defects_total == ms.n_defects_total
    assert lot_par.yield_fraction == lot_seq.yield_fraction

    speedup = t_seq / t_par
    _record("mc_shards", "Monte Carlo lot — sharded vs sequential",
            f"lot           : {n_wafers} wafers x {lot_seq[0].n_dies} dies "
            f"({lot_seq.n_defects_total} defects thrown)\n"
            f"sequential    : {t_seq * 1e3:9.1f} ms\n"
            f"sharded       : {t_par * 1e3:9.1f} ms -> {speedup:5.2f}x "
            f"at {WORKERS} workers (>= 2.0x)\n"
            f"parity        : bitwise identical lot",
            {"kind": "mc_shards", "n_wafers": n_wafers,
             "dies_per_wafer": int(lot_seq[0].n_dies),
             "defects_thrown": int(lot_seq.n_defects_total),
             "lot_yield": lot_seq.yield_fraction,
             "sequential_s": t_seq, "sharded_s": t_par,
             "speedup": speedup, "min_speedup_required": 2.0})
    if GATE_ASSERTED:
        assert speedup >= 2.0, \
            f"shard speedup {speedup:.2f}x < required 2.0x at " \
            f"{WORKERS} workers on {CPUS} CPUs"


def test_http_open_loop_slo(tmp_path):
    n_requests, offered_rps = 1_000, 2_000.0
    specs = build_workload(n_requests, bulk_size=16, seed=9)
    # The server records its traffic and keeps its flush history, as
    # it has since this gate was set, so the gate prices the same
    # server work.  tests/test_loadgen.py replays such a log.
    with ServerThread(record=tmp_path / "http-traffic.jsonl",
                      flush_history=65536) as srv:
        result = run_load("127.0.0.1", srv.port, specs, rps=offered_rps,
                          connections=16, timeout_s=120.0, seed=9)
    flushes = srv.server.service.scheduler.recent_flushes

    assert result.mismatches == 0, (
        f"{result.mismatches} of {result.verified_costs} HTTP-served "
        f"costs were not bitwise equal to the scalar reference")
    assert result.verified_costs >= n_requests  # bulks verify many each

    lat = result.latency_ms
    budget = result.error_budget
    _record("http_slo", "HTTP open-loop load — repro.loadgen vs a live "
            "server",
            f"offered       : {result.offered_rps:8.1f} rps "
            f"({n_requests} requests, 16 connections)\n"
            f"achieved      : {result.achieved_rps:8.1f} rps "
            f"(>= 50% of offered)\n"
            f"latency       : p50 {lat['p50']:.2f} ms  "
            f"p95 {lat['p95']:.2f} ms  p99 {lat['p99']:.2f} ms\n"
            f"error budget  : {budget}\n"
            f"parity        : {result.verified_costs} costs verified, "
            f"{result.mismatches} bitwise mismatches",
            {"kind": "http_slo", "requests": n_requests,
             "offered_rps": result.offered_rps,
             "achieved_rps": result.achieved_rps,
             "duration_s": result.duration_s, "latency_ms": lat,
             "status_counts": result.status_counts,
             "error_budget": budget,
             "verified_costs": result.verified_costs,
             "bitwise_mismatches": result.mismatches,
             "flushes": len(flushes),
             "requests_per_flush": sum(f.requests for f in flushes)
             / max(len(flushes), 1),
             "min_throughput_fraction": 0.5})
    if GATE_ASSERTED:
        assert result.achieved_rps >= 0.5 * result.offered_rps, (
            f"achieved {result.achieved_rps:.0f} rps fell below 50% of "
            f"the offered {result.offered_rps:.0f} rps")
        assert budget["timeouts"] == 0 and budget["connection_errors"] == 0

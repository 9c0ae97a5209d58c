"""Mega-sweep throughput — the tiled process pool vs one in-process pass.

The acceptance claim of the tiled sweep engine
(:mod:`repro.batch.sweep`): a **≥ 10⁶-point** (λ, N_tr) Fig.-8
landscape evaluated through :class:`TiledSweepRunner` on the process
pool (:mod:`repro.pool`) is

1. **bitwise identical** to the single-process full-grid
   :func:`~repro.batch.engine.transistor_cost_batch` reference
   (asserted always, any CPU count), and
2. at least **2x** faster at 4 workers (asserted only at ≥ 4 CPUs and
   outside ``REPRO_BENCH_PARITY_ONLY=1``, which also shrinks the grid
   to a smoke size — the PR-5 self-skip convention; the record then
   carries ``speedup_asserted: false``).

A second leg drives the checkpoint path: a sweep interrupted halfway
and resumed must also land bitwise on the reference, with the
expected split of computed vs resumed tiles.

Records land in ``benchmarks/BENCH_sweep.json`` (one JSON object, one
key per claim) and the shared ``BENCH_repro.json``.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

import numpy as np

from conftest import emit, emit_json
from repro.batch.engine import transistor_cost_batch
from repro.batch.sweep import FabCostSweep, SweepPlan, TiledSweepRunner

PARITY_ONLY = bool(os.environ.get("REPRO_BENCH_PARITY_ONLY"))

# 1000 x 1000 = 10^6 grid cells in the full run; the parity-only leg
# keeps the tiling non-trivial (many tiles) at smoke cost.
N_COUNTS = 120 if PARITY_ONLY else 1000
N_LAMS = 100 if PARITY_ONLY else 1000
TILE_SIZE = 4_000 if PARITY_ONLY else 50_000
POOL_WORKERS = 4
MIN_SPEEDUP = 2.0
REPS = 2

_BENCH_SWEEP_JSON = Path(__file__).resolve().parent / "BENCH_sweep.json"


def _axes():
    counts = np.geomspace(1e5, 1e7, N_COUNTS)
    lams = np.linspace(0.3, 2.0, N_LAMS)
    return counts, lams


def _single_process_pass(counts, lams):
    # The baseline the pool must beat: one uncached full-grid batch
    # call (caching would turn the timed reps into memcpy).
    best = math.inf
    result = None
    for _ in range(REPS):
        t0 = time.perf_counter()
        result = transistor_cost_batch(counts[:, None], lams[None, :],
                                       cache=None)
        best = min(best, time.perf_counter() - t0)
    return best, result.cost_per_transistor_dollars


def _update_bench_json(key, record):
    """Read-modify-write one claim's record into BENCH_sweep.json."""
    data = {}
    if _BENCH_SWEEP_JSON.exists():
        try:
            data = json.loads(_BENCH_SWEEP_JSON.read_text())
        except (OSError, ValueError):
            data = {}
    if not isinstance(data, dict):
        data = {}
    data[key] = record
    _BENCH_SWEEP_JSON.write_text(json.dumps(data, indent=2) + "\n")


def test_mega_sweep_pool_vs_single_process():
    counts, lams = _axes()
    plan = SweepPlan.for_grid(counts.size, lams.size, TILE_SIZE)

    t_single, want = _single_process_pass(counts, lams)

    t_pool = math.inf
    stats = None
    with TiledSweepRunner(workers=POOL_WORKERS, tile_size=TILE_SIZE,
                          cache=None) as runner:
        spec = FabCostSweep()
        runner.run(spec, counts, lams)  # warm-up (pool fork, imports)
        for _ in range(REPS):
            t0 = time.perf_counter()
            result = runner.run(spec, counts, lams)
            t_pool = min(t_pool, time.perf_counter() - t0)
        stats = result.stats

    mismatches = int(np.count_nonzero(result.values != want))
    speedup = t_single / t_pool
    cpus = os.cpu_count() or 1
    assert_speedup = cpus >= POOL_WORKERS and not PARITY_ONLY

    record = {
        "kind": "mega_sweep",
        "points": int(counts.size * lams.size),
        "shape": [int(counts.size), int(lams.size)],
        "tile_size": TILE_SIZE,
        "tile_shape": [plan.tile_rows, plan.tile_cols],
        "n_tiles": plan.n_tiles,
        "workers": POOL_WORKERS,
        "cpus": cpus,
        "reps": REPS,
        "parity_only": PARITY_ONLY,
        "single_process_s": t_single,
        "pool_s": t_pool,
        "speedup_pool_over_single": speedup,
        "min_speedup_required": MIN_SPEEDUP,
        "speedup_asserted": assert_speedup,
        "bitwise_mismatches": mismatches,
        "tile_stats": stats,
    }
    _update_bench_json("mega_sweep", record)
    emit_json(record)
    if assert_speedup:
        gate = "asserted"
    elif PARITY_ONLY:
        gate = "recorded only: parity-only leg"
    else:
        gate = f"recorded only: {cpus} CPU(s)"
    emit("Mega-sweep — tiled process pool vs single process",
         f"landscape     : {counts.size} x {lams.size} = "
         f"{counts.size * lams.size:,} (N_tr, lambda) cells, "
         f"{plan.n_tiles} tiles of {plan.tile_rows}x{plan.tile_cols}\n"
         f"single process: {t_single * 1e3:8.1f} ms (best of {REPS})\n"
         f"process pool  : {t_pool * 1e3:8.1f} ms  "
         f"-> {speedup:5.2f}x at {POOL_WORKERS} workers\n"
         f"contract      : >= {MIN_SPEEDUP}x at >= {POOL_WORKERS} CPUs "
         f"({gate})\n"
         f"mismatches    : {mismatches}")

    assert mismatches == 0, \
        f"{mismatches} pool-swept cells differ from the single-process " \
        f"reference"
    if assert_speedup:
        assert speedup >= MIN_SPEEDUP, \
            f"process pool is only {speedup:.2f}x over single-process " \
            f"(single {t_single * 1e3:.1f} ms, pool " \
            f"{t_pool * 1e3:.1f} ms); the mega-sweep contract requires " \
            f"{MIN_SPEEDUP}x at {POOL_WORKERS} workers"


def test_mega_sweep_checkpoint_resume_is_bitwise(tmp_path):
    counts, lams = _axes()
    _, want = _single_process_pass(counts, lams)
    plan = SweepPlan.for_grid(counts.size, lams.size, TILE_SIZE)
    stop_after = max(1, plan.n_tiles // 2)

    class _Interrupted(Exception):
        pass

    def interrupt(tile, done, total):
        if done >= stop_after:
            raise _Interrupted

    spec = FabCostSweep()
    ckpt = tmp_path / "sweep-run"
    try:
        TiledSweepRunner(tile_size=TILE_SIZE, cache=None,
                         checkpoint_dir=ckpt).run(
            spec, counts, lams, on_tile=interrupt)
        raise AssertionError("sweep was not interrupted")
    except _Interrupted:
        pass

    result = TiledSweepRunner(tile_size=TILE_SIZE, cache=None,
                              checkpoint_dir=ckpt, resume=True).run(
        spec, counts, lams)
    mismatches = int(np.count_nonzero(result.values != want))

    record = {
        "kind": "mega_sweep_resume",
        "points": int(counts.size * lams.size),
        "n_tiles": plan.n_tiles,
        "interrupted_after": stop_after,
        "tiles_resumed": result.stats["tiles_resumed"],
        "tiles_computed": result.stats["tiles_computed"],
        "bitwise_mismatches": mismatches,
    }
    _update_bench_json("resume", record)
    emit_json(record)
    emit("Mega-sweep — kill-and-resume bitwise parity",
         f"tiles         : {plan.n_tiles} total, interrupted after "
         f"{stop_after}\n"
         f"resumed run   : {result.stats['tiles_resumed']} loaded from "
         f"checkpoint, {result.stats['tiles_computed']} computed\n"
         f"mismatches    : {mismatches}")

    assert result.stats["tiles_resumed"] == stop_after
    assert result.stats["tiles_computed"] == plan.n_tiles - stop_after
    assert mismatches == 0, \
        f"{mismatches} resumed cells differ from the uninterrupted " \
        f"reference"

"""Chiplet crossover grid — batched kernel vs. the scalar loop.

The acceptance claim of the chiplet hot path
(:func:`repro.batch.engine.chiplet_cost_batch`): a **≥ 10⁵-point**
(k, N_tr) monolithic-vs-chiplet crossover grid evaluated in one
batched call is

1. **bitwise identical** to the scalar
   :meth:`repro.system.chiplet.ChipletCostModel.system_cost` loop —
   every field, every cell, zero mismatches (asserted always, any CPU
   count), and
2. at least **10x** faster than that loop on a single CPU (asserted
   outside ``REPRO_BENCH_PARITY_ONLY=1``, which shrinks the grid to a
   smoke size; the record then carries ``speedup_asserted: false``).

A second leg drives the same grid through
:class:`~repro.batch.sweep.ChipletCrossoverSweep` on the process
pool: bitwise parity with the direct kernel is
asserted always, the pool speedup only at ≥ 4 CPUs (the PR-5
self-skip convention).

Records land in ``benchmarks/BENCH_chiplet.json`` (one JSON object,
one key per claim) and the shared ``BENCH_repro.json``.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

import numpy as np

from conftest import emit, emit_json
from repro.batch.engine import chiplet_cost_batch
from repro.batch.sweep import ChipletCrossoverSweep, TiledSweepRunner
from repro.system.chiplet import ChipletCostModel

PARITY_ONLY = bool(os.environ.get("REPRO_BENCH_PARITY_ONLY"))

# 8 x 15,000 = 120,000 grid cells in the full run — past the 10^5
# floor of the claim; the parity-only leg stays a smoke size.
K_MAX = 6 if PARITY_ONLY else 8
N_BUDGETS = 600 if PARITY_ONLY else 15_000
FEATURE_SIZE_UM = 0.8
MIN_SPEEDUP = 10.0
POOL_WORKERS = 4
POOL_MIN_SPEEDUP = 1.3
TILE_SIZE = 1_000 if PARITY_ONLY else 20_000
REPS = 2

_BENCH_CHIPLET_JSON = Path(__file__).resolve().parent / \
    "BENCH_chiplet.json"

#: Batch-result array field for each scalar-breakdown attribute.
_PARITY_FIELDS = (
    "transistors_per_chiplet", "chiplet_area_cm2", "wafer_cost_dollars",
    "dies_per_wafer", "die_yield", "assembly_yield", "effective_yield",
    "packaging_cost_dollars", "silicon_cost_per_transistor_dollars",
    "overhead_cost_per_transistor_dollars", "cost_per_transistor_dollars",
)


def _axes():
    ks = np.arange(1, K_MAX + 1, dtype=float)
    counts = np.geomspace(1e5, 1e9, N_BUDGETS)
    return ks, counts


def _update_bench_json(key, record):
    """Read-modify-write one claim's record into BENCH_chiplet.json."""
    data = {}
    if _BENCH_CHIPLET_JSON.exists():
        try:
            data = json.loads(_BENCH_CHIPLET_JSON.read_text())
        except (OSError, ValueError):
            data = {}
    if not isinstance(data, dict):
        data = {}
    data[key] = record
    _BENCH_CHIPLET_JSON.write_text(json.dumps(data, indent=2) + "\n")


def _scalar_grid(model, ks, counts):
    """The cell-by-cell reference loop: every breakdown field."""
    grids = {name: np.empty((ks.size, counts.size))
             for name in _PARITY_FIELDS}
    feasible = np.empty((ks.size, counts.size), dtype=bool)
    for i, k in enumerate(ks):
        for j, n in enumerate(counts):
            b = model.system_cost(int(k), float(n), FEATURE_SIZE_UM)
            for name in _PARITY_FIELDS:
                grids[name][i, j] = float(getattr(b, name))
            feasible[i, j] = b.feasible
    return grids, feasible


def _count_mismatches(result, grids, feasible):
    mismatches = 0
    for name in _PARITY_FIELDS:
        got = np.asarray(getattr(result, name), dtype=float)
        mismatches += int(np.count_nonzero(got != grids[name]))
    mismatches += int(np.count_nonzero(
        np.asarray(result.feasible) != feasible))
    return mismatches


def test_chiplet_batch_vs_scalar_loop():
    model = ChipletCostModel()
    ks, counts = _axes()
    points = int(ks.size * counts.size)

    t0 = time.perf_counter()
    grids, feasible = _scalar_grid(model, ks, counts)
    t_scalar = time.perf_counter() - t0

    chiplet_cost_batch(counts[None, :1], FEATURE_SIZE_UM, ks[:1, None],
                       model, cache=None)  # warm-up (imports, caches)
    t_batch = math.inf
    result = None
    for _ in range(REPS):
        t0 = time.perf_counter()
        result = chiplet_cost_batch(counts[None, :], FEATURE_SIZE_UM,
                                    ks[:, None], model, cache=None)
        t_batch = min(t_batch, time.perf_counter() - t0)

    mismatches = _count_mismatches(result, grids, feasible)
    speedup = t_scalar / t_batch
    assert_speedup = not PARITY_ONLY

    record = {
        "kind": "chiplet_batch",
        "points": points,
        "shape": [int(ks.size), int(counts.size)],
        "feature_size_um": FEATURE_SIZE_UM,
        "reps": REPS,
        "parity_only": PARITY_ONLY,
        "scalar_loop_s": t_scalar,
        "batch_s": t_batch,
        "speedup_batch_over_scalar": speedup,
        "min_speedup_required": MIN_SPEEDUP,
        "speedup_asserted": assert_speedup,
        "bitwise_mismatches": mismatches,
        "fields_compared": len(_PARITY_FIELDS) + 1,
    }
    _update_bench_json("chiplet_batch", record)
    emit_json(record)
    gate = "asserted" if assert_speedup \
        else "recorded only: parity-only leg"
    emit("Chiplet crossover — batched kernel vs scalar loop",
         f"grid          : {ks.size} k-values x {counts.size:,} budgets "
         f"= {points:,} cells at lambda = {FEATURE_SIZE_UM} um\n"
         f"scalar loop   : {t_scalar * 1e3:9.1f} ms "
         f"({len(_PARITY_FIELDS) + 1} fields per cell)\n"
         f"batched       : {t_batch * 1e3:9.1f} ms (best of {REPS}) "
         f"-> {speedup:5.1f}x\n"
         f"contract      : >= {MIN_SPEEDUP}x on 1 CPU ({gate})\n"
         f"mismatches    : {mismatches}")

    assert mismatches == 0, \
        f"{mismatches} batched cells differ bitwise from the scalar loop"
    if assert_speedup:
        assert speedup >= MIN_SPEEDUP, \
            f"batched kernel is only {speedup:.1f}x over the scalar " \
            f"loop (scalar {t_scalar * 1e3:.1f} ms, batch " \
            f"{t_batch * 1e3:.1f} ms); the chiplet contract requires " \
            f"{MIN_SPEEDUP}x on >= 1e5 points"


def test_chiplet_crossover_sweep_on_the_pool():
    model = ChipletCostModel()
    ks, counts = _axes()
    spec = ChipletCrossoverSweep(feature_size_um=FEATURE_SIZE_UM,
                                 model=model)

    want = np.empty((ks.size, counts.size))
    spec.evaluate_tile(ks, counts, want, cache=None)

    t_single = math.inf
    for _ in range(REPS):
        out = np.empty_like(want)
        t0 = time.perf_counter()
        spec.evaluate_tile(ks, counts, out, cache=None)
        t_single = min(t_single, time.perf_counter() - t0)

    t_pool = math.inf
    with TiledSweepRunner(workers=POOL_WORKERS, tile_size=TILE_SIZE,
                          cache=None) as runner:
        runner.run(spec, ks, counts)  # warm-up (pool fork, imports)
        for _ in range(REPS):
            t0 = time.perf_counter()
            result = runner.run(spec, ks, counts)
            t_pool = min(t_pool, time.perf_counter() - t0)

    mismatches = int(np.count_nonzero(result.values != want))
    speedup = t_single / t_pool
    cpus = os.cpu_count() or 1
    assert_speedup = cpus >= POOL_WORKERS and not PARITY_ONLY

    # The crossover budgets the swept grid implies, for the record.
    finite = np.isfinite(result.values)
    crossovers = {}
    mono = result.values[0]
    for i in range(1, result.values.shape[0]):
        wins = finite[i] & (result.values[i] < mono)
        crossovers[f"k={int(ks[i])}"] = \
            float(counts[int(np.argmax(wins))]) if wins.any() else None

    record = {
        "kind": "chiplet_sweep_pool",
        "points": int(ks.size * counts.size),
        "tile_size": TILE_SIZE,
        "workers": POOL_WORKERS,
        "cpus": cpus,
        "reps": REPS,
        "parity_only": PARITY_ONLY,
        "single_process_s": t_single,
        "pool_s": t_pool,
        "speedup_pool_over_single": speedup,
        "min_speedup_required": POOL_MIN_SPEEDUP,
        "speedup_asserted": assert_speedup,
        "bitwise_mismatches": mismatches,
        "crossover_budgets": crossovers,
        "tile_stats": result.stats,
    }
    _update_bench_json("chiplet_sweep_pool", record)
    emit_json(record)
    if assert_speedup:
        gate = "asserted"
    elif PARITY_ONLY:
        gate = "recorded only: parity-only leg"
    else:
        gate = f"recorded only: {cpus} CPU(s)"
    emit("Chiplet crossover — process pool sweep vs single process",
         f"grid          : {ks.size} x {counts.size:,} cells, tile size "
         f"{TILE_SIZE:,}\n"
         f"single process: {t_single * 1e3:9.1f} ms (best of {REPS})\n"
         f"process pool  : {t_pool * 1e3:9.1f} ms  "
         f"-> {speedup:5.2f}x at {POOL_WORKERS} workers\n"
         f"contract      : >= {POOL_MIN_SPEEDUP}x at >= {POOL_WORKERS} "
         f"CPUs ({gate})\n"
         f"crossovers    : {crossovers}\n"
         f"mismatches    : {mismatches}")

    assert mismatches == 0, \
        f"{mismatches} pool-swept cells differ from the direct kernel"
    if assert_speedup:
        assert speedup >= POOL_MIN_SPEEDUP, \
            f"process pool is only {speedup:.2f}x over single-process; the " \
            f"chiplet sweep contract requires {POOL_MIN_SPEEDUP}x at " \
            f"{POOL_WORKERS} workers"

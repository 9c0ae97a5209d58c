"""Monte Carlo lot sharding — process-parallel vs sequential schedule.

The claim under test: sharding an 8-wafer spot-defect lot over 4
worker processes (``simulate_lot(..., seed=s, workers=4)``) is at
least **2× faster** than the in-process sequential schedule, while
producing a *bitwise identical* lot — same per-wafer killer counts,
same defects-thrown bookkeeping, same die centers — because every
wafer draws from its own ``SeedSequence.spawn`` child stream no matter
which process simulates it.

The speedup floor is asserted only when the host exposes at least 4
CPUs (a single-core runner cannot exhibit process parallelism); the
parity assertions always run.  Results land in
``benchmarks/BENCH_mc.json`` and, via the shared ``emit_json`` hook,
in ``benchmarks/BENCH_repro.json``.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

import numpy as np

from conftest import emit, emit_json
from repro.geometry import Die, Wafer
from repro.yieldsim import DefectSizeDistribution, SpotDefectSimulator

N_WAFERS = 8
WORKERS = 4
SEED = 2024
MIN_SPEEDUP = 2.0
_BENCH_MC_JSON = Path(__file__).resolve().parent / "BENCH_mc.json"


def _simulator() -> SpotDefectSimulator:
    # A dense Fig.-5 defect population over a fine die grid.  Since
    # grading became a die-grid lookup, one wafer costs ~7-8 ms on a
    # 2-vCPU VM (67-80 ms before), less than starting a per-call pool
    # inside pytest (~13 ms at 2 workers, ~24 ms at 4).  This bench
    # recorded 0.45-1.11x there (1.01-1.77x before), so its 2x gate
    # may fail on a >=4-CPU host until pools are reused across calls.
    return SpotDefectSimulator(
        Wafer(radius_cm=7.5), Die.square(0.35),
        defect_density_per_cm2=200.0,
        size_distribution=DefectSizeDistribution(r0_um=0.3, p=4.07),
        kill_radius_um=0.5)


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def _time_best_of(fn, reps: int) -> float:
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_mc_shard_speedup_and_parity(benchmark):
    sim = _simulator()
    lot_seq = sim.simulate_lot(N_WAFERS, seed=SEED, workers=1)
    lot_par = benchmark(lambda: sim.simulate_lot(N_WAFERS, seed=SEED,
                                                 workers=WORKERS))

    # --- bitwise parity: sharding must not change a single count -----
    assert len(lot_par) == len(lot_seq) == N_WAFERS
    for mp, ms in zip(lot_par, lot_seq):
        assert np.array_equal(mp.die_centers_cm, ms.die_centers_cm)
        assert np.array_equal(mp.defect_counts, ms.defect_counts)
        assert mp.n_defects_total == ms.n_defects_total
    assert lot_par.yield_fraction == lot_seq.yield_fraction

    # --- speedup ------------------------------------------------------
    t_seq = _time_best_of(
        lambda: sim.simulate_lot(N_WAFERS, seed=SEED, workers=1), 2)
    t_par = _time_best_of(
        lambda: sim.simulate_lot(N_WAFERS, seed=SEED, workers=WORKERS), 2)
    speedup = t_seq / t_par
    cpus = _available_cpus()
    speedup_asserted = cpus >= WORKERS
    if speedup_asserted:
        assert speedup >= MIN_SPEEDUP, \
            f"shard speedup {speedup:.2f}x < required {MIN_SPEEDUP}x " \
            f"at {WORKERS} workers on {cpus} CPUs"

    record = {
        "kind": "mc_shard",
        "n_wafers": N_WAFERS,
        "workers": WORKERS,
        "dies_per_wafer": int(lot_seq[0].n_dies),
        "defects_thrown": int(lot_seq.n_defects_total),
        "lot_yield": lot_seq.yield_fraction,
        "sequential_s": t_seq,
        "sharded_s": t_par,
        "speedup": speedup,
        "min_required_speedup": MIN_SPEEDUP,
        "available_cpus": cpus,
        "speedup_asserted": speedup_asserted,
        "bitwise_identical": True,
    }
    _BENCH_MC_JSON.write_text(json.dumps(record, indent=2) + "\n")
    emit_json(record)
    emit("Monte Carlo lot sharding — spawned seed streams over processes",
         f"lot                : {N_WAFERS} wafers x {lot_seq[0].n_dies} dies "
         f"({lot_seq.n_defects_total} defects thrown)\n"
         f"sequential         : {t_seq * 1e3:9.1f} ms\n"
         f"sharded ({WORKERS} workers): {t_par * 1e3:9.1f} ms   "
         f"({speedup:5.2f}x)\n"
         f"parity             : bitwise identical lot\n"
         f"speedup floor      : {MIN_SPEEDUP}x "
         f"({'asserted' if speedup_asserted else 'recorded only: '}"
         f"{'' if speedup_asserted else f'{cpus} CPU(s) available'})")

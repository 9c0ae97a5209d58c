"""Perf engine — batched Fig.-8 evaluation vs. the scalar reference.

The claim under test: evaluating the full cost model — eqs. (1), (3),
(4) and (7) — over a 36×36 (λ, N_tr) grid with
:func:`repro.batch.transistor_cost_batch` is at least **20× faster**
than the cell-by-cell scalar loop, while producing the *same* grid,
bit for bit: the cost grid and the eq.-(4) die counts byte for byte,
and a cell's yield and wafer cost by their bits (the engine makes the
scalar code's libm calls on every SIMD target).

The speedup is timed in interleaved (scalar, batch) pairs, alternating
which runs first, and the gate reads the median of the per-pair
ratios: a pair sees one stretch of host noise, so a slow patch of the
host that stretches both of its grids cancels in its ratio, and the
median ignores the pairs it splits.  Best-of-3 scalar against
best-of-10 batch timings read 20.6–30.9× within one hour on one
2-vCPU host, with no code change.

Results land in ``benchmarks/BENCH_engine.json``, with the spread of
the per-pair ratios.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from pathlib import Path

import numpy as np

from conftest import emit, emit_json
from repro.batch import BatchCache, transistor_cost_batch
from repro.core.optimization import FIG8_FAB, transistor_cost_full
from repro.core.wafer_cost import WaferCostModel
from repro.geometry import Die, Wafer, dies_per_wafer_maly
from repro.yieldsim.models import scaled_poisson_yield

LAM = np.linspace(0.3, 2.0, 36)
NTR = np.geomspace(1e5, 1e7, 36)

MIN_SPEEDUP = 20.0
#: Interleaved (scalar, batch) timing pairs behind the gated median.
PAIRS = 21
_BENCH_ENGINE_JSON = Path(__file__).resolve().parent / "BENCH_engine.json"


def _scalar_grid() -> tuple[np.ndarray, np.ndarray]:
    """The reference loop: cost grid plus eq.-(4) die counts."""
    costs = np.empty((NTR.size, LAM.size))
    dies = np.empty((NTR.size, LAM.size), dtype=np.int64)
    wafer = Wafer(radius_cm=FIG8_FAB.wafer_radius_cm)
    for i, n_tr in enumerate(NTR):
        for j, lam in enumerate(LAM):
            costs[i, j] = transistor_cost_full(float(n_tr), float(lam))
            die = Die.from_transistor_count(float(n_tr),
                                            FIG8_FAB.design_density,
                                            float(lam))
            dies[i, j] = dies_per_wafer_maly(wafer, die)
    return costs, dies


def _batch_grid():
    return transistor_cost_batch(NTR[:, None], LAM[None, :], cache=None)


def _time_best_of(fn, reps: int) -> float:
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _paired_speedups(pairs: int) -> tuple[list[float], list[float]]:
    """Per-pair (scalar s, batch s); odd pairs run the batch first."""
    t_scalar, t_batch = [], []
    for i in range(pairs):
        if i % 2:
            batch = _timed(_batch_grid)
        t_scalar.append(_timed(_scalar_grid))
        if i % 2 == 0:
            batch = _timed(_batch_grid)
        t_batch.append(batch)
    return t_scalar, t_batch


def test_perf_engine_equivalence_and_speedup(benchmark):
    scalar_costs, scalar_dies = _scalar_grid()
    result = benchmark(_batch_grid)

    # --- equal output, bit for bit ------------------------------------
    batch_costs = result.cost_per_transistor_dollars
    assert batch_costs.tobytes() == scalar_costs.tobytes(), \
        "cost grids differ between scalar and batch"
    assert scalar_dies.tobytes() == result.dies_per_wafer.tobytes(), \
        "eq.-(4) die counts differ between scalar and batch"

    # Spot-check a feasible cell's transcendental intermediates: the
    # eq.-(7) yield and the eq.-(3) wafer cost, by their bits.
    i, j = np.argwhere(np.isfinite(scalar_costs))[0]
    y_scalar = scaled_poisson_yield(float(NTR[i]), FIG8_FAB.design_density,
                                    FIG8_FAB.defect_coefficient,
                                    float(LAM[j]), FIG8_FAB.size_exponent_p)
    assert y_scalar.hex() == float(result.yield_value[i, j]).hex()
    c_w = WaferCostModel(
        reference_cost_dollars=FIG8_FAB.reference_cost_dollars,
        cost_growth_rate=FIG8_FAB.cost_growth_rate).pure_cost(float(LAM[j]))
    assert c_w.hex() == float(result.wafer_cost_dollars[i, j]).hex()

    # --- speedup ------------------------------------------------------
    _scalar_grid()  # warm
    _batch_grid()
    scalar_times, batch_times = _paired_speedups(PAIRS)
    ratios = [s / b for s, b in zip(scalar_times, batch_times)]
    speedup = statistics.median(ratios)
    t_scalar = statistics.median(scalar_times)
    t_batch = statistics.median(batch_times)
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    assert speedup >= MIN_SPEEDUP, \
        f"median pair speedup {speedup:.1f}x < required {MIN_SPEEDUP}x"

    # Warm-cache replay: dies-per-wafer and wafer-cost sub-results are
    # memoized, so a repeated sweep over the same grid is cheaper still.
    cache = BatchCache()
    transistor_cost_batch(NTR[:, None], LAM[None, :], cache=cache)
    t_warm = _time_best_of(
        lambda: transistor_cost_batch(NTR[:, None], LAM[None, :],
                                      cache=cache), 10)

    record = {
        "kind": "perf_engine",
        "grid": [int(NTR.size), int(LAM.size)],
        "n_feasible": int(result.n_feasible),
        "scalar_s": t_scalar,
        "batch_s": t_batch,
        "batch_warm_cache_s": t_warm,
        "speedup": speedup,
        "pairs": PAIRS,
        "estimator": "median of per-pair scalar/batch ratios; times "
                     "are medians",
        "pair_speedups": {"min": min(ratios), "q1": q1, "q3": q3,
                          "max": max(ratios)},
        "warm_speedup": t_scalar / t_warm,
        "parity": "bitwise",
        "min_required_speedup": MIN_SPEEDUP,
        "cache_stats": {"hits": cache.stats.hits,
                        "misses": cache.stats.misses,
                        "entries": cache.stats.entries},
    }
    _BENCH_ENGINE_JSON.write_text(json.dumps(record, indent=2) + "\n")
    emit_json(record)
    emit("Perf engine — batched eq.-(1)/(3)/(4)/(7) grid vs scalar loop",
         f"grid               : {NTR.size} x {LAM.size} "
         f"({result.n_feasible} feasible cells)\n"
         f"scalar loop        : {t_scalar * 1e3:9.2f} ms\n"
         f"batch (cold cache) : {t_batch * 1e3:9.2f} ms   "
         f"({speedup:7.1f}x, median of {PAIRS} pairs; "
         f"{min(ratios):.1f}-{max(ratios):.1f}x)\n"
         f"batch (warm cache) : {t_warm * 1e3:9.2f} ms   "
         f"({t_scalar / t_warm:7.1f}x)\n"
         f"parity             : bitwise (cost grid and die counts "
         f"byte for byte)")

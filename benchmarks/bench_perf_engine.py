"""Perf engine — batched kernels vs. their scalar references.

The first claim: evaluating the full cost model — eqs. (1), (3),
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

The second claim: the chiplet kernel
(:func:`repro.batch.engine.chiplet_cost_batch`) prices an 8 × 15,000
(k, N_tr) crossover grid — 1.2 · 10⁵ cells — at least **10× faster**
than the scalar :meth:`~repro.system.chiplet.ChipletCostModel
.system_cost` loop, equal to it bit for bit on all 11 breakdown
fields and ``feasible`` in every cell.  The loop is timed once and the
kernel as the best of 2 calls after a warm-up.

Results land in ``benchmarks/BENCH_engine.json``, one key per claim,
the Fig.-8 record with the spread of the per-pair ratios.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from conftest import emit, emit_json, update_bench_json
from repro import obs
from repro.batch import default_cache, transistor_cost_batch
from repro.batch.engine import chiplet_cost_batch
from repro.core.optimization import FIG8_FAB, transistor_cost_full
from repro.core.wafer_cost import WaferCostModel
from repro.geometry import Die, Wafer, dies_per_wafer_maly
from repro.system.chiplet import ChipletCostModel
from repro.yieldsim.models import scaled_poisson_yield

LAM = np.linspace(0.3, 2.0, 36)
NTR = np.geomspace(1e5, 1e7, 36)

MIN_SPEEDUP = 20.0
#: Interleaved (scalar, batch) timing pairs behind the gated median.
PAIRS = 21

CHIPLET_KS = np.arange(1, 9, dtype=float)
CHIPLET_NTR = np.geomspace(1e5, 1e9, 15_000)
CHIPLET_LAM = 0.8
CHIPLET_MIN_SPEEDUP = 10.0
#: Batch-result array field for each scalar-breakdown attribute.
CHIPLET_FIELDS = (
    "transistors_per_chiplet", "chiplet_area_cm2", "wafer_cost_dollars",
    "dies_per_wafer", "die_yield", "assembly_yield", "effective_yield",
    "packaging_cost_dollars", "silicon_cost_per_transistor_dollars",
    "overhead_cost_per_transistor_dollars", "cost_per_transistor_dollars",
)


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
    # Cold: every call prices its die counts and wafer costs afresh.
    default_cache().clear()
    return transistor_cost_batch(NTR[:, None], LAM[None, :])


def _warm_grid():
    return transistor_cost_batch(NTR[:, None], LAM[None, :])


def _cache_stats(warm_calls: int) -> dict:
    """The ``batch.cache.*`` traffic of one cold grid and ``warm_calls``
    warm ones, counted on an isolated metrics registry."""
    tracing, counting = obs.tracing_enabled(), obs.metrics_enabled()
    frame = obs.metrics.push_isolated()
    obs.enable(trace=tracing, metrics=True)
    try:
        _batch_grid()
        for _ in range(warm_calls):
            _warm_grid()
    finally:
        obs.enable(trace=tracing, metrics=counting)
        counters = obs.metrics.pop_isolated(frame)["counters"]
    return {"hits": counters.get("batch.cache.hits", 0),
            "misses": counters.get("batch.cache.misses", 0),
            "entries": len(default_cache())}


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
    _batch_grid()
    t_warm = _time_best_of(_warm_grid, 10)

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
        "cache_stats": _cache_stats(10),
    }
    update_bench_json("BENCH_engine.json", "fig8_grid", record)
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


def _chiplet_scalar_grid(model):
    """The cell-by-cell reference loop: every breakdown field."""
    shape = (CHIPLET_KS.size, CHIPLET_NTR.size)
    grids = {name: np.empty(shape) for name in CHIPLET_FIELDS}
    feasible = np.empty(shape, dtype=bool)
    for i, k in enumerate(CHIPLET_KS):
        for j, n in enumerate(CHIPLET_NTR):
            b = model.system_cost(int(k), float(n), CHIPLET_LAM)
            for name in CHIPLET_FIELDS:
                grids[name][i, j] = float(getattr(b, name))
            feasible[i, j] = b.feasible
    return grids, feasible


def test_chiplet_batch_vs_scalar_loop():
    model = ChipletCostModel()
    points = CHIPLET_KS.size * CHIPLET_NTR.size

    t0 = time.perf_counter()
    grids, feasible = _chiplet_scalar_grid(model)
    t_scalar = time.perf_counter() - t0

    chiplet_cost_batch(CHIPLET_NTR[None, :1], CHIPLET_LAM,
                       CHIPLET_KS[:1, None], model)  # warm-up
    t_batch = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        default_cache().clear()  # a cold call each time
        result = chiplet_cost_batch(CHIPLET_NTR[None, :], CHIPLET_LAM,
                                    CHIPLET_KS[:, None], model)
        t_batch = min(t_batch, time.perf_counter() - t0)

    mismatches = int(np.count_nonzero(
        np.asarray(result.feasible) != feasible))
    for name in CHIPLET_FIELDS:
        got = np.asarray(getattr(result, name), dtype=float)
        mismatches += int(np.count_nonzero(got != grids[name]))
    speedup = t_scalar / t_batch

    record = {
        "kind": "chiplet_batch",
        "points": points,
        "shape": [CHIPLET_KS.size, CHIPLET_NTR.size],
        "feature_size_um": CHIPLET_LAM,
        "scalar_loop_s": t_scalar,
        "batch_s": t_batch,
        "estimator": "scalar loop timed once; batch best of 2 after a "
                     "warm-up",
        "speedup": speedup,
        "min_required_speedup": CHIPLET_MIN_SPEEDUP,
        "bitwise_mismatches": mismatches,
        "fields_compared": len(CHIPLET_FIELDS) + 1,
    }
    update_bench_json("BENCH_engine.json", "chiplet_grid", record)
    emit_json(record)
    emit("Perf engine — batched chiplet crossover grid vs scalar loop",
         f"grid          : {CHIPLET_KS.size} k-values x "
         f"{CHIPLET_NTR.size:,} budgets = {points:,} cells at "
         f"lambda = {CHIPLET_LAM} um\n"
         f"scalar loop   : {t_scalar * 1e3:9.1f} ms "
         f"({len(CHIPLET_FIELDS) + 1} fields per cell)\n"
         f"batched       : {t_batch * 1e3:9.1f} ms (best of 2) "
         f"-> {speedup:5.1f}x (>= {CHIPLET_MIN_SPEEDUP}x)\n"
         f"mismatches    : {mismatches}")

    assert mismatches == 0, \
        f"{mismatches} batched cells differ bitwise from the scalar loop"
    assert speedup >= CHIPLET_MIN_SPEEDUP, \
        f"chiplet kernel is only {speedup:.1f}x over the scalar loop " \
        f"(scalar {t_scalar * 1e3:.1f} ms, batch {t_batch * 1e3:.1f} ms)"

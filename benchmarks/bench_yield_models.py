"""Compound yield models — model selection, cross-validation, kernels.

Three acceptance claims live here:

1. **Generator recovery** — all eight closed-form yield laws are fitted
   by maximum likelihood to lots sampled from a two-level clustered
   defect process, and the AIC/BIC ranking puts the generating
   compound (hierarchical) model first, with fitted parameters near
   the truth.
2. **Cross-validation** — every closed-form law in the suite agrees
   with its generating Monte Carlo configuration within the stated
   tolerance (pooled binomial + between-lot error bars).
3. **Batched kernels** — the vectorized compound-family kernels are
   bitwise identical to the scalar reference and at least **1.3×**
   faster than a scalar loop on 100,000 points.

Records land in ``benchmarks/BENCH_yield.json`` (one JSON object, one
key per claim) and the shared ``BENCH_repro.json``.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import emit, emit_json, update_bench_json
from repro.batch import cross_validate_model_suite
from repro.batch.engine import yield_from_expectation_batch
from repro.geometry import Die, Wafer
from repro.yieldsim import (
    CompoundPoissonGamma,
    HierarchicalYieldModel,
    SpotDefectSimulator,
    fit_yield_models,
)

WAFER = Wafer(radius_cm=5.0)
DIE = Die(1.0, 1.0)

# The generating process for the selection claim: density and shapes
# chosen away from the Seeds/NB degeneracy (alpha = 1) so the ranking
# is a real discrimination task, and with enough lots that the
# three-parameter law earns its two extra parameters.
TRUE_DENSITY = 0.9
TRUE_WAFER_ALPHA = 1.2
TRUE_LOT_ALPHA = 1.5
N_LOTS, N_WAFERS, FIT_SEED = 12, 6, 2024

SUITE_LOTS, SUITE_WAFERS, SUITE_TOL = 60, 8, 0.03
KERNEL_POINTS = 100_000
MIN_KERNEL_SPEEDUP = 1.3
KERNEL_REPS = 3


def test_model_selection_recovers_generating_model():
    sim = SpotDefectSimulator(WAFER, DIE, TRUE_DENSITY,
                              clustering_alpha=TRUE_WAFER_ALPHA,
                              lot_alpha=TRUE_LOT_ALPHA)
    lots = sim.simulate_lots(N_LOTS, N_WAFERS, seed=FIT_SEED)
    t0 = time.perf_counter()
    report = fit_yield_models(lots, DIE.area_cm2)
    fit_seconds = time.perf_counter() - t0

    assert len(report.laws) >= 5
    aics = [fit.aic for fit in report.laws]
    assert aics == sorted(aics)
    # The generating compound model must win the information
    # criterion, and its fitted parameters must be near the truth.
    assert report.best.name == "hierarchical"
    params = report.best.params
    assert abs(params["defect_density_per_cm2"] - TRUE_DENSITY) < 0.3
    assert abs(params["wafer_alpha"] - TRUE_WAFER_ALPHA) < 0.5
    assert abs(params["lot_alpha"] - TRUE_LOT_ALPHA) < 0.7
    # NB == CPG algebraically: exact likelihood tie.
    nb = report.law("negative_binomial")
    cpg = report.law("compound_poisson_gamma")
    assert nb.log_likelihood == cpg.log_likelihood

    lines = [f"{rank:>2}  {name:<24} k={k}  AIC={aic:10.2f}  "
             f"dAIC={daic:8.2f}"
             for rank, name, k, _ll, aic, _bic, daic
             in report.table_rows()]
    emit("yield-model selection — hierarchical generator recovered",
         f"truth: D={TRUE_DENSITY}/cm^2, wafer_alpha={TRUE_WAFER_ALPHA},"
         f" lot_alpha={TRUE_LOT_ALPHA}; {N_LOTS} lots x {N_WAFERS} wafers"
         f" ({report.n_dies} dies, {report.n_defects} defects);"
         f" fit in {fit_seconds:.2f}s\n" + "\n".join(lines))
    record = {
        "kind": "model_selection",
        "truth": {"defect_density_per_cm2": TRUE_DENSITY,
                  "wafer_alpha": TRUE_WAFER_ALPHA,
                  "lot_alpha": TRUE_LOT_ALPHA,
                  "n_lots": N_LOTS, "n_wafers": N_WAFERS,
                  "seed": FIT_SEED},
        "fit_seconds": fit_seconds,
        "report": report.to_dict(),
    }
    emit_json(record)
    update_bench_json("BENCH_yield.json", "model_selection", record)


def test_crossval_suite_within_tolerance():
    rows = cross_validate_model_suite(
        WAFER, DIE, 0.8, wafer_alpha=1.5, lot_alpha=2.0,
        n_wafers=SUITE_WAFERS, n_lots=SUITE_LOTS, seed=5)
    assert len(rows) == 5
    for row in rows:
        assert row.abs_error < SUITE_TOL, \
            f"{row.name}: |MC - closed| = {row.abs_error:.4f}"

    lines = [f"{row.name:<24} closed={row.closed_form_yield:.4f}  "
             f"mc={row.mc_yield:.4f}  err={row.abs_error:.4f}  "
             f"n={row.n_dies}"
             for row in rows]
    emit("yield-model cross-validation — every law vs its generating MC",
         f"tolerance {SUITE_TOL} absolute; {SUITE_LOTS} lots x "
         f"{SUITE_WAFERS} wafers per sampling leg\n" + "\n".join(lines))
    record = {
        "kind": "crossval_suite",
        "tolerance": SUITE_TOL,
        "n_lots": SUITE_LOTS,
        "n_wafers": SUITE_WAFERS,
        "rows": [{"name": row.name,
                  "closed_form_yield": row.closed_form_yield,
                  "mc_yield": row.mc_yield,
                  "abs_error": row.abs_error,
                  "n_dies": row.n_dies} for row in rows],
    }
    emit_json(record)
    update_bench_json("BENCH_yield.json", "crossval_suite", record)


def test_batched_kernels_bitwise_and_fast():
    m = np.linspace(0.0, 8.0, KERNEL_POINTS)
    kernels = {}
    for model in (CompoundPoissonGamma(alpha=1.5),
                  HierarchicalYieldModel(lot_alpha=2.0, wafer_alpha=1.5)):
        name = type(model).__name__
        t_batch = min(_timed(yield_from_expectation_batch, model, m)
                      for _ in range(KERNEL_REPS))
        got = yield_from_expectation_batch(model, m)
        t0 = time.perf_counter()
        want = np.array([model.yield_from_expectation(float(v))
                         for v in m], dtype=np.float64)
        t_scalar = time.perf_counter() - t0
        # The headline contract: bitwise, not approximately equal.
        assert (got == want).all(), f"{name} batched != scalar"
        speedup = t_scalar / t_batch
        assert speedup >= MIN_KERNEL_SPEEDUP, \
            f"{name}: {speedup:.2f}x < {MIN_KERNEL_SPEEDUP}x"
        kernels[name] = {
            "points": KERNEL_POINTS,
            "batch_best_s": t_batch,
            "scalar_s": t_scalar,
            "speedup": speedup,
            "bitwise_equal": True,
        }

    lines = [f"{name:<24} batch={rec['batch_best_s']:.4f}s  "
             f"scalar={rec['scalar_s']:.4f}s  "
             f"speedup={rec['speedup']:.1f}x  bitwise=yes"
             for name, rec in kernels.items()]
    emit("compound-family batched kernels — bitwise parity + throughput",
         f"{KERNEL_POINTS} expectation points\n" + "\n".join(lines))
    record = {"kind": "kernel_parity", "kernels": kernels}
    emit_json(record)
    update_bench_json("BENCH_yield.json", "kernel_parity", record)


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0

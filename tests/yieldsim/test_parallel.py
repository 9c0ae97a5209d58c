"""Determinism, fallback, and convergence of the sharded Monte Carlo path.

Three layers pin ``repro.yieldsim.parallel``:

* **Golden determinism** — ``simulate_lot(seed=s, workers=k)`` is
  bitwise identical for k ∈ {1, 2, 4} (plus any count injected via the
  ``REPRO_TEST_WORKERS`` env var, which CI sets to 2), identical to the
  in-process ``workers=None`` schedule, and identical to the sequential
  per-wafer reference: ``simulate_wafer`` on each spawned child stream.
* **Graceful degradation** — a process pool that cannot start falls
  back to the sequential schedule with exactly one warning and
  unchanged results.
* **Statistical convergence** — the sharded path reproduces eq. (6)
  with ``D_eff = D · survival(kill_radius)`` and the negative-binomial
  model, at lot sizes the parallel runner makes affordable in CI (the
  same ``pytest.approx``-tolerance machinery as
  ``tests/yieldsim/test_monte_carlo.py``, tightened by the larger lots).
"""

import os
import warnings

import numpy as np
import pytest

from repro import pool as pool_mod
from repro.errors import ParameterError
from repro.geometry import Die, Wafer
from repro.yieldsim import (
    DefectSizeDistribution,
    LotResult,
    NegativeBinomialYield,
    ParallelExecutionWarning,
    PoissonYield,
    SpotDefectSimulator,
    simulate_lot_sharded,
    spawn_wafer_seeds,
)

# CI injects an explicit worker count (REPRO_TEST_WORKERS=2) so the
# golden suite provably exercises multi-process sharding there.
_ENV_WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "0"))
WORKER_COUNTS = sorted({1, 2, 4} | ({_ENV_WORKERS} if _ENV_WORKERS else set()))


@pytest.fixture
def wafer():
    return Wafer(radius_cm=7.5)


@pytest.fixture
def die():
    return Die.square(1.0)


@pytest.fixture
def clustered_sim(wafer, die):
    return SpotDefectSimulator(wafer, die, defect_density_per_cm2=0.9,
                               clustering_alpha=1.5)


def _assert_lots_bitwise_equal(a, b):
    assert len(a) == len(b)
    for ma, mb in zip(a, b):
        assert np.array_equal(ma.die_centers_cm, mb.die_centers_cm)
        assert np.array_equal(ma.defect_counts, mb.defect_counts)
        assert ma.n_defects_total == mb.n_defects_total


class TestGoldenDeterminism:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_bitwise_identical_across_worker_counts(self, clustered_sim,
                                                    workers):
        """simulate_lot(seed=s, workers=k) must not depend on k."""
        baseline = clustered_sim.simulate_lot(8, seed=1234, workers=1)
        lot = clustered_sim.simulate_lot(8, seed=1234, workers=workers)
        _assert_lots_bitwise_equal(baseline, lot)

    def test_workers_none_matches_sharded(self, clustered_sim):
        lot_default = clustered_sim.simulate_lot(6, seed=77)
        lot_sharded = clustered_sim.simulate_lot(6, seed=77, workers=2)
        _assert_lots_bitwise_equal(lot_default, lot_sharded)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_matches_sequential_per_wafer_reference(self, clustered_sim,
                                                    workers):
        """The sharded lot equals simulate_wafer run on each spawned
        child stream in wafer order — the sequential reference path."""
        lot = clustered_sim.simulate_lot(8, seed=99, workers=workers)
        reference = [clustered_sim.simulate_wafer(np.random.default_rng(ss))
                     for ss in spawn_wafer_seeds(99, 8)]
        _assert_lots_bitwise_equal(lot, reference)

    def test_repeated_calls_reproduce(self, clustered_sim):
        a = clustered_sim.simulate_lot(5, seed=3, workers=2)
        b = clustered_sim.simulate_lot(5, seed=3, workers=2)
        _assert_lots_bitwise_equal(a, b)

    def test_different_seeds_differ(self, clustered_sim):
        a = clustered_sim.simulate_lot(5, seed=3, workers=2)
        b = clustered_sim.simulate_lot(5, seed=4, workers=2)
        assert a.n_defects_total != b.n_defects_total \
            or not np.array_equal(a.defect_counts, b.defect_counts)

    def test_seed_sequence_accepted(self, clustered_sim):
        root = np.random.SeedSequence(11)
        lot = clustered_sim.simulate_lot(3, seed=root)
        ref = clustered_sim.simulate_lot(3, seed=11)
        _assert_lots_bitwise_equal(lot, ref)

    def test_workers_above_lot_size_clamped(self, clustered_sim):
        lot = clustered_sim.simulate_lot(3, seed=8, workers=16)
        ref = clustered_sim.simulate_lot(3, seed=8, workers=1)
        _assert_lots_bitwise_equal(lot, ref)

    def test_legacy_single_stream_path_unchanged(self, clustered_sim):
        """The rng-based lot is still bitwise identical to sequential
        simulate_wafer calls on one shared stream (the pre-sharding
        contract)."""
        lot = clustered_sim.simulate_lot(5, np.random.default_rng(21))
        rng = np.random.default_rng(21)
        reference = [clustered_sim.simulate_wafer(rng) for _ in range(5)]
        _assert_lots_bitwise_equal(lot, reference)


class TestLotResult:
    def test_sequence_protocol(self, clustered_sim):
        lot = clustered_sim.simulate_lot(4, seed=0)
        assert isinstance(lot, LotResult)
        assert len(lot) == lot.n_wafers == 4
        assert list(lot)[2] is lot[2]
        sub = lot[1:3]
        assert isinstance(sub, LotResult) and len(sub) == 2
        assert sub[0] is lot[1]

    def test_aggregates_match_wafer_maps(self, clustered_sim):
        lot = clustered_sim.simulate_lot(4, seed=10, workers=2)
        assert lot.n_dies_total == sum(m.n_dies for m in lot)
        assert lot.n_good_total == sum(m.n_good for m in lot)
        assert lot.n_defects_total == sum(m.n_defects_total for m in lot)
        assert lot.defect_counts.shape == (4, lot[0].n_dies)
        assert np.array_equal(lot.defect_counts[1], lot[1].defect_counts)

    def test_pooled_yield_equals_mean_of_per_wafer_yields(self,
                                                          clustered_sim):
        lot = clustered_sim.simulate_lot(6, seed=2, workers=2)
        assert lot.yield_fraction == pytest.approx(
            float(lot.per_wafer_yields.mean()), abs=1e-12)

    def test_empty_lot(self, clustered_sim):
        lot = clustered_sim.simulate_lot(0, seed=1, workers=4)
        assert len(lot) == 0
        assert lot.yield_fraction == 0.0
        assert lot.n_defects_total == 0
        assert lot.defect_counts.shape == (0, 0)
        assert lot.per_wafer_yields.size == 0

    def test_estimate_yield_forwards_seed_and_workers(self, clustered_sim):
        y_seq = clustered_sim.estimate_yield(6, seed=13, workers=1)
        y_par = clustered_sim.estimate_yield(6, seed=13, workers=2)
        assert y_seq == y_par


class TestArgumentValidation:
    def test_rejects_both_rng_and_seed(self, clustered_sim):
        with pytest.raises(ParameterError):
            clustered_sim.simulate_lot(2, np.random.default_rng(0), seed=0)

    def test_rejects_neither_rng_nor_seed(self, clustered_sim):
        with pytest.raises(ParameterError):
            clustered_sim.simulate_lot(2)

    def test_rejects_workers_with_rng(self, clustered_sim):
        with pytest.raises(ParameterError):
            clustered_sim.simulate_lot(2, np.random.default_rng(0),
                                       workers=2)

    def test_rejects_nonpositive_workers(self, clustered_sim):
        with pytest.raises(ParameterError):
            clustered_sim.simulate_lot(2, seed=0, workers=0)

    def test_rejects_negative_lot(self, clustered_sim):
        with pytest.raises(ParameterError):
            clustered_sim.simulate_lot(-1, seed=0)
        with pytest.raises(ParameterError):
            spawn_wafer_seeds(0, -1)


class _ExplodingExecutor:
    """Stand-in for a fork-restricted host: pool creation is denied."""

    def __init__(self, *args, **kwargs):
        raise PermissionError("process spawning disabled in this sandbox")


class _BrokenSubmitExecutor:
    """Pool starts but dies on first use (e.g. worker killed)."""

    def __init__(self, *args, **kwargs):
        pass

    def submit(self, *args, **kwargs):
        raise OSError("worker process died")

    def shutdown(self, *args, **kwargs):
        pass


def _deny_pools(monkeypatch, executor):
    # A pool cached by an earlier test would bypass the patch.
    pool_mod.shutdown()
    monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", executor)


class TestExecutorFallback:
    @pytest.mark.parametrize("executor", [_ExplodingExecutor,
                                          _BrokenSubmitExecutor])
    def test_falls_back_sequential_with_single_warning(self, clustered_sim,
                                                       monkeypatch,
                                                       executor):
        expected = clustered_sim.simulate_lot(6, seed=55, workers=1)
        _deny_pools(monkeypatch, executor)
        with pytest.warns(ParallelExecutionWarning) as record:
            lot = clustered_sim.simulate_lot(6, seed=55, workers=3)
        assert len(record) == 1, "fallback must warn exactly once per lot"
        _assert_lots_bitwise_equal(lot, expected)

    def test_no_warning_on_healthy_pool(self, clustered_sim):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ParallelExecutionWarning)
            clustered_sim.simulate_lot(4, seed=55, workers=2)

    def test_parameter_errors_are_not_swallowed(self, wafer, die,
                                                monkeypatch):
        """Only infrastructure failures trigger the fallback; model
        errors raised while sharding propagate unchanged."""
        sim = SpotDefectSimulator(wafer, die, defect_density_per_cm2=0.5)
        _deny_pools(monkeypatch, _ExplodingExecutor)
        with pytest.raises(ParameterError):
            simulate_lot_sharded(sim, -2, seed=0, workers=2)


class TestShardedConvergence:
    """Eqs. (6)/NB convergence on the sharded path, at lot sizes the
    parallel runner makes affordable (larger than the single-stream
    suite, hence tighter tolerances)."""

    def test_poisson_lot_converges_to_equation_six(self, wafer, die):
        d0 = 0.8
        sim = SpotDefectSimulator(wafer, die, defect_density_per_cm2=d0)
        y_mc = sim.estimate_yield(200, seed=611, workers=2)
        y_cf = PoissonYield().yield_for_area(die.area_cm2, d0)
        assert y_mc == pytest.approx(y_cf, abs=0.01)

    def test_kill_radius_converges_to_effective_density(self, wafer, die):
        """Size-filtered defects: eq. (6) at D_eff = D·survival(r)."""
        dist = DefectSizeDistribution(r0_um=0.3, p=4.07)
        sim = SpotDefectSimulator(
            wafer, die, defect_density_per_cm2=3.0,
            size_distribution=dist, kill_radius_um=0.5)
        d_eff = sim.expected_killer_density()
        assert d_eff < 3.0
        y_mc = sim.estimate_yield(200, seed=612, workers=2)
        y_cf = PoissonYield().yield_for_area(die.area_cm2, d_eff)
        assert y_mc == pytest.approx(y_cf, abs=0.012)

    def test_clustered_lot_converges_to_negative_binomial(self, wafer, die):
        d0, alpha = 1.2, 1.0
        sim = SpotDefectSimulator(wafer, die, defect_density_per_cm2=d0,
                                  clustering_alpha=alpha)
        y_mc = sim.estimate_yield(800, seed=613, workers=2)
        y_nb = NegativeBinomialYield(alpha=alpha).yield_for_area(
            die.area_cm2, d0)
        assert y_mc == pytest.approx(y_nb, abs=0.02)
        y_poisson = PoissonYield().yield_for_area(die.area_cm2, d0)
        assert y_mc > y_poisson


class TestBatchCrossValidation:
    """The repro.batch consumer: closed forms vs sharded Monte Carlo."""

    def test_poisson_sweep_agrees(self, wafer, die):
        from repro.batch import cross_validate_yield_batch
        cv = cross_validate_yield_batch(
            wafer, die, [0.2, 0.6, 1.2], n_wafers=60, seed=5, workers=2)
        assert cv.within(0.03)
        assert cv.closed_form_yield.tolist() == [
            PoissonYield().yield_for_area(die.area_cm2, d)
            for d in (0.2, 0.6, 1.2)]

    def test_sweep_is_worker_invariant(self, wafer, die):
        from repro.batch import cross_validate_yield_batch
        kwargs = dict(n_wafers=20, seed=5)
        a = cross_validate_yield_batch(wafer, die, [0.3, 0.9], workers=2,
                                       **kwargs)
        b = cross_validate_yield_batch(wafer, die, [0.3, 0.9], workers=None,
                                       **kwargs)
        assert np.array_equal(a.mc_yield, b.mc_yield)

    def test_kill_radius_sweep_uses_effective_density(self, wafer, die):
        from repro.batch import cross_validate_yield_batch
        dist = DefectSizeDistribution(r0_um=0.3, p=4.07)
        cv = cross_validate_yield_batch(
            wafer, die, [3.0], n_wafers=60, seed=6, workers=2,
            size_distribution=dist, kill_radius_um=0.5)
        assert cv.effective_densities_per_cm2[0] < 3.0
        assert cv.within(0.03)

    def test_rejects_bad_inputs(self, wafer, die):
        from repro.batch import cross_validate_yield_batch
        with pytest.raises(ParameterError):
            cross_validate_yield_batch(wafer, die, [], n_wafers=10)
        with pytest.raises(ParameterError):
            cross_validate_yield_batch(wafer, die, [0.5], n_wafers=0)
        with pytest.raises(ParameterError):
            cross_validate_yield_batch(wafer, die, [-0.5], n_wafers=10)

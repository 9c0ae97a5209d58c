"""Radial defect gradients (the S.1.1 wafer-size caveat)."""

import math
import os

import numpy as np
import pytest

from repro import pool as pool_mod
from repro.errors import ParameterError
from repro.geometry import Die, Wafer
from repro.yieldsim import (
    ParallelExecutionWarning,
    RadialDefectProfile,
    simulate_radial_lot,
    wafer_size_penalty,
)

_ENV_WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "0"))
WORKER_COUNTS = sorted({1, 2, 4} | ({_ENV_WORKERS} if _ENV_WORKERS else set()))


@pytest.fixture
def profile():
    return RadialDefectProfile(center_density_per_cm2=0.6,
                               edge_gradient=1.0)


@pytest.fixture
def wafer():
    return Wafer(radius_cm=7.5)


@pytest.fixture
def die():
    return Die.square(1.0)


class TestProfile:
    def test_center_and_edge_values(self, profile):
        assert profile.density_at(0.0, 7.5) == pytest.approx(0.6)
        assert profile.density_at(7.5, 7.5) == pytest.approx(1.2)

    def test_quadratic_midpoint(self, profile):
        # At r = R/2: D = D0 * (1 + g/4).
        assert profile.density_at(3.75, 7.5) == pytest.approx(0.6 * 1.25)

    def test_mean_density_closed_form(self, profile):
        assert profile.mean_density(7.5) == pytest.approx(0.6 * 1.5)

    def test_zero_gradient_is_uniform(self):
        flat = RadialDefectProfile(center_density_per_cm2=0.6,
                                   edge_gradient=0.0)
        for r in (0.0, 3.0, 7.5):
            assert flat.density_at(r, 7.5) == pytest.approx(0.6)

    def test_validation(self):
        with pytest.raises(ParameterError):
            RadialDefectProfile(center_density_per_cm2=0.0)
        with pytest.raises(ParameterError):
            RadialDefectProfile(center_density_per_cm2=1.0,
                                edge_gradient=-0.1)


class TestWaferYield:
    def test_gradient_hurts_yield(self, wafer, die):
        flat = RadialDefectProfile(0.6, 0.0)
        steep = RadialDefectProfile(0.6, 2.0)
        assert steep.wafer_yield(wafer, die) < flat.wafer_yield(wafer, die)

    def test_flat_profile_matches_poisson(self, wafer, die):
        flat = RadialDefectProfile(0.6, 0.0)
        assert flat.wafer_yield(wafer, die) == pytest.approx(
            math.exp(-0.6 * die.area_cm2), rel=1e-6)

    def test_center_beats_edge(self, profile, wafer, die):
        center, edge = profile.center_edge_split(wafer, die)
        assert center > edge

    def test_split_validation(self, profile, wafer, die):
        with pytest.raises(ParameterError):
            profile.center_edge_split(wafer, die, inner_fraction=1.0)


class TestWaferSizePenalty:
    def test_penalty_positive_and_bounded(self, die):
        profile = RadialDefectProfile(0.6, 1.5)
        p = wafer_size_penalty(profile, die)
        assert 0.0 < p < 1.0

    def test_no_gradient_no_penalty(self, die):
        flat = RadialDefectProfile(0.6, 0.0)
        assert wafer_size_penalty(flat, die) == pytest.approx(0.0, abs=1e-9)

    def test_steeper_gradient_bigger_penalty(self, die):
        mild = wafer_size_penalty(RadialDefectProfile(0.6, 0.5), die)
        steep = wafer_size_penalty(RadialDefectProfile(0.6, 2.5), die)
        assert steep > mild


class TestRadialMonteCarlo:
    def test_simulated_yield_matches_analytic(self, profile, wafer, die):
        rng = np.random.default_rng(77)
        lot = simulate_radial_lot(profile, wafer, die, 25, rng)
        good = sum(m.n_good for m in lot)
        total = sum(m.n_dies for m in lot)
        y_mc = good / total
        y_analytic = profile.wafer_yield(wafer, die)
        assert y_mc == pytest.approx(y_analytic, abs=0.03)

    def test_edge_dies_fail_more_in_simulation(self, profile, wafer, die):
        rng = np.random.default_rng(78)
        lot = simulate_radial_lot(profile, wafer, die, 30, rng)
        inner_fail, inner_n, outer_fail, outer_n = 0, 0, 0, 0
        threshold = 0.5 * wafer.radius_cm
        for wmap in lot:
            radii = np.hypot(wmap.die_centers_cm[:, 0],
                             wmap.die_centers_cm[:, 1])
            failed = wmap.defect_counts > 0
            inner = radii <= threshold
            inner_fail += int(failed[inner].sum())
            inner_n += int(inner.sum())
            outer_fail += int(failed[~inner].sum())
            outer_n += int((~inner).sum())
        assert outer_fail / outer_n > inner_fail / inner_n

    def test_zero_wafer_lot(self, profile, wafer, die):
        assert simulate_radial_lot(profile, wafer, die, 0,
                                   np.random.default_rng(0)) == []


def _assert_radial_lots_equal(a, b):
    assert len(a) == len(b)
    for ma, mb in zip(a, b):
        assert ma.n_defects_total == mb.n_defects_total
        np.testing.assert_array_equal(ma.defect_counts, mb.defect_counts)
        np.testing.assert_array_equal(ma.die_centers_cm, mb.die_centers_cm)


class TestShardedRadialLot:
    def test_seed_path_reproducible(self, profile, wafer, die):
        a = simulate_radial_lot(profile, wafer, die, 6, seed=11)
        b = simulate_radial_lot(profile, wafer, die, 6, seed=11)
        _assert_radial_lots_equal(a, b)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_worker_count_invariance(self, profile, wafer, die, workers):
        reference = simulate_radial_lot(profile, wafer, die, 6, seed=11)
        sharded = simulate_radial_lot(profile, wafer, die, 6, seed=11,
                                      workers=workers)
        _assert_radial_lots_equal(reference, sharded)

    def test_seed_path_matches_analytic_yield(self, profile, wafer, die):
        lot = simulate_radial_lot(profile, wafer, die, 25, seed=77,
                                  workers=2)
        good = sum(m.n_good for m in lot)
        total = sum(m.n_dies for m in lot)
        assert good / total == pytest.approx(
            profile.wafer_yield(wafer, die), abs=0.03)

    def test_fallback_preserves_results(self, profile, wafer, die,
                                        monkeypatch):
        reference = simulate_radial_lot(profile, wafer, die, 4, seed=5,
                                        workers=2)
        pool_mod.shutdown()  # a cached pool would bypass the patch
        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor",
                            _ExplodingExecutor)
        with pytest.warns(ParallelExecutionWarning):
            fallback = simulate_radial_lot(profile, wafer, die, 4, seed=5,
                                           workers=2)
        _assert_radial_lots_equal(reference, fallback)

    def test_zero_wafer_seed_lot(self, profile, wafer, die):
        assert simulate_radial_lot(profile, wafer, die, 0, seed=1) == []

    def test_rng_and_seed_both_rejected(self, profile, wafer, die):
        with pytest.raises(ParameterError):
            simulate_radial_lot(profile, wafer, die, 2,
                                np.random.default_rng(0), seed=1)

    def test_neither_rng_nor_seed_rejected(self, profile, wafer, die):
        with pytest.raises(ParameterError):
            simulate_radial_lot(profile, wafer, die, 2)

    def test_workers_require_seed(self, profile, wafer, die):
        with pytest.raises(ParameterError):
            simulate_radial_lot(profile, wafer, die, 2,
                                np.random.default_rng(0), workers=2)

    def test_workers_below_one_rejected(self, profile, wafer, die):
        with pytest.raises(ParameterError):
            simulate_radial_lot(profile, wafer, die, 2, seed=1, workers=0)

    def test_negative_wafers_rejected(self, profile, wafer, die):
        with pytest.raises(ParameterError):
            simulate_radial_lot(profile, wafer, die, -1, seed=1)


class _ExplodingExecutor:
    """Stand-in for a fork-restricted host: pool creation is denied."""

    def __init__(self, *args, **kwargs):
        raise PermissionError("process spawning disabled in this sandbox")

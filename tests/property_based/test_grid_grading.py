"""Property-based parity: the grid-lookup grader vs the all-pairs grader.

``SpotDefectSimulator._grade_lot`` tests each killer defect only
against the dies of the 3×3 block of pitch cells around it.  The
reference below is the grader it replaced, which tests every killer
against every die with the same float64 predicate
(``|x − cx| ≤ w/2`` and ``|y − cy| ≤ h/2``) on the same stored
centres.  Hypothesis sweeps wafer radius, edge exclusion, non-square
dies, scribe lanes (0 included, where the pitch equals the die),
multi-wafer lots, lots without killers and defects placed exactly on
die edges and corners; the counts must be equal element for element.
The same reference grades homogeneous lots sharded over
``REPRO_TEST_WORKERS`` processes (2 when unset) and radial lots, whose
parent implementation graded each accepted defect as it was drawn.
"""

import math
import os

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.geometry import Die, Wafer
from repro.yieldsim import (
    RadialDefectProfile,
    SpotDefectSimulator,
    simulate_radial_lot,
    spawn_wafer_seeds,
)

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "0")) or 2


def reference_grade(killer_pos, centers, die):
    """(wafers, dies) killer counts: every killer against every die."""
    n_dies = centers.shape[0]
    n_wafers = len(killer_pos)
    counts = np.zeros((n_wafers, n_dies), dtype=int)
    per_wafer = np.array([p.shape[0] for p in killer_pos], dtype=np.int64)
    if per_wafer.sum() > 0:
        pos = np.concatenate(killer_pos, axis=0)
        wafer_ids = np.repeat(np.arange(n_wafers), per_wafer)
        dx = np.abs(pos[:, 0:1] - centers[:, 0][None, :])
        dy = np.abs(pos[:, 1:2] - centers[:, 1][None, :])
        d_idx, die_idx = np.nonzero((dx <= die.width_cm / 2.0)
                                    & (dy <= die.height_cm / 2.0))
        np.add.at(counts, (wafer_ids[d_idx], die_idx), 1)
    return counts


def reference_radial_wafer(profile, wafer, die, centers, rng):
    """One radial wafer, each accepted defect graded as it is drawn."""
    max_density = profile.density_at(wafer.radius_cm, wafer.radius_cm)
    radius = wafer.radius_cm
    half_w, half_h = die.width_cm / 2.0, die.height_cm / 2.0
    n_defects = rng.poisson(max_density * wafer.area_cm2)
    counts = np.zeros(centers.shape[0], dtype=int)
    kept = 0
    for _k in range(n_defects):
        while True:
            x, y = rng.uniform(-radius, radius, size=2)
            if x * x + y * y <= radius * radius:
                break
        r = math.hypot(x, y)
        accept = profile.density_at(r, radius) / max_density
        if rng.random() > accept:
            continue
        kept += 1
        dx = np.abs(x - centers[:, 0])
        dy = np.abs(y - centers[:, 1])
        counts += ((dx <= half_w) & (dy <= half_h)).astype(int)
    return counts, kept


@st.composite
def geometries(draw):
    radius = draw(st.floats(min_value=2.0, max_value=10.0))
    wafer = Wafer(radius_cm=radius,
                  edge_exclusion_cm=draw(st.just(0.0)
                                         | st.floats(0.0, 0.6)))
    die = Die(width_cm=draw(st.floats(min_value=0.3, max_value=3.0)),
              height_cm=draw(st.floats(min_value=0.3, max_value=3.0)),
              scribe_cm=draw(st.just(0.0) | st.floats(0.0, 0.2)))
    return wafer, die


def _simulator(wafer, die, **kwargs):
    try:
        return SpotDefectSimulator(wafer, die, **kwargs)
    except ParameterError:
        assume(False)


def _killers(sim, rng, n_uniform, n_edge):
    """Uniform killers over (and past) the wafer plus killers on die
    edges and corners: ``c ± w/2`` in float64, so ``|x − cx|`` is
    ``w/2`` or within an ulp of it."""
    r = 1.1 * sim.wafer.radius_cm
    uniform = rng.uniform(-r, r, size=(n_uniform, 2))
    centers = sim._die_centers()
    half = np.array([sim.die.width_cm, sim.die.height_cm]) / 2.0
    c = centers[rng.integers(centers.shape[0], size=n_edge)]
    # Per axis: -1 / +1 puts the killer on that edge, 0 anywhere between.
    side = rng.integers(-1, 2, size=(n_edge, 2))
    between = rng.uniform(-1.0, 1.0, size=(n_edge, 2))
    edge = c + np.where(side == 0, between, side) * half
    killers = np.concatenate([uniform, edge])
    return killers[rng.permutation(killers.shape[0])]


@settings(max_examples=300, deadline=None)
@given(geometry=geometries(),
       lot=st.lists(st.tuples(st.integers(0, 60), st.integers(0, 40)),
                    max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_grid_grader_matches_all_pairs_reference(geometry, lot, seed):
    wafer, die = geometry
    sim = _simulator(wafer, die, defect_density_per_cm2=1.0)
    rng = np.random.default_rng(seed)
    killer_pos = [_killers(sim, rng, n_uniform, n_edge)
                  for n_uniform, n_edge in lot]
    centers = sim._die_centers()
    got = sim._grade_lot(killer_pos)
    want = reference_grade(killer_pos, centers, die)
    assert got.shape == want.shape == (len(lot), centers.shape[0])
    assert np.array_equal(got, want)


def test_shared_corner_hits_all_four_dies():
    # Dyadic sizes and grid phases make every centre and corner exact,
    # so a killer on the corner four abutting dies share is at exactly
    # w/2 and h/2 from each centre.
    sim = SpotDefectSimulator(Wafer(radius_cm=8.0),
                              Die(width_cm=0.5, height_cm=0.25),
                              defect_density_per_cm2=1.0)
    centers = sim._die_centers()
    index = {tuple(c): k for k, c in enumerate(centers)}
    cx, cy = centers[centers.shape[0] // 2]
    quad = [index[(cx + dx, cy + dy)]
            for dx in (0.0, 0.5) for dy in (0.0, 0.25)]
    corner = np.array([[cx + 0.25, cy + 0.125]])
    counts = sim._grade_lot([corner])
    assert np.array_equal(counts,
                          reference_grade([corner], centers, sim.die))
    assert sorted(np.flatnonzero(counts[0])) == sorted(quad)
    assert counts.sum() == 4


@settings(max_examples=10, deadline=None)
@given(geometry=geometries(), density=st.floats(0.0, 3.0),
       n_wafers=st.integers(0, 4), seed=st.integers(0, 2**31 - 1))
def test_sharded_lot_matches_all_pairs_reference(geometry, density,
                                                 n_wafers, seed):
    wafer, die = geometry
    sim = _simulator(wafer, die, defect_density_per_cm2=density)
    n_dies = sim._die_centers().shape[0]
    lot = sim.simulate_lot(n_wafers, seed=seed, workers=WORKERS)
    killer_pos = [sim._throw_wafer_defects(np.random.default_rng(ss),
                                           n_dies)[1]
                  for ss in spawn_wafer_seeds(seed, n_wafers)]
    want = reference_grade(killer_pos, sim._die_centers(), die)
    assert np.array_equal(lot.defect_counts.reshape(want.shape), want)


@settings(max_examples=15, deadline=None)
@given(geometry=geometries(),
       center_density=st.floats(min_value=0.05, max_value=0.5),
       gradient=st.floats(min_value=0.0, max_value=2.0),
       n_wafers=st.integers(0, 3), seed=st.integers(0, 2**31 - 1))
def test_radial_lot_matches_per_defect_reference(geometry, center_density,
                                                 gradient, n_wafers, seed):
    wafer, die = geometry
    centers = _simulator(wafer, die,
                         defect_density_per_cm2=1.0)._die_centers()
    profile = RadialDefectProfile(center_density_per_cm2=center_density,
                                  edge_gradient=gradient)
    lot = simulate_radial_lot(profile, wafer, die, n_wafers,
                              np.random.default_rng(seed))
    sharded = simulate_radial_lot(profile, wafer, die, n_wafers, seed=seed,
                                  workers=WORKERS)
    rng = np.random.default_rng(seed)
    legacy = [reference_radial_wafer(profile, wafer, die, centers, rng)
              for _ in range(n_wafers)]
    spawned = [reference_radial_wafer(profile, wafer, die, centers,
                                      np.random.default_rng(ss))
               for ss in spawn_wafer_seeds(seed, n_wafers)]
    for maps, reference in ((lot, legacy), (sharded, spawned)):
        assert len(maps) == n_wafers
        for wmap, (counts, kept) in zip(maps, reference):
            assert np.array_equal(wmap.die_centers_cm, centers)
            assert np.array_equal(wmap.defect_counts, counts)
            assert wmap.n_defects_total == kept

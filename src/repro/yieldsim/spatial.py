"""Radial defect gradients: why bigger wafers are harder.

Sec. III.A.c: "larger wafers are more difficult to process (process
uniformity and stability issues)" — the canonical signature is a radial
defect/parametric gradient, with edge dies yielding worse than center
dies.  This module models the standard quadratic profile

.. math:: D(r) = D_{center} \\cdot (1 + g \\, (r/R_w)^2)

and provides: the mean density over the wafer, per-die expected fault
counts (integrating the profile over each die position), the
center-vs-edge yield split, and the effective penalty of growing the
wafer at a fixed edge-gradient severity — quantifying how much of the
wafer-size productivity gain the gradient claws back.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from ..geometry import Die, Wafer
from ..obs import metrics as _metrics, span as _span
from ..obs.capture import absorb, begin_capture, capture_flags, end_capture
from ..units import require_nonnegative, require_positive
from .models import PoissonYield, YieldModel
from .monte_carlo import SpotDefectSimulator, WaferMap
from .parallel import SeedLike, _run_pool, _shard_slices, spawn_wafer_seeds


@dataclass(frozen=True)
class RadialDefectProfile:
    """Quadratic radial killer-density profile.

    Parameters
    ----------
    center_density_per_cm2:
        D at the wafer center.
    edge_gradient:
        g: the fractional density increase at the wafer edge
        (g = 1 means edge dies see 2× the center density).
    """

    center_density_per_cm2: float
    edge_gradient: float = 0.5

    def __post_init__(self) -> None:
        require_positive("center_density_per_cm2",
                         self.center_density_per_cm2)
        require_nonnegative("edge_gradient", self.edge_gradient)

    def density_at(self, r_cm: float, wafer_radius_cm: float) -> float:
        """D(r) for a point at radius r on a wafer of the given radius."""
        require_nonnegative("r_cm", r_cm)
        require_positive("wafer_radius_cm", wafer_radius_cm)
        ratio = min(r_cm / wafer_radius_cm, 1.0)
        return self.center_density_per_cm2 \
            * (1.0 + self.edge_gradient * ratio * ratio)

    def mean_density(self, wafer_radius_cm: float) -> float:
        """Area-weighted mean of D(r) over the wafer.

        ∫₀^R D(r)·2πr dr / (πR²) = D_center · (1 + g/2).
        """
        require_positive("wafer_radius_cm", wafer_radius_cm)
        return self.center_density_per_cm2 * (1.0 + self.edge_gradient / 2.0)

    def die_fault_expectation(self, die: Die, center_x_cm: float,
                              center_y_cm: float,
                              wafer_radius_cm: float) -> float:
        """Mean fault count of a die centered at (x, y).

        Evaluates D at the die center times die area — first order in
        die-size/wafer-size, which is the regime of interest.
        """
        r = math.hypot(center_x_cm, center_y_cm)
        return die.area_cm2 * self.density_at(r, wafer_radius_cm)

    def wafer_yield(self, wafer: Wafer, die: Die, *,
                    yield_model: YieldModel | None = None) -> float:
        """Mean die yield over the phase-optimized die grid."""
        from ..geometry import best_grid_offset
        model = yield_model if yield_model is not None else PoissonYield()
        sim = SpotDefectSimulator(wafer, die, defect_density_per_cm2=1e-9)
        centers = sim._die_centers()
        if centers.shape[0] == 0:
            raise ParameterError("die does not fit the wafer")
        ys = []
        for x, y in centers:
            m = self.die_fault_expectation(die, float(x), float(y),
                                           wafer.radius_cm)
            ys.append(model.yield_from_expectation(m))
        return float(np.mean(ys))

    def center_edge_split(self, wafer: Wafer, die: Die, *,
                          inner_fraction: float = 0.5) -> tuple[float, float]:
        """(mean center-zone yield, mean edge-zone yield).

        Dies whose centers lie inside ``inner_fraction · R`` count as
        center; the rest as edge.  The gap is the fab-floor 'donut'
        signature.
        """
        if not 0.0 < inner_fraction < 1.0:
            raise ParameterError("inner_fraction must be in (0, 1)")
        sim = SpotDefectSimulator(wafer, die, defect_density_per_cm2=1e-9)
        centers = sim._die_centers()
        model = PoissonYield()
        center_ys, edge_ys = [], []
        threshold = inner_fraction * wafer.radius_cm
        for x, y in centers:
            m = self.die_fault_expectation(die, float(x), float(y),
                                           wafer.radius_cm)
            target = center_ys if math.hypot(x, y) <= threshold else edge_ys
            target.append(model.yield_from_expectation(m))
        if not center_ys or not edge_ys:
            raise ParameterError("zone split left a zone empty; adjust "
                                 "inner_fraction or die size")
        return float(np.mean(center_ys)), float(np.mean(edge_ys))


def wafer_size_penalty(profile: RadialDefectProfile, die: Die, *,
                       small_radius_cm: float = 7.5,
                       large_radius_cm: float = 10.0) -> float:
    """Fraction of the ideal good-die gain lost to the edge gradient.

    Growing the wafer multiplies *sites* by ~(R₂/R₁)²; with an edge
    gradient pinned to the rim, the big wafer's mean yield is lower, so
    good dies grow by less.  Returns ``1 − actual_gain/ideal_gain`` —
    the S.1.1 wafer-size caveat as a number in [0, 1).
    """
    small = Wafer(radius_cm=small_radius_cm)
    large = Wafer(radius_cm=large_radius_cm)
    sim_small = SpotDefectSimulator(small, die, defect_density_per_cm2=1e-9)
    sim_large = SpotDefectSimulator(large, die, defect_density_per_cm2=1e-9)
    n_small = sim_small._die_centers().shape[0]
    n_large = sim_large._die_centers().shape[0]
    if n_small == 0 or n_large == 0:
        raise ParameterError("die does not fit one of the wafers")
    y_small = profile.wafer_yield(small, die)
    y_large = profile.wafer_yield(large, die)
    ideal_gain = n_large / n_small
    actual_gain = (n_large * y_large) / (n_small * y_small)
    return 1.0 - actual_gain / ideal_gain


def _radial_wafer(profile: RadialDefectProfile, wafer: Wafer,
                  rng: np.random.Generator) -> np.ndarray:
    # One wafer's draws in the canonical order: Poisson count at the
    # max (edge) density, per-defect rejection into the circle, then
    # thinning against D(r)/D(edge).  Any path that hands each wafer
    # its own generator — the legacy shared-stream loop or a spawned
    # child stream — replays this order exactly.  Returns the accepted
    # positions, in draw order, as a (kept, 2) array.
    max_density = profile.density_at(wafer.radius_cm, wafer.radius_cm)
    radius = wafer.radius_cm
    n_defects = rng.poisson(max_density * wafer.area_cm2)
    kept = []
    for _k in range(n_defects):
        while True:
            x, y = rng.uniform(-radius, radius, size=2)
            if x * x + y * y <= radius * radius:
                break
        r = math.hypot(x, y)
        accept = profile.density_at(r, radius) / max_density
        if rng.random() > accept:
            continue
        kept.append((x, y))
    return np.asarray(kept, dtype=float).reshape(-1, 2)


def _radial_simulator(profile: RadialDefectProfile, wafer: Wafer,
                      die: Die) -> SpotDefectSimulator:
    # The die grid and grader of a radial lot; its own defect process
    # is never run.
    max_density = profile.density_at(wafer.radius_cm, wafer.radius_cm)
    return SpotDefectSimulator(wafer, die,
                               defect_density_per_cm2=max_density)


def _radial_shard(profile: RadialDefectProfile, wafer: Wafer, die: Die,
                  seeds: list, first_wafer: int = 0,
                  obs_capture: tuple[bool, bool] | None = None
                  ) -> tuple[np.ndarray, list[int], dict | None]:
    # One worker's unit of a sharded radial lot — the radial analog of
    # repro.yieldsim.parallel._simulate_shard, with the same capture
    # protocol (spans/metrics come back in the payload for the parent
    # to absorb).  Returns (counts of shape (len(seeds), n_dies),
    # defects kept per wafer, payload); centers are not shipped back,
    # the parent re-attaches its own copy.
    frame = begin_capture(obs_capture) if obs_capture else None
    try:
        t0 = time.perf_counter() if obs_capture else 0.0
        with _span("mc.shard", first_wafer=first_wafer,
                   n_wafers=len(seeds)):
            sim = _radial_simulator(profile, wafer, die)
            positions: list[np.ndarray] = []
            for i, ss in enumerate(seeds):
                with _span("mc.wafer", wafer=first_wafer + i):
                    rng = np.random.default_rng(ss)
                    positions.append(_radial_wafer(profile, wafer, rng))
                _metrics.inc("mc.wafers_simulated")
                _metrics.inc("mc.defects_thrown", len(positions[-1]))
            counts = sim._grade_lot(positions)
        if obs_capture:
            _metrics.observe("mc.worker.wall_seconds",
                             time.perf_counter() - t0)
    finally:
        payload = end_capture(frame) if frame else None
    return counts, [len(p) for p in positions], payload


def simulate_radial_lot(profile: RadialDefectProfile, wafer: Wafer, die: Die,
                        n_wafers: int,
                        rng: np.random.Generator | None = None, *,
                        seed: SeedLike | None = None,
                        workers: int | None = None) -> list[WaferMap]:
    """Monte Carlo lot under the radial profile.

    Defect positions are drawn by rejection against D(r)/D(edge)
    (thinning a homogeneous process at the max density); die grading as
    in :class:`SpotDefectSimulator`.

    Seeding follows :meth:`SpotDefectSimulator.simulate_lot`: pass
    exactly one of ``rng`` (legacy single-stream lot, one generator
    advanced wafer by wafer) or ``seed`` (per-wafer spawned streams).
    ``workers=k`` requires ``seed`` and shards the lot over a process
    pool with the same worker-count invariance and sequential-fallback
    behavior as the homogeneous simulator; the same ``mc.*``
    spans/metrics are emitted when observability is on.
    """
    if n_wafers < 0:
        raise ParameterError("n_wafers must be >= 0")
    if (rng is None) == (seed is None):
        raise ParameterError(
            "specify exactly one of rng (single-stream lot) or "
            "seed (spawned per-wafer streams)")
    if workers is not None and seed is None:
        raise ParameterError(
            "workers requires seed=...: sharding needs spawned "
            "per-wafer streams to stay independent of worker count")
    if workers is not None and workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    sim = _radial_simulator(profile, wafer, die)
    centers = sim._die_centers()

    if rng is not None:
        with _span("mc.simulate_lot", n_wafers=n_wafers, workers=1):
            positions = []
            for i in range(n_wafers):
                with _span("mc.wafer", wafer=i):
                    positions.append(_radial_wafer(profile, wafer, rng))
                _metrics.inc("mc.wafers_simulated")
                _metrics.inc("mc.defects_thrown", len(positions[-1]))
            counts = sim._grade_lot(positions)
        _metrics.inc("mc.lots_simulated")
        return [WaferMap(die_centers_cm=centers, defect_counts=counts[i],
                         n_defects_total=len(positions[i]))
                for i in range(n_wafers)]

    seeds = spawn_wafer_seeds(seed, n_wafers)
    n_workers = 1 if workers is None else min(workers, max(n_wafers, 1))
    flags = capture_flags()
    with _span("mc.simulate_lot", n_wafers=n_wafers, workers=n_workers):
        if n_workers <= 1:
            shards = [_radial_shard(profile, wafer, die, seeds, 0, flags)]
        else:
            slices = _shard_slices(n_wafers, n_workers)
            shards = _run_pool(
                _radial_shard,
                [(profile, wafer, die, seeds[s], s.start, flags)
                 for s in slices])
        for shard in shards:
            absorb(shard[2])
    _metrics.inc("mc.lots_simulated")
    counts_list = [c for shard in shards for c in shard[0]]
    kept_list = [k for shard in shards for k in shard[1]]
    return [WaferMap(die_centers_cm=centers, defect_counts=counts_list[i],
                     n_defects_total=kept_list[i])
            for i in range(n_wafers)]

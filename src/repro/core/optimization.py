"""The Fig.-8 cost landscape and transistor cost optimization.

Sec. IV.B evaluates the full model — eqs. (1), (3), (4) and (7) — over
the (λ, N_tr) plane for a real fab's fitted parameters (X = 1.4,
C₀ = $500, R_w = 7.5 cm, d_d = 152, D = 1.72, p = 4.07) and finds:

* constant-cost contours with multiple local optima,
* a different cost-minimizing λ for each die size, and
* that the optimum "may not call for the smallest possible (and
  expensive) feature size" — the paper's design-side takeaway.

:class:`CostLandscape` computes the grid; helpers extract contours,
per-N_tr optima, per-die-area optima, and local minima.

Million-point landscapes run through the tiled sweep engine
(:mod:`repro.batch.sweep`): ``CostLandscape.grid(workers=...)`` and
the batch optimizers :func:`optimal_feature_sizes` /
:func:`optimal_feature_size_for_die_areas` accept
``workers``/``tile_size``/``checkpoint_dir`` knobs and
stay bitwise identical to the sequential paths (the sweep parity
contract).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..batch.engine import BatchCostResult, _require_all_positive, \
    transistor_cost_batch
from ..errors import ConvergenceError, ParameterError
from ..geometry import Die, Wafer, dies_per_wafer_maly
from ..obs import metrics as _metrics, span as _span
from ..units import require_positive
from ..yieldsim.models import YIELD_CUTOFF, scaled_poisson_yield
from .transistor_cost import MaskedCostBreakdown, masked_cost
from .wafer_cost import WaferCostModel


@dataclass(frozen=True)
class FabCharacterization:
    """The fitted fab parameters behind Fig. 8 (from [26])."""

    cost_growth_rate: float = 1.4
    reference_cost_dollars: float = 500.0
    wafer_radius_cm: float = 7.5
    design_density: float = 152.0
    defect_coefficient: float = 1.72
    size_exponent_p: float = 4.07

    def __post_init__(self) -> None:
        require_positive("cost_growth_rate", self.cost_growth_rate)
        require_positive("reference_cost_dollars", self.reference_cost_dollars)
        require_positive("wafer_radius_cm", self.wafer_radius_cm)
        require_positive("design_density", self.design_density)
        require_positive("defect_coefficient", self.defect_coefficient)
        require_positive("size_exponent_p", self.size_exponent_p)

    # The fab's wafer and eq.-(3) model are built (and checked) once per
    # fab, not per priced point or kernel call, and memoized in
    # ``__dict__`` (a frozen dataclass still owns a plain instance
    # dict).  An X below 1, which WaferCostModel refuses, raises on
    # every use, as nothing is stored then.

    @property
    def wafer(self) -> Wafer:
        """The fab's wafer, radius ``wafer_radius_cm``."""
        wafer = self.__dict__.get("_wafer")
        if wafer is None:
            wafer = self.__dict__["_wafer"] = Wafer(
                radius_cm=self.wafer_radius_cm)
        return wafer

    @property
    def wafer_cost(self) -> WaferCostModel:
        """The fab's eq.-(3) wafer cost model (C₀, X)."""
        model = self.__dict__.get("_wafer_cost")
        if model is None:
            model = self.__dict__["_wafer_cost"] = WaferCostModel(
                reference_cost_dollars=self.reference_cost_dollars,
                cost_growth_rate=self.cost_growth_rate)
        return model


#: The exact parameter set quoted for Fig. 8.
FIG8_FAB = FabCharacterization()


def transistor_cost_breakdown(n_transistors: float, feature_size_um: float,
                              fab: FabCharacterization = FIG8_FAB
                              ) -> MaskedCostBreakdown:
    """One evaluation of eqs. (1)+(3)+(4)+(7), with every intermediate.

    The point is infeasible — ``inf`` cost, intermediates kept — when
    the implied die does not fit the wafer or its eq.-(7) yield falls
    below :data:`~repro.yieldsim.models.YIELD_CUTOFF`; the landscape
    code treats that as a masked cell rather than an error so grids
    can span aggressive N_tr ranges.
    """
    require_positive("n_transistors", n_transistors)
    require_positive("feature_size_um", feature_size_um)
    wafer_cost = fab.wafer_cost
    die = Die.from_transistor_count(n_transistors, fab.design_density,
                                    feature_size_um)
    n_ch = dies_per_wafer_maly(fab.wafer, die)
    y = scaled_poisson_yield(n_transistors, fab.design_density,
                             fab.defect_coefficient, feature_size_um,
                             fab.size_exponent_p)
    c_w = wafer_cost.pure_cost(feature_size_um)
    feasible = n_ch >= 1 and y >= YIELD_CUTOFF
    return MaskedCostBreakdown(
        feature_size_um=feature_size_um,
        wafer_cost_dollars=c_w,
        die_area_cm2=die.area_cm2,
        dies_per_wafer=n_ch,
        transistors_per_die=n_transistors,
        yield_value=y,
        cost_per_transistor_dollars=masked_cost(
            c_w, n_ch, n_transistors, y, feasible),
        feasible=feasible)


def transistor_cost_full(n_transistors: float, feature_size_um: float,
                         fab: FabCharacterization = FIG8_FAB) -> float:
    """One evaluation of eqs. (1)+(3)+(4)+(7), in dollars per transistor.

    The cost of :func:`transistor_cost_breakdown`: ``math.inf`` where
    the die does not fit the wafer or the yield underflows.
    """
    return transistor_cost_breakdown(
        n_transistors, feature_size_um, fab).cost_per_transistor_dollars


@dataclass
class CostLandscape:
    """C_tr over a (λ, N_tr) grid — the data behind Fig. 8.

    ``feature_sizes_um`` spans the x-axis, ``transistor_counts`` the
    y-axis; ``grid()`` evaluates lazily and caches.  Infeasible cells
    (die larger than wafer, or yield underflow) hold ``inf``.
    """

    fab: FabCharacterization = field(default_factory=FabCharacterization)
    feature_sizes_um: np.ndarray = field(
        default_factory=lambda: np.linspace(0.3, 2.0, 46))
    transistor_counts: np.ndarray = field(
        default_factory=lambda: np.geomspace(1e5, 1e7, 47))
    _result: BatchCostResult | None = field(default=None, repr=False)

    def breakdown(self) -> BatchCostResult:
        """The full batched evaluation: costs plus every intermediate.

        One :func:`repro.batch.transistor_cost_batch` call over the
        whole plane; cached for the landscape's lifetime.
        """
        if self._result is None:
            counts = np.asarray(self.transistor_counts, dtype=float)
            lams = np.asarray(self.feature_sizes_um, dtype=float)
            with _span("core.landscape.grid",
                       shape=(counts.size, lams.size)):
                self._result = transistor_cost_batch(
                    counts[:, None], lams[None, :], self.fab)
            _metrics.inc("core.landscape.grids")
        return self._result

    def grid(self, *, workers: int | None = None,
             tile_size: int | None = None,
             checkpoint_dir=None, resume: bool = False) -> np.ndarray:
        """Cost array of shape (len(transistor_counts), len(feature_sizes)).

        The default call evaluates (and caches) the whole plane in one
        batched pass.  With ``workers``/``checkpoint_dir`` the plane
        runs through :class:`repro.batch.sweep.TiledSweepRunner`
        instead — tiled, optionally on the process pool,
        optionally checkpointed — and the array is bitwise identical
        to the default path (the sweep parity contract).  The pool is
        the process's shared one (:mod:`repro.pool`): the call leaves
        it running for later sweeps and lots, and an enclosing ``with
        TiledSweepRunner(...)`` block keeps its workers.
        """
        if workers is None and checkpoint_dir is None:
            return self.breakdown().cost_per_transistor_dollars
        from ..batch.sweep import (
            DEFAULT_TILE_SIZE, FabCostSweep, TiledSweepRunner)
        counts = np.asarray(self.transistor_counts, dtype=float)
        lams = np.asarray(self.feature_sizes_um, dtype=float)
        runner = TiledSweepRunner(
            workers=workers,
            tile_size=DEFAULT_TILE_SIZE if tile_size is None else tile_size,
            checkpoint_dir=checkpoint_dir, resume=resume)
        return runner.run(FabCostSweep(self.fab), counts, lams).values

    def optimal_lambda_per_count(self) -> list[tuple[float, float, float]]:
        """For each N_tr row: (N_tr, λ_opt, C_tr at optimum).

        Rows with no feasible cell are skipped.
        """
        g = self.grid()
        rows = []
        for i, n_tr in enumerate(self.transistor_counts):
            row = g[i]
            finite = np.isfinite(row)
            if not finite.any():
                continue
            j = int(np.argmin(np.where(finite, row, np.inf)))
            rows.append((float(n_tr), float(self.feature_sizes_um[j]),
                         float(row[j])))
        return rows

    def local_minima(self) -> list[tuple[int, int]]:
        """Grid indices (i, j) that are strict local minima in 4-neighborhood.

        The paper observes "a number of local optima" on its contour
        plot; this extracts them from the discretized landscape.
        """
        g = self.grid()
        minima = []
        for i in range(g.shape[0]):
            for j in range(g.shape[1]):
                v = g[i, j]
                if not np.isfinite(v):
                    continue
                neighbors = []
                if i > 0:
                    neighbors.append(g[i - 1, j])
                if i < g.shape[0] - 1:
                    neighbors.append(g[i + 1, j])
                if j > 0:
                    neighbors.append(g[i, j - 1])
                if j < g.shape[1] - 1:
                    neighbors.append(g[i, j + 1])
                if all(v < n for n in neighbors):
                    minima.append((i, j))
        return minima

    def contour_levels(self, n_levels: int = 8, *,
                       max_decades: float = 3.0) -> np.ndarray:
        """Log-spaced cost levels covering the economically relevant range.

        The raw landscape spans absurd magnitudes (cells with Y ~ 1e-100
        are technically finite); contours are drawn from the valley floor
        up to ``max_decades`` decades above it, which is where Fig. 8's
        structure lives.
        """
        require_positive("max_decades", max_decades)
        g = self.grid()
        finite = g[np.isfinite(g)]
        if finite.size == 0:
            raise ParameterError("landscape has no feasible cells")
        lo = float(finite.min())
        hi = min(float(finite.max()), lo * 10.0 ** max_decades)
        return np.geomspace(lo, hi, n_levels)

    def contour_mask(self, level: float, tolerance: float = 0.05) -> np.ndarray:
        """Boolean grid of cells within ±tolerance (relative) of a level.

        A discretized stand-in for the contour lines of Fig. 8, suitable
        for the ASCII rendering in :mod:`repro.analysis.report`.
        """
        require_positive("level", level)
        g = self.grid()
        with np.errstate(invalid="ignore"):
            rel = np.abs(g - level) / level
        return np.isfinite(g) & (rel <= tolerance)


#: Coarse-scan resolutions shared by the scalar optimizers and their
#: batched counterparts — the sweeps must scan the *same* λ grid for
#: the per-row argmins to agree with the scalar code bit-for-bit.
_OPT_SCAN_POINTS = 61
_DIE_AREA_SCAN_POINTS = 241


def _golden_refine(f, lams: np.ndarray, k: int, tol_um: float) -> float:
    # Golden-section refinement of coarse-scan minimum k, identical
    # for the scalar optimizer and the batched sweep (both call this
    # with the same bracket and the same scalar objective, so they
    # converge to the same bits).
    lo = lams[max(k - 1, 0)]
    hi = lams[min(k + 1, len(lams) - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol_um:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _require_lam_bounds(lam_lo_um: float, lam_hi_um: float) -> None:
    # The scanned λ range: both ends finite and > 0, low below high.
    require_positive("lam_lo_um", lam_lo_um)
    require_positive("lam_hi_um", lam_hi_um)
    if not lam_lo_um < lam_hi_um:
        raise ParameterError("lam_lo_um must be < lam_hi_um")


def optimal_feature_size(n_transistors: float,
                         fab: FabCharacterization = FIG8_FAB,
                         lam_lo_um: float = 0.25, lam_hi_um: float = 1.5,
                         tol_um: float = 1e-4) -> float:
    """Cost-minimizing λ for a fixed transistor count (golden-section search).

    The objective is unimodal-enough in practice for this fab (the
    wafer-cost term rises and the yield/area terms fall monotonically in
    λ); the search is bracketed and the result refined against a coarse
    scan to avoid landing in a secondary valley.
    """
    require_positive("n_transistors", n_transistors)
    _require_lam_bounds(lam_lo_um, lam_hi_um)

    def f(lam: float) -> float:
        return transistor_cost_full(n_transistors, lam, fab)

    with _span("core.optimal_feature_size", n_transistors=n_transistors):
        # Coarse scan (batched) to pick the best bracket among possible
        # multiple valleys; the golden-section refinement stays scalar.
        lams = np.linspace(lam_lo_um, lam_hi_um, _OPT_SCAN_POINTS)
        costs = transistor_cost_batch(n_transistors, lams,
                                      fab).cost_per_transistor_dollars
        if not np.isfinite(costs).any():
            raise ConvergenceError(
                "no feasible feature size in the given range")
        k = int(np.argmin(np.where(np.isfinite(costs), costs, np.inf)))
        result = _golden_refine(f, lams, k, tol_um)
    _metrics.inc("core.optimize.calls")
    return result


def optimal_feature_sizes(n_transistors,
                          fab: FabCharacterization = FIG8_FAB,
                          lam_lo_um: float = 0.25, lam_hi_um: float = 1.5,
                          tol_um: float = 1e-4, *,
                          workers: int | None = None,
                          tile_size: int | None = None) -> np.ndarray:
    """Cost-minimizing λ for each of an array of transistor counts.

    The batch form of :func:`optimal_feature_size`: the coarse scans
    for all counts run as *one* tiled sweep (optionally on the
    process pool via ``workers``), then each count's bracket is
    refined with the same scalar golden section — so every element
    equals the scalar function's answer for that count.
    """
    from ..batch.sweep import (
        DEFAULT_TILE_SIZE, FabCostSweep, TiledSweepRunner)
    counts = np.ascontiguousarray(n_transistors, dtype=float).ravel()
    if counts.size < 1:
        raise ParameterError("n_transistors must be non-empty")
    _require_all_positive("n_transistors", counts)
    _require_lam_bounds(lam_lo_um, lam_hi_um)

    lams = np.linspace(lam_lo_um, lam_hi_um, _OPT_SCAN_POINTS)
    out = np.empty(counts.size, dtype=np.float64)
    with _span("core.optimal_feature_sizes", count=int(counts.size)):
        runner = TiledSweepRunner(
            workers=workers,
            tile_size=DEFAULT_TILE_SIZE if tile_size is None else tile_size)
        costs = runner.run(FabCostSweep(fab), counts, lams).values
        for i, n in enumerate(counts.tolist()):
            row = costs[i]
            if not np.isfinite(row).any():
                raise ConvergenceError(
                    f"no feasible feature size in the given range for "
                    f"N_tr={n}")
            k = int(np.argmin(np.where(np.isfinite(row), row, np.inf)))
            out[i] = _golden_refine(
                lambda lam: transistor_cost_full(n, lam, fab),
                lams, k, tol_um)
    _metrics.inc("core.optimize.calls", int(counts.size))
    return out


def optimal_feature_size_for_die_area(die_area_cm2: float,
                                      fab: FabCharacterization = FIG8_FAB,
                                      lam_lo_um: float = 0.25,
                                      lam_hi_um: float = 1.5) -> tuple[float, float]:
    """Cost-minimizing λ when the *die size* is fixed (λ sets N_tr via eq. 5).

    Returns ``(λ_opt, C_tr at optimum)``.  This is the paper's framing:
    "for each die size there is different λ_opt which minimizes the cost
    per transistor."
    """
    require_positive("die_area_cm2", die_area_cm2)
    _require_lam_bounds(lam_lo_um, lam_hi_um)

    lams = np.linspace(lam_lo_um, lam_hi_um, _DIE_AREA_SCAN_POINTS)
    n_tr = die_area_cm2 * 1.0e8 / (fab.design_density * lams * lams)
    costs = transistor_cost_batch(n_tr, lams,
                                  fab).cost_per_transistor_dollars
    if not np.isfinite(costs).any():
        raise ConvergenceError("no feasible feature size for this die area")
    k = int(np.argmin(np.where(np.isfinite(costs), costs, np.inf)))
    return float(lams[k]), float(costs[k])


def optimal_feature_size_for_die_areas(
        die_areas_cm2,
        fab: FabCharacterization = FIG8_FAB,
        lam_lo_um: float = 0.25, lam_hi_um: float = 1.5, *,
        workers: int | None = None,
        tile_size: int | None = None,
        checkpoint_dir=None,
        resume: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """``(λ_opt, C_tr at optimum)`` arrays for an array of die areas.

    The batch form of :func:`optimal_feature_size_for_die_area`: all
    areas scan the same λ grid in one tiled sweep (optionally on the
    process pool, optionally checkpointed), and each element
    matches the scalar function's answer for that area — the sweep
    kernel replicates the scalar eq.-(5) operation order exactly.
    """
    from ..batch.sweep import (
        DEFAULT_TILE_SIZE, DieAreaCostSweep, TiledSweepRunner)
    areas = np.ascontiguousarray(die_areas_cm2, dtype=float).ravel()
    if areas.size < 1:
        raise ParameterError("die_areas_cm2 must be non-empty")
    _require_all_positive("die_areas_cm2", areas)
    _require_lam_bounds(lam_lo_um, lam_hi_um)

    lams = np.linspace(lam_lo_um, lam_hi_um, _DIE_AREA_SCAN_POINTS)
    lam_opt = np.empty(areas.size, dtype=np.float64)
    cost_opt = np.empty(areas.size, dtype=np.float64)
    with _span("core.optimal_feature_size_for_die_areas",
               count=int(areas.size)):
        runner = TiledSweepRunner(
            workers=workers,
            tile_size=DEFAULT_TILE_SIZE if tile_size is None else tile_size,
            checkpoint_dir=checkpoint_dir, resume=resume)
        costs = runner.run(DieAreaCostSweep(fab), areas, lams).values
        for i in range(areas.size):
            row = costs[i]
            finite = np.isfinite(row)
            if not finite.any():
                raise ConvergenceError(
                    f"no feasible feature size for die area "
                    f"{areas[i]} cm^2")
            k = int(np.argmin(np.where(finite, row, np.inf)))
            lam_opt[i] = lams[k]
            cost_opt[i] = row[k]
    _metrics.inc("core.optimize.calls", int(areas.size))
    return lam_opt, cost_opt

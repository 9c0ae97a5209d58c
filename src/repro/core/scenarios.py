"""Manufacturing scenarios — Sec. IV.A of the paper, Figs. 6 and 7.

Scenario #1 (the industry's optimistic premise circa 1994):

* S1.1 — X between 1.1 and 1.3;
* S1.2 — product is a 1 Mb DRAM with redundancy (d_d ≈ 30);
* S1.3 — mature yield is 100%;
* S1.4 — high-volume, zero-overhead operation (C_over = 0).

Under these, eq. (8) makes C_tr fall as λ shrinks (Fig. 6).

Scenario #2 (the realistic counterpoint):

* S2.1 — X between 1.8 and 2.4;
* S2.2 — product is a custom µP whose die grows along the Fig.-3 trend
  ``A_ch(λ) = 16.5·exp(−5.3λ)`` (d_d ≈ 200);
* S2.3 — yield is 70% for a 1 cm² die at every generation;
* S2.4 — as S1.4.

Under these, eq. (9) makes C_tr *rise* as λ shrinks (Fig. 7) — the
paper's central warning.

:class:`Scenario` generalizes both so users can build their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from ..batch.engine import scenario1_cost_batch, scenario2_cost_batch
from ..errors import ParameterError
from ..geometry import Wafer
from ..technology.roadmap import die_area_trend_cm2
from ..units import require_fraction, require_positive
from .transistor_cost import TransistorCostModel
from .wafer_cost import GenerationModel, WaferCostModel


@dataclass(frozen=True)
class Scenario:
    """A named manufacturing scenario for C_tr-vs-λ studies.

    Parameters
    ----------
    name:
        Human-readable label.
    growth_rates:
        The X values to sweep (one cost curve per X).
    design_density:
        d_d in λ² per transistor (30 for the Scenario-#1 DRAM, 200 for
        the Scenario-#2 µP).
    reference_cost_dollars:
        C₀ for the eq.-(3) wafer cost.
    wafer_radius_cm:
        R_w (7.5 cm in both paper scenarios).
    reference_yield, reference_area_cm2:
        The Y₀^(A/A₀) law for Scenario-#2-style runs; ``reference_yield
        = 1.0`` recovers Scenario #1's perfect-yield assumption (the
        die-area function is then irrelevant to cost).
    die_area_cm2_fn:
        λ → die area (cm²) used by the yield term; defaults to the
        Fig.-3 trend.
    generation_model:
        Law for the eq.-(3) exponent (see
        :class:`~repro.core.wafer_cost.GenerationModel`).
    """

    name: str
    growth_rates: tuple[float, ...]
    design_density: float
    reference_cost_dollars: float = 500.0
    wafer_radius_cm: float = 7.5
    reference_yield: float = 1.0
    reference_area_cm2: float = 1.0
    die_area_cm2_fn: Callable[[float], float] = die_area_trend_cm2
    generation_model: GenerationModel = GenerationModel.SHRINK_LOG

    def __post_init__(self) -> None:
        if not self.growth_rates:
            raise ParameterError("growth_rates must be non-empty")
        for x in self.growth_rates:
            if x < 1.0:
                raise ParameterError(f"growth rate X must be >= 1, got {x}")
        require_positive("design_density", self.design_density)
        require_positive("reference_cost_dollars", self.reference_cost_dollars)
        require_positive("wafer_radius_cm", self.wafer_radius_cm)
        require_fraction("reference_yield", self.reference_yield,
                         inclusive_low=False)
        require_positive("reference_area_cm2", self.reference_area_cm2)

    def model_for(self, growth_rate: float) -> TransistorCostModel:
        """The composed cost model for one X value."""
        wafer_cost = WaferCostModel(
            reference_cost_dollars=self.reference_cost_dollars,
            cost_growth_rate=growth_rate,
            generation_model=self.generation_model)
        return TransistorCostModel(wafer_cost=wafer_cost,
                                   wafer=Wafer(radius_cm=self.wafer_radius_cm))

    def cost_dollars(self, feature_size_um: float, growth_rate: float) -> float:
        """C_tr at one (λ, X) point, in dollars.

        Uses eq. (8) when the scenario assumes perfect yield, eq. (9)
        otherwise — exactly the forms the paper plots.
        """
        model = self.model_for(growth_rate)
        if self.reference_yield >= 1.0:
            return model.scenario1_cost(feature_size_um, self.design_density)
        return model.scenario2_cost(
            feature_size_um, self.design_density,
            reference_yield=self.reference_yield,
            reference_area_cm2=self.reference_area_cm2,
            die_area_cm2=self.die_area_cm2_fn(feature_size_um))

    def curves(self, feature_sizes_um: Sequence[float], *,
               workers: int | None = None,
               tile_size: int | None = None) -> dict[float, np.ndarray]:
        """One C_tr(λ) array (dollars) per configured X.

        Runs on :mod:`repro.batch` — one vectorized eq.-(8)/(9) sweep
        per X; :meth:`cost_dollars` is the scalar reference.  With
        ``workers`` the whole (X, λ) bundle runs as one tiled sweep
        through :class:`repro.batch.sweep.TiledSweepRunner` (bitwise
        identical to the per-X arrays — the sweep parity contract).
        """
        lams = np.asarray(list(feature_sizes_um), dtype=float)
        for lam in lams:
            require_positive("feature_size_um", float(lam))
        if workers is None:
            return {x: self._curve(lams, x) for x in self.growth_rates}
        from ..batch.sweep import (
            DEFAULT_TILE_SIZE, ScenarioSweep, TiledSweepRunner)
        rates = np.asarray(self.growth_rates, dtype=float)
        runner = TiledSweepRunner(
            workers=workers,
            tile_size=DEFAULT_TILE_SIZE if tile_size is None else tile_size)
        result = runner.run(ScenarioSweep(self), rates, lams)
        return {x: result.values[i].copy()
                for i, x in enumerate(self.growth_rates)}

    def _curve(self, lams: np.ndarray, growth_rate: float) -> np.ndarray:
        model = self.model_for(growth_rate)
        if self.reference_yield >= 1.0:
            return scenario1_cost_batch(model, lams, self.design_density)
        areas = np.array([self.die_area_cm2_fn(float(l)) for l in lams],
                         dtype=float)
        return scenario2_cost_batch(
            model, lams, self.design_density,
            reference_yield=self.reference_yield,
            reference_area_cm2=self.reference_area_cm2,
            die_area_cm2=areas)

    def with_growth_rates(self, growth_rates: Sequence[float]) -> "Scenario":
        """Copy of the scenario with different X values."""
        return replace(self, growth_rates=tuple(growth_rates))

    def crossover_feature_size(self, growth_rate: float,
                               lam_lo_um: float = 0.2,
                               lam_hi_um: float = 1.0,
                               n_points: int = 201) -> float | None:
        """The λ minimizing C_tr on [lam_lo, lam_hi], or None at the boundary.

        For Scenario-#2-like settings there is an interior cost-optimal
        feature size — shrinking past it *raises* cost.  Returns None
        when the minimum sits on either end of the sweep (monotone case,
        e.g. Scenario #1).
        """
        lams = np.linspace(lam_lo_um, lam_hi_um, n_points)
        costs = self._curve(lams, growth_rate)
        idx = int(np.argmin(costs))
        if idx in (0, len(lams) - 1):
            return None
        return float(lams[idx])


#: Scenario #1 — Fig. 6: 1 Mb DRAM, redundancy, perfect mature yield.
SCENARIO_1 = Scenario(
    name="Scenario #1 (commodity DRAM, optimistic)",
    growth_rates=(1.1, 1.2, 1.3),
    design_density=30.0,
    reference_cost_dollars=500.0,
    wafer_radius_cm=7.5,
    reference_yield=1.0)

#: Scenario #2 — Fig. 7: custom µP, growing die, 70% yield at 1 cm².
SCENARIO_2 = Scenario(
    name="Scenario #2 (custom uP, realistic)",
    growth_rates=(1.8, 2.1, 2.4),
    design_density=200.0,
    reference_cost_dollars=500.0,
    wafer_radius_cm=7.5,
    reference_yield=0.7,
    reference_area_cm2=1.0)


def scenario1_cost_curve(feature_sizes_um: Sequence[float],
                         growth_rate: float = 1.2) -> np.ndarray:
    """Fig.-6 convenience: one eq.-(8) cost curve, dollars per transistor."""
    lams = np.asarray(list(feature_sizes_um), dtype=float)
    for lam in lams:
        require_positive("feature_size_um", float(lam))
    return SCENARIO_1._curve(lams, growth_rate)


def scenario2_cost_curve(feature_sizes_um: Sequence[float],
                         growth_rate: float = 1.8) -> np.ndarray:
    """Fig.-7 convenience: one eq.-(9) cost curve, dollars per transistor."""
    lams = np.asarray(list(feature_sizes_um), dtype=float)
    for lam in lams:
        require_positive("feature_size_um", float(lam))
    return SCENARIO_2._curve(lams, growth_rate)

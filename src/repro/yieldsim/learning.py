"""Yield learning over time — Sec. VI's "rapid yield learning" economics.

The paper's scenarios freeze yield at maturity (100% or 70%); in
reality each technology generation starts dirty and *learns*: defect
density decays from an introduction value toward a mature floor.  How
fast it decays decides whether a product generation makes money —
which is why the paper lists "computer aids in rapid yield learning"
among the survival strategies of Phase 2.

Model: exponential defect-density learning

.. math:: D(t) = D_\\infty + (D_0 - D_\\infty)\\, e^{-t/\\tau}

composed with any :class:`~repro.yieldsim.models.YieldModel` to give
Y(t), plus the program-level economics: cumulative good dies over a
market window, the revenue value of cutting τ, and the break-even
learning time against a cost target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..errors import ConvergenceError, ParameterError
from ..units import require_fraction, require_nonnegative, require_positive
from .models import PoissonYield, YieldModel


@dataclass(frozen=True)
class YieldLearningCurve:
    """Exponential defect-density learning for one technology ramp.

    Parameters
    ----------
    initial_density_per_cm2:
        D₀ at process introduction (dirty).
    mature_density_per_cm2:
        D∞ floor after learning saturates.
    time_constant_months:
        τ of the exponential decay.
    yield_model:
        Map from fault expectation to yield (Poisson by default).
    """

    initial_density_per_cm2: float
    mature_density_per_cm2: float
    time_constant_months: float
    yield_model: YieldModel = PoissonYield()

    def __post_init__(self) -> None:
        require_positive("initial_density_per_cm2",
                         self.initial_density_per_cm2)
        require_nonnegative("mature_density_per_cm2",
                            self.mature_density_per_cm2)
        require_positive("time_constant_months", self.time_constant_months)
        if self.mature_density_per_cm2 > self.initial_density_per_cm2:
            raise ParameterError(
                "mature density cannot exceed the initial density")

    def density(self, months: float) -> float:
        """D(t) in defects/cm²."""
        require_nonnegative("months", months)
        d0, dinf = self.initial_density_per_cm2, self.mature_density_per_cm2
        # dinf + (d0 − dinf) can round one ulp above d0 near t = 0.
        return min(d0, dinf + (d0 - dinf)
                   * math.exp(-months / self.time_constant_months))

    def yield_at(self, months: float, die_area_cm2: float) -> float:
        """Y(t) for a die of the given area."""
        require_positive("die_area_cm2", die_area_cm2)
        return self.yield_model.yield_for_area(die_area_cm2,
                                               self.density(months))

    def months_to_density(self, target_density_per_cm2: float) -> float:
        """Time until D(t) reaches a target; ParameterError if below D∞."""
        require_nonnegative("target_density_per_cm2", target_density_per_cm2)
        d0, dinf = self.initial_density_per_cm2, self.mature_density_per_cm2
        if target_density_per_cm2 >= d0:
            return 0.0
        if target_density_per_cm2 <= dinf:
            raise ParameterError(
                f"target {target_density_per_cm2}/cm2 is at or below the "
                f"mature floor {dinf}/cm2; never reached")
        return -self.time_constant_months * math.log(
            (target_density_per_cm2 - dinf) / (d0 - dinf))

    def months_to_yield(self, target_yield: float, die_area_cm2: float) -> float:
        """Time until Y(t) reaches a target for the given die."""
        require_fraction("target_yield", target_yield, inclusive_low=False,
                         inclusive_high=False)
        require_positive("die_area_cm2", die_area_cm2)
        needed_density = self.yield_model.defect_density_for_yield(
            die_area_cm2, target_yield)
        mature_yield = self.yield_model.yield_for_area(
            die_area_cm2, self.mature_density_per_cm2)
        if mature_yield < target_yield:
            raise ConvergenceError(
                f"target yield {target_yield:.2f} exceeds the mature yield "
                f"{mature_yield:.2f}; unreachable on this curve")
        return self.months_to_density(needed_density)

    def accelerated(self, factor: float) -> "YieldLearningCurve":
        """A copy learning ``factor``× faster (τ divided by factor)."""
        require_positive("factor", factor)
        return replace(self,
                       time_constant_months=self.time_constant_months / factor)


@dataclass(frozen=True)
class RampEconomics:
    """Program economics of a yield ramp over a market window.

    Parameters
    ----------
    curve:
        The learning curve.
    die_area_cm2:
        Product die area.
    dies_per_wafer:
        Geometry (from :mod:`repro.geometry`).
    wafers_per_month:
        Production rate through the window.
    wafer_cost_dollars:
        Pure cost per wafer (eq. 3 or the bottom-up model).
    die_price_dollars:
        Selling price of a good die (held flat over the window for
        simplicity; compose with :mod:`repro.core.pricing` for decaying
        prices).
    window_months:
        Length of the market window.
    """

    curve: YieldLearningCurve
    die_area_cm2: float
    dies_per_wafer: int
    wafers_per_month: float
    wafer_cost_dollars: float
    die_price_dollars: float
    window_months: float = 24.0

    def __post_init__(self) -> None:
        require_positive("die_area_cm2", self.die_area_cm2)
        if self.dies_per_wafer < 1:
            raise ParameterError("dies_per_wafer must be >= 1")
        require_positive("wafers_per_month", self.wafers_per_month)
        require_positive("wafer_cost_dollars", self.wafer_cost_dollars)
        require_positive("die_price_dollars", self.die_price_dollars)
        require_positive("window_months", self.window_months)

    def good_dies_through(self, months: float, *, dt_months: float = 0.25) -> float:
        """Cumulative good dies from ramp start to ``months`` (midpoint
        rule on the yield curve)."""
        require_nonnegative("months", months)
        require_positive("dt_months", dt_months)
        total = 0.0
        t = 0.0
        while t < months:
            step = min(dt_months, months - t)
            y = self.curve.yield_at(t + step / 2.0, self.die_area_cm2)
            total += y * self.dies_per_wafer * self.wafers_per_month \
                * step
            t += step
        return total

    def program_profit(self) -> float:
        """Revenue minus wafer cost over the whole window, dollars."""
        good = self.good_dies_through(self.window_months)
        revenue = good * self.die_price_dollars
        cost = self.wafer_cost_dollars * self.wafers_per_month \
            * self.window_months
        return revenue - cost

    def value_of_faster_learning(self, factor: float) -> float:
        """Extra program profit from learning ``factor``× faster.

        The quantity that prices "computer aids in rapid yield
        learning": always ≥ 0 for factor ≥ 1 (property-tested).
        """
        require_positive("factor", factor)
        faster = replace(self, curve=self.curve.accelerated(factor))
        return faster.program_profit() - self.program_profit()

    def breakeven_month(self, *, dt_months: float = 0.25) -> float | None:
        """First month at which cumulative revenue covers cumulative cost,
        or None if the program never breaks even inside the window."""
        t = dt_months
        while t <= self.window_months + 1e-9:
            revenue = self.good_dies_through(t, dt_months=dt_months) \
                * self.die_price_dollars
            cost = self.wafer_cost_dollars * self.wafers_per_month * t
            if revenue >= cost:
                return t
            t += dt_months
        return None

"""Transistor cost — eqs. (1), (8) and (9) of the paper.

The headline model is eq. (1):

.. math:: C_{tr} = \\frac{C_w}{N_{ch}\\, N_{tr}\\, Y}

— wafer cost divided by (dies per wafer × transistors per die × yield).
:class:`TransistorCostModel` composes the substrate models:

* wafer cost from :class:`~repro.core.wafer_cost.WaferCostModel` (eq. 3),
* dies per wafer from :mod:`repro.geometry` (eq. 4),
* transistors per die from design density (eq. 5),
* yield from any :class:`~repro.yieldsim.models.YieldModel` or a
  directly supplied value (eqs. 6/7 or the Y₀^(A/A₀) law).

Eq. (8) — Scenario #1's wafer-level approximation, which replaces the
die-count geometry by gross wafer area (valid for small dies and
Y = 1):

.. math:: C_{tr} = \\frac{C'_w(\\lambda)\\, d_d\\, \\lambda^2}{A_w}

and eq. (9) — Scenario #2's form with the Fig.-3 die-size trend and the
reference-area yield law — are provided as class methods so the
Figs. 6/7 benches can use exactly the approximations the paper plots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ParameterError
from ..geometry import Die, Wafer, dies_per_wafer_maly
from ..units import (
    cm2_to_um2,
    require_fraction,
    require_positive,
)
from ..yieldsim.models import ReferenceAreaYield, YieldModel
from .wafer_cost import WaferCostModel


@dataclass(frozen=True)
class CostBreakdown:
    """Itemized result of one eq.-(1) evaluation.

    All the intermediate quantities a designer would want to audit:
    geometry, yield, per-wafer / per-die / per-transistor costs.
    """

    feature_size_um: float
    wafer_cost_dollars: float
    die_area_cm2: float
    dies_per_wafer: int
    transistors_per_die: float
    yield_value: float
    cost_per_transistor_dollars: float

    @property
    def cost_per_transistor_microdollars(self) -> float:
        """C_tr in the paper's Table-3 unit, $·10⁻⁶."""
        return self.cost_per_transistor_dollars * 1.0e6

    @property
    def good_dies_per_wafer(self) -> float:
        """Expected functioning dies per wafer: N_ch · Y."""
        return self.dies_per_wafer * self.yield_value

    @property
    def cost_per_good_die_dollars(self) -> float:
        """Wafer cost spread over functioning dies."""
        return self.wafer_cost_dollars / self.good_dies_per_wafer

    def __post_init__(self) -> None:  # noqa: D105 - validation only
        require_positive("feature_size_um", self.feature_size_um)
        require_positive("wafer_cost_dollars", self.wafer_cost_dollars)
        require_positive("die_area_cm2", self.die_area_cm2)
        if self.dies_per_wafer < 1:
            raise ParameterError(
                f"no complete dies fit the wafer (dies_per_wafer="
                f"{self.dies_per_wafer}); cost per transistor is undefined")
        require_positive("transistors_per_die", self.transistors_per_die)
        require_fraction("yield_value", self.yield_value, inclusive_low=False)
        require_positive("cost_per_transistor_dollars",
                         self.cost_per_transistor_dollars)


@dataclass(frozen=True)
class MaskedCostBreakdown:
    """One eq.-(1) evaluation that masks an infeasible point.

    The scalar form of one :class:`~repro.batch.engine.BatchCostResult`
    cell.  Where the die does not fit the wafer (or, in the Fig.-8
    form, the yield falls below
    :data:`~repro.yieldsim.models.YIELD_CUTOFF`) ``feasible`` is False
    and the cost is ``inf``; the intermediates keep their computed
    values for auditing.  A zero yield on a fitting die also gives an
    ``inf`` cost, as the batch kernels do.
    """

    feature_size_um: float
    wafer_cost_dollars: float
    die_area_cm2: float
    dies_per_wafer: int
    transistors_per_die: float
    yield_value: float
    cost_per_transistor_dollars: float
    feasible: bool


def masked_cost(c_w: float, n_ch: int, n_transistors: float, y: float,
                feasible: bool) -> float:
    """Eq. (1), ``C_w / (N_ch · N_tr · Y)``, or ``inf`` where infeasible.

    The operation order of the batch kernels' cost composition, so the
    result is bitwise equal to theirs; a zero denominator gives ``inf``
    as their ``np.errstate``-guarded division does.
    """
    if not feasible:
        return math.inf
    denominator = n_ch * n_transistors * y
    return c_w / denominator if denominator else math.inf


# `silicon_utilization` above would need the wafer context; expose it as a
# free function instead so the breakdown stays a plain value object.
def silicon_utilization(breakdown: CostBreakdown, wafer: Wafer) -> float:
    """Fraction of gross wafer area covered by complete dies."""
    return breakdown.dies_per_wafer * breakdown.die_area_cm2 / wafer.area_cm2


@dataclass(frozen=True)
class TransistorCostModel:
    """Eq. (1) composed from its substrate models.

    Parameters
    ----------
    wafer_cost:
        The eq.-(3) wafer cost model.
    wafer:
        Wafer geometry (radius, edge exclusion).
    volume_wafers:
        If set, wafer cost includes the eq.-(2) overhead amortization at
        this volume; if ``None``, the pure cost C'_w is used (the
        paper's S.1.4 / S.2.4 assumption C_over = 0).
    """

    wafer_cost: WaferCostModel
    wafer: Wafer
    volume_wafers: float | None = None

    def __post_init__(self) -> None:
        if self.volume_wafers is not None:
            require_positive("volume_wafers", self.volume_wafers)

    def wafer_cost_dollars(self, feature_size_um: float) -> float:
        """C_w(λ), with overhead amortized if a volume is configured."""
        if self.volume_wafers is None:
            return self.wafer_cost.pure_cost(feature_size_um)
        return self.wafer_cost.cost_at_volume(feature_size_um, self.volume_wafers)

    def evaluate(self, *, n_transistors: float, feature_size_um: float,
                 design_density: float,
                 yield_model: YieldModel | None = None,
                 defect_density_per_cm2: float | None = None,
                 yield_value: float | None = None,
                 aspect_ratio: float = 1.0) -> CostBreakdown:
        """Full eq.-(1) evaluation for one design point.

        Yield is specified exactly one of three ways:

        * ``yield_value`` — a number, used as-is;
        * ``yield_model`` being a :class:`ReferenceAreaYield` — evaluated
          on the die area directly (the Y₀^(A/A₀) law);
        * ``yield_model`` + ``defect_density_per_cm2`` — any other model
          evaluated at that density.
        """
        masked = self.evaluate_masked(
            n_transistors=n_transistors, feature_size_um=feature_size_um,
            design_density=design_density, yield_model=yield_model,
            defect_density_per_cm2=defect_density_per_cm2,
            yield_value=yield_value, aspect_ratio=aspect_ratio)
        if not masked.feasible:
            raise ParameterError(
                f"die of {masked.die_area_cm2:.2f} cm2 does not fit wafer "
                f"of radius {self.wafer.radius_cm} cm")
        return CostBreakdown(
            feature_size_um=masked.feature_size_um,
            wafer_cost_dollars=masked.wafer_cost_dollars,
            die_area_cm2=masked.die_area_cm2,
            dies_per_wafer=masked.dies_per_wafer,
            transistors_per_die=masked.transistors_per_die,
            yield_value=masked.yield_value,
            cost_per_transistor_dollars=masked.cost_per_transistor_dollars)

    def evaluate_masked(self, *, n_transistors: float,
                        feature_size_um: float, design_density: float,
                        yield_model: YieldModel | None = None,
                        defect_density_per_cm2: float | None = None,
                        yield_value: float | None = None,
                        aspect_ratio: float = 1.0) -> MaskedCostBreakdown:
        """:meth:`evaluate` without the raise for an unfittable die.

        Same arguments and arithmetic; a die that does not fit the
        wafer comes back ``feasible=False`` with an ``inf`` cost, the
        :func:`repro.batch.evaluate_batch` convention.  This is the
        scalar reference the service prices ``ModelCostQuery`` points
        by.
        """
        require_positive("n_transistors", n_transistors)
        require_positive("feature_size_um", feature_size_um)
        require_positive("design_density", design_density)

        die = Die.from_transistor_count(
            n_transistors, design_density, feature_size_um,
            aspect_ratio=aspect_ratio)
        n_ch = dies_per_wafer_maly(self.wafer, die)
        y = self._resolve_yield(die.area_cm2, yield_model,
                                defect_density_per_cm2, yield_value)
        c_w = self.wafer_cost_dollars(feature_size_um)
        feasible = n_ch >= 1
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

    @staticmethod
    def _resolve_yield(die_area_cm2: float, yield_model: YieldModel | None,
                       defect_density_per_cm2: float | None,
                       yield_value: float | None) -> float:
        given = [yield_model is not None, yield_value is not None]
        if sum(given) != 1:
            raise ParameterError(
                "specify exactly one of yield_model or yield_value")
        if yield_value is not None:
            require_fraction("yield_value", yield_value, inclusive_low=False)
            return yield_value
        assert yield_model is not None
        if isinstance(yield_model, ReferenceAreaYield):
            return yield_model.yield_for_die_area(die_area_cm2)
        if defect_density_per_cm2 is None:
            raise ParameterError(
                "defect_density_per_cm2 is required with this yield model")
        return yield_model.yield_for_area(die_area_cm2, defect_density_per_cm2)

    # ---- the paper's closed-form approximations --------------------------

    def scenario1_cost(self, feature_size_um: float, design_density: float) -> float:
        """Eq. (8): C_tr = C'_w(λ)·d_d·λ² / A_w, in dollars.

        The Scenario-#1 approximation: 100% yield, dies tile the gross
        wafer area with no edge loss.  Used for Fig. 6.
        """
        require_positive("design_density", design_density)
        c_w = self.wafer_cost_dollars(feature_size_um)
        wafer_area_um2 = cm2_to_um2(self.wafer.area_cm2)
        return c_w * design_density \
            * (feature_size_um * feature_size_um) / wafer_area_um2

    def scenario2_cost(self, feature_size_um: float, design_density: float,
                       *, reference_yield: float = 0.7,
                       reference_area_cm2: float = 1.0,
                       die_area_cm2: float | None = None) -> float:
        """Eq. (9): eq. (8) divided by Y₀^(A_ch(λ)/A₀), in dollars.

        ``die_area_cm2`` defaults to the Fig.-3 trend
        ``16.5·exp(−5.3 λ)`` exactly as the paper uses for Fig. 7.
        """
        from ..technology.roadmap import die_area_trend_cm2
        area = die_area_trend_cm2(feature_size_um) if die_area_cm2 is None \
            else die_area_cm2
        require_positive("die_area_cm2", area)
        y = ReferenceAreaYield(reference_yield, reference_area_cm2) \
            .yield_for_die_area(area)
        return self.scenario1_cost(feature_size_um, design_density) / y

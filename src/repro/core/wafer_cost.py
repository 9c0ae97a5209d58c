"""Wafer cost model — eqs. (2) and (3) of the paper.

Eq. (3) models the "pure" manufacturing cost of a wafer as a function
of minimum feature size:

.. math:: C'_w(\\lambda) = C_0 \\cdot X^{g(\\lambda)}

where ``C_0`` is the cost of the reference wafer (the paper uses a
6-inch, 1 µm CMOS wafer, $500–800), ``X`` is the cost growth rate *per
technology generation* (Intel 1.6, Mitsubishi 1.6–2.4, Hitachi 1.5–2.0,
the [12] study 1.79, Fig. 2 extraction 1.2–1.4), and ``g(λ)`` counts
the technology generations between λ and the reference.

The supplied paper text prints the exponent as ``0.5(1−λ)``, which is
OCR-garbled — it cannot reproduce the paper's own Fig. 7 or Table 3
(see DESIGN.md, deviation 1).  Four generation-counting laws are
provided; ``GenerationModel.SHRINK_LOG`` (generations of 0.7× linear
shrink, the canonical definition) is the default and was selected by
calibration against all 17 Table-3 rows.

Eq. (2) adds the volume dependence:

.. math:: C_w(V) = C'_w + C_{over} / V

with ``C_over`` the fixed/overhead cost and V the manufacturing volume
(wafers over the amortization window).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

from ..errors import ParameterError
from ..units import require_at_least, require_nonnegative, require_positive


class GenerationModel(enum.Enum):
    """Laws for counting technology generations g(λ) from the reference λ₀.

    ``SHRINK_LOG``
        ``g = ln(λ₀/λ) / ln(1/s)`` with shrink factor s = 0.7 per
        generation — the canonical industry definition.  Default;
        calibrates best against Table 3 (mean |log error| 0.24).
    ``LINEAR``
        ``g = (λ₀ − λ) / 0.15`` — generations of the era were roughly
        0.15 µm apart linearly (1.0, 0.8, 0.65, 0.5, 0.35).
    ``INVERSE``
        ``g = 2(λ₀/λ − 1)`` — accelerating generation count; captures
        the paper's caveat that X may effectively grow as contamination
        control hits its limits.
    ``PRINTED``
        ``g = 0.5(1 − λ/λ₀)`` — the exponent exactly as printed in the
        supplied text.  Kept for comparison; demonstrably inconsistent
        with the paper's own results (see ``bench_ablations``).
    """

    SHRINK_LOG = "shrink-log"
    LINEAR = "linear"
    INVERSE = "inverse"
    PRINTED = "printed"

    def generations(self, feature_size_um: float, reference_um: float = 1.0,
                    *, shrink: float = 0.7,
                    linear_step_um: float = 0.15) -> float:
        """Evaluate g(λ); negative for λ coarser than the reference."""
        require_positive("feature_size_um", feature_size_um)
        require_positive("reference_um", reference_um)
        count, step = self._law(shrink, linear_step_um)
        return count(feature_size_um, reference_um, step)

    def _law(self, shrink: float, linear_step_um: float
             ) -> tuple[Callable[[float, float, float], float], float]:
        # g(λ) as ``count(λ, λ₀, step)``, with the law's constant
        # checked and worked out: ln(1/s) per SHRINK_LOG generation,
        # the LINEAR step, and 1.0 (unused) for the other two laws.
        if self is GenerationModel.SHRINK_LOG:
            if not 0.0 < shrink < 1.0:
                raise ParameterError(f"shrink must be in (0, 1), got {shrink}")
            return _shrink_log_count, math.log(1.0 / shrink)
        if self is GenerationModel.LINEAR:
            return _linear_count, require_positive("linear_step_um",
                                                   linear_step_um)
        if self is GenerationModel.INVERSE:
            return _inverse_count, 1.0
        if self is GenerationModel.PRINTED:
            return _printed_count, 1.0
        raise ParameterError(f"unknown generation model {self!r}")


# g(λ) under each law, on checked operands (GenerationModel._law).
# Module-level, so a model holding one in its memo still pickles to
# pool workers.

def _shrink_log_count(feature_size_um: float, reference_um: float,
                      step: float) -> float:
    return math.log(reference_um / feature_size_um) / step


def _linear_count(feature_size_um: float, reference_um: float,
                  step: float) -> float:
    return (reference_um - feature_size_um) / step


def _inverse_count(feature_size_um: float, reference_um: float,
                   step: float) -> float:
    return 2.0 * (reference_um / feature_size_um - 1.0)


def _printed_count(feature_size_um: float, reference_um: float,
                   step: float) -> float:
    return 0.5 * (1.0 - feature_size_um / reference_um)


@dataclass(frozen=True)
class WaferCostModel:
    """Eqs. (2) + (3): wafer cost versus feature size, volume, overhead.

    Parameters
    ----------
    reference_cost_dollars:
        C₀ — cost of the reference wafer.  The paper anchors $500–800
        for a 6-inch 1 µm CMOS wafer [12, 13] and $1300 for 0.8 µm with
        3 metal layers [14].
    cost_growth_rate:
        X — per-generation cost multiplier, ≥ 1.
    reference_feature_um:
        λ₀ — feature size whose wafer costs C₀ (1 µm in the paper).
    overhead_dollars:
        C_over — total fixed cost to amortize (R&D, management, NRE);
        the paper quotes $100k (ASIC) to $100M (µP) [14].
    generation_model:
        Law for g(λ); see :class:`GenerationModel`.
    shrink, linear_step_um:
        Tuning constants forwarded to the generation law.
    """

    reference_cost_dollars: float = 500.0
    cost_growth_rate: float = 1.8
    reference_feature_um: float = 1.0
    overhead_dollars: float = 0.0
    generation_model: GenerationModel = GenerationModel.SHRINK_LOG
    shrink: float = 0.7
    linear_step_um: float = 0.15

    def __post_init__(self) -> None:
        require_positive("reference_cost_dollars", self.reference_cost_dollars)
        require_at_least("cost_growth_rate", self.cost_growth_rate, 1.0)
        require_positive("reference_feature_um", self.reference_feature_um)
        require_nonnegative("overhead_dollars", self.overhead_dollars)

    def generations(self, feature_size_um: float) -> float:
        """g(λ) under this model's law and constants."""
        require_positive("feature_size_um", feature_size_um)
        # The law and its constant are checked and worked out once per
        # model, not per λ: the checks, ln(1/s) and the law's dispatch
        # (each enum member lookup ~0.1 µs) cost more than the rest of
        # a pure_cost call.  Memoized in ``__dict__`` (a frozen
        # dataclass still owns a plain instance dict); a bad constant
        # raises on every call, as nothing is stored then.
        law = self.__dict__.get("_law")
        if law is None:
            law = self.__dict__["_law"] = self.generation_model._law(
                self.shrink, self.linear_step_um)
        count, step = law
        return count(feature_size_um, self.reference_feature_um, step)

    def pure_cost(self, feature_size_um: float) -> float:
        """Eq. (3): C'_w(λ) = C₀ · X^g(λ), in dollars."""
        return self.reference_cost_dollars \
            * self.cost_growth_rate ** self.generations(feature_size_um)

    def cost_at_volume(self, feature_size_um: float, volume_wafers: float) -> float:
        """Eq. (2): C_w = C'_w + C_over / V, in dollars per wafer."""
        require_positive("volume_wafers", volume_wafers)
        return self.pure_cost(feature_size_um) \
            + self.overhead_dollars / volume_wafers

    def breakeven_volume(self, feature_size_um: float,
                         overhead_share: float = 0.5) -> float:
        """Volume at which overhead is the given share of total wafer cost.

        Answers the paper's Sec.-III.A.a concern quantitatively: below
        this volume, fixed costs dominate.  ``overhead_share`` in (0, 1).
        """
        if not 0.0 < overhead_share < 1.0:
            raise ParameterError(
                f"overhead_share must be in (0, 1), got {overhead_share}")
        if self.overhead_dollars == 0.0:
            return 0.0
        pure = self.pure_cost(feature_size_um)
        # C_over/V = share/(1-share) * C'_w  =>  V = C_over*(1-share)/(share*C'_w)
        return self.overhead_dollars * (1.0 - overhead_share) \
            / (overhead_share * pure)

    def with_growth_rate(self, cost_growth_rate: float) -> "WaferCostModel":
        """A copy of this model with a different X (for X-sweeps)."""
        return WaferCostModel(
            reference_cost_dollars=self.reference_cost_dollars,
            cost_growth_rate=cost_growth_rate,
            reference_feature_um=self.reference_feature_um,
            overhead_dollars=self.overhead_dollars,
            generation_model=self.generation_model,
            shrink=self.shrink,
            linear_step_um=self.linear_step_um)


#: Published estimates of X the paper collects in Sec. III.A.b.
PUBLISHED_X_ESTIMATES: dict[str, tuple[float, float]] = {
    "Intel [14]": (1.6, 1.6),
    "Mitsubishi [1]": (1.6, 2.4),
    "Hitachi [18]": (1.5, 2.0),
    "Maly-Jacobs-Kersch [12]": (1.79, 1.79),
    "Fig. 2 extraction": (1.2, 1.4),
}

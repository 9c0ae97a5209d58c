"""Critical-area analysis for spot defects.

The paper's Sec. III.C explains functional yield loss through disk-
shaped "extra material" / "missing material" defects: whether a defect
of radius R at a location causes a fault depends on the layout.  The
*critical area* A_c(R) is the area of locations where a radius-R defect
causes a fault; integrating it against the defect size density gives
the average critical area, and ``λ̄ = A_c_avg · D`` is the fault
expectation that feeds any :class:`~repro.yieldsim.models.YieldModel`.

We implement the canonical closed forms for the regular parallel-wire
pattern (width w, spacing s) that underlies the standard derivations
(Stapper; Maly's own ICCAD/Proc. IEEE work [25]):

* shorts (extra-material disk bridging two wires):
  zero for 2R < s; grows linearly toward the full pattern area.
* opens (missing-material disk severing one wire):
  zero for 2R < w; symmetric in w ↔ s.

These forms, combined with the Fig.-5 size distribution, *derive* the
``D/λ^p`` scaling that eq. (7) postulates — see
:func:`average_critical_area` and the integration test in
``tests/yieldsim/test_critical_area.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from ..units import require_positive
from .defects import DefectSizeDistribution


@dataclass(frozen=True)
class WirePattern:
    """A periodic parallel-wire layout region.

    Parameters
    ----------
    wire_width_um:
        Drawn wire width ``w`` in microns.
    wire_spacing_um:
        Gap ``s`` between adjacent wires in microns.
    area_cm2:
        Total area of the patterned region in cm².
    """

    wire_width_um: float
    wire_spacing_um: float
    area_cm2: float

    def __post_init__(self) -> None:
        require_positive("wire_width_um", self.wire_width_um)
        require_positive("wire_spacing_um", self.wire_spacing_um)
        require_positive("area_cm2", self.area_cm2)

    @property
    def pitch_um(self) -> float:
        """Wire pitch ``w + s`` in microns."""
        return self.wire_width_um + self.wire_spacing_um

    @classmethod
    def at_feature_size(cls, feature_size_um: float, area_cm2: float) -> "WirePattern":
        """Minimum-pitch pattern at feature size λ: width = spacing = λ."""
        return cls(wire_width_um=feature_size_um, wire_spacing_um=feature_size_um,
                   area_cm2=area_cm2)


def critical_area_short(pattern: WirePattern, defect_radius_um: float) -> float:
    """Critical area (cm²) for extra-material shorts at one defect radius.

    For a disk of diameter ``x = 2R`` over wires at pitch ``w + s``:
    no short is possible for ``x < s``; for ``s ≤ x < 2s + w`` the
    critical stripe per pitch is ``x − s`` wide; beyond that every
    location shorts at least one pair, and the per-pitch critical width
    saturates at the pitch (the fraction cannot exceed 1).
    """
    if defect_radius_um < 0:
        raise ParameterError("defect_radius_um must be >= 0")
    x = 2.0 * defect_radius_um
    s, pitch = pattern.wire_spacing_um, pattern.pitch_um
    if x <= s:
        return 0.0
    fraction = min((x - s) / pitch, 1.0)
    return fraction * pattern.area_cm2


def critical_area_open(pattern: WirePattern, defect_radius_um: float) -> float:
    """Critical area (cm²) for missing-material opens at one defect radius.

    Mirror image of :func:`critical_area_short` with the roles of wire
    width and spacing exchanged: a disk of diameter ``x`` severs a wire
    only when ``x > w``.
    """
    if defect_radius_um < 0:
        raise ParameterError("defect_radius_um must be >= 0")
    x = 2.0 * defect_radius_um
    w, pitch = pattern.wire_width_um, pattern.pitch_um
    if x <= w:
        return 0.0
    fraction = min((x - w) / pitch, 1.0)
    return fraction * pattern.area_cm2


def average_critical_area(pattern: WirePattern,
                          distribution: DefectSizeDistribution,
                          *, mechanism: str = "short",
                          max_radius_factor: float = 200.0) -> float:
    """Size-distribution-weighted critical area, in cm².

    .. math:: \\bar A_c = \\int_0^\\infty A_c(R)\\, f(R)\\, dR

    Multiplying by the physical defect density D (defects/cm²) gives the
    fault expectation for the pattern.  The integral is evaluated
    piecewise (the integrand has kinks at the onset radius and the
    saturation radius) with an analytic tail beyond
    ``max_radius_factor · R_0``, where the 1/R^p density makes the
    saturated contribution ``A_pattern · survival(R)``.
    """
    # Imported at the call, not at module level: loading scipy.integrate
    # costs every process that imports `repro` ~0.5 s and ~44 MiB, and
    # only this integral uses it.
    from scipy import integrate

    if mechanism == "short":
        onset = pattern.wire_spacing_um / 2.0
        area_fn = critical_area_short
    elif mechanism == "open":
        onset = pattern.wire_width_um / 2.0
        area_fn = critical_area_open
    else:
        raise ParameterError(f"unknown mechanism {mechanism!r}")

    saturation = onset + pattern.pitch_um / 2.0
    cutoff = max(max_radius_factor * distribution.r0_um, 4.0 * saturation)

    def integrand(r: float) -> float:
        return area_fn(pattern, r) * float(distribution.pdf(r))

    breakpoints = sorted({onset, distribution.r0_um, saturation, cutoff})
    total = 0.0
    lo = onset
    for hi in breakpoints:
        if hi <= lo:
            continue
        part, _err = integrate.quad(integrand, lo, hi, limit=200)
        total += part
        lo = hi
    # Analytic tail: above `cutoff` the critical area is the full pattern.
    total += pattern.area_cm2 * float(distribution.survival(cutoff))
    return total


def fault_expectation(pattern: WirePattern,
                      distribution: DefectSizeDistribution,
                      defect_density_per_cm2: float,
                      *, mechanisms: tuple[str, ...] = ("short", "open")) -> float:
    """Mean fault count for the pattern: ``sum_mech A_c_avg · D``.

    Assumes the same physical density for each mechanism (extra- and
    missing-material populations are typically tracked separately in a
    fab; pass a single mechanism and call twice for distinct densities).
    """
    require_positive("defect_density_per_cm2", defect_density_per_cm2)
    return sum(
        average_critical_area(pattern, distribution, mechanism=mech)
        for mech in mechanisms
    ) * defect_density_per_cm2


def effective_density_scaling_exponent(distribution: DefectSizeDistribution,
                                       area_cm2: float = 0.1,
                                       lam_low_um: float = 0.3,
                                       lam_high_um: float = 1.0) -> float:
    """Empirical exponent q in ``fault density ∝ 1/λ^q`` for minimum-pitch wires.

    Computes the average critical area of a minimum-pitch pattern at two
    feature sizes and returns the log-log slope of fault expectation vs
    λ.  For the Fig.-5 distribution with tail exponent p, substituting
    R = λu into the tail integral gives Ā_c ∝ λ^{1−p}, i.e. **q = p − 1**
    at fixed pattern area once both dimensions sit in the tail.  This is
    the layout-level origin of eq. (7)'s power-of-λ yield penalty; note
    the paper's ``D/λ^p`` substitution is one power of λ steeper than
    this minimum-pitch-wire derivation — it additionally folds in the
    shrink of the *defect population floor* with λ (contamination
    standards tighten each generation, Fig. 4), which this fixed-R₀
    model deliberately holds constant.
    """
    require_positive("lam_low_um", lam_low_um)
    require_positive("lam_high_um", lam_high_um)
    if lam_low_um >= lam_high_um:
        raise ParameterError("lam_low_um must be < lam_high_um")
    ac_low = sum(
        average_critical_area(WirePattern.at_feature_size(lam_low_um, area_cm2),
                              distribution, mechanism=m) for m in ("short", "open"))
    ac_high = sum(
        average_critical_area(WirePattern.at_feature_size(lam_high_um, area_cm2),
                              distribution, mechanism=m) for m in ("short", "open"))
    return math.log(ac_low / ac_high) / math.log(lam_high_um / lam_low_um)

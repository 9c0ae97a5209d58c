"""Functional yield models.

The paper's working model is the Poisson law (eq. 6)

.. math:: Y = \\exp(-A_{ch} D_0)

refined (eq. 7) by making the effective defect density feature-size
aware, ``D_0 \\to D / \\lambda^p``, and expressing the chip area through
eq. (5), giving

.. math:: Y = \\exp\\Big[-\\frac{N_{tr}\\, d_d\\, D}{\\lambda^{p-2}}\\Big]

with ``p`` experimentally in 4–5.  The classical alternatives (Murphy,
Seeds, Bose–Einstein, negative binomial) are implemented as baselines:
they all share the dimensionless *fault expectation* ``m = A·D_eff`` and
differ only in how defect clustering maps ``m`` to yield, so they are
expressed here as subclasses of a common :class:`YieldModel`.

The compound/hierarchical family (Bogdanov et al., "Statistical Yield
Modeling for IC Manufacture: Hierarchical Fault Distributions") builds
the clustered laws *constructively*: :class:`CompoundPoissonGamma`
mixes Poisson statistics over a mean-1 gamma density distribution
(recovering the negative binomial in closed form — a built-in
self-check), :class:`HierarchicalYieldModel` adds a second, lot-level
mixing stage on fixed Gauss–Laguerre nodes, and
:class:`MixtureYieldModel` combines any yield laws into a population
mixture.  All three keep the scalar-reference semantics that
:mod:`repro.batch.engine` replays bitwise (see
``docs/yield-models.md``).

Units: areas in cm², defect densities in defects/cm², ``lam`` (λ) in
microns.  The λ-scaling in :func:`scaled_poisson_yield` follows the
paper in treating ``D/λ^p`` as a numeric recipe with λ in microns — D's
units absorb the microns^p factor, exactly as in the paper's fitted
constants (D = 1.72, p = 4.07 for the Fig.-8 fab).
"""

from __future__ import annotations

import functools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

from ..errors import ParameterError
from ..units import require_fraction, require_nonnegative, require_positive

#: Yields below this make a design point economically infeasible: the
#: Fig.-8 (``transistor_cost_full``) and chiplet cost forms mask its
#: cost to ``inf``, in the scalar references and batch kernels alike.
YIELD_CUTOFF = 1e-250


class YieldModel(ABC):
    """A map from fault expectation ``m = A·D`` to functional yield.

    Subclasses implement :meth:`yield_from_expectation`; the convenience
    entry points :meth:`yield_for_area` and :meth:`fault_expectation`
    are shared.
    """

    @abstractmethod
    def yield_from_expectation(self, m: float) -> float:
        """Yield for a die with fault expectation ``m`` (dimensionless)."""

    def yield_for_area(self, area_cm2: float, defect_density_per_cm2: float) -> float:
        """Yield for a die of the given area under the given density."""
        m = self.fault_expectation(area_cm2, defect_density_per_cm2)
        return self.yield_from_expectation(m)

    @staticmethod
    def fault_expectation(area_cm2: float, defect_density_per_cm2: float) -> float:
        """The dimensionless mean fault count ``m = A·D``."""
        require_nonnegative("area_cm2", area_cm2)
        require_nonnegative("defect_density_per_cm2", defect_density_per_cm2)
        return area_cm2 * defect_density_per_cm2

    def defect_density_for_yield(self, area_cm2: float, target_yield: float,
                                 *, tol: float = 1e-12) -> float:
        """Invert the model: the defect density giving ``target_yield``.

        Solved by bisection on ``m`` (every model here is strictly
        decreasing in ``m``), then divided by area.  Used to answer the
        Fig.-4 question: what density does generation λ *require*?
        """
        require_positive("area_cm2", area_cm2)
        require_fraction("target_yield", target_yield, inclusive_low=False)
        if target_yield == 1.0:
            return 0.0
        lo, hi = 0.0, 1.0
        while self.yield_from_expectation(hi) > target_yield:
            hi *= 2.0
            if hi > 1e9:
                raise ParameterError(
                    f"target_yield={target_yield} unreachable under {self!r}")
        while hi - lo > tol * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            if self.yield_from_expectation(mid) > target_yield:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi) / area_cm2


@dataclass(frozen=True)
class PoissonYield(YieldModel):
    """Eq. (6): ``Y = exp(−m)``.  Defects land independently, any defect kills."""

    def yield_from_expectation(self, m: float) -> float:
        """Poisson: ``exp(−m)``."""
        require_nonnegative("m", m)
        return math.exp(-m)


@dataclass(frozen=True)
class MurphyYield(YieldModel):
    """Murphy's model: ``Y = ((1 − e^{−m}) / m)²``.

    Derived by compounding Poisson statistics over a symmetric-triangular
    distribution of die-to-die defect densities; the industry's most
    common "less pessimistic than Poisson" baseline.
    """

    def yield_from_expectation(self, m: float) -> float:
        """Murphy: ``((1 − e^{−m})/m)²``."""
        require_nonnegative("m", m)
        if m == 0.0:
            return 1.0
        # -expm1(-m) = 1 - exp(-m) computed without catastrophic
        # cancellation for small m (plain exp underflows to (1-1)/m = 0).
        return (-math.expm1(-m) / m) ** 2


@dataclass(frozen=True)
class SeedsYield(YieldModel):
    """Seeds' model: ``Y = 1 / (1 + m)``.

    Exponential distribution of densities; the most optimistic of the
    classical compound-Poisson family at large ``m``.
    """

    def yield_from_expectation(self, m: float) -> float:
        """Seeds: ``1/(1 + m)``."""
        require_nonnegative("m", m)
        return 1.0 / (1.0 + m)


@dataclass(frozen=True)
class BoseEinsteinYield(YieldModel):
    """Bose–Einstein model: ``Y = 1 / (1 + m)^n`` for ``n`` critical layers.

    Treats each of ``n`` process layers as an independent Seeds stage.
    """

    n_layers: int = 1

    def __post_init__(self) -> None:
        if self.n_layers < 1:
            raise ParameterError(f"n_layers must be >= 1, got {self.n_layers}")

    def yield_from_expectation(self, m: float) -> float:
        """Bose–Einstein: ``(1 + m/n)^{−n}``."""
        require_nonnegative("m", m)
        return (1.0 + m / self.n_layers) ** (-self.n_layers)


@dataclass(frozen=True)
class NegativeBinomialYield(YieldModel):
    """Stapper's negative-binomial model: ``Y = (1 + m/α)^{−α}``.

    ``alpha`` is the clustering parameter: α → ∞ recovers Poisson,
    α = 1 recovers Seeds.  The de-facto industry standard for clustered
    defects (typical fitted α between 0.3 and 5).
    """

    alpha: float = 2.0

    def __post_init__(self) -> None:
        require_positive("alpha", self.alpha)

    def yield_from_expectation(self, m: float) -> float:
        """Negative binomial: ``(1 + m/α)^{−α}``."""
        require_nonnegative("m", m)
        return (1.0 + m / self.alpha) ** (-self.alpha)


@functools.lru_cache(maxsize=None)
def _gamma_mixing_nodes(alpha: float, n_nodes: int
                        ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Discretize a mean-1 Gamma(α, 1/α) mixer on Gauss–Laguerre nodes.

    Substituting ``x = α·t`` turns the gamma expectation
    ``E[g(t)] = ∫ g(t)·t^{α−1} e^{−αt} α^α/Γ(α) dt`` into a generalized
    Gauss–Laguerre integral with weight ``x^{α−1} e^{−x}``, so the
    abscissas are ``t_i = x_i/α`` and the weights are the Laguerre
    weights normalized to sum to 1 (making the discrete mixer itself a
    probability distribution).  Computed by Golub–Welsch on the
    generalized-Laguerre Jacobi matrix with the measure's total mass
    set to 1 — unlike ``scipy.special.roots_genlaguerre``, whose
    weights carry a Γ(α+n) factor and overflow beyond α ≈ 170, this
    stays finite for any shape.  Returned as tuples of floats so the
    result is hashable and the scalar/batched evaluators consume the
    *same* cached node set — a precondition of the bitwise parity
    contract.
    """
    import numpy as np
    from scipy.linalg import eigh_tridiagonal

    a = alpha - 1.0
    k = np.arange(n_nodes, dtype=np.float64)
    diag = 2.0 * k + a + 1.0
    off = np.sqrt(k[1:] * (k[1:] + a))
    x, v = eigh_tridiagonal(diag, off)
    weights = [float(val) for val in v[0, :] ** 2]
    total = math.fsum(weights)
    weights = [val / total for val in weights]
    nodes = [float(val) / alpha for val in x]
    return tuple(nodes), tuple(weights)


@dataclass(frozen=True)
class CompoundPoissonGamma(YieldModel):
    """Compound Poisson–gamma yield with its NB equivalence built in.

    Die-level fault counts are Poisson with mean ``m·t`` where the
    density factor ``t`` is drawn per wafer from a mean-preserving
    Gamma(α, 1/α).  Integrating ``exp(−m·t)`` against that mixer gives
    the closed form ``Y = (1 + m/α)^{−α}`` — algebraically Stapper's
    :class:`NegativeBinomialYield`.  This class makes the *derivation*
    executable: :meth:`mixture_yield` evaluates the mixing integral by
    generalized Gauss–Laguerre quadrature and :meth:`self_check`
    asserts it matches the closed form, which is the built-in
    consistency check the two-level :class:`HierarchicalYieldModel`
    relies on (it reuses the same quadrature one level up).
    """

    alpha: float = 2.0

    def __post_init__(self) -> None:
        require_positive("alpha", self.alpha)

    def yield_from_expectation(self, m: float) -> float:
        """Closed form of the gamma mixture: ``(1 + m/α)^{−α}``."""
        require_nonnegative("m", m)
        return (1.0 + m / self.alpha) ** (-self.alpha)

    def negative_binomial_equivalent(self) -> NegativeBinomialYield:
        """The algebraically identical :class:`NegativeBinomialYield`."""
        return NegativeBinomialYield(alpha=self.alpha)

    def mixture_yield(self, m: float, *, n_nodes: int = 48) -> float:
        """The mixing integral ``E_t[exp(−m·t)]`` by quadrature.

        Converges to :meth:`yield_from_expectation` as ``n_nodes``
        grows; :meth:`self_check` pins the agreement.
        """
        require_nonnegative("m", m)
        nodes, weights = _gamma_mixing_nodes(float(self.alpha),
                                             int(n_nodes))
        total = 0.0
        for t, w in zip(nodes, weights):
            total += w * math.exp(-m * t)
        return total if total < 1.0 else 1.0

    def self_check(self, m_points: tuple[float, ...] | None = None,
                   *, n_nodes: int = 48, tol: float = 1e-9) -> float:
        """Assert quadrature == closed form; return the max |error|.

        Raises :class:`~repro.errors.ParameterError` when the
        gamma-mixture quadrature disagrees with the closed-form NB law
        beyond ``tol`` at any probe point — the numerical consistency
        guarantee for every consumer of the quadrature nodes.  The
        default probes span ``m/α`` from 0 to 4 — the mixer's natural
        scale, where the Gauss rule converges fast for *any* α (fixed
        absolute ``m`` probes would demand ever more nodes as α → 0).
        """
        if m_points is None:
            m_points = (0.0, 0.25 * self.alpha, self.alpha,
                        4.0 * self.alpha)
        worst = 0.0
        for m in m_points:
            err = abs(self.mixture_yield(m, n_nodes=n_nodes)
                      - self.yield_from_expectation(m))
            worst = max(worst, err)
        if not worst <= tol:
            raise ParameterError(
                f"CompoundPoissonGamma self-check failed: quadrature "
                f"deviates from the closed form by {worst:.3e} "
                f"(tol {tol:.1e}) at alpha={self.alpha}")
        return worst


@dataclass(frozen=True)
class HierarchicalYieldModel(YieldModel):
    """Two-level hierarchical compound yield (Bogdanov et al.).

    Die-level fault counts are Poisson; the wafer-level density is
    gamma-mixed with shape ``wafer_alpha`` (giving a negative binomial
    per wafer); the *lot-level* mean density is itself drawn from a
    mean-1 Gamma(``lot_alpha``, 1/``lot_alpha``) hyper-distribution.
    Integrating the per-wafer NB law over the lot factor ``t`` gives

    .. math:: Y(m) = E_t\\big[(1 + m t/β)^{−β}\\big],\\quad
              t \\sim Γ(α_{lot}, 1/α_{lot}),\\ β = α_{wafer}

    evaluated on the fixed generalized Gauss–Laguerre node set from
    :func:`_gamma_mixing_nodes` — the model is a deterministic pure
    function and hashable, with ``n_nodes`` part of its identity (two
    instances with different node counts are different models).  Both
    α → ∞ limits collapse to the single-level laws: ``lot_alpha → ∞``
    recovers NB(``wafer_alpha``); ``wafer_alpha → ∞`` recovers
    NB(``lot_alpha``).
    """

    lot_alpha: float = 2.0
    wafer_alpha: float = 2.0
    n_nodes: int = 32

    def __post_init__(self) -> None:
        require_positive("lot_alpha", self.lot_alpha)
        require_positive("wafer_alpha", self.wafer_alpha)
        if not isinstance(self.n_nodes, int) or isinstance(self.n_nodes, bool):
            raise ParameterError(
                f"n_nodes must be an int, got {self.n_nodes!r}")
        if not 2 <= self.n_nodes <= 512:
            raise ParameterError(
                f"n_nodes must be in [2, 512], got {self.n_nodes}")

    def mixing_nodes(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The (nodes, weights) lot-factor discretization, cached."""
        return _gamma_mixing_nodes(float(self.lot_alpha), self.n_nodes)

    def yield_from_expectation(self, m: float) -> float:
        """Lot-mixed NB: ``Σ_i w_i (1 + m t_i/β)^{−β}``.

        The node loop accumulates left-to-right; the batched kernel in
        :mod:`repro.batch.engine` replays exactly this operation order,
        which is what makes batched-vs-scalar evaluation bitwise
        identical.
        """
        require_nonnegative("m", m)
        if m == 0.0:
            return 1.0
        nodes, weights = self.mixing_nodes()
        beta = self.wafer_alpha
        total = 0.0
        for t, w in zip(nodes, weights):
            total += w * (1.0 + (m * t) / beta) ** (-beta)
        return total if total < 1.0 else 1.0


@dataclass(frozen=True)
class MixtureYieldModel(YieldModel):
    """A finite population mixture of yield laws.

    ``components`` is a sequence of ``(weight, model)`` pairs with
    positive weights summing to 1 (within 1e-9): the lot is modeled as
    coming from distinguishable sub-populations — e.g. a mostly-clean
    line with a clustered tail — and the pooled yield is the weighted
    average of the component yields.  Frozen and hashable whenever the
    component models are, so structurally equal mixtures coalesce in
    :mod:`repro.serve`.
    """

    components: tuple[tuple[float, YieldModel], ...] = ()

    def __post_init__(self) -> None:
        pairs = []
        for entry in self.components:
            try:
                weight, sub = entry
            except (TypeError, ValueError):
                raise ParameterError(
                    f"mixture components must be (weight, model) pairs, "
                    f"got {entry!r}") from None
            if not isinstance(sub, YieldModel):
                raise ParameterError(
                    f"mixture component {sub!r} is not a YieldModel")
            weight = float(weight)
            if not weight > 0.0:
                raise ParameterError(
                    f"mixture weights must be > 0, got {weight}")
            pairs.append((weight, sub))
        if not pairs:
            raise ParameterError(
                "MixtureYieldModel needs at least one component")
        total = math.fsum(w for w, _ in pairs)
        if abs(total - 1.0) > 1e-9:
            raise ParameterError(
                f"mixture weights must sum to 1, got {total!r}")
        object.__setattr__(self, "components", tuple(pairs))

    def yield_from_expectation(self, m: float) -> float:
        """Weighted average of component yields, in component order."""
        require_nonnegative("m", m)
        total = 0.0
        for w, sub in self.components:
            total += w * sub.yield_from_expectation(m)
        return total if total < 1.0 else 1.0


@dataclass(frozen=True)
class ReferenceAreaYield(YieldModel):
    """Scenario #2's empirical law: ``Y = Y_0^{A / A_0}`` (eq. 9 denominator).

    Mathematically a Poisson law with ``D = −ln(Y_0)/A_0``, but stated
    the way fabs quote it ("70% for a 1 cm² die").  The fault
    expectation convention is ``m = (A/A_0)·(−ln Y_0)`` so that the
    shared :meth:`YieldModel.yield_for_area` contract still holds when
    the caller supplies the implied density.
    """

    reference_yield: float = 0.7
    reference_area_cm2: float = 1.0

    def __post_init__(self) -> None:
        require_fraction("reference_yield", self.reference_yield,
                         inclusive_low=False)
        require_positive("reference_area_cm2", self.reference_area_cm2)

    @property
    def implied_defect_density_per_cm2(self) -> float:
        """The Poisson density equivalent to this (Y_0, A_0) pair."""
        return -math.log(self.reference_yield) / self.reference_area_cm2

    def yield_from_expectation(self, m: float) -> float:
        """Poisson form on the implied-density convention."""
        require_nonnegative("m", m)
        return math.exp(-m)

    def yield_for_die_area(self, area_cm2: float) -> float:
        """Direct form ``Y_0^{A/A_0}`` without going through a density."""
        require_nonnegative("area_cm2", area_cm2)
        return self.reference_yield ** (area_cm2 / self.reference_area_cm2)


def poisson_yield(area_cm2: float, defect_density_per_cm2: float) -> float:
    """Eq. (6) as a plain function: ``Y = exp(−A·D₀)``."""
    return PoissonYield().yield_for_area(area_cm2, defect_density_per_cm2)


def scaled_defect_density(defect_coefficient: float, feature_size_um: float,
                          p: float) -> float:
    """Eq. (7)'s defect density ``D₀ = D / λ^p`` in defects/cm².

    The float limits are taken as the batch kernels take them: a
    ``λ^p`` past the float range (λ above ~1e76 µm at p = 4.07) counts
    as ``inf``, so ``D₀`` is 0, where Python's ``**`` would raise
    :class:`OverflowError`; a ``λ^p`` that underflows to 0 (λ below
    ~4e-80 µm) gives ``D₀ = inf``, where Python's ``/`` would raise
    :class:`ZeroDivisionError`, except that a defect-free ``D = 0``
    stays 0 at every λ.
    """
    try:
        power = feature_size_um ** p
    except OverflowError:
        power = math.inf
    if power == 0.0:
        return math.inf if defect_coefficient else defect_coefficient
    return defect_coefficient / power


def scaled_poisson_yield(n_transistors: float, design_density: float,
                         defect_coefficient: float, feature_size_um: float,
                         p: float) -> float:
    """Eq. (7): ``Y = exp[−N_tr·d_d·D / λ^{p−2}]``.

    Parameters follow the paper: ``defect_coefficient`` is D (the
    λ-independent defect characterization constant; the fitted fab of
    Sec. IV.B has D = 1.72), ``p`` the defect size distribution exponent
    (experimentally 4–5), ``feature_size_um`` λ in microns.

    Units: eq. (7) substitutes ``A_ch = N_tr·d_d·λ²`` into eq. (6)'s
    ``exp(−A_ch·D₀)`` with ``D₀ = D/λ^p``.  A_ch·D₀ is dimensionless
    only if the area (µm² when λ is in µm) and the density are
    consistent; we take D in defects/cm² *referenced at λ = 1 µm*
    (i.e. ``D = D₀(λ)·λ^p`` with λ in microns), which makes the fitted
    D = 1.72 correspond to the plausible physical density D₀ ≈ 1.7/cm²
    at the 1 µm node and reproduces a Fig.-8 landscape with interior
    optima.  Hence the 1e-8 µm²→cm² factor below.
    """
    require_positive("n_transistors", n_transistors)
    require_positive("design_density", design_density)
    require_nonnegative("defect_coefficient", defect_coefficient)
    require_positive("feature_size_um", feature_size_um)
    require_positive("p", p)
    area_cm2 = n_transistors * design_density \
        * (feature_size_um * feature_size_um) * 1.0e-8
    d0_per_cm2 = scaled_defect_density(defect_coefficient, feature_size_um, p)
    exponent = area_cm2 * d0_per_cm2
    # Guard against underflow-to-zero surprising callers that divide by Y:
    # exp() underflows to 0.0 below ~-745; the caller-facing contract is a
    # positive float, so clamp at the smallest positive subnormal instead.
    if exponent > 700.0:
        return 5e-324
    return math.exp(-exponent)

"""Chiplet-era system cost — eq. (1) extended to multi-die assemblies.

The paper prices a monolithic die; the retrieved related work (Chiplet
Actuary, CATCH — see PAPERS.md) extends the same skeleton to systems
that partition ``N_tr`` across ``k`` smaller chiplets.  Smaller dies
pack better (eq. 4) and yield exponentially better (eq. 7), but the
assembly pays three new taxes:

* **known-good-die test** — every chiplet is wafer-probed at coverage
  ``c`` before bonding (:class:`~repro.manufacturing.test_cost.
  TestCostModel`); only the ``Y^c`` pass fraction is bonded, and by
  Williams–Brown (:func:`~repro.system.kgd.incoming_quality`) a passing
  die is actually good with probability ``q = Y^{1−c}``;
* **packaging** — a substrate/interposer priced per package, per die,
  and per cm² of bonded silicon (:class:`PackagingTech`);
* **bonding yield** — each join succeeds with probability
  ``bond_yield``, so the assembly works with ``(q·bond_yield)^k``
  (the MCM first-pass-yield law of :mod:`repro.system.mcm`).

:class:`ChipletCostModel.system_cost` composes those into a per-
transistor cost whose silicon term is *exactly* the eq.-(1)
association ``C_w / (N_ch · n_k · Y_eff)`` — with full probe coverage,
perfect bonding, and free packaging/test, ``k = 1`` reproduces
:func:`~repro.core.optimization.transistor_cost_full` **bit for bit**
(a golden test in ``tests/system/test_chiplet.py`` holds it there).
:func:`monolithic_crossover` searches for the transistor budget where
the k-chiplet build starts undercutting the monolithic one.

This scalar model is the parity reference for the vectorized
:func:`repro.batch.engine.chiplet_cost_batch` kernel, the
:class:`repro.batch.sweep.ChipletCrossoverSweep` landscape spec, and
the served :class:`repro.serve.ChipletCostQuery` — all of which must
replay this module's operation order exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..core.optimization import FIG8_FAB, FabCharacterization
from ..core.wafer_cost import WaferCostModel
from ..errors import ParameterError
from ..geometry import Die, Wafer, dies_per_wafer_maly
from ..manufacturing.test_cost import TestCostModel
from ..units import require_fraction, require_nonnegative, require_positive
from ..yieldsim.models import YIELD_CUTOFF, scaled_poisson_yield
from .kgd import incoming_quality

__all__ = [
    "PackagingTech",
    "ChipletCostBreakdown",
    "ChipletCostModel",
    "monolithic_crossover",
    "ORGANIC_SUBSTRATE",
    "SILICON_INTERPOSER",
    "BARE_ASSEMBLY",
    "PACKAGING_TECHS",
    "FREE_TEST",
]


@dataclass(frozen=True)
class PackagingTech:
    """One packaging/interposer technology for a k-chiplet assembly.

    The package is priced ``base + per_die·k + per_cm2·(k·A_chiplet)``
    and every one of the ``k`` die-attach joins succeeds independently
    with probability ``bond_yield``.
    """

    name: str
    base_cost_dollars: float
    cost_per_die_dollars: float
    cost_per_cm2_dollars: float
    bond_yield: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ParameterError("packaging tech needs a non-empty name")
        require_nonnegative("base_cost_dollars", self.base_cost_dollars)
        require_nonnegative("cost_per_die_dollars", self.cost_per_die_dollars)
        require_nonnegative("cost_per_cm2_dollars", self.cost_per_cm2_dollars)
        require_fraction("bond_yield", self.bond_yield, inclusive_low=False)

    def package_cost(self, chiplets: int, chiplet_area_cm2: float) -> float:
        """Package cost in dollars for ``chiplets`` dies of the given area."""
        require_positive("chiplet_area_cm2", chiplet_area_cm2)
        _require_chiplet_count(chiplets)
        return self.base_cost_dollars \
            + self.cost_per_die_dollars * chiplets \
            + self.cost_per_cm2_dollars * (chiplets * chiplet_area_cm2)


#: Cheap laminate: low package cost, visibly imperfect bonding.
ORGANIC_SUBSTRATE = PackagingTech(
    name="organic", base_cost_dollars=2.0, cost_per_die_dollars=0.40,
    cost_per_cm2_dollars=1.25, bond_yield=0.98)

#: Silicon interposer: expensive, near-perfect bonding.
SILICON_INTERPOSER = PackagingTech(
    name="interposer", base_cost_dollars=9.0, cost_per_die_dollars=0.80,
    cost_per_cm2_dollars=4.0, bond_yield=0.995)

#: Degenerate tech — free, perfect assembly.  With ``FREE_TEST`` and
#: full probe coverage it makes ``k = 1`` reproduce the monolithic
#: eq.-(1) cost bitwise (the golden degeneration).
BARE_ASSEMBLY = PackagingTech(
    name="bare", base_cost_dollars=0.0, cost_per_die_dollars=0.0,
    cost_per_cm2_dollars=0.0, bond_yield=1.0)

#: Canonical techs by name (the CLI/HTTP lookup table).
PACKAGING_TECHS = {t.name: t for t in (
    ORGANIC_SUBSTRATE, SILICON_INTERPOSER, BARE_ASSEMBLY)}

#: A tester that costs nothing per die — the other half of the
#: degenerate configuration behind the bitwise k=1 golden.
FREE_TEST = TestCostModel(
    tester_rate_dollars_per_hour=300.0,
    probe_base_seconds=0.0, probe_seconds_per_kilotransistor=0.0,
    final_base_seconds=0.0, final_seconds_per_kilotransistor=0.0)


def _require_chiplet_count(chiplets) -> int:
    if isinstance(chiplets, bool) or not isinstance(chiplets, int):
        raise ParameterError(
            f"chiplets must be an int, got {chiplets!r}")
    if chiplets < 1:
        raise ParameterError(f"chiplets must be >= 1, got {chiplets}")
    return chiplets


@dataclass(frozen=True)
class ChipletCostBreakdown:
    """Every intermediate of one :meth:`ChipletCostModel.system_cost`.

    Where the assembly is infeasible (a chiplet does not fit the wafer,
    or the effective yield underflows the economic cutoff) the three
    per-transistor cost fields are ``inf`` while the physical
    intermediates keep their computed values for auditing — the
    :class:`~repro.batch.engine.BatchCostResult` convention.
    """

    n_transistors: float
    feature_size_um: float
    chiplets: int
    transistors_per_chiplet: float
    chiplet_area_cm2: float
    wafer_cost_dollars: float
    dies_per_wafer: int
    die_yield: float
    assembly_yield: float
    effective_yield: float
    packaging_cost_dollars: float
    silicon_cost_per_transistor_dollars: float
    overhead_cost_per_transistor_dollars: float
    cost_per_transistor_dollars: float
    feasible: bool

    @property
    def cost_per_transistor_microdollars(self) -> float:
        """C_tr in the paper's Table-3 unit, $·10⁻⁶ (inf when masked)."""
        return self.cost_per_transistor_dollars * 1.0e6

    @property
    def system_cost_dollars(self) -> float:
        """Total cost of one good system (inf when infeasible)."""
        return self.cost_per_transistor_dollars * self.n_transistors


@dataclass(frozen=True)
class ChipletCostModel:
    """Scalar chiplet system cost — the parity reference.

    ``probe_coverage`` is the KGD wafer-probe fault coverage ``c`` in
    (0, 1]: the pass rate is ``Y^c`` (the classical approximation used
    by :class:`~repro.system.kgd.KgdEconomics`) and the incoming
    quality of a bonded die is ``Y^{1−c}`` (Williams–Brown).
    """

    fab: FabCharacterization = field(default_factory=lambda: FIG8_FAB)
    packaging: PackagingTech = field(
        default_factory=lambda: ORGANIC_SUBSTRATE)
    test: TestCostModel = field(default_factory=TestCostModel)
    probe_coverage: float = 0.95

    def __post_init__(self) -> None:
        if not isinstance(self.fab, FabCharacterization):
            raise ParameterError(
                f"fab must be a FabCharacterization, got {self.fab!r}")
        if not isinstance(self.packaging, PackagingTech):
            raise ParameterError(
                f"packaging must be a PackagingTech, got {self.packaging!r}")
        if not isinstance(self.test, TestCostModel):
            raise ParameterError(
                f"test must be a TestCostModel, got {self.test!r}")
        require_fraction("probe_coverage", self.probe_coverage,
                         inclusive_low=False)

    def system_cost(self, chiplets: int, n_transistors: float,
                    feature_size_um: float) -> ChipletCostBreakdown:
        """Price one ``(k, N_tr, λ)`` system, with every intermediate.

        The operation order here is the contract the batched kernel
        (:func:`repro.batch.engine.chiplet_cost_batch`) and the serve
        executor replay bit for bit — change it only together with
        them.  The silicon term keeps eq. (1)'s exact association
        ``C_w / (N_ch · n_k · Y_eff)`` so the ``k = 1`` degeneration
        stays bitwise.
        """
        k = _require_chiplet_count(chiplets)
        require_positive("n_transistors", n_transistors)
        require_positive("feature_size_um", feature_size_um)
        fab = self.fab
        n_k = n_transistors / k
        wafer = Wafer(radius_cm=fab.wafer_radius_cm)
        wafer_cost = WaferCostModel(
            reference_cost_dollars=fab.reference_cost_dollars,
            cost_growth_rate=fab.cost_growth_rate)
        die = Die.from_transistor_count(n_k, fab.design_density,
                                        feature_size_um)
        n_ch = dies_per_wafer_maly(wafer, die)
        y_die = scaled_poisson_yield(n_k, fab.design_density,
                                     fab.defect_coefficient,
                                     feature_size_um, fab.size_exponent_p)
        c_w = wafer_cost.pure_cost(feature_size_um)
        pass_rate = y_die ** self.probe_coverage
        q = incoming_quality(y_die, self.probe_coverage)
        y_asm = (q * self.packaging.bond_yield) ** k
        y_eff = pass_rate * y_asm
        area = die.area_cm2
        packaging_cost = self.packaging.base_cost_dollars \
            + self.packaging.cost_per_die_dollars * k \
            + self.packaging.cost_per_cm2_dollars * (k * area)
        feasible = n_ch >= 1 and y_eff >= YIELD_CUTOFF
        if feasible:
            silicon_tr = c_w / (n_ch * n_k * y_eff)
            overhead_total = k * (self.test.probe_cost(n_k) / pass_rate) \
                + packaging_cost + self.test.final_cost(n_transistors)
            overhead_tr = overhead_total / (y_asm * n_transistors)
            cost_tr = silicon_tr + overhead_tr
        else:
            silicon_tr = overhead_tr = cost_tr = math.inf
        return ChipletCostBreakdown(
            n_transistors=n_transistors,
            feature_size_um=feature_size_um,
            chiplets=k,
            transistors_per_chiplet=n_k,
            chiplet_area_cm2=area,
            wafer_cost_dollars=c_w,
            dies_per_wafer=n_ch,
            die_yield=y_die,
            assembly_yield=y_asm,
            effective_yield=y_eff,
            packaging_cost_dollars=packaging_cost,
            silicon_cost_per_transistor_dollars=silicon_tr,
            overhead_cost_per_transistor_dollars=overhead_tr,
            cost_per_transistor_dollars=cost_tr,
            feasible=feasible)

    def cost_per_transistor(self, chiplets: int, n_transistors: float,
                            feature_size_um: float) -> float:
        """C_tr in dollars for one ``(k, N_tr, λ)`` system (inf if
        infeasible) — the scalar-reference entry point of the serving
        parity contract."""
        return self.system_cost(
            chiplets, n_transistors,
            feature_size_um).cost_per_transistor_dollars


def monolithic_crossover(model: ChipletCostModel, feature_size_um: float,
                         chiplets: int = 4, *,
                         n_lo: float = 1e5, n_hi: float = 1e9,
                         scan_points: int = 96,
                         rel_tol: float = 1e-9,
                         max_iters: int = 200) -> float | None:
    """Smallest transistor budget where ``chiplets`` dies beat one.

    Scans a geometric grid of ``scan_points`` budgets over
    ``[n_lo, n_hi]`` at fixed λ for the first one where
    ``cost(k, N) < cost(1, N)`` (a budget where *both* builds are
    infeasible never counts as a win), then refines the bracket by
    geometric bisection to relative tolerance ``rel_tol``.  Returns
    ``n_lo`` if the chiplet build already wins there and ``None`` if
    it never wins on the grid (e.g. packaging overhead dominates for
    every budget in range).  The eq.-(4) floor makes the indicator
    locally noisy; the returned value is the scan's first
    monolithic→chiplet transition, which is what the crossover
    landscape plots.
    """
    k = _require_chiplet_count(chiplets)
    if k < 2:
        raise ParameterError(
            f"crossover needs chiplets >= 2, got {k}")
    require_positive("n_lo", n_lo)
    require_positive("n_hi", n_hi)
    if n_hi <= n_lo:
        raise ParameterError(
            f"need n_hi > n_lo, got [{n_lo}, {n_hi}]")
    if scan_points < 2:
        raise ParameterError(
            f"scan_points must be >= 2, got {scan_points}")

    def chiplet_wins(n: float) -> bool:
        return model.cost_per_transistor(k, n, feature_size_um) \
            < model.cost_per_transistor(1, n, feature_size_um)

    if chiplet_wins(n_lo):
        return n_lo
    ratio = (n_hi / n_lo) ** (1.0 / (scan_points - 1))
    lo, hi = n_lo, None
    probe = n_lo
    for _ in range(scan_points - 1):
        probe = min(probe * ratio, n_hi)
        if chiplet_wins(probe):
            hi = probe
            break
        lo = probe
    if hi is None:
        return None
    for _ in range(max_iters):
        mid = math.sqrt(lo * hi)
        if chiplet_wins(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo <= rel_tol * hi:
            break
    return hi

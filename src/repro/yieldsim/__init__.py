"""Yield modeling: eqs. (6)–(7) of the paper plus the classical baselines.

The paper factors yield as ``Y = Y_fnc · Y_par`` — functional yield from
spot defects times parametric yield from global process disturbances —
and focuses on Y_fnc via a feature-size-aware Poisson model.  This
package implements:

* :mod:`~repro.yieldsim.models` — Poisson (eqs. 6 and 7), Murphy, Seeds,
  Bose–Einstein, negative-binomial, and the Scenario-#2 reference-area
  law ``Y_0^{A/A_0}``.
* :mod:`~repro.yieldsim.defects` — the Fig.-5 defect size distribution
  (uniform core, ``1/R^p`` tail) with sampling and moments.
* :mod:`~repro.yieldsim.critical_area` — analytic critical areas for
  shorts and opens in parallel-wire layouts.
* :mod:`~repro.yieldsim.monte_carlo` — a spot-defect wafer-map simulator
  used to cross-validate the closed forms.
* :mod:`~repro.yieldsim.parallel` — process-sharded Monte Carlo lots on
  ``SeedSequence.spawn`` child streams (bitwise independent of worker
  count), with the :class:`~repro.yieldsim.parallel.LotResult` container;
  the shards run on :mod:`repro.pool`.
* :mod:`~repro.yieldsim.selection` — maximum-likelihood fits of every
  closed-form law to simulated lots with AIC/BIC model ranking.
* :mod:`~repro.yieldsim.redundancy` — row/column spare repair for
  memories (Scenario #1's "appropriately designed redundant components").
* :mod:`~repro.yieldsim.parametric` — Gaussian parametric yield.
"""

from .models import (
    BoseEinsteinYield,
    CompoundPoissonGamma,
    HierarchicalYieldModel,
    MixtureYieldModel,
    MurphyYield,
    NegativeBinomialYield,
    PoissonYield,
    ReferenceAreaYield,
    SeedsYield,
    YieldModel,
    poisson_yield,
    scaled_poisson_yield,
)
from .defects import DefectSizeDistribution
from .critical_area import (
    critical_area_open,
    critical_area_short,
    average_critical_area,
    WirePattern,
)
from ..pool import ParallelExecutionWarning
from .monte_carlo import SpotDefectSimulator, WaferMap
from .parallel import LotResult, simulate_lot_sharded, spawn_wafer_seeds
from .redundancy import RedundantMemoryYield
from .parametric import ParametricYield, CompositeYield
from .learning import RampEconomics, YieldLearningCurve
from .spatial import (
    RadialDefectProfile,
    simulate_radial_lot,
    wafer_size_penalty,
)
from .budget import (
    LayerAllocation,
    LayerDefectivity,
    allocate_cleaning,
    plan_for_yield,
    required_total_density,
)
from .selection import (
    DEFAULT_LAWS,
    FittedYieldLaw,
    ModelSelectionReport,
    fit_yield_models,
)
from .estimation import (
    FitReport,
    clustering_detected,
    estimate_clustering_alpha,
    estimate_density_from_yield,
    estimate_density_poisson,
    fit_lot,
    pooled_window_method,
    window_method,
)

__all__ = [
    "YieldModel",
    "PoissonYield",
    "MurphyYield",
    "SeedsYield",
    "BoseEinsteinYield",
    "NegativeBinomialYield",
    "CompoundPoissonGamma",
    "HierarchicalYieldModel",
    "MixtureYieldModel",
    "ReferenceAreaYield",
    "poisson_yield",
    "scaled_poisson_yield",
    "DefectSizeDistribution",
    "WirePattern",
    "critical_area_short",
    "critical_area_open",
    "average_critical_area",
    "SpotDefectSimulator",
    "WaferMap",
    "LotResult",
    "ParallelExecutionWarning",
    "simulate_lot_sharded",
    "spawn_wafer_seeds",
    "RedundantMemoryYield",
    "ParametricYield",
    "CompositeYield",
    "YieldLearningCurve",
    "RampEconomics",
    "FitReport",
    "fit_lot",
    "estimate_density_poisson",
    "estimate_density_from_yield",
    "estimate_clustering_alpha",
    "window_method",
    "pooled_window_method",
    "clustering_detected",
    "DEFAULT_LAWS",
    "FittedYieldLaw",
    "ModelSelectionReport",
    "fit_yield_models",
    "LayerDefectivity",
    "LayerAllocation",
    "allocate_cleaning",
    "required_total_density",
    "plan_for_yield",
    "RadialDefectProfile",
    "wafer_size_penalty",
    "simulate_radial_lot",
]

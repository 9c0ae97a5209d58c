"""repro — reproduction of Maly, *Cost of Silicon Viewed from VLSI
Design Perspective* (DAC 1994).

An analytical library for IC manufacturing cost: wafer cost versus
feature size (eq. 3), dies-per-wafer geometry (eq. 4), design density
(eq. 5), functional yield with defect-size awareness (eqs. 6–7), and
their composition into cost per transistor (eqs. 1, 8, 9) — plus the
manufacturing-economics and system-level substrates the paper's
discussion rests on (product mix, test cost, MCM/KGD, partitioning).

Quick start::

    from repro import TransistorCostModel, WaferCostModel, Wafer

    model = TransistorCostModel(
        wafer_cost=WaferCostModel(reference_cost_dollars=700.0,
                                  cost_growth_rate=1.8),
        wafer=Wafer(radius_cm=7.5))
    result = model.evaluate(n_transistors=3.1e6, feature_size_um=0.8,
                            design_density=150.0, yield_value=0.7)
    print(result.cost_per_transistor_microdollars)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from .errors import (
    CapacityError,
    ConvergenceError,
    GeometryError,
    ParameterError,
    ReproError,
)
from .geometry import Die, Wafer, dies_per_wafer_maly
from .yieldsim import (
    BoseEinsteinYield,
    CompoundPoissonGamma,
    DefectSizeDistribution,
    FittedYieldLaw,
    HierarchicalYieldModel,
    LotResult,
    MixtureYieldModel,
    ModelSelectionReport,
    MurphyYield,
    NegativeBinomialYield,
    ParametricYield,
    PoissonYield,
    RedundantMemoryYield,
    ReferenceAreaYield,
    SeedsYield,
    SpotDefectSimulator,
    fit_yield_models,
    poisson_yield,
    scaled_poisson_yield,
)
from .core import (
    SCENARIO_1,
    SCENARIO_2,
    CostBreakdown,
    CostLandscape,
    FIG8_FAB,
    GenerationModel,
    Scenario,
    TransistorCostModel,
    WaferCostModel,
    evaluate_catalog,
    evaluate_product,
    optimal_feature_size,
    optimal_feature_size_for_die_area,
)
from .technology import (
    PRODUCT_CATALOG,
    ProductClass,
    ProductSpec,
    TechnologyRoadmap,
)
from .batch import (
    BatchCache,
    BatchCostResult,
    cross_validate_model_suite,
    cross_validate_yield_batch,
    default_cache,
    dies_per_wafer_batch,
    evaluate_batch,
    scaled_poisson_yield_batch,
    transistor_cost_batch,
    wafer_cost_batch,
)
from . import obs
from .obs import get_trace, metrics, span
from . import serve
from .serve import (
    AsyncCostService,
    CostService,
    CostTicket,
    FabCostQuery,
    MicroBatchScheduler,
    ModelCostQuery,
    ServedCost,
)
from . import replay
from .replay import replay_log

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "ParameterError",
    "GeometryError",
    "ConvergenceError",
    "CapacityError",
    "Die",
    "Wafer",
    "dies_per_wafer_maly",
    "PoissonYield",
    "MurphyYield",
    "SeedsYield",
    "BoseEinsteinYield",
    "NegativeBinomialYield",
    "CompoundPoissonGamma",
    "HierarchicalYieldModel",
    "MixtureYieldModel",
    "ReferenceAreaYield",
    "RedundantMemoryYield",
    "ParametricYield",
    "SpotDefectSimulator",
    "LotResult",
    "DefectSizeDistribution",
    "poisson_yield",
    "scaled_poisson_yield",
    "fit_yield_models",
    "FittedYieldLaw",
    "ModelSelectionReport",
    "GenerationModel",
    "WaferCostModel",
    "TransistorCostModel",
    "CostBreakdown",
    "Scenario",
    "SCENARIO_1",
    "SCENARIO_2",
    "CostLandscape",
    "FIG8_FAB",
    "optimal_feature_size",
    "optimal_feature_size_for_die_area",
    "evaluate_product",
    "evaluate_catalog",
    "ProductClass",
    "ProductSpec",
    "PRODUCT_CATALOG",
    "TechnologyRoadmap",
    "BatchCache",
    "BatchCostResult",
    "default_cache",
    "cross_validate_yield_batch",
    "cross_validate_model_suite",
    "dies_per_wafer_batch",
    "evaluate_batch",
    "scaled_poisson_yield_batch",
    "transistor_cost_batch",
    "wafer_cost_batch",
    "obs",
    "span",
    "metrics",
    "get_trace",
    "serve",
    "AsyncCostService",
    "CostService",
    "CostTicket",
    "FabCostQuery",
    "MicroBatchScheduler",
    "ModelCostQuery",
    "ServedCost",
    "replay",
    "replay_log",
    "__version__",
]

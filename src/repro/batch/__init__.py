"""repro.batch — the NumPy-vectorized batch-evaluation engine.

The scalar models in :mod:`repro.core`, :mod:`repro.geometry` and
:mod:`repro.yieldsim` are the reference semantics; this subsystem
evaluates them over arrays of (λ, N_tr, die geometry) in one pass and
is what the sweep-shaped consumers (the Fig.-8 landscape, the scenario
curves, the geometry optimizers, the Monte Carlo lot simulator) run on.

Entry points:

* :func:`transistor_cost_batch` — eq. (1) for the Fig.-8 fab form,
* :func:`evaluate_batch` — eq. (1) for any
  :class:`~repro.core.transistor_cost.TransistorCostModel`,
* :func:`scenario1_cost_batch` / :func:`scenario2_cost_batch` —
  eqs. (8)/(9),
* the substrate kernels ``wafer_cost_batch`` (eq. 3),
  ``dies_per_wafer_batch`` (eq. 4), ``transistors_per_die_batch``
  (eq. 5), ``poisson_yield_batch`` / ``scaled_poisson_yield_batch`` /
  ``yield_for_area_batch`` (eqs. 6–7),
* :func:`~repro.batch.cache.default_cache` — the process's one keyed
  memoization layer, which every kernel call above shares,
* :func:`~repro.batch.crossval.cross_validate_yield_batch` — the
  closed-form-vs-Monte-Carlo consumer: one density sweep through the
  batched yield kernels and through process-sharded simulator lots
  (``workers=`` forwards to :mod:`repro.yieldsim.parallel`),
* :class:`~repro.batch.sweep.TiledSweepRunner` — million-point tiled
  mega-sweeps, in-process or on the process pool of :mod:`repro.pool`
  (shared with the sharded Monte Carlo lots), with checkpoint/resume
  (see :mod:`repro.batch.sweep`).

See ``docs/performance.md`` for the parity contract and measured
speedups.
"""

from .cache import array_fingerprint, default_cache
from .crossval import (
    ModelValidationRow,
    YieldCrossValidation,
    cross_validate_model_suite,
    cross_validate_yield_batch,
)
from .engine import (
    BatchCostResult,
    ChipletBatchResult,
    chiplet_cost_batch,
    dies_per_wafer_batch,
    evaluate_batch,
    poisson_yield_batch,
    scaled_poisson_yield_batch,
    scenario1_cost_batch,
    scenario2_cost_batch,
    transistor_cost_batch,
    transistors_per_die_batch,
    wafer_cost_batch,
    yield_for_area_batch,
    yield_from_expectation_batch,
)
from .sweep import (
    ChipletCrossoverSweep,
    DieAreaCostSweep,
    FabCostSweep,
    ScenarioSweep,
    SweepPlan,
    SweepResult,
    Tile,
    TiledSweepRunner,
)

__all__ = [
    "array_fingerprint",
    "default_cache",
    "BatchCostResult",
    "wafer_cost_batch",
    "dies_per_wafer_batch",
    "transistors_per_die_batch",
    "poisson_yield_batch",
    "scaled_poisson_yield_batch",
    "yield_for_area_batch",
    "yield_from_expectation_batch",
    "transistor_cost_batch",
    "ChipletBatchResult",
    "chiplet_cost_batch",
    "evaluate_batch",
    "scenario1_cost_batch",
    "scenario2_cost_batch",
    "YieldCrossValidation",
    "cross_validate_yield_batch",
    "ModelValidationRow",
    "cross_validate_model_suite",
    "ChipletCrossoverSweep",
    "DieAreaCostSweep",
    "FabCostSweep",
    "ScenarioSweep",
    "SweepPlan",
    "SweepResult",
    "Tile",
    "TiledSweepRunner",
]

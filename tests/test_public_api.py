"""Public API surface: exports resolve, and everything is documented.

Deliverable-level guarantees: every name in every ``__all__`` exists,
every public class/function/method carries a docstring, and the
top-level package re-exports the advertised core objects.
"""

import inspect
import importlib

import pytest

import repro

SUBPACKAGES = [
    "repro",
    "repro.core",
    "repro.geometry",
    "repro.yieldsim",
    "repro.technology",
    "repro.manufacturing",
    "repro.system",
    "repro.analysis",
    "repro.batch",
    "repro.obs",
    "repro.serve",
    "repro.replay",
]

MODULES = [
    "repro.units",
    "repro.errors",
    "repro.cli",
    "repro.core.wafer_cost",
    "repro.core.transistor_cost",
    "repro.core.scenarios",
    "repro.core.optimization",
    "repro.core.diversity",
    "repro.core.sensitivity",
    "repro.core.trajectory",
    "repro.core.pricing",
    "repro.core.shrink",
    "repro.geometry.die",
    "repro.geometry.wafer",
    "repro.geometry.packing",
    "repro.yieldsim.models",
    "repro.yieldsim.defects",
    "repro.yieldsim.critical_area",
    "repro.yieldsim.monte_carlo",
    "repro.yieldsim.parallel",
    "repro.yieldsim.redundancy",
    "repro.yieldsim.parametric",
    "repro.yieldsim.learning",
    "repro.yieldsim.estimation",
    "repro.yieldsim.budget",
    "repro.yieldsim.spatial",
    "repro.yieldsim.selection",
    "repro.batch.engine",
    "repro.batch.cache",
    "repro.batch.crossval",
    "repro.obs.state",
    "repro.obs.trace",
    "repro.obs.registry",
    "repro.obs.capture",
    "repro.obs.recording",
    "repro.serve.query",
    "repro.serve.executor",
    "repro.serve.scheduler",
    "repro.serve.service",
    "repro.serve.aio",
    "repro.serve.io",
    "repro.serve.backend",
    "repro.replay.engine",
    "repro.replay.rundir",
    "repro.technology.roadmap",
    "repro.technology.fabline",
    "repro.technology.density",
    "repro.technology.products",
    "repro.technology.sia_roadmap",
    "repro.technology.scaling",
    "repro.manufacturing.volume",
    "repro.manufacturing.equipment",
    "repro.manufacturing.product_mix",
    "repro.manufacturing.test_cost",
    "repro.manufacturing.cost_of_ownership",
    "repro.manufacturing.throughput",
    "repro.manufacturing.investment",
    "repro.system.partitioning",
    "repro.system.mcm",
    "repro.system.kgd",
    "repro.system.cosynthesis",
    "repro.analysis.figures",
    "repro.analysis.tables",
    "repro.analysis.report",
    "repro.analysis.wafermap",
    "repro.analysis.reproduce",
]


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} has no __all__"
    for export in module.__all__:
        assert hasattr(module, export), f"{name}.{export} missing"


@pytest.mark.parametrize("name", MODULES)
def test_module_importable_and_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__ and len(module.__doc__.strip()) > 20, \
        f"{name} lacks a module docstring"


def _public_members(module):
    for attr_name in dir(module):
        if attr_name.startswith("_"):
            continue
        obj = getattr(module, attr_name)
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-exports are documented at their home
        if inspect.isclass(obj) or inspect.isfunction(obj):
            yield attr_name, obj


@pytest.mark.parametrize("name", MODULES)
def test_every_public_item_has_docstring(name):
    module = importlib.import_module(name)
    undocumented = []
    for attr_name, obj in _public_members(module):
        if not (obj.__doc__ and obj.__doc__.strip()):
            undocumented.append(attr_name)
        if inspect.isclass(obj):
            for meth_name, meth in inspect.getmembers(obj,
                                                      inspect.isfunction):
                if meth_name.startswith("_"):
                    continue
                if meth.__qualname__.split(".")[0] != obj.__name__:
                    continue  # inherited
                if not (meth.__doc__ and meth.__doc__.strip()):
                    undocumented.append(f"{attr_name}.{meth_name}")
    assert not undocumented, f"{name}: undocumented public items: " \
                             f"{undocumented}"


def test_top_level_reexports():
    for name in ("TransistorCostModel", "WaferCostModel", "Wafer", "Die",
                 "PoissonYield", "SCENARIO_1", "SCENARIO_2",
                 "CompoundPoissonGamma", "HierarchicalYieldModel",
                 "MixtureYieldModel", "fit_yield_models",
                 "FittedYieldLaw", "ModelSelectionReport",
                 "evaluate_catalog", "GenerationModel", "LotResult",
                 "cross_validate_yield_batch",
                 "cross_validate_model_suite",
                 "obs", "span", "metrics", "get_trace",
                 "serve", "CostService", "AsyncCostService",
                 "FabCostQuery", "ModelCostQuery", "ServedCost",
                 "replay", "replay_log"):
        assert hasattr(repro, name)


def test_version_string():
    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(p.isdigit() for p in parts)

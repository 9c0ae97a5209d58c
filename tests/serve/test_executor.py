"""The executor's small-group path: the scalar references themselves.

A fab or model group of at most ``SCALAR_MAX_POINTS`` unique points is
priced point by point through its kind's scalar reference, and
``chiplet_cost_batch`` does the same for small batches; larger groups
stay on the vectorized kernels.  Every served field must be identical
either way — infeasible points and every model yield form included —
and the routing itself is pinned: small groups never reach the eq.-(4)
kernel, larger ones do.
"""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.engine import SCALAR_MAX_POINTS, chiplet_cost_batch
from repro.core.optimization import (
    FIG8_FAB,
    FabCharacterization,
    transistor_cost_breakdown,
    transistor_cost_full,
)
from repro.core.transistor_cost import TransistorCostModel
from repro.core.wafer_cost import WaferCostModel
from repro.errors import ParameterError
from repro.geometry import Die, Wafer, dies_per_wafer_maly
from repro.serve import ChipletCostQuery, FabCostQuery, ModelCostQuery
from repro.serve import executor
from repro.serve.backend import ThreadBackend
from repro.serve.executor import execute_group
from repro.system.chiplet import (
    ORGANIC_SUBSTRATE,
    SILICON_INTERPOSER,
    ChipletCostModel,
)
from repro.yieldsim import PoissonYield, ReferenceAreaYield, SeedsYield
from repro.yieldsim.models import YIELD_CUTOFF, scaled_poisson_yield

K = SCALAR_MAX_POINTS

ntr_strategy = st.floats(min_value=3.0, max_value=11.0).map(
    lambda e: 10.0 ** e)
lam_strategy = st.floats(min_value=0.1, max_value=3.0)
#: More than K unique points; a prefix of 1..K of them is the small group.
points_strategy = st.lists(st.tuples(ntr_strategy, lam_strategy),
                           min_size=K + 1, max_size=K + 6,
                           unique=True)
small_strategy = st.integers(min_value=1, max_value=K)


class _UnhashableSeeds(SeedsYield):
    """A custom law the service can only coalesce by identity."""

    __hash__ = None  # type: ignore[assignment]


def _bits(served) -> tuple:
    # Bitwise: floats by their hex form (tells -0.0 from 0.0), the
    # die count and feasibility flag as they are.
    return tuple(v.hex() if isinstance(v, float) else v
                 for v in (getattr(served, f.name) for f in fields(served)))


def _assert_small_equals_large(exemplar, points, k):
    small = execute_group(exemplar, points[:k], cache=None)
    large = execute_group(exemplar, points, cache=None)
    for slot in range(k):
        assert _bits(small.served(slot)) == _bits(large.served(slot))


def _model(radius=7.5, edge=0.0, volume=None):
    return TransistorCostModel(
        wafer_cost=WaferCostModel(reference_cost_dollars=500.0,
                                  cost_growth_rate=1.8),
        wafer=Wafer(radius_cm=radius, edge_exclusion_cm=edge),
        volume_wafers=volume)


def _yield_spec(form, value, density):
    if form == "value":
        return dict(yield_value=value)
    if form == "refarea":
        return dict(yield_model=ReferenceAreaYield(
            reference_yield=value, reference_area_cm2=1.0))
    law = PoissonYield() if form == "poisson" else _UnhashableSeeds()
    return dict(yield_model=law, defect_density_per_cm2=density)


class TestSmallGroupMatchesKernels:
    @settings(max_examples=40, deadline=None)
    @given(points=points_strategy, k=small_strategy,
           growth=st.floats(min_value=1.05, max_value=2.5),
           density=st.floats(min_value=10.0, max_value=400.0),
           defect=st.floats(min_value=0.1, max_value=5.0),
           p=st.floats(min_value=3.0, max_value=5.0),
           radius=st.floats(min_value=2.0, max_value=16.0))
    def test_fab(self, points, k, growth, density, defect, p, radius):
        fab = FabCharacterization(
            cost_growth_rate=growth, wafer_radius_cm=radius,
            design_density=density, defect_coefficient=defect,
            size_exponent_p=p)
        _assert_small_equals_large(FabCostQuery(1e6, 0.8, fab=fab),
                                   points, k)

    @settings(max_examples=60, deadline=None)
    @given(points=points_strategy, k=small_strategy,
           form=st.sampled_from(["value", "refarea", "poisson",
                                 "custom"]),
           value=st.floats(min_value=0.01, max_value=1.0),
           defect_density=st.floats(min_value=0.01, max_value=1000.0),
           design_density=st.floats(min_value=10.0, max_value=400.0),
           aspect=st.floats(min_value=0.3, max_value=3.0),
           radius=st.floats(min_value=2.0, max_value=16.0),
           edge=st.floats(min_value=0.0, max_value=1.0),
           volume=st.none() | st.floats(min_value=1e3, max_value=1e5))
    def test_model(self, points, k, form, value, defect_density,
                   design_density, aspect, radius, edge, volume):
        exemplar = ModelCostQuery(
            1e6, 0.8, model=_model(radius, edge, volume),
            design_density=design_density, aspect_ratio=aspect,
            **_yield_spec(form, value, defect_density))
        _assert_small_equals_large(exemplar, points, k)

    @settings(max_examples=40, deadline=None)
    @given(points=points_strategy, k=small_strategy,
           chiplets=st.integers(min_value=1, max_value=8),
           coverage=st.floats(min_value=0.5, max_value=1.0),
           use_interposer=st.booleans())
    def test_chiplet(self, points, k, chiplets, coverage, use_interposer):
        model = ChipletCostModel(
            packaging=SILICON_INTERPOSER if use_interposer
            else ORGANIC_SUBSTRATE, probe_coverage=coverage)
        _assert_small_equals_large(
            ChipletCostQuery(1e6, 0.8, chiplets=chiplets, model=model),
            points, k)


#: Feasible padding that lifts a group above K points.
_PADDING = [(1e5 * (i + 1), 0.35 + 0.1 * i) for i in range(K)]


class TestInfeasiblePoints:
    """Each masking rule on both paths, with its cause asserted."""

    def test_fab_die_wider_than_wafer(self):
        point = (1e9, 1.0)  # 1,520 cm2 against a 7.5 cm wafer
        assert transistor_cost_breakdown(*point).dies_per_wafer == 0
        _assert_small_equals_large(FabCostQuery(*point),
                                   [point] + _PADDING, 1)

    def test_fab_yield_exponent_above_700(self):
        point = (1e8, 0.5)  # 38 cm2 fits; exponent ~1,100
        breakdown = transistor_cost_breakdown(*point)
        assert breakdown.dies_per_wafer >= 1
        assert breakdown.yield_value == 5e-324
        assert not breakdown.feasible
        _assert_small_equals_large(FabCostQuery(*point),
                                   [point] + _PADDING, 1)

    def test_chiplet_effective_yield_under_cutoff(self):
        point = (5e8, 0.5)  # four 48 cm2 chiplets fit; yield underflows
        model = ChipletCostModel()
        breakdown = model.system_cost(4, *point)
        assert breakdown.dies_per_wafer >= 1
        assert breakdown.effective_yield < YIELD_CUTOFF
        assert not breakdown.feasible
        _assert_small_equals_large(
            ChipletCostQuery(*point, chiplets=4, model=model),
            [point] + _PADDING, 1)

    def test_chiplet_wider_than_wafer(self):
        point = (1e10, 1.0)
        assert ChipletCostModel().system_cost(1, *point).dies_per_wafer == 0
        _assert_small_equals_large(ChipletCostQuery(*point, chiplets=1),
                                   [point] + _PADDING, 1)

    @pytest.mark.parametrize("form", ["value", "refarea", "poisson",
                                      "custom"])
    def test_model_die_wider_than_wafer(self, form):
        point = (5e9, 0.8)  # 4,800 cm2
        exemplar = ModelCostQuery(*point, model=_model(),
                                  design_density=150.0,
                                  **_yield_spec(form, 0.7, 0.5))
        served = execute_group(exemplar, [point], cache=None).served(0)
        assert served.dies_per_wafer == 0
        assert not served.feasible
        assert served.cost_per_transistor_dollars == math.inf
        _assert_small_equals_large(exemplar, [point] + _PADDING, 1)

    def test_model_zero_yield_gives_inf_on_both_paths(self):
        # exp(-m) underflows to 0.0 on a fitting die: the kernels'
        # guarded division gives inf, and so must the scalar path.
        point = (1e6, 0.8)
        exemplar = ModelCostQuery(*point, model=_model(),
                                  design_density=150.0,
                                  yield_model=PoissonYield(),
                                  defect_density_per_cm2=1e4)
        served = execute_group(exemplar, [point], cache=None).served(0)
        assert served.yield_value == 0.0
        assert served.feasible
        assert served.cost_per_transistor_dollars == math.inf
        _assert_small_equals_large(exemplar, [point] + _PADDING, 1)


class TestRouting:
    @pytest.fixture
    def no_kernel(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dies_per_wafer_batch called")
        monkeypatch.setattr(executor, "dies_per_wafer_batch", refuse)

    @pytest.fixture(params=["fab", "model"])
    def exemplar(self, request):
        if request.param == "fab":
            return FabCostQuery(1e6, 0.8)
        return ModelCostQuery(1e6, 0.8, model=_model(),
                              design_density=150.0, yield_value=0.7)

    def test_small_group_skips_the_kernel(self, exemplar, no_kernel):
        points = _PADDING[:K]
        result = execute_group(exemplar, points, cache=None)
        assert len(result) == K

    def test_larger_group_uses_the_kernel(self, exemplar, no_kernel):
        with pytest.raises(AssertionError, match="dies_per_wafer_batch"):
            execute_group(exemplar, _PADDING + [(5e6, 1.2)], cache=None)

    @pytest.mark.parametrize("size, calls", [(K, K), (K + 1, 0)])
    def test_chiplet_batch_prices_small_batches_by_system_cost(
            self, monkeypatch, size, calls):
        seen = []
        real = ChipletCostModel.system_cost

        def recording(self, *args):
            seen.append(args)
            return real(self, *args)

        monkeypatch.setattr(ChipletCostModel, "system_cost", recording)
        ns = np.geomspace(1e5, 1e8, size)
        out = np.empty(size)
        result = chiplet_cost_batch(ns, 0.6, 4.0, ChipletCostModel(),
                                    cache=None, out=out)
        assert len(seen) == calls
        assert result.cost_per_transistor_dollars is out


class TestScalarReferences:
    @settings(max_examples=60, deadline=None)
    @given(n=ntr_strategy, lam=lam_strategy)
    def test_fab_breakdown_is_transistor_cost_full(self, n, lam):
        b = transistor_cost_breakdown(n, lam, FIG8_FAB)
        die = Die.from_transistor_count(n, FIG8_FAB.design_density, lam)
        n_ch = dies_per_wafer_maly(Wafer(radius_cm=FIG8_FAB.wafer_radius_cm),
                                   die)
        y = scaled_poisson_yield(n, FIG8_FAB.design_density,
                                 FIG8_FAB.defect_coefficient, lam,
                                 FIG8_FAB.size_exponent_p)
        c_w = WaferCostModel(
            reference_cost_dollars=FIG8_FAB.reference_cost_dollars,
            cost_growth_rate=FIG8_FAB.cost_growth_rate).pure_cost(lam)
        assert (b.dies_per_wafer, b.yield_value, b.die_area_cm2,
                b.wafer_cost_dollars) == (n_ch, y, die.area_cm2, c_w)
        assert b.feasible == (n_ch >= 1 and y >= YIELD_CUTOFF)
        want = c_w / (n_ch * n * y) if b.feasible else math.inf
        assert b.cost_per_transistor_dollars == want
        assert transistor_cost_full(n, lam, FIG8_FAB).hex() \
            == b.cost_per_transistor_dollars.hex()

    def test_evaluate_raises_for_an_unfittable_die(self):
        model = _model()
        kwargs = dict(n_transistors=5e9, feature_size_um=0.8,
                      design_density=150.0, yield_value=0.9)
        masked = model.evaluate_masked(**kwargs)
        assert not masked.feasible
        assert masked.dies_per_wafer == 0
        assert masked.cost_per_transistor_dollars == math.inf
        assert masked.yield_value == 0.9
        with pytest.raises(ParameterError) as err:
            model.evaluate(**kwargs)
        assert str(err.value) == (
            f"die of {masked.die_area_cm2:.2f} cm2 does not fit wafer "
            f"of radius 7.5 cm")

    def test_evaluate_is_the_masked_breakdown_when_feasible(self):
        model = _model()
        kwargs = dict(n_transistors=3.1e6, feature_size_um=0.8,
                      design_density=150.0, yield_model=PoissonYield(),
                      defect_density_per_cm2=0.5)
        full = model.evaluate(**kwargs)
        masked = model.evaluate_masked(**kwargs)
        assert masked.feasible
        for f in fields(full):
            assert getattr(full, f.name) == getattr(masked, f.name)


class TestThreadBackend:
    @pytest.mark.parametrize("k", [K, K + 2])
    def test_run_group_matches_scalar_reference(self, k):
        # The scheduler's one execution call, on both sides of the
        # small-group threshold: inline, no cache, scalar-exact.
        points = [(1e5 * (i + 1), 0.8) for i in range(k)]
        result = ThreadBackend().run_group(FabCostQuery(*points[0]),
                                           points, None)
        for slot, (n, lam) in enumerate(points):
            assert result.cost(slot) == transistor_cost_full(n, lam,
                                                             FIG8_FAB)

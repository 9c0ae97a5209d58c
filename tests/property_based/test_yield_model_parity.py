"""Property-based parity for the compound yield-model family.

The batched kernels for :class:`CompoundPoissonGamma`,
:class:`HierarchicalYieldModel` and :class:`MixtureYieldModel` promise
the strongest form of the parity contract: **bitwise** equality with a
scalar ``yield_from_expectation`` loop — the vectorized path replays
the scalar operation order exactly, including the per-element pow.
Hypothesis drives the quantifiers:

* model parameters (shapes, mixture weights) and the fault-expectation
  arrays, including zeros and non-contiguous slices;
* the ``out=`` write path, which must land the same bits in a caller
  buffer;
* the serve execution matrix (batch slicing), mirroring
  ``test_serve_parity.py`` — a hierarchical model priced through the
  service must be bitwise equal to the scalar ``evaluate()``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.engine import (
    yield_for_area_batch,
    yield_from_expectation_batch,
)
from repro.core.transistor_cost import TransistorCostModel
from repro.core.wafer_cost import WaferCostModel
from repro.errors import ParameterError
from repro.geometry import Wafer
from repro.serve import CostService, ModelCostQuery
from repro.yieldsim import (
    CompoundPoissonGamma,
    HierarchicalYieldModel,
    MixtureYieldModel,
    PoissonYield,
    SeedsYield,
)

m_strategy = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=40.0),
)
alpha_strategy = st.floats(min_value=0.1, max_value=50.0)


def _models(wafer_alpha, lot_alpha, weight):
    return [
        CompoundPoissonGamma(alpha=wafer_alpha),
        HierarchicalYieldModel(lot_alpha=lot_alpha,
                               wafer_alpha=wafer_alpha),
        MixtureYieldModel(((weight, PoissonYield()),
                           (1.0 - weight,
                            CompoundPoissonGamma(alpha=wafer_alpha)))),
    ]


def _assert_bitwise_vs_scalar(model, ms):
    got = yield_from_expectation_batch(model, ms)
    want = np.array([model.yield_from_expectation(float(m)) for m in ms],
                    dtype=np.float64)
    # Bitwise: array equality without any tolerance.
    assert got.shape == want.shape
    assert (got == want).all()


class TestBatchedVsScalar:
    @settings(max_examples=60, deadline=None)
    @given(ms=st.lists(m_strategy, min_size=1, max_size=32),
           wafer_alpha=alpha_strategy,
           lot_alpha=alpha_strategy,
           weight=st.floats(min_value=0.05, max_value=0.95))
    def test_bitwise_for_any_expectation_array(self, ms, wafer_alpha,
                                               lot_alpha, weight):
        arr = np.array(ms, dtype=np.float64)
        for model in _models(wafer_alpha, lot_alpha, weight):
            _assert_bitwise_vs_scalar(model, arr)

    @settings(max_examples=30, deadline=None)
    @given(ms=st.lists(m_strategy, min_size=4, max_size=40),
           step=st.integers(min_value=2, max_value=5),
           wafer_alpha=alpha_strategy,
           lot_alpha=alpha_strategy)
    def test_noncontiguous_slices_are_bitwise(self, ms, step,
                                              wafer_alpha, lot_alpha):
        # Strided views and reversed slices must not change a single
        # bit relative to evaluating the same elements scalar-wise.
        base = np.array(ms, dtype=np.float64)
        for model in _models(wafer_alpha, lot_alpha, 0.5):
            for view in (base[::step], base[::-1], base[1::step]):
                if view.size:
                    _assert_bitwise_vs_scalar(model, view)

    @settings(max_examples=30, deadline=None)
    @given(ms=st.lists(m_strategy, min_size=1, max_size=24),
           wafer_alpha=alpha_strategy,
           lot_alpha=alpha_strategy)
    def test_out_buffer_lands_identical_bits(self, ms, wafer_alpha,
                                             lot_alpha):
        arr = np.array(ms, dtype=np.float64)
        for model in _models(wafer_alpha, lot_alpha, 0.3):
            plain = yield_from_expectation_batch(model, arr)
            out = np.full(arr.shape, np.nan, dtype=np.float64)
            returned = yield_from_expectation_batch(model, arr, out=out)
            assert returned is out
            assert (out == plain).all()

    @settings(max_examples=20, deadline=None)
    @given(densities=st.lists(st.floats(min_value=0.0, max_value=5.0),
                              min_size=1, max_size=16),
           area=st.floats(min_value=0.05, max_value=4.0),
           wafer_alpha=alpha_strategy,
           lot_alpha=alpha_strategy)
    def test_yield_for_area_path_is_bitwise(self, densities, area,
                                            wafer_alpha, lot_alpha):
        d = np.array(densities, dtype=np.float64)
        for model in _models(wafer_alpha, lot_alpha, 0.7):
            got = yield_for_area_batch(model, area, d)
            want = np.array([model.yield_for_area(area, float(x))
                             for x in d], dtype=np.float64)
            assert (got == want).all()

    def test_out_shape_and_dtype_are_enforced(self):
        model = CompoundPoissonGamma(alpha=2.0)
        ms = np.array([0.5, 1.0], dtype=np.float64)
        with pytest.raises(ParameterError):
            yield_from_expectation_batch(model, ms,
                                         out=np.empty(3, dtype=np.float64))
        with pytest.raises(ParameterError):
            yield_from_expectation_batch(model, ms,
                                         out=np.empty(2, dtype=np.float32))

    def test_negative_expectation_rejected(self):
        with pytest.raises(ParameterError):
            yield_from_expectation_batch(CompoundPoissonGamma(alpha=2.0),
                                         [0.1, -0.2])

    def test_unknown_subclass_falls_back_to_scalar_replay(self):
        class Shifted(SeedsYield):
            """Seeds with a documented extra halving — not dispatched."""

            def yield_from_expectation(self, m):
                return 0.5 * super().yield_from_expectation(m)

        model = Shifted()
        arr = np.array([0.0, 0.3, 2.0], dtype=np.float64)
        _assert_bitwise_vs_scalar(model, arr)


def _serve(queries, **service_kwargs):
    with CostService(**service_kwargs) as svc:
        return svc.map(queries)


def _cost_model():
    return TransistorCostModel(
        wafer_cost=WaferCostModel(reference_cost_dollars=640.0,
                                  cost_growth_rate=1.7),
        wafer=Wafer(radius_cm=7.5))


class TestServeExecutionMatrix:
    """The new laws priced through :mod:`repro.serve` must be bitwise
    equal to the scalar ``evaluate()`` under any scheduler slicing —
    the same matrix ``test_serve_parity.py`` pins for the classical
    laws."""

    @settings(max_examples=10, deadline=None)
    @given(points=st.lists(
               st.tuples(st.floats(min_value=1e4, max_value=1e8),
                         st.floats(min_value=0.3, max_value=2.0)),
               min_size=1, max_size=12),
           max_batch_size=st.integers(min_value=1, max_value=8),
           wafer_alpha=st.floats(min_value=0.5, max_value=5.0),
           lot_alpha=st.floats(min_value=0.5, max_value=5.0),
           defect_density=st.floats(min_value=0.01, max_value=2.0))
    def test_hierarchical_query_bitwise_under_any_slicing(
            self, points, max_batch_size, wafer_alpha, lot_alpha,
            defect_density):
        model = _cost_model()
        law = HierarchicalYieldModel(lot_alpha=lot_alpha,
                                     wafer_alpha=wafer_alpha)
        queries = [ModelCostQuery(n, lam, model=model,
                                  design_density=120.0, yield_model=law,
                                  defect_density_per_cm2=defect_density)
                   for n, lam in points]
        served = _serve(queries, max_batch_size=max_batch_size)
        for (n, lam), result in zip(points, served):
            try:
                want = model.evaluate(
                    n_transistors=n, feature_size_um=lam,
                    design_density=120.0, yield_model=law,
                    defect_density_per_cm2=defect_density)
            except ParameterError:
                assert not result.feasible
                assert math.isinf(result.cost_per_transistor_dollars)
                continue
            assert result.cost_per_transistor_dollars \
                == want.cost_per_transistor_dollars
            assert result.yield_value == want.yield_value

    def test_compound_family_served_bitwise(self):
        # One 10-point group per law, above the scalar-reference
        # threshold: the vectorized path must match evaluate() bitwise.
        model = _cost_model()
        laws = [
            CompoundPoissonGamma(alpha=1.5),
            MixtureYieldModel(((0.3, PoissonYield()),
                               (0.7, CompoundPoissonGamma(alpha=1.5)))),
        ]
        points = [(2e5 * (i + 1), 0.4 + 0.05 * i) for i in range(10)]
        for law in laws:
            queries = [ModelCostQuery(n, lam, model=model,
                                      design_density=150.0,
                                      yield_model=law,
                                      defect_density_per_cm2=0.8)
                       for n, lam in points]
            served = _serve(queries, max_batch_size=16)
            for (n, lam), result in zip(points, served):
                want = model.evaluate(n_transistors=n,
                                      feature_size_um=lam,
                                      design_density=150.0,
                                      yield_model=law,
                                      defect_density_per_cm2=0.8)
                assert result.cost_per_transistor_dollars \
                    == want.cost_per_transistor_dollars
                assert result.yield_value == want.yield_value

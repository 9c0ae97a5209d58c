"""Property-based parity for :mod:`repro.serve`: bitwise, and
batch-boundary invariant.

The service's headline contract is stricter than the batch engine's:
every served number must be **bitwise equal** to the direct scalar
evaluation of its query — not 1e-12-close — no matter how the
scheduler sliced the traffic.  Hypothesis drives the two degrees of
freedom the contract quantifies over:

* *batch slicing* — ``max_batch_size`` and duplicated points
  exercising dedup fan-out;
* *arrival order* — a permutation of the same multiset of queries
  must produce the same result for each query.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.cache import BatchCache
from repro.core.optimization import (
    FabCharacterization,
    transistor_cost_full,
)
from repro.core.transistor_cost import TransistorCostModel
from repro.core.wafer_cost import WaferCostModel
from repro.errors import ParameterError
from repro.geometry import Wafer
from repro.serve import CostService, FabCostQuery, ModelCostQuery
from repro.yieldsim import PoissonYield, ReferenceAreaYield

lam_strategy = st.floats(min_value=0.25, max_value=3.0)
ntr_strategy = st.floats(min_value=1e4, max_value=1e9)
point_strategy = st.tuples(ntr_strategy, lam_strategy)


def _serve(queries, **service_kwargs):
    service_kwargs.setdefault("max_wait_s", 0.001)
    service_kwargs.setdefault("cache", BatchCache())
    with CostService(**service_kwargs) as svc:
        return svc.map(queries)


def _assert_bitwise(served, want_cost):
    got = served.cost_per_transistor_dollars
    if math.isinf(want_cost):
        assert math.isinf(got)
        assert not served.feasible
    else:
        # Bitwise: exact float equality, not isclose.
        assert got == want_cost


class TestFabParity:
    @settings(max_examples=40, deadline=None)
    @given(points=st.lists(point_strategy, min_size=1, max_size=24),
           max_batch_size=st.integers(min_value=1, max_value=8),
           growth=st.floats(min_value=1.05, max_value=2.5),
           density=st.floats(min_value=10.0, max_value=400.0),
           defect=st.floats(min_value=0.1, max_value=5.0))
    def test_bitwise_for_any_batch_size(self, points, max_batch_size,
                                        growth, density, defect):
        fab = FabCharacterization(
            cost_growth_rate=growth, wafer_radius_cm=7.5,
            design_density=density, defect_coefficient=defect,
            size_exponent_p=3.0)
        queries = [FabCostQuery(n, lam, fab=fab) for n, lam in points]
        served = _serve(queries, max_batch_size=max_batch_size)
        for (n, lam), result in zip(points, served):
            _assert_bitwise(result, transistor_cost_full(n, lam, fab))

    @settings(max_examples=20, deadline=None)
    @given(points=st.lists(point_strategy, min_size=2, max_size=30),
           duplicates=st.integers(min_value=1, max_value=10),
           seed=st.integers(min_value=0, max_value=2**31))
    def test_batch_boundary_and_order_invariance(self, points,
                                                 duplicates, seed):
        # Same multiset of queries, three traffic shapes: one big
        # flush, many tiny flushes, and a shuffled arrival order with
        # duplicated points.  Each query's answer must be identical
        # (and equal to the scalar reference) in all three.
        import random
        rng = random.Random(seed)
        dup_points = points + [rng.choice(points)
                               for _ in range(duplicates)]
        shuffled = dup_points[:]
        rng.shuffle(shuffled)

        def costs(pts, **kwargs):
            served = _serve([FabCostQuery(n, lam) for n, lam in pts],
                            **kwargs)
            return {pt: s.cost_per_transistor_dollars
                    for pt, s in zip(pts, served)}

        one_flush = costs(dup_points, max_batch_size=1024)
        tiny_flushes = costs(dup_points, max_batch_size=2)
        reordered = costs(shuffled, max_batch_size=7)
        assert one_flush == tiny_flushes == reordered
        for (n, lam), got in one_flush.items():
            want = transistor_cost_full(n, lam)
            assert got == want or (math.isinf(got) and math.isinf(want))


class TestModelParity:
    @settings(max_examples=30, deadline=None)
    @given(points=st.lists(point_strategy, min_size=1, max_size=12),
           max_batch_size=st.integers(min_value=1, max_value=8),
           density=st.floats(min_value=10.0, max_value=400.0),
           y0=st.floats(min_value=0.05, max_value=0.99),
           use_poisson=st.booleans(),
           defect_density=st.floats(min_value=0.01, max_value=2.0))
    def test_bitwise_against_evaluate(self, points, max_batch_size,
                                      density, y0, use_poisson,
                                      defect_density):
        model = TransistorCostModel(
            wafer_cost=WaferCostModel(reference_cost_dollars=500.0,
                                      cost_growth_rate=1.8),
            wafer=Wafer(radius_cm=7.5))
        if use_poisson:
            yield_kwargs = dict(yield_model=PoissonYield(),
                                defect_density_per_cm2=defect_density)
        else:
            yield_kwargs = dict(yield_model=ReferenceAreaYield(
                reference_yield=y0, reference_area_cm2=1.0))
        queries = [ModelCostQuery(n, lam, model=model,
                                  design_density=density, **yield_kwargs)
                   for n, lam in points]
        served = _serve(queries, max_batch_size=max_batch_size)
        for (n, lam), result in zip(points, served):
            try:
                want = model.evaluate(
                    n_transistors=n, feature_size_um=lam,
                    design_density=density, **yield_kwargs)
            except ParameterError:
                # Scalar path raises when the die does not fit; the
                # service masks to an infeasible cell instead.
                assert not result.feasible
                assert math.isinf(result.cost_per_transistor_dollars)
                continue
            assert result.feasible
            assert result.cost_per_transistor_dollars \
                == want.cost_per_transistor_dollars
            assert result.yield_value == want.yield_value
            assert result.wafer_cost_dollars == want.wafer_cost_dollars
            assert result.die_area_cm2 == want.die_area_cm2
            assert result.dies_per_wafer == want.dies_per_wafer

    def test_vectorized_group_bitwise_against_evaluate(self):
        # One 25-point group: above the scalar-reference threshold, so
        # the executor's vectorized model path prices it.
        model = TransistorCostModel(
            wafer_cost=WaferCostModel(reference_cost_dollars=640.0,
                                      cost_growth_rate=1.7),
            wafer=Wafer(radius_cm=7.5))
        law = ReferenceAreaYield(reference_yield=0.8,
                                 reference_area_cm2=1.0)
        points = [(1e5 * (i + 1), 0.35 + 0.04 * i) for i in range(25)]
        queries = [ModelCostQuery(n, lam, model=model,
                                  design_density=120.0, yield_model=law)
                   for n, lam in points]
        served = _serve(queries, max_batch_size=32)
        for (n, lam), result in zip(points, served):
            want = model.evaluate(n_transistors=n, feature_size_um=lam,
                                  design_density=120.0, yield_model=law)
            assert result.cost_per_transistor_dollars \
                == want.cost_per_transistor_dollars
            assert result.yield_value == want.yield_value
            assert result.dies_per_wafer == want.dies_per_wafer


class TestAsyncParity:
    def test_async_path_bitwise_equals_sync_path(self):
        import asyncio

        from repro.serve import AsyncCostService
        points = [(1e5 * (i + 1), 0.3 + 0.05 * i) for i in range(20)]
        queries = [FabCostQuery(n, lam) for n, lam in points]
        sync_served = _serve(queries, max_batch_size=6)

        async def run():
            async with AsyncCostService(max_batch_size=6,
                                        max_wait_s=0.001,
                                        cache=BatchCache()) as svc:
                return await svc.map(queries)

        async_served = asyncio.run(run())
        assert sync_served == async_served
        for (n, lam), result in zip(points, sync_served):
            _assert_bitwise(result, transistor_cost_full(n, lam))


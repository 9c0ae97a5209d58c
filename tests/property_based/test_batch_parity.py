"""Property-based parity: :mod:`repro.batch` vs the scalar reference.

The batch engine's contract (see its module docstring): integer and
mask outputs — dies per wafer, feasibility — match the scalar path
bit-for-bit; float outputs that pass through libm-vs-SIMD
transcendentals match to 1e-12 relative.  Hypothesis sweeps feature
size, transistor count, wafer radius, aspect ratio and all four
:class:`~repro.core.wafer_cost.GenerationModel` laws.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import (
    dies_per_wafer_batch,
    evaluate_batch,
    transistor_cost_batch,
    wafer_cost_batch,
)
from repro.batch.engine import _ROW_CHUNK_BUDGET, generations_batch
from repro.core import GenerationModel, TransistorCostModel, WaferCostModel
from repro.core.optimization import FabCharacterization, transistor_cost_full
from repro.errors import ParameterError
from repro.geometry import Die, Wafer, dies_per_wafer_maly

RTOL = 1e-12

lam_strategy = st.floats(min_value=0.25, max_value=3.0)
ntr_strategy = st.floats(min_value=1e4, max_value=1e9)
radius_strategy = st.floats(min_value=3.0, max_value=12.0)
aspect_strategy = st.floats(min_value=0.3, max_value=3.0)
laws = st.sampled_from(list(GenerationModel))


class TestFullModelParity:
    @settings(max_examples=60, deadline=None)
    @given(lams=st.lists(lam_strategy, min_size=1, max_size=4),
           ntrs=st.lists(ntr_strategy, min_size=1, max_size=4),
           radius=radius_strategy,
           growth=st.floats(min_value=1.05, max_value=2.5),
           density=st.floats(min_value=10.0, max_value=400.0),
           defect=st.floats(min_value=0.1, max_value=5.0),
           p=st.floats(min_value=1.0, max_value=5.0))
    def test_matches_transistor_cost_full(self, lams, ntrs, radius,
                                          growth, density, defect, p):
        fab = FabCharacterization(
            cost_growth_rate=growth, wafer_radius_cm=radius,
            design_density=density, defect_coefficient=defect,
            size_exponent_p=p)
        lam_arr = np.asarray(lams)
        ntr_arr = np.asarray(ntrs)
        result = transistor_cost_batch(ntr_arr[:, None], lam_arr[None, :],
                                       fab, cache=None)
        for i, n_tr in enumerate(ntrs):
            for j, lam in enumerate(lams):
                scalar = transistor_cost_full(n_tr, lam, fab)
                batch = float(result.cost_per_transistor_dollars[i, j])
                if math.isinf(scalar):
                    assert math.isinf(batch)
                    assert not result.feasible[i, j]
                else:
                    assert result.feasible[i, j]
                    assert math.isclose(scalar, batch, rel_tol=RTOL)

    @settings(max_examples=60, deadline=None)
    @given(lam=lam_strategy, ntr=ntr_strategy, radius=radius_strategy,
           aspect=aspect_strategy,
           density=st.floats(min_value=10.0, max_value=400.0),
           yield_value=st.floats(min_value=1e-6, max_value=1.0),
           growth=st.floats(min_value=1.05, max_value=2.5))
    def test_matches_model_evaluate(self, lam, ntr, radius, aspect,
                                    density, yield_value, growth):
        model = TransistorCostModel(
            wafer_cost=WaferCostModel(reference_cost_dollars=500.0,
                                      cost_growth_rate=growth),
            wafer=Wafer(radius_cm=radius))
        result = evaluate_batch(
            model, n_transistors=np.array([ntr]),
            feature_sizes_um=np.array([lam]), design_density=density,
            yield_value=yield_value, aspect_ratio=aspect, cache=None)
        try:
            scalar = model.evaluate(
                n_transistors=ntr, feature_size_um=lam,
                design_density=density, yield_value=yield_value,
                aspect_ratio=aspect)
        except ParameterError:
            # Scalar path raises when the die does not fit; the batch
            # path masks the cell as infeasible instead.
            assert not result.feasible[0]
            assert math.isinf(result.cost_per_transistor_dollars[0])
            return
        assert result.feasible[0]
        assert int(result.dies_per_wafer[0]) == scalar.dies_per_wafer
        assert float(result.die_area_cm2[0]) == scalar.die_area_cm2
        assert math.isclose(float(result.wafer_cost_dollars[0]),
                            scalar.wafer_cost_dollars, rel_tol=RTOL)
        assert float(result.yield_value[0]) == scalar.yield_value
        assert math.isclose(float(result.cost_per_transistor_dollars[0]),
                            scalar.cost_per_transistor_dollars, rel_tol=RTOL)


class TestSubmodelParity:
    @settings(max_examples=80, deadline=None)
    @given(law=laws, lams=st.lists(lam_strategy, min_size=1, max_size=6),
           growth=st.floats(min_value=1.05, max_value=2.5),
           c0=st.floats(min_value=50.0, max_value=5000.0))
    def test_wafer_cost_all_generation_laws(self, law, lams, growth, c0):
        model = WaferCostModel(reference_cost_dollars=c0,
                               cost_growth_rate=growth,
                               generation_model=law)
        lam_arr = np.asarray(lams)
        g = generations_batch(lam_arr, model.reference_feature_um,
                              model=law)
        costs = wafer_cost_batch(model, lam_arr, cache=None)
        for k, lam in enumerate(lams):
            assert math.isclose(float(g[k]),
                                law.generations(
                                    lam, model.reference_feature_um),
                                rel_tol=RTOL, abs_tol=1e-15)
            assert math.isclose(float(costs[k]), model.pure_cost(lam),
                                rel_tol=RTOL)

    @settings(max_examples=80, deadline=None)
    @given(radius=radius_strategy,
           areas=st.lists(st.floats(min_value=0.005, max_value=400.0),
                          min_size=1, max_size=6),
           aspect=aspect_strategy)
    def test_dies_per_wafer_bitwise(self, radius, areas, aspect):
        wafer = Wafer(radius_cm=radius)
        dies = [Die.from_area(a, aspect_ratio=aspect) for a in areas]
        counts = dies_per_wafer_batch(
            wafer, [d.width_cm for d in dies], [d.height_cm for d in dies],
            cache=None)
        expected = [dies_per_wafer_maly(wafer, d) for d in dies]
        assert counts.tolist() == expected

    @settings(max_examples=25, deadline=None)
    @given(radius=radius_strategy,
           max_rows=st.integers(min_value=100, max_value=1500),
           fill=st.floats(min_value=0.5, max_value=3.0),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_dies_per_wafer_bitwise_across_chunk_plans(self, radius,
                                                       max_rows, fill,
                                                       seed):
        # Batches around the eq.-(4) element budget: dies × (max rows
        # + 2) from half to three times _ROW_CHUNK_BUDGET, so the
        # greedy plan is one chunk or several.  Row counts mix 0-row
        # dies (taller than the wafer), 1-row dies and up to
        # ``max_rows``, which one die always reaches.
        wafer = Wafer(radius_cm=radius)
        span = 2.0 * wafer.usable_radius_cm
        n = max(2, math.ceil(fill * _ROW_CHUNK_BUDGET / (max_rows + 2)))
        rng = np.random.default_rng(seed)
        rows = rng.integers(2, max_rows + 1, n)
        kind = rng.integers(0, 4, n)
        rows[kind == 0] = 0
        rows[kind == 1] = 1
        rows[-1] = max_rows
        frac = rng.uniform(0.05, 0.95, n)
        heights = np.where(rows == 0, span * (1.0 + frac),
                           span / (rows + frac))
        widths = rng.uniform(0.005, 0.5 * span, n)
        counts = dies_per_wafer_batch(wafer, widths, heights, cache=None)
        assert counts.tolist() == [
            dies_per_wafer_maly(wafer, Die(width_cm=w, height_cm=h))
            for w, h in zip(widths.tolist(), heights.tolist())]

    @settings(max_examples=20, deadline=None)
    @given(radius=radius_strategy,
           edge=st.floats(min_value=0.0, max_value=1.0),
           scribe_frac=st.sampled_from([0.0, 0.3, 0.9]),
           extra_rows=st.integers(min_value=2,
                                  max_value=_ROW_CHUNK_BUDGET),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_dies_per_wafer_bitwise_edge_layouts(self, radius, edge,
                                                 scribe_frac, extra_rows,
                                                 seed):
        # One broadcast (widths[:, None] × heights[None, :]) batch that
        # mixes dies wider or taller than the wafer, 1-row dies,
        # ordinary dies and a die whose rows + 1 chords alone exceed
        # _ROW_CHUNK_BUDGET (its rows run in several passes), under
        # edge exclusion and scribe lanes; then every die again as 0-d
        # inputs.
        wafer = Wafer(radius_cm=radius, edge_exclusion_cm=edge)
        span = 2.0 * wafer.usable_radius_cm
        fine_pitch = span / (_ROW_CHUNK_BUDGET + extra_rows)
        scribe = scribe_frac * fine_pitch
        rng = np.random.default_rng(seed)
        frac = rng.uniform(0.05, 0.95, 4)
        heights = np.array([span * (1.0 + frac[0]), span / (1.0 + frac[1]),
                            span / (20.0 + frac[2]), fine_pitch]) - scribe
        widths = np.array([span * (1.0 + frac[3]),
                           rng.uniform(0.02, 0.5 * span),
                           rng.uniform(0.002, 0.02)])
        assert math.floor(span / (heights[-1] + scribe)) + 1 \
            > _ROW_CHUNK_BUDGET
        expected = [[dies_per_wafer_maly(
            wafer, Die(width_cm=w, height_cm=h, scribe_cm=scribe))
            for h in heights.tolist()] for w in widths.tolist()]
        counts = dies_per_wafer_batch(wafer, widths[:, None],
                                      heights[None, :], scribe_cm=scribe,
                                      cache=None)
        assert counts.shape == (widths.size, heights.size)
        assert counts.tolist() == expected
        for i, w in enumerate(widths.tolist()):
            for j, h in enumerate(heights.tolist()):
                single = dies_per_wafer_batch(wafer, w, h, scribe_cm=scribe,
                                              cache=None)
                assert single.shape == ()
                assert int(single) == expected[i][j]

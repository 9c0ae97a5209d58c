"""Tests for :mod:`repro.batch.engine` — each primitive against its
scalar reference, plus the composed eq.-(1) calls."""

import math

import numpy as np
import pytest

from repro.batch import (
    BatchCache,
    dies_per_wafer_batch,
    evaluate_batch,
    scaled_poisson_yield_batch,
    transistor_cost_batch,
    wafer_cost_batch,
)
from repro.batch.engine import (
    _ROW_CHUNK_BUDGET,
    generations_batch,
    poisson_yield_batch,
    scenario1_cost_batch,
    scenario2_cost_batch,
    transistors_per_die_batch,
    yield_for_area_batch,
)
from repro.core import GenerationModel, TransistorCostModel, WaferCostModel
from repro.core.optimization import FIG8_FAB, transistor_cost_full
from repro.errors import ParameterError
from repro.geometry import Die, Wafer, dies_per_wafer_maly
from repro.technology.roadmap import die_area_trend_cm2
from repro.yieldsim import (
    BoseEinsteinYield,
    MurphyYield,
    NegativeBinomialYield,
    PoissonYield,
    ReferenceAreaYield,
    SeedsYield,
    poisson_yield,
    scaled_poisson_yield,
)
from repro.yieldsim.models import YieldModel

LAMS = np.array([0.35, 0.5, 0.8, 1.0, 1.5, 2.0])
RTOL = 1e-12


def _model(**kwargs) -> TransistorCostModel:
    return TransistorCostModel(
        wafer_cost=WaferCostModel(reference_cost_dollars=500.0,
                                  cost_growth_rate=1.4),
        wafer=Wafer(radius_cm=7.5), **kwargs)


class TestGenerationsBatch:
    @pytest.mark.parametrize("law", list(GenerationModel))
    def test_matches_scalar_law(self, law):
        g = generations_batch(LAMS, 1.0, model=law)
        for k, lam in enumerate(LAMS):
            assert math.isclose(float(g[k]), law.generations(float(lam), 1.0),
                                rel_tol=RTOL, abs_tol=1e-15)

    def test_rejects_bad_shrink(self):
        with pytest.raises(ParameterError):
            generations_batch(LAMS, 1.0, shrink=1.5)

    def test_rejects_nonpositive_lam(self):
        with pytest.raises(ParameterError):
            generations_batch(np.array([0.5, -1.0]))


class TestWaferCostBatch:
    def test_pure_cost_parity(self):
        model = WaferCostModel(reference_cost_dollars=700.0,
                               cost_growth_rate=1.8)
        costs = wafer_cost_batch(model, LAMS, cache=None)
        for k, lam in enumerate(LAMS):
            assert math.isclose(float(costs[k]), model.pure_cost(float(lam)),
                                rel_tol=RTOL)

    def test_volume_cost_parity(self):
        model = WaferCostModel(reference_cost_dollars=700.0,
                               cost_growth_rate=1.8,
                               overhead_dollars=1e6)
        costs = wafer_cost_batch(model, LAMS, volume_wafers=2500.0,
                                 cache=None)
        for k, lam in enumerate(LAMS):
            assert math.isclose(
                float(costs[k]), model.cost_at_volume(float(lam), 2500.0),
                rel_tol=RTOL)


class TestDiesPerWaferBatch:
    def test_bitwise_parity_with_maly(self):
        wafer = Wafer(radius_cm=7.5)
        areas = np.geomspace(0.01, 50.0, 40)
        dies = [Die.from_area(float(a)) for a in areas]
        counts = dies_per_wafer_batch(wafer, [d.width_cm for d in dies],
                                      [d.height_cm for d in dies],
                                      cache=None)
        assert counts.dtype == np.int64
        assert counts.tolist() == [dies_per_wafer_maly(wafer, d)
                                   for d in dies]

    def test_exactly_fitting_rows_match_maly(self):
        # Decimal pitches on R = 5 pitches: rows of exactly 6 and 8 dies
        # that binary rounding puts a few ulps short (see ROW_FIT_SLACK).
        for radius, side in ((5.0, 1.0), (4.0, 0.8), (9.0, 1.8),
                             (11.0, 2.2)):
            wafer = Wafer(radius_cm=radius)
            counts = dies_per_wafer_batch(wafer, [side], [side], cache=None)
            assert int(counts[0]) == 64 \
                == dies_per_wafer_maly(wafer, Die.square(side))

    def test_scribe_and_edge_exclusion(self):
        wafer = Wafer(radius_cm=10.0, edge_exclusion_cm=0.4)
        die = Die(width_cm=0.9, height_cm=1.2, scribe_cm=0.02)
        counts = dies_per_wafer_batch(wafer, [die.width_cm], [die.height_cm],
                                      scribe_cm=0.02, cache=None)
        assert int(counts[0]) == dies_per_wafer_maly(wafer, die)

    def test_oversize_die_counts_zero(self):
        wafer = Wafer(radius_cm=5.0)
        counts = dies_per_wafer_batch(wafer, [11.0, 1.0], [1.0, 11.0],
                                      cache=None)
        assert counts.tolist() == [0, 0]

    def test_broadcasts_width_against_height(self):
        wafer = Wafer(radius_cm=7.5)
        counts = dies_per_wafer_batch(
            wafer, np.array([[0.5], [1.0]]), np.array([[0.5, 1.0]]),
            cache=None)
        assert counts.shape == (2, 2)
        for i, w in enumerate((0.5, 1.0)):
            for j, h in enumerate((0.5, 1.0)):
                assert int(counts[i, j]) == dies_per_wafer_maly(
                    wafer, Die(width_cm=w, height_cm=h))

    def test_parity_when_buckets_span_several_chunks(self):
        # 2,400 small dies: their row counts fall into several x1.5
        # buckets, and three buckets' (dies x rows) matrices are each
        # split into three or more chunks by the element budget.
        wafer = Wafer(radius_cm=7.5, edge_exclusion_cm=0.3)
        rng = np.random.default_rng(4)
        widths = rng.uniform(0.04, 0.3, 2400)
        heights = rng.uniform(0.03, 0.12, 2400)
        rows = np.floor(2.0 * wafer.usable_radius_cm / heights)
        bucket = np.floor(np.log(rows) / math.log(1.5))
        chunks = [math.ceil(np.count_nonzero(bucket == b)
                            / (_ROW_CHUNK_BUDGET // (rows[bucket == b].max()
                                                     + 2)))
                  for b in np.unique(bucket)]
        assert sum(n >= 3 for n in chunks) >= 3
        counts = dies_per_wafer_batch(wafer, widths, heights, cache=None)
        assert counts.tolist() == [
            dies_per_wafer_maly(wafer, Die(width_cm=float(w),
                                           height_cm=float(h)))
            for w, h in zip(widths, heights)]

    def test_absurd_row_count_refused(self):
        with pytest.raises(ParameterError):
            dies_per_wafer_batch(Wafer(radius_cm=7.5), [1.0], [1e-9],
                                 cache=None)


class TestYieldBatches:
    def test_transistors_per_die_bitwise(self):
        die = Die.from_area(1.21)
        got = transistors_per_die_batch(die.area_cm2, 152.0, LAMS)
        for k, lam in enumerate(LAMS):
            assert float(got[k]) == die.transistor_count(152.0, float(lam))

    def test_poisson_yield_parity(self):
        areas = np.array([0.0, 0.3, 1.0, 4.0])
        got = poisson_yield_batch(areas, 0.8)
        for k, a in enumerate(areas):
            assert math.isclose(float(got[k]), poisson_yield(float(a), 0.8),
                                rel_tol=RTOL)

    def test_scaled_poisson_parity(self):
        got = scaled_poisson_yield_batch(2e6, 152.0, 1.72, LAMS, 4.07)
        for k, lam in enumerate(LAMS):
            assert math.isclose(
                float(got[k]),
                scaled_poisson_yield(2e6, 152.0, 1.72, float(lam), 4.07),
                rel_tol=RTOL)

    def test_underflow_clamps_to_denormal(self):
        got = scaled_poisson_yield_batch(1e12, 152.0, 1.72,
                                         np.array([0.3]), 4.07)
        assert float(got[0]) == 5e-324
        assert float(got[0]) == scaled_poisson_yield(1e12, 152.0, 1.72,
                                                     0.3, 4.07)

    @pytest.mark.parametrize("model", [
        PoissonYield(), MurphyYield(), SeedsYield(),
        BoseEinsteinYield(n_layers=3), NegativeBinomialYield(alpha=1.5),
        ReferenceAreaYield(0.7, 1.0),
    ])
    def test_yield_for_area_dispatch(self, model):
        areas = np.array([0.0, 0.2, 1.0, 3.0])
        got = yield_for_area_batch(model, areas, 0.9)
        for k, a in enumerate(areas):
            assert math.isclose(
                float(got[k]), model.yield_for_area(float(a), 0.9),
                rel_tol=RTOL)

    def test_unknown_model_falls_back_elementwise(self):
        class Halved(YieldModel):
            def yield_from_expectation(self, m: float) -> float:
                return 1.0 / (1.0 + 0.5 * m)

        areas = np.array([[0.1, 1.0], [2.0, 3.0]])
        got = yield_for_area_batch(Halved(), areas, 1.0)
        assert got.shape == areas.shape
        for idx in np.ndindex(areas.shape):
            assert float(got[idx]) == Halved().yield_from_expectation(
                float(areas[idx]))

    def test_unknown_model_parity_through_evaluate_batch(self):
        # The fallback loop must carry a custom subclass through the
        # full composed eq.-(1) evaluation with scalar parity, not
        # just through the yield kernel in isolation.
        class Halved(YieldModel):
            def yield_from_expectation(self, m: float) -> float:
                """Toy 1/(1 + m/2) law exercising the fallback loop."""
                return 1.0 / (1.0 + 0.5 * m)

        model = TransistorCostModel(
            wafer_cost=WaferCostModel(reference_cost_dollars=500.0,
                                      cost_growth_rate=1.8),
            wafer=Wafer(radius_cm=7.5))
        law = Halved()
        counts = np.geomspace(1e5, 5e6, 5)
        lams = np.linspace(0.4, 1.5, 4)
        result = evaluate_batch(
            model, n_transistors=counts[:, None],
            feature_sizes_um=lams[None, :], design_density=150.0,
            yield_model=law, defect_density_per_cm2=0.6, cache=None)
        for i, n_tr in enumerate(counts):
            for j, lam in enumerate(lams):
                scalar = model.evaluate(
                    n_transistors=float(n_tr), feature_size_um=float(lam),
                    design_density=150.0, yield_model=law,
                    defect_density_per_cm2=0.6)
                assert float(result.yield_value[i, j]) \
                    == scalar.yield_value
                assert int(result.dies_per_wafer[i, j]) \
                    == scalar.dies_per_wafer
                assert math.isclose(
                    float(result.cost_per_transistor_dollars[i, j]),
                    scalar.cost_per_transistor_dollars, rel_tol=RTOL)


class TestTransistorCostBatch:
    def test_fig8_grid_matches_scalar(self):
        lams = np.linspace(0.3, 2.0, 12)
        counts = np.geomspace(1e5, 1e7, 11)
        result = transistor_cost_batch(counts[:, None], lams[None, :],
                                       cache=None)
        assert result.shape == (11, 12)
        for i, n_tr in enumerate(counts):
            for j, lam in enumerate(lams):
                scalar = transistor_cost_full(float(n_tr), float(lam))
                batch = float(result.cost_per_transistor_dollars[i, j])
                if math.isinf(scalar):
                    assert math.isinf(batch)
                else:
                    assert math.isclose(scalar, batch, rel_tol=RTOL)

    def test_infeasible_cells_masked_not_raised(self):
        # 1e10 transistors at 2 µm is a die far larger than the wafer.
        result = transistor_cost_batch(np.array([1e10]), np.array([2.0]),
                                       cache=None)
        assert not result.feasible[0]
        assert math.isinf(result.cost_per_transistor_dollars[0])
        assert result.n_feasible == 0

    def test_derived_properties(self):
        result = transistor_cost_batch(np.array([1e6]), np.array([0.8]),
                                       cache=None)
        assert result.n_feasible == 1
        assert float(result.cost_per_transistor_microdollars[0]) == \
            float(result.cost_per_transistor_dollars[0]) * 1e6
        good = float(result.good_dies_per_wafer[0])
        assert good == float(result.dies_per_wafer[0]) \
            * float(result.yield_value[0])
        assert math.isclose(float(result.cost_per_good_die_dollars[0]),
                            float(result.wafer_cost_dollars[0]) / good,
                            rel_tol=RTOL)

    def test_cost_per_good_die_inf_where_no_dies(self):
        result = transistor_cost_batch(np.array([1e10]), np.array([2.0]),
                                       cache=None)
        assert math.isinf(result.cost_per_good_die_dollars[0])

    def test_cache_reuse_across_calls(self):
        cache = BatchCache()
        lams = np.linspace(0.4, 1.6, 8)
        transistor_cost_batch(np.array([[1e6]]), lams[None, :], cache=cache)
        before = cache.stats.misses
        transistor_cost_batch(np.array([[1e6]]), lams[None, :], cache=cache)
        assert cache.stats.misses == before
        assert cache.stats.hits >= 2  # dies-per-wafer and wafer-cost

    def test_rejects_bad_cache_argument(self):
        with pytest.raises(ParameterError):
            transistor_cost_batch(np.array([1e6]), np.array([1.0]),
                                  cache="yes please")


class TestEvaluateBatch:
    def test_yield_value_mode_matches_scalar(self):
        model = _model()
        result = evaluate_batch(model, n_transistors=np.array([2e6]),
                                feature_sizes_um=np.array([0.8]),
                                design_density=152.0, yield_value=0.6,
                                cache=None)
        scalar = model.evaluate(n_transistors=2e6, feature_size_um=0.8,
                                design_density=152.0, yield_value=0.6)
        assert int(result.dies_per_wafer[0]) == scalar.dies_per_wafer
        assert float(result.die_area_cm2[0]) == scalar.die_area_cm2
        assert math.isclose(float(result.cost_per_transistor_dollars[0]),
                            scalar.cost_per_transistor_dollars, rel_tol=RTOL)

    def test_reference_area_yield_mode(self):
        model = _model()
        law = ReferenceAreaYield(0.7, 1.0)
        result = evaluate_batch(model, n_transistors=np.array([2e6]),
                                feature_sizes_um=np.array([0.8]),
                                design_density=152.0, yield_model=law,
                                cache=None)
        scalar = model.evaluate(n_transistors=2e6, feature_size_um=0.8,
                                design_density=152.0, yield_model=law)
        assert math.isclose(float(result.yield_value[0]),
                            scalar.yield_value, rel_tol=RTOL)
        assert math.isclose(float(result.cost_per_transistor_dollars[0]),
                            scalar.cost_per_transistor_dollars, rel_tol=RTOL)

    def test_density_yield_mode(self):
        model = _model()
        result = evaluate_batch(model, n_transistors=np.array([2e6]),
                                feature_sizes_um=np.array([0.8]),
                                design_density=152.0,
                                yield_model=MurphyYield(),
                                defect_density_per_cm2=0.9, cache=None)
        scalar = model.evaluate(n_transistors=2e6, feature_size_um=0.8,
                                design_density=152.0,
                                yield_model=MurphyYield(),
                                defect_density_per_cm2=0.9)
        assert math.isclose(float(result.cost_per_transistor_dollars[0]),
                            scalar.cost_per_transistor_dollars, rel_tol=RTOL)

    def test_infeasible_masked_where_scalar_raises(self):
        model = _model()
        with pytest.raises(ParameterError):
            model.evaluate(n_transistors=1e10, feature_size_um=2.0,
                           design_density=152.0, yield_value=0.5)
        result = evaluate_batch(model, n_transistors=np.array([1e10]),
                                feature_sizes_um=np.array([2.0]),
                                design_density=152.0, yield_value=0.5,
                                cache=None)
        assert not result.feasible[0]
        assert math.isinf(result.cost_per_transistor_dollars[0])

    def test_yield_spec_validation(self):
        model = _model()
        with pytest.raises(ParameterError):
            evaluate_batch(model, n_transistors=np.array([1e6]),
                           feature_sizes_um=np.array([0.8]),
                           design_density=152.0, yield_value=0.5,
                           yield_model=PoissonYield(), cache=None)
        with pytest.raises(ParameterError):
            evaluate_batch(model, n_transistors=np.array([1e6]),
                           feature_sizes_um=np.array([0.8]),
                           design_density=152.0,
                           yield_model=PoissonYield(), cache=None)


class TestScenarioBatches:
    def test_scenario1_parity(self):
        model = _model()
        got = scenario1_cost_batch(model, LAMS, 30.0, cache=None)
        for k, lam in enumerate(LAMS):
            assert math.isclose(float(got[k]),
                                model.scenario1_cost(float(lam), 30.0),
                                rel_tol=RTOL)

    def test_scenario2_parity_with_default_trend(self):
        model = _model()
        got = scenario2_cost_batch(model, LAMS, 200.0,
                                   reference_yield=0.7, cache=None)
        for k, lam in enumerate(LAMS):
            expected = model.scenario2_cost(
                float(lam), 200.0, reference_yield=0.7,
                reference_area_cm2=1.0,
                die_area_cm2=die_area_trend_cm2(float(lam)))
            assert math.isclose(float(got[k]), expected, rel_tol=RTOL)

    def test_scenario2_with_explicit_areas(self):
        model = _model()
        areas = np.full(LAMS.shape, 0.8)
        got = scenario2_cost_batch(model, LAMS, 200.0,
                                   reference_yield=0.7, die_area_cm2=areas,
                                   cache=None)
        for k, lam in enumerate(LAMS):
            expected = model.scenario2_cost(
                float(lam), 200.0, reference_yield=0.7,
                reference_area_cm2=1.0, die_area_cm2=0.8)
            assert math.isclose(float(got[k]), expected, rel_tol=RTOL)


class TestArrayOut:
    def test_wafer_cost_out_buffer_is_returned_and_filled(self):
        model = WaferCostModel(reference_cost_dollars=500.0,
                               cost_growth_rate=1.8)
        lam = np.array([0.5, 0.8, 1.2])
        plain = wafer_cost_batch(model, lam, cache=None)
        out = np.empty(3, dtype=np.float64)
        got = wafer_cost_batch(model, lam, cache=None, out=out)
        assert got is out
        assert (out == plain).all()

    def test_out_shape_mismatch_rejected(self):
        model = WaferCostModel(reference_cost_dollars=500.0,
                               cost_growth_rate=1.8)
        with pytest.raises(ParameterError):
            wafer_cost_batch(model, [0.5, 0.8], cache=None,
                             out=np.empty(3))

    def test_die_counts_land_exactly_in_float64_out(self):
        wafer = Wafer(radius_cm=7.5)
        width = np.array([0.3, 0.8, 1.4, 20.0])  # last one never fits
        height = np.array([0.4, 0.6, 1.4, 20.0])
        counts = dies_per_wafer_batch(wafer, width, height, cache=None)
        out = np.empty(4, dtype=np.float64)
        got = dies_per_wafer_batch(wafer, width, height, cache=None,
                                   out=out)
        assert got is out
        assert counts.dtype == np.int64
        assert (out.astype(np.int64) == counts).all()

    def test_cache_hit_is_copied_into_out(self):
        # The cached array is frozen; out= must hand the caller a
        # writable copy, never the read-only cache entry itself.
        cache = BatchCache()
        model = WaferCostModel(reference_cost_dollars=500.0,
                               cost_growth_rate=1.8)
        lam = np.array([0.5, 0.8])
        first = wafer_cost_batch(model, lam, cache=cache)
        out = np.empty(2, dtype=np.float64)
        got = wafer_cost_batch(model, lam, cache=cache, out=out)
        assert got is out
        assert (out == first).all()
        out[0] = -1.0  # caller may scribble on its buffer...
        again = wafer_cost_batch(model, lam, cache=cache)
        assert again[0] == first[0]  # ...without corrupting the cache

    def test_yield_out_buffer(self):
        y = scaled_poisson_yield_batch([1e6, 2e6], 150.0, 1.0,
                                       [0.8, 0.8], 3.0)
        out = np.empty(2, dtype=np.float64)
        got = scaled_poisson_yield_batch([1e6, 2e6], 150.0, 1.0,
                                         [0.8, 0.8], 3.0, out=out)
        assert got is out
        assert (out == y).all()

    def test_out_broadcastable_shape_still_rejected(self):
        # A (1, 2) buffer would broadcast silently under plain numpy
        # assignment; the out= contract is exact shape or an error.
        with pytest.raises(ParameterError):
            scaled_poisson_yield_batch([1e6, 2e6], 150.0, 1.0,
                                       [0.8, 0.8], 3.0,
                                       out=np.empty((1, 2)))
        wafer = Wafer(radius_cm=7.5)
        with pytest.raises(ParameterError):
            dies_per_wafer_batch(wafer, [0.3, 0.8], [0.4, 0.6],
                                 cache=None, out=np.empty((2, 1)))

    def test_out_non_float64_rejected(self):
        # ...and never a silent cast: a float32 or integer buffer is
        # refused outright instead of degrading the result's precision.
        model = WaferCostModel(reference_cost_dollars=500.0,
                               cost_growth_rate=1.8)
        for bad_dtype in (np.float32, np.int64):
            with pytest.raises(ParameterError):
                wafer_cost_batch(model, [0.5, 0.8], cache=None,
                                 out=np.empty(2, dtype=bad_dtype))
        wafer = Wafer(radius_cm=7.5)
        with pytest.raises(ParameterError):
            dies_per_wafer_batch(wafer, [0.3], [0.4], cache=None,
                                 out=np.empty(1, dtype=np.float32))
        with pytest.raises(ParameterError):
            scaled_poisson_yield_batch([1e6], 150.0, 1.0, [0.8], 3.0,
                                       out=np.empty(1, dtype=np.int32))

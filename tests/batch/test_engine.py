"""Tests for :mod:`repro.batch.engine` — each primitive against its
scalar reference, plus the composed eq.-(1) calls.  Every comparison
with a scalar reference is bitwise (``float.hex``): the engine's one
parity contract."""

import math
import tracemalloc

import numpy as np
import pytest

from repro.batch import (
    chiplet_cost_batch,
    default_cache,
    dies_per_wafer_batch,
    evaluate_batch,
    scaled_poisson_yield_batch,
    transistor_cost_batch,
    wafer_cost_batch,
)
from repro.batch.engine import (
    _CACHE_MAX_CELLS,
    _CHUNK_PAD_CELLS,
    _ROW_CHUNK_BUDGET,
    SCALAR_MAX_POINTS,
    _exp_neg_clamped,
    _plan_row_chunks,
    poisson_yield_batch,
    scenario1_cost_batch,
    scenario2_cost_batch,
    transistors_per_die_batch,
    yield_for_area_batch,
    yield_from_expectation_batch,
)
from repro.core import GenerationModel, TransistorCostModel, WaferCostModel
from repro.core.optimization import (
    FIG8_FAB,
    optimal_feature_size_for_die_areas,
    optimal_feature_sizes,
    transistor_cost_full,
)
from repro.errors import ParameterError
from repro.geometry import Die, Wafer, dies_per_wafer_maly
from repro.geometry.wafer import MAX_WAFER_ROWS
from repro.system.chiplet import ChipletCostModel
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
from repro.yieldsim.models import (
    CompoundPoissonGamma,
    HierarchicalYieldModel,
    YieldModel,
)

LAMS = np.array([0.35, 0.5, 0.8, 1.0, 1.5, 2.0])


def _bits(value) -> str:
    """A float's exact bits, as ``float.hex`` spells them."""
    return float(value).hex()


def _model(**kwargs) -> TransistorCostModel:
    return TransistorCostModel(
        wafer_cost=WaferCostModel(reference_cost_dollars=500.0,
                                  cost_growth_rate=1.4),
        wafer=Wafer(radius_cm=7.5), **kwargs)


class TestGenerationsBatch:
    """The four g(λ) laws, through the batch wafer cost that reads
    them (the scalar ``WaferCostModel`` per unique λ)."""

    @pytest.mark.parametrize("law", list(GenerationModel))
    def test_matches_scalar_law(self, law):
        model = WaferCostModel(reference_cost_dollars=700.0,
                               cost_growth_rate=1.8, generation_model=law)
        costs = wafer_cost_batch(model, LAMS)
        for k, lam in enumerate(LAMS):
            assert _bits(costs[k]) == _bits(model.pure_cost(float(lam)))

    def test_rejects_bad_shrink(self):
        with pytest.raises(ParameterError):
            wafer_cost_batch(WaferCostModel(shrink=1.5), LAMS)

    def test_rejects_nonpositive_lam(self):
        with pytest.raises(ParameterError):
            wafer_cost_batch(WaferCostModel(), np.array([0.5, -1.0]))


class TestWaferCostBatch:
    def test_pure_cost_parity(self):
        model = WaferCostModel(reference_cost_dollars=700.0,
                               cost_growth_rate=1.8)
        costs = wafer_cost_batch(model, LAMS)
        for k, lam in enumerate(LAMS):
            assert _bits(costs[k]) == _bits(model.pure_cost(float(lam)))

    def test_volume_cost_parity(self):
        model = WaferCostModel(reference_cost_dollars=700.0,
                               cost_growth_rate=1.8,
                               overhead_dollars=1e6)
        costs = wafer_cost_batch(model, LAMS, volume_wafers=2500.0)
        for k, lam in enumerate(LAMS):
            assert _bits(costs[k]) \
                == _bits(model.cost_at_volume(float(lam), 2500.0))

    def test_overflowing_growth_raises_the_scalar_error(self):
        # X**g past the float range: the scalar ** raises OverflowError,
        # and so does the batch, which prices λ through it.
        model = WaferCostModel(cost_growth_rate=2.5)
        with pytest.raises(OverflowError):
            model.pure_cost(1e-160)
        with pytest.raises(OverflowError):
            wafer_cost_batch(model, [0.8, 1e-160])


class TestDiesPerWaferBatch:
    def test_bitwise_parity_with_maly(self):
        wafer = Wafer(radius_cm=7.5)
        areas = np.geomspace(0.01, 50.0, 40)
        dies = [Die.from_area(float(a)) for a in areas]
        counts = dies_per_wafer_batch(wafer, [d.width_cm for d in dies],
                                      [d.height_cm for d in dies])
        assert counts.dtype == np.int64
        assert counts.tolist() == [dies_per_wafer_maly(wafer, d)
                                   for d in dies]

    def test_exactly_fitting_rows_match_maly(self):
        # Decimal pitches on R = 5 pitches: rows of exactly 6 and 8 dies
        # that binary rounding puts a few ulps short (see ROW_FIT_SLACK).
        for radius, side in ((5.0, 1.0), (4.0, 0.8), (9.0, 1.8),
                             (11.0, 2.2)):
            wafer = Wafer(radius_cm=radius)
            counts = dies_per_wafer_batch(wafer, [side], [side])
            assert int(counts[0]) == 64 \
                == dies_per_wafer_maly(wafer, Die.square(side))

    def test_scribe_and_edge_exclusion(self):
        wafer = Wafer(radius_cm=10.0, edge_exclusion_cm=0.4)
        die = Die(width_cm=0.9, height_cm=1.2, scribe_cm=0.02)
        counts = dies_per_wafer_batch(wafer, [die.width_cm], [die.height_cm],
                                      scribe_cm=0.02)
        assert int(counts[0]) == dies_per_wafer_maly(wafer, die)

    def test_oversize_die_counts_zero(self):
        wafer = Wafer(radius_cm=5.0)
        counts = dies_per_wafer_batch(wafer, [11.0, 1.0], [1.0, 11.0])
        assert counts.tolist() == [0, 0]
        # However thin: a die wider than the wafer counts 0 before its
        # 1e10 rows would reach the row guard, on both paths.
        assert dies_per_wafer_batch(
            wafer, [11.0, 1.0], [1e-9, 1.0]).tolist()[0] == 0
        assert dies_per_wafer_maly(
            wafer, Die(width_cm=11.0, height_cm=1e-9)) == 0
        # Width 2R·(1 + 1e-12) and 50,000 rows of height: on the rows
        # nearest the centre 2·chord/a + ROW_FIT_SLACK still floors to
        # 1, so only the width test keeps such a die at 0.  The ordinary
        # die beside it must keep its count.
        wafer = Wafer(radius_cm=7.5)
        wide = Die(width_cm=2 * 7.5 * (1 + 1e-12), height_cm=3e-4)
        small = Die.square(1.0)
        counts = dies_per_wafer_batch(
            wafer, [wide.width_cm, small.width_cm],
            [wide.height_cm, small.height_cm])
        assert counts.tolist() == [0, dies_per_wafer_maly(wafer, small)]
        assert dies_per_wafer_maly(wafer, wide) == 0

    def test_broadcasts_width_against_height(self):
        wafer = Wafer(radius_cm=7.5)
        counts = dies_per_wafer_batch(
            wafer, np.array([[0.5], [1.0]]), np.array([[0.5, 1.0]]))
        assert counts.shape == (2, 2)
        for i, w in enumerate((0.5, 1.0)):
            for j, h in enumerate((0.5, 1.0)):
                assert int(counts[i, j]) == dies_per_wafer_maly(
                    wafer, Die(width_cm=w, height_cm=h))

    def test_parity_when_buckets_span_several_chunks(self):
        # 2,400 small dies of 120-480 rows: every chunk holds at most
        # _ROW_CHUNK_BUDGET padded elements, so the plan needs more
        # than eight chunks.
        wafer = Wafer(radius_cm=7.5, edge_exclusion_cm=0.3)
        rng = np.random.default_rng(4)
        widths = rng.uniform(0.04, 0.3, 2400)
        heights = rng.uniform(0.03, 0.12, 2400)
        rows = np.floor(2.0 * wafer.usable_radius_cm / heights)
        assert (rows + 2).sum() > 8 * _ROW_CHUNK_BUDGET
        counts = dies_per_wafer_batch(wafer, widths, heights)
        assert counts.tolist() == [
            dies_per_wafer_maly(wafer, Die(width_cm=float(w),
                                           height_cm=float(h)))
            for w, h in zip(widths, heights)]

    @pytest.mark.parametrize("max_rows, dies", [
        (1, 1), (39, 32), (129, 1296), (599, 3000), (4999, 700),
        (1 << 17, 40)])
    def test_chunk_plan_bounds_budget_and_padding(self, max_rows, dies):
        # From one die to a whole 36 x 36 Fig.-8 grid, and row counts up
        # to past the budget, keyed as the kernel keys them: the chunks
        # cover the sorted dies in order, each fits the budget (or is
        # one die), and none pads its dies by more than
        # _CHUNK_PAD_CELLS elements.
        rng = np.random.default_rng(dies)
        key = np.sort(rng.integers(1, max_rows + 1, size=dies))
        key = key.astype(np.uint16 if key[-1] < 1 << 16 else np.int64)
        chunks = _plan_row_chunks(key)
        assert [c[0] for c in chunks] == [0] + [c[1] for c in chunks[:-1]]
        assert chunks[-1][1] == key.size
        for lo, hi, r in chunks:
            assert r == key[hi - 1]
            assert (r + 1) * (hi - lo) <= _ROW_CHUNK_BUDGET or hi - lo == 1
            assert int((r - key[lo:hi]).sum()) <= _CHUNK_PAD_CELLS

    def test_absurd_row_count_refused(self):
        # One guard for both paths: the scalar loop raises the batch
        # kernel's error at once instead of looping over 1.5e10 rows or
        # more.  A row count too large for int64 is refused too, not
        # wrapped, and so is an inf one (2R/b at b = 5e-324).
        wafer = Wafer(radius_cm=7.5)
        for height in (1e-9, 1e-300, 5e-324):
            with pytest.raises(ParameterError, match="wafer rows"):
                dies_per_wafer_batch(wafer, [1.0, 1.0], [1.0, height])
            with pytest.raises(ParameterError, match="wafer rows"):
                dies_per_wafer_maly(wafer,
                                    Die(width_cm=1.0, height_cm=height))

    def test_bound_is_the_same_on_both_sides_of_it(self):
        # 2R/b just under MAX_WAFER_ROWS is counted, identically, by
        # the scalar loop and the kernel; just over it both refuse.
        wafer = Wafer(radius_cm=7.5, edge_exclusion_cm=0.5)
        span = 2.0 * wafer.usable_radius_cm
        under = span / (MAX_WAFER_ROWS * (1.0 - 1e-9))
        over = span / (MAX_WAFER_ROWS * (1.0 + 1e-9))
        assert span / under < MAX_WAFER_ROWS < span / over
        die = Die(width_cm=2.0, height_cm=under)
        assert int(dies_per_wafer_batch(wafer, 2.0, under)) \
            == dies_per_wafer_maly(wafer, die)
        with pytest.raises(ParameterError):
            dies_per_wafer_maly(wafer, Die(width_cm=2.0, height_cm=over))
        with pytest.raises(ParameterError):
            dies_per_wafer_batch(wafer, 2.0, over)

    def test_peak_allocation_stays_within_nine_budgets(self):
        # 65,536 dies of 100-375 rows, whose unchunked chord matrix
        # would hold 375 budgets of elements.  The call keeps a few
        # per-die arrays (65,536 float64 = one budget's bytes each) and
        # two work buffers of at most one budget each.
        wafer = Wafer(radius_cm=7.5)
        rng = np.random.default_rng(5)
        widths = rng.uniform(0.04, 0.3, 1 << 16)
        heights = rng.uniform(0.04, 0.15, 1 << 16)
        budget_bytes = _ROW_CHUNK_BUDGET * np.dtype(np.float64).itemsize
        tracemalloc.start()
        try:
            dies_per_wafer_batch(wafer, widths, heights)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 9 * budget_bytes


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
            assert _bits(got[k]) == _bits(poisson_yield(float(a), 0.8))

    def test_scaled_poisson_parity(self):
        got = scaled_poisson_yield_batch(2e6, 152.0, 1.72, LAMS, 4.07)
        for k, lam in enumerate(LAMS):
            assert _bits(got[k]) == _bits(
                scaled_poisson_yield(2e6, 152.0, 1.72, float(lam), 4.07))

    @pytest.mark.parametrize("coeff", [1.72, 0.0])
    def test_lambda_power_underflow_matches_scalar(self, coeff):
        # λ^p underflows to 0 at λ = 1e-100: D₀ is inf for D > 0 (the
        # yield clamps to 5e-324) and 0 for D = 0, on both paths; the
        # scalar D / 0.0 used to raise ZeroDivisionError.
        want = scaled_poisson_yield(1e300, 152.0, coeff, 1e-100, 4.07)
        assert want == (5e-324 if coeff else 1.0)
        got = scaled_poisson_yield_batch([1e300, 2e300], 152.0, coeff,
                                         1e-100, 4.07)
        assert [_bits(v) for v in got] == [_bits(want)] * 2

    def test_zero_dimensional_inputs(self):
        # Scalars in, 0-d arrays out, with the scalar functions' bits.
        got = yield_for_area_batch(PoissonYield(), 0.5, 1.3)
        assert got.shape == ()
        assert _bits(got) == _bits(PoissonYield().yield_for_area(0.5, 1.3))
        got = scaled_poisson_yield_batch(2e6, 152.0, 1.72, 0.35, 4.07)
        assert got.shape == ()
        assert _bits(got) == _bits(
            scaled_poisson_yield(2e6, 152.0, 1.72, 0.35, 4.07))

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
            assert _bits(got[k]) == _bits(model.yield_for_area(float(a), 0.9))

    def test_overflowing_fault_expectation_raises(self):
        # m = A·D past the float range: the scalar yield_from_expectation
        # refuses a non-finite m, and so does the batch.
        with pytest.raises(ParameterError):
            PoissonYield().yield_for_area(1e200, 1e200)
        with pytest.raises(ParameterError):
            yield_for_area_batch(PoissonYield(), [1.0, 1e200], 1e200)

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
            yield_model=law, defect_density_per_cm2=0.6)
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
                assert _bits(result.cost_per_transistor_dollars[i, j]) \
                    == _bits(scalar.cost_per_transistor_dollars)


class TestTransistorCostBatch:
    def test_fig8_grid_matches_scalar(self):
        lams = np.linspace(0.3, 2.0, 12)
        counts = np.geomspace(1e5, 1e7, 11)
        result = transistor_cost_batch(counts[:, None], lams[None, :])
        assert result.shape == (11, 12)
        for i, n_tr in enumerate(counts):
            for j, lam in enumerate(lams):
                scalar = transistor_cost_full(float(n_tr), float(lam))
                assert _bits(result.cost_per_transistor_dollars[i, j]) \
                    == _bits(scalar)

    def test_infeasible_cells_masked_not_raised(self):
        # 1e10 transistors at 2 µm is a die far larger than the wafer.
        result = transistor_cost_batch(np.array([1e10]), np.array([2.0]))
        assert not result.feasible[0]
        assert math.isinf(result.cost_per_transistor_dollars[0])
        assert result.n_feasible == 0

    def test_derived_properties(self):
        result = transistor_cost_batch(np.array([1e6]), np.array([0.8]))
        assert result.n_feasible == 1
        assert float(result.cost_per_transistor_microdollars[0]) == \
            float(result.cost_per_transistor_dollars[0]) * 1e6
        good = float(result.good_dies_per_wafer[0])
        assert good == float(result.dies_per_wafer[0]) \
            * float(result.yield_value[0])
        assert float(result.cost_per_good_die_dollars[0]) \
            == float(result.wafer_cost_dollars[0]) / good

    def test_cost_per_good_die_inf_where_no_dies(self):
        result = transistor_cost_batch(np.array([1e10]), np.array([2.0]))
        assert math.isinf(result.cost_per_good_die_dollars[0])

    def test_cache_reuse_across_calls(self, cache_counts):
        lams = np.linspace(0.4, 1.6, 8)
        transistor_cost_batch(np.array([[1e6]]), lams[None, :])
        before = cache_counts("misses")
        transistor_cost_batch(np.array([[1e6]]), lams[None, :])
        assert cache_counts("misses") == before
        assert cache_counts("hits") >= 2  # dies-per-wafer and wafer-cost

    def test_rejects_bad_cache_argument(self):
        # No kernel takes a cache: every call shares default_cache().
        import inspect
        for kernel in (wafer_cost_batch, dies_per_wafer_batch,
                       transistor_cost_batch, evaluate_batch,
                       scenario1_cost_batch, scenario2_cost_batch,
                       chiplet_cost_batch):
            assert "cache" not in inspect.signature(kernel).parameters
        with pytest.raises(TypeError):
            transistor_cost_batch(np.array([1e6]), np.array([1.0]),
                                  cache=None)


class TestEvaluateBatch:
    def test_yield_value_mode_matches_scalar(self):
        model = _model()
        result = evaluate_batch(model, n_transistors=np.array([2e6]),
                                feature_sizes_um=np.array([0.8]),
                                design_density=152.0, yield_value=0.6)
        scalar = model.evaluate(n_transistors=2e6, feature_size_um=0.8,
                                design_density=152.0, yield_value=0.6)
        assert int(result.dies_per_wafer[0]) == scalar.dies_per_wafer
        assert float(result.die_area_cm2[0]) == scalar.die_area_cm2
        assert _bits(result.cost_per_transistor_dollars[0]) \
            == _bits(scalar.cost_per_transistor_dollars)

    def test_reference_area_yield_mode(self):
        model = _model()
        law = ReferenceAreaYield(0.7, 1.0)
        result = evaluate_batch(model, n_transistors=np.array([2e6]),
                                feature_sizes_um=np.array([0.8]),
                                design_density=152.0, yield_model=law)
        scalar = model.evaluate(n_transistors=2e6, feature_size_um=0.8,
                                design_density=152.0, yield_model=law)
        assert _bits(result.yield_value[0]) == _bits(scalar.yield_value)
        assert _bits(result.cost_per_transistor_dollars[0]) \
            == _bits(scalar.cost_per_transistor_dollars)

    def test_density_yield_mode(self):
        model = _model()
        result = evaluate_batch(model, n_transistors=np.array([2e6]),
                                feature_sizes_um=np.array([0.8]),
                                design_density=152.0,
                                yield_model=MurphyYield(),
                                defect_density_per_cm2=0.9)
        scalar = model.evaluate(n_transistors=2e6, feature_size_um=0.8,
                                design_density=152.0,
                                yield_model=MurphyYield(),
                                defect_density_per_cm2=0.9)
        assert _bits(result.cost_per_transistor_dollars[0]) \
            == _bits(scalar.cost_per_transistor_dollars)

    def test_infeasible_masked_where_scalar_raises(self):
        model = _model()
        with pytest.raises(ParameterError):
            model.evaluate(n_transistors=1e10, feature_size_um=2.0,
                           design_density=152.0, yield_value=0.5)
        result = evaluate_batch(model, n_transistors=np.array([1e10]),
                                feature_sizes_um=np.array([2.0]),
                                design_density=152.0, yield_value=0.5)
        assert not result.feasible[0]
        assert math.isinf(result.cost_per_transistor_dollars[0])

    def test_yield_spec_validation(self):
        model = _model()
        with pytest.raises(ParameterError):
            evaluate_batch(model, n_transistors=np.array([1e6]),
                           feature_sizes_um=np.array([0.8]),
                           design_density=152.0, yield_value=0.5,
                           yield_model=PoissonYield())
        with pytest.raises(ParameterError):
            evaluate_batch(model, n_transistors=np.array([1e6]),
                           feature_sizes_um=np.array([0.8]),
                           design_density=152.0,
                           yield_model=PoissonYield())


class TestScenarioBatches:
    def test_scenario1_parity(self):
        model = _model()
        got = scenario1_cost_batch(model, LAMS, 30.0)
        for k, lam in enumerate(LAMS):
            assert _bits(got[k]) == _bits(model.scenario1_cost(float(lam),
                                                               30.0))

    def test_scenario2_parity_with_default_trend(self):
        model = _model()
        got = scenario2_cost_batch(model, LAMS, 200.0,
                                   reference_yield=0.7)
        for k, lam in enumerate(LAMS):
            expected = model.scenario2_cost(
                float(lam), 200.0, reference_yield=0.7,
                reference_area_cm2=1.0,
                die_area_cm2=die_area_trend_cm2(float(lam)))
            assert _bits(got[k]) == _bits(expected)

    def test_scenario2_with_explicit_areas(self):
        model = _model()
        areas = np.full(LAMS.shape, 0.8)
        got = scenario2_cost_batch(model, LAMS, 200.0,
                                   reference_yield=0.7, die_area_cm2=areas)
        for k, lam in enumerate(LAMS):
            expected = model.scenario2_cost(
                float(lam), 200.0, reference_yield=0.7,
                reference_area_cm2=1.0, die_area_cm2=0.8)
            assert _bits(got[k]) == _bits(expected)


class TestArrayOut:
    def test_wafer_cost_out_buffer_is_returned_and_filled(self):
        model = WaferCostModel(reference_cost_dollars=500.0,
                               cost_growth_rate=1.8)
        lam = np.array([0.5, 0.8, 1.2])
        plain = wafer_cost_batch(model, lam)
        out = np.empty(3, dtype=np.float64)
        got = wafer_cost_batch(model, lam, out=out)
        assert got is out
        assert (out == plain).all()

    def test_out_shape_mismatch_rejected(self):
        model = WaferCostModel(reference_cost_dollars=500.0,
                               cost_growth_rate=1.8)
        with pytest.raises(ParameterError):
            wafer_cost_batch(model, [0.5, 0.8], out=np.empty(3))

    def test_die_counts_land_exactly_in_float64_out(self):
        wafer = Wafer(radius_cm=7.5)
        width = np.array([0.3, 0.8, 1.4, 20.0])  # last one never fits
        height = np.array([0.4, 0.6, 1.4, 20.0])
        counts = dies_per_wafer_batch(wafer, width, height)
        out = np.empty(4, dtype=np.float64)
        got = dies_per_wafer_batch(wafer, width, height, out=out)
        assert got is out
        assert counts.dtype == np.int64
        assert (out.astype(np.int64) == counts).all()

    def test_cache_hit_is_copied_into_out(self):
        # The cached array is frozen; out= must hand the caller a
        # writable copy, never the read-only cache entry itself.
        model = WaferCostModel(reference_cost_dollars=500.0,
                               cost_growth_rate=1.8)
        lam = np.array([0.5, 0.8])
        first = wafer_cost_batch(model, lam)
        assert not first.flags.writeable  # the cache's own entry
        out = np.empty(2, dtype=np.float64)
        got = wafer_cost_batch(model, lam, out=out)
        assert got is out
        assert (out == first).all()
        out[0] = -1.0  # caller may scribble on its buffer...
        again = wafer_cost_batch(model, lam)
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
                                 out=np.empty((2, 1)))

    def test_out_non_float64_rejected(self):
        # ...and never a silent cast: a float32 or integer buffer is
        # refused outright instead of degrading the result's precision.
        model = WaferCostModel(reference_cost_dollars=500.0,
                               cost_growth_rate=1.8)
        for bad_dtype in (np.float32, np.int64):
            with pytest.raises(ParameterError):
                wafer_cost_batch(model, [0.5, 0.8],
                                 out=np.empty(2, dtype=bad_dtype))
        wafer = Wafer(radius_cm=7.5)
        with pytest.raises(ParameterError):
            dies_per_wafer_batch(wafer, [0.3], [0.4],
                                 out=np.empty(1, dtype=np.float32))
        with pytest.raises(ParameterError):
            scaled_poisson_yield_batch([1e6], 150.0, 1.0, [0.8], 3.0,
                                       out=np.empty(1, dtype=np.int32))


class TestCacheAdmission:
    """Tile-sized sub-results bypass the cache; λ-only factors are
    priced over the λ operand as given."""

    TILE = 65536

    def _flat(self, size):
        rng = np.random.default_rng(size)
        return (10.0 ** rng.uniform(5.0, 7.5, size),
                rng.uniform(0.35, 1.4, size))

    def _calls(self, n, lam):
        wafer = Wafer(radius_cm=7.5)
        side = np.sqrt(n * 152.0 * lam * lam / 1e8)
        dies_per_wafer_batch(wafer, side, side)
        transistor_cost_batch(n, lam)
        chiplet_cost_batch(n, lam, 2.0)

    def test_tile_sized_calls_bypass_the_cache_serve_sized_ones_hit(
            self, cache_counts):
        self._calls(*self._flat(self.TILE))
        assert len(default_cache()) == 0
        assert cache_counts("hits") == cache_counts("misses") == 0
        n, lam = self._flat(32)
        self._calls(n, lam)
        hits, misses = cache_counts("hits"), cache_counts("misses")
        # One wafer-cost path: the chiplet kernel (same fab, same λ)
        # reads the entry the fab kernel stored; nothing else repeats.
        assert misses >= 3 and hits == 1
        assert len(default_cache()) == misses
        self._calls(n, lam)
        assert cache_counts("misses") == misses
        assert cache_counts("hits") - hits == misses + hits

    def test_admission_bound_is_inclusive(self, cache_counts):
        wafer = Wafer(radius_cm=7.5)
        for cells in (_CACHE_MAX_CELLS, _CACHE_MAX_CELLS + 1):
            side = np.linspace(0.1, 1.0, cells)
            dies_per_wafer_batch(wafer, side, side)
        assert cache_counts("misses") == 1 and len(default_cache()) == 1

    def test_fig8_tile_caches_one_wafer_cost_per_lambda(self, cache_counts):
        counts = np.geomspace(1e5, 3e7, 128)
        lams = np.linspace(0.35, 1.4, 512)
        tile = transistor_cost_batch(counts[:, None], lams[None, :])
        # The 65,536 die counts bypass the cache; the one entry is the
        # wafer cost of the 512 λ, which a later call finds.
        assert cache_counts("misses") == 1 and len(default_cache()) == 1
        c_w = wafer_cost_batch(
            WaferCostModel(
                reference_cost_dollars=FIG8_FAB.reference_cost_dollars,
                cost_growth_rate=FIG8_FAB.cost_growth_rate),
            lams[None, :])
        assert cache_counts("hits") == 1 and c_w.shape == (1, lams.size)
        full = transistor_cost_batch(
            counts[:, None], np.broadcast_to(lams, tile.shape))
        for name in ("cost_per_transistor_dollars", "wafer_cost_dollars",
                     "yield_value", "dies_per_wafer", "die_area_cm2"):
            assert getattr(tile, name).tobytes() \
                == getattr(full, name).tobytes(), name


class TestChipletClamp:
    def test_clamped_die_yield_is_bitwise_in_a_vector_batch(self):
        # Above an eq.-(7) exponent of 700 the scalar reference returns
        # 5e-324 without calling exp; the kernel's libm loop must land
        # on the same bits, also between 700 and exp's own underflow.
        model = ChipletCostModel()
        fab = model.fab
        counts = [1e6, 2e6, 3e6, 5e6, 8e6, 1e7, 2e7, 4e7, 6.6e7, 1e8]
        lam = 0.5
        exponents = [n * fab.design_density * (lam * lam) * 1.0e-8
                     * (fab.defect_coefficient / lam ** fab.size_exponent_p)
                     for n in counts]
        assert any(700.0 < e < 745.0 for e in exponents)
        assert any(e > 745.0 for e in exponents)
        assert len(counts) > SCALAR_MAX_POINTS
        result = chiplet_cost_batch(np.array(counts), lam, 1.0, model)
        for i, (n, e) in enumerate(zip(counts, exponents)):
            ref = model.system_cost(1, n, lam)
            got = float(result.die_yield[i])
            assert got.hex() == ref.die_yield.hex()
            if e > 700.0:
                assert got == 5e-324
            assert float(result.cost_per_transistor_dollars[i]) \
                == ref.cost_per_transistor_dollars


#: Every batch kernel with one array argument replaced by ``bad``; the
#: other arguments are valid.
_KERNEL_CALLS = {
    "generations": lambda bad: wafer_cost_batch(
        WaferCostModel(generation_model=GenerationModel.INVERSE),
        [0.8, bad]),
    "wafer_cost": lambda bad: wafer_cost_batch(
        _model().wafer_cost, [0.8, bad]),
    "dies_per_wafer_width": lambda bad: dies_per_wafer_batch(
        Wafer(radius_cm=7.5), [bad, 1.0], [1.0, 1.0]),
    "dies_per_wafer_height": lambda bad: dies_per_wafer_batch(
        Wafer(radius_cm=7.5), [1.0, 1.0], [1.0, bad]),
    "transistors_per_die": lambda bad: transistors_per_die_batch(
        [1.0, bad], 150.0, 0.8),
    "poisson_yield": lambda bad: poisson_yield_batch([1.0, bad], 0.5),
    "scaled_poisson_yield": lambda bad: scaled_poisson_yield_batch(
        [1e6, 2e6], 150.0, [1.72, bad], 0.8, 4.07),
    "yield_for_area": lambda bad: yield_for_area_batch(
        MurphyYield(), [1.0, 2.0], [bad, 0.5]),
    "yield_from_expectation": lambda bad: yield_from_expectation_batch(
        MurphyYield(), [0.1, bad]),
    "transistor_cost": lambda bad: transistor_cost_batch(
        [bad], [0.5]),
    "evaluate": lambda bad: evaluate_batch(
        _model(), n_transistors=[1e6], feature_sizes_um=[bad],
        design_density=150.0, yield_value=0.8),
    "evaluate_yield_value": lambda bad: evaluate_batch(
        _model(), n_transistors=[1e6], feature_sizes_um=[0.8],
        design_density=150.0, yield_value=[bad]),
    "scenario1": lambda bad: scenario1_cost_batch(
        _model(), [0.8, bad], 150.0),
    "scenario2": lambda bad: scenario2_cost_batch(
        _model(), [0.8, 1.0], 150.0, die_area_cm2=[1.0, bad]),
    "chiplet_transistors": lambda bad: chiplet_cost_batch(
        [1e6, bad], 0.8, 2),
    "chiplet_chiplets": lambda bad: chiplet_cost_batch(
        [1e6, 2e6], 0.8, [2.0, bad]),
    "optimal_feature_sizes": lambda bad: optimal_feature_sizes(
        [1e6, bad]),
    "optimal_feature_size_for_die_areas": lambda bad:
        optimal_feature_size_for_die_areas([bad, 1.0]),
}


class TestNonFiniteInputs:
    """NaN and ±inf raise ParameterError, as the scalar references'
    ``require_positive`` / ``require_nonnegative`` do."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("kernel", sorted(_KERNEL_CALLS))
    def test_raises_parameter_error(self, kernel, bad):
        with pytest.raises(ParameterError):
            _KERNEL_CALLS[kernel](bad)

    def test_scalar_reference_agrees(self):
        with pytest.raises(ParameterError, match="finite"):
            transistor_cost_full(math.nan, 0.5)
        with pytest.raises(ParameterError, match="finite"):
            transistor_cost_batch([math.nan], [0.5])


#: Pow grid: the chiplet kernel's bases y and q·y_bond lie in [0, 1],
#: its exponents c, 1 − c and k in [0, 8]; plus the edges around them.
_POW_BASES = [0.0, 5e-324, 1e-300, 0.3, 1.0 - 2.0 ** -53, 1.0]
_POW_EXPONENTS = [0.0, 1e-9, 0.05, 0.95, 1.0, 2.0, 8.0, 700.0]
#: exp edges: zeros, subnormal and tiny arguments, the eq.-(7) clamp
#: at 700, exp's own underflow near -708.4 and -745.1, and far past it.
_EXP_EDGES = [0.0, -0.0, -5e-324, -1e-300, -0.5, -700.0, -708.4, -745.1,
              -1e300]


def _f64_bytes(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


class TestLibmRoutes:
    """The NumPy routes to libm behind the bitwise kernels.

    ``np.float_power`` must return builtin ``pow``'s bits and the real
    part of complex128 ``np.exp`` must return ``math.exp``'s, whatever
    SIMD target NumPy dispatches to (CI's ``simd-parity`` job reruns
    this file with AVX-512 disabled).  On an AVX-512 host ``np.power``
    and float64 ``np.exp`` miss ~5% of these draws, so the kernel tests
    below fail if either replaces its route.
    """

    def test_float_power_is_builtin_pow(self):
        base, exponent = np.meshgrid(_POW_BASES, _POW_EXPONENTS)
        rng = np.random.default_rng(2101)
        base = np.concatenate([base.ravel(), rng.random(100_000)])
        exponent = np.concatenate([exponent.ravel(),
                                   rng.uniform(0.0, 8.0, 100_000)])
        want = list(map(pow, base.tolist(), exponent.tolist()))
        assert _f64_bytes(np.float_power(base, exponent)) \
            == _f64_bytes(want)

    def test_complex_exp_is_math_exp(self):
        rng = np.random.default_rng(2102)
        x = np.concatenate([_EXP_EDGES, rng.uniform(-745.0, 0.0, 100_000)])
        got = np.exp(x.astype(np.complex128)).real
        assert _f64_bytes(got) == _f64_bytes(list(map(math.exp, x.tolist())))

    def test_kernel_exp_is_math_exp_with_the_clamp(self):
        rng = np.random.default_rng(2103)
        exponent = -np.concatenate([_EXP_EDGES,
                                    rng.uniform(-745.0, 0.0, 100_000)])
        want = [5e-324 if e > 700.0 else math.exp(-e)
                for e in exponent.tolist()]
        assert _f64_bytes(_exp_neg_clamped(exponent)) == _f64_bytes(want)

    def test_compound_family_pow_is_builtin_pow(self):
        m = np.random.default_rng(2104).uniform(0.0, 20.0, 20_000)
        for model in (CompoundPoissonGamma(alpha=1.7),
                      HierarchicalYieldModel(wafer_alpha=2.3,
                                             lot_alpha=1.4, n_nodes=4)):
            want = [model.yield_from_expectation(v) for v in m.tolist()]
            assert _f64_bytes(yield_from_expectation_batch(model, m)) \
                == _f64_bytes(want)

    def test_chiplet_kernel_fields_are_bitwise(self):
        # y**c, y**(1 − c), (q·y_bond)**k and the eq.-(7) exp over a
        # seeded batch, against system_cost field by field.
        rng = np.random.default_rng(2105)
        n = 10.0 ** rng.uniform(4.0, 8.0, 3_000)
        lam = rng.choice([0.35, 0.5, 0.8, 1.2], 3_000)
        k = rng.integers(1, 9, 3_000).astype(np.float64)
        model = ChipletCostModel(probe_coverage=0.83)
        result = chiplet_cost_batch(n, lam, k, model)
        refs = [model.system_cost(int(k_i), n_i, lam_i) for n_i, lam_i, k_i
                in zip(n.tolist(), lam.tolist(), k.tolist())]
        for name in ("die_yield", "assembly_yield", "effective_yield",
                     "cost_per_transistor_dollars"):
            assert _f64_bytes(getattr(result, name)) \
                == _f64_bytes([getattr(r, name) for r in refs]), name

"""Property-based parity: :mod:`repro.batch` vs the scalar reference.

The batch engine's one contract (see its module docstring): every
output is bitwise equal to the scalar path, compared here by
``float.hex``, and where the scalar path raises the batch raises the
same error class.  Hypothesis sweeps feature size, transistor count,
wafer radius, aspect ratio, all four
:class:`~repro.core.wafer_cost.GenerationModel` laws and float64 edge
values, and checks that one point gets the same bits as a sweep cell,
as a served group of any size and from its scalar reference.
"""

import math
from dataclasses import astuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import (
    ChipletCrossoverSweep,
    FabCostSweep,
    TiledSweepRunner,
    dies_per_wafer_batch,
    evaluate_batch,
    transistor_cost_batch,
    wafer_cost_batch,
)
from repro.batch.engine import _ROW_CHUNK_BUDGET, SCALAR_MAX_POINTS
from repro.core import GenerationModel, TransistorCostModel, WaferCostModel
from repro.core.optimization import (
    FabCharacterization,
    transistor_cost_breakdown,
    transistor_cost_full,
)
from repro.errors import ParameterError
from repro.geometry import Die, Wafer, dies_per_wafer_maly
from repro.serve import ChipletCostQuery, FabCostQuery, ModelCostQuery
from repro.serve.executor import execute_group
from repro.system.chiplet import (
    ORGANIC_SUBSTRATE,
    SILICON_INTERPOSER,
    ChipletCostModel,
)
from repro.yieldsim import PoissonYield, ReferenceAreaYield, SeedsYield


def _bits(value) -> str:
    """A float's exact bits, as ``float.hex`` spells them."""
    return float(value).hex()

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
                                       fab)
        for i, n_tr in enumerate(ntrs):
            for j, lam in enumerate(lams):
                scalar = transistor_cost_full(n_tr, lam, fab)
                assert _bits(result.cost_per_transistor_dollars[i, j]) \
                    == _bits(scalar)
                assert result.feasible[i, j] == (not math.isinf(scalar))

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
            yield_value=yield_value, aspect_ratio=aspect)
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
        assert _bits(result.wafer_cost_dollars[0]) \
            == _bits(scalar.wafer_cost_dollars)
        assert float(result.yield_value[0]) == scalar.yield_value
        assert _bits(result.cost_per_transistor_dollars[0]) \
            == _bits(scalar.cost_per_transistor_dollars)


class TestSubmodelParity:
    @settings(max_examples=80, deadline=None)
    @given(law=laws, lams=st.lists(lam_strategy, min_size=1, max_size=6),
           growth=st.floats(min_value=1.05, max_value=2.5),
           c0=st.floats(min_value=50.0, max_value=5000.0))
    def test_wafer_cost_all_generation_laws(self, law, lams, growth, c0):
        model = WaferCostModel(reference_cost_dollars=c0,
                               cost_growth_rate=growth,
                               generation_model=law)
        costs = wafer_cost_batch(model, np.asarray(lams))
        for k, lam in enumerate(lams):
            assert _bits(costs[k]) == _bits(model.pure_cost(lam))

    @settings(max_examples=80, deadline=None)
    @given(radius=radius_strategy,
           areas=st.lists(st.floats(min_value=0.005, max_value=400.0),
                          min_size=1, max_size=6),
           aspect=aspect_strategy)
    def test_dies_per_wafer_bitwise(self, radius, areas, aspect):
        wafer = Wafer(radius_cm=radius)
        dies = [Die.from_area(a, aspect_ratio=aspect) for a in areas]
        counts = dies_per_wafer_batch(
            wafer, [d.width_cm for d in dies], [d.height_cm for d in dies])
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
        counts = dies_per_wafer_batch(wafer, widths, heights)
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
                                      heights[None, :], scribe_cm=scribe)
        assert counts.shape == (widths.size, heights.size)
        assert counts.tolist() == expected
        for i, w in enumerate(widths.tolist()):
            for j, h in enumerate(heights.tolist()):
                single = dies_per_wafer_batch(wafer, w, h, scribe_cm=scribe)
                assert single.shape == ()
                assert int(single) == expected[i][j]


K = SCALAR_MAX_POINTS
#: Served group sizes: two priced by the scalar references inside the
#: kernels, two by the vectorized kernels.
GROUP_SIZES = (1, K, K + 1, 64)
#: Float64 edge values for N_tr and λ: signed zeros, the subnormal, the
#: smallest normal, extremes of scale, near-max and the non-finite.
EDGES = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-150,
         1e-100, 1e150, 1e300, 1.7976931348623157e308, -1.0,
         math.inf, math.nan)
#: Edge points whose die passes the eq.-(4) checks while eq. (7) or
#: eq. (3) reaches the float limits: λ^p underflowing to 0 (D₀ = inf),
#: with X^g overflowing too at high X; λ^p overflowing (D₀ = 0) with a
#: subnormal-scale N_tr or with X^g underflowing to 0.
EDGE_POINTS = ((1e300, 1e-100), (1e300, 1e-150), (1e-300, 1e150),
               (1e150, 1e-70), (1e6, 1e150))
edge_points = st.one_of(
    st.sampled_from(EDGE_POINTS),
    st.tuples(st.sampled_from(EDGES) | ntr_strategy,
              st.sampled_from(EDGES) | lam_strategy))
#: Ordinary points, priced without an error under every drawn model,
#: that fill a group up to its size around the point under test.
_PADDING = [(1e5 * (i + 1), 0.35 + 0.02 * i) for i in range(63)]


class _UnhashableSeeds(SeedsYield):
    """A custom law: the model kernel replays it per element."""

    __hash__ = None  # type: ignore[assignment]


def _yield_spec(form, value, density):
    # The four model yield forms the serve executor tests use.
    if form == "value":
        return dict(yield_value=value)
    if form == "refarea":
        return dict(yield_model=ReferenceAreaYield(
            reference_yield=value, reference_area_cm2=1.0))
    law = PoissonYield() if form == "poisson" else _UnhashableSeeds()
    return dict(yield_model=law, defect_density_per_cm2=density)


def _row_bits(*values) -> tuple:
    # One served row, floats by their bits.
    return tuple(v.hex() if isinstance(v, float) else v for v in values)


def _outcome(price):
    """``price()``, or the class of the exception it raised."""
    try:
        return price()
    except Exception as exc:  # noqa: BLE001 - the class is the outcome
        return type(exc)


def _assert_one_result(exemplar, point, reference, sweep_cells):
    # ``reference()`` gives the scalar row in ServedCost field order,
    # ``sweep_cells()`` the set of cost bits of a plane whose every
    # cell is ``point``.
    want = _outcome(reference)
    for size in GROUP_SIZES:
        group = [point] + _PADDING[:size - 1]
        got = _outcome(lambda: _row_bits(*astuple(
            execute_group(exemplar, group).served(0))))
        assert got == want, f"group of {size}"
    cells = _outcome(sweep_cells)
    assert cells == (want if isinstance(want, type) else {want[6]}), \
        "sweep cell"


class TestOnePointOneResult:
    """A point gets the same bits — or the same error class — as a
    sweep cell, in a served group of 1, K, K + 1 or 64 points, and
    from its kind's scalar reference."""

    @settings(max_examples=80, deadline=None)
    @given(point=edge_points,
           growth=st.floats(min_value=1.05, max_value=2.5),
           density=st.floats(min_value=10.0, max_value=400.0),
           defect=st.floats(min_value=0.1, max_value=5.0),
           p=st.floats(min_value=3.0, max_value=5.0),
           radius=st.floats(min_value=2.0, max_value=16.0))
    def test_fab(self, point, growth, density, defect, p, radius):
        fab = FabCharacterization(
            cost_growth_rate=growth, wafer_radius_cm=radius,
            design_density=density, defect_coefficient=defect,
            size_exponent_p=p)
        n, lam = point

        def reference():
            b = transistor_cost_breakdown(n, lam, fab)
            return _row_bits(n, lam, b.wafer_cost_dollars, b.die_area_cm2,
                             b.dies_per_wafer, b.yield_value,
                             b.cost_per_transistor_dollars, b.feasible)

        def sweep_cells():
            plane = TiledSweepRunner().run(
                FabCostSweep(fab), [n] * 8, [lam] * 8)
            return {_bits(v) for v in plane.values.ravel().tolist()}

        _assert_one_result(FabCostQuery(1e6, 0.8, fab=fab), point,
                           reference, sweep_cells)

    @settings(max_examples=80, deadline=None)
    @given(point=edge_points,
           form=st.sampled_from(["value", "refarea", "poisson", "custom"]),
           value=st.floats(min_value=0.01, max_value=1.0),
           defect_density=st.floats(min_value=0.01, max_value=1000.0),
           design_density=st.floats(min_value=10.0, max_value=400.0),
           aspect=aspect_strategy,
           radius=st.floats(min_value=2.0, max_value=16.0),
           edge=st.floats(min_value=0.0, max_value=1.0),
           volume=st.none() | st.floats(min_value=1e3, max_value=1e5),
           growth=st.floats(min_value=1.05, max_value=2.5))
    def test_model(self, point, form, value, defect_density,
                   design_density, aspect, radius, edge, volume, growth):
        # The model kind has no sweep spec: its sweep cell is a cell
        # of the kernel's plane form, (N_tr rows) × (λ cols).
        model = TransistorCostModel(
            wafer_cost=WaferCostModel(reference_cost_dollars=500.0,
                                      cost_growth_rate=growth,
                                      overhead_dollars=2e6),
            wafer=Wafer(radius_cm=radius, edge_exclusion_cm=edge),
            volume_wafers=volume)
        spec = dict(design_density=design_density, aspect_ratio=aspect,
                    **_yield_spec(form, value, defect_density))
        n, lam = point

        def reference():
            b = model.evaluate_masked(n_transistors=n, feature_size_um=lam,
                                      **spec)
            return _row_bits(n, lam, b.wafer_cost_dollars, b.die_area_cm2,
                             b.dies_per_wafer, b.yield_value,
                             b.cost_per_transistor_dollars, b.feasible)

        def sweep_cells():
            plane = evaluate_batch(model, n_transistors=np.full((8, 1), n),
                                   feature_sizes_um=np.full((1, 8), lam),
                                   **spec)
            return {_bits(v) for v in
                    plane.cost_per_transistor_dollars.ravel().tolist()}

        _assert_one_result(ModelCostQuery(1e6, 0.8, model=model, **spec),
                           point, reference, sweep_cells)

    @settings(max_examples=60, deadline=None)
    @given(point=edge_points,
           chiplets=st.integers(min_value=1, max_value=8),
           coverage=st.floats(min_value=0.5, max_value=1.0),
           use_interposer=st.booleans())
    def test_chiplet(self, point, chiplets, coverage, use_interposer):
        model = ChipletCostModel(
            packaging=SILICON_INTERPOSER if use_interposer
            else ORGANIC_SUBSTRATE, probe_coverage=coverage)
        n, lam = point

        def reference():
            b = model.system_cost(chiplets, n, lam)
            return _row_bits(n, lam, b.wafer_cost_dollars,
                             b.chiplet_area_cm2, b.dies_per_wafer,
                             b.effective_yield,
                             b.cost_per_transistor_dollars, b.feasible)

        def sweep_cells():
            plane = TiledSweepRunner().run(
                ChipletCrossoverSweep(lam, model), [float(chiplets)] * 8,
                [n] * 8)
            return {_bits(v) for v in plane.values.ravel().tolist()}

        _assert_one_result(
            ChipletCostQuery(1e6, 0.8, chiplets=chiplets, model=model),
            point, reference, sweep_cells)

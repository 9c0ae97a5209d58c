"""Property-based parity for the chiplet hot path: bitwise everywhere.

:func:`repro.batch.engine.chiplet_cost_batch` promises **bitwise**
equality with the scalar :meth:`~repro.system.chiplet.ChipletCostModel
.system_cost` — not 1e-12-close — and the promise must survive every
way the toolchain slices the work.  Hypothesis drives the quantifiers:

* *batch slicing* — any subset/ordering of points, and delivery into
  a caller-owned ``out=`` buffer, must reproduce the same bits;
* *the serve matrix* — scheduler batch size, arrival order and dedup
  are bitwise invisible for
  :class:`~repro.serve.query.ChipletCostQuery` traffic;
* *the sweep* — :class:`~repro.batch.sweep.ChipletCrossoverSweep`
  through :class:`~repro.batch.sweep.TiledSweepRunner` is invariant
  to tile size, worker count, and checkpoint/resume.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.cache import BatchCache
from repro.batch.engine import chiplet_cost_batch
from repro.batch.sweep import ChipletCrossoverSweep, TiledSweepRunner
from repro.serve import ChipletCostQuery, CostService, scalar_reference_cost
from repro.system.chiplet import (
    ORGANIC_SUBSTRATE,
    SILICON_INTERPOSER,
    ChipletCostModel,
    PackagingTech,
)

lam_strategy = st.floats(min_value=0.25, max_value=3.0)
ntr_strategy = st.floats(min_value=1e4, max_value=1e9)
k_strategy = st.integers(min_value=1, max_value=8)
point_strategy = st.tuples(ntr_strategy, lam_strategy, k_strategy)
coverage_strategy = st.floats(min_value=0.5, max_value=1.0)
bond_strategy = st.floats(min_value=0.8, max_value=0.9999)

#: The scalar-breakdown attribute for each batch-result array field.
_FIELD_PAIRS = [
    ("transistors_per_chiplet", "transistors_per_chiplet"),
    ("chiplet_area_cm2", "chiplet_area_cm2"),
    ("wafer_cost_dollars", "wafer_cost_dollars"),
    ("dies_per_wafer", "dies_per_wafer"),
    ("die_yield", "die_yield"),
    ("assembly_yield", "assembly_yield"),
    ("effective_yield", "effective_yield"),
    ("packaging_cost_dollars", "packaging_cost_dollars"),
    ("silicon_cost_per_transistor_dollars",
     "silicon_cost_per_transistor_dollars"),
    ("overhead_cost_per_transistor_dollars",
     "overhead_cost_per_transistor_dollars"),
    ("cost_per_transistor_dollars", "cost_per_transistor_dollars"),
]


def _model(packaging, coverage):
    return ChipletCostModel(packaging=packaging, probe_coverage=coverage)


def _serve(queries, **service_kwargs):
    service_kwargs.setdefault("max_wait_s", 0.001)
    service_kwargs.setdefault("cache", BatchCache())
    with CostService(**service_kwargs) as svc:
        return svc.map(queries)


class TestKernelParity:
    @settings(max_examples=30, deadline=None)
    @given(points=st.lists(point_strategy, min_size=1, max_size=24),
           coverage=coverage_strategy,
           bond=bond_strategy,
           use_interposer=st.booleans())
    def test_batch_matches_scalar_bitwise(self, points, coverage, bond,
                                          use_interposer):
        base = SILICON_INTERPOSER if use_interposer else ORGANIC_SUBSTRATE
        model = _model(PackagingTech(
            name=base.name, base_cost_dollars=base.base_cost_dollars,
            cost_per_die_dollars=base.cost_per_die_dollars,
            cost_per_cm2_dollars=base.cost_per_cm2_dollars,
            bond_yield=bond), coverage)
        ns = np.array([n for n, _, _ in points])
        lams = np.array([lam for _, lam, _ in points])
        ks = np.array([float(k) for _, _, k in points])
        result = chiplet_cost_batch(ns, lams, ks, model, cache=None)
        for i, (n, lam, k) in enumerate(points):
            want = model.system_cost(k, n, lam)
            assert bool(result.feasible[i]) == want.feasible
            for batch_field, scalar_field in _FIELD_PAIRS:
                got = float(getattr(result, batch_field)[i])
                ref = float(getattr(want, scalar_field))
                # Bitwise: exact equality (inf == inf included).
                assert got == ref or (math.isnan(got) and math.isnan(ref))

    @settings(max_examples=20, deadline=None)
    @given(points=st.lists(point_strategy, min_size=2, max_size=32),
           split=st.integers(min_value=1, max_value=31),
           coverage=coverage_strategy)
    def test_slicing_and_out_buffer_invariance(self, points, split,
                                               coverage):
        # Pricing the whole array at once, pricing two slices into
        # views of one caller-owned out= buffer, and pricing each
        # point alone must all produce identical bits.
        model = _model(ORGANIC_SUBSTRATE, coverage)
        ns = np.array([n for n, _, _ in points])
        lams = np.array([lam for _, lam, _ in points])
        ks = np.array([float(k) for _, _, k in points])
        whole = chiplet_cost_batch(ns, lams, ks, model, cache=None)

        cut = min(split, len(points) - 1)
        out = np.empty(len(points))
        left = chiplet_cost_batch(ns[:cut], lams[:cut], ks[:cut], model,
                                  cache=None, out=out[:cut])
        right = chiplet_cost_batch(ns[cut:], lams[cut:], ks[cut:], model,
                                   cache=None, out=out[cut:])
        assert left.cost_per_transistor_dollars.base is out
        assert right.cost_per_transistor_dollars.base is out
        np.testing.assert_array_equal(
            out, whole.cost_per_transistor_dollars)

        singles = [float(chiplet_cost_batch(
            np.array([n]), np.array([lam]), float(k), model,
            cache=None).cost_per_transistor_dollars[0])
            for n, lam, k in points]
        np.testing.assert_array_equal(
            np.array(singles), whole.cost_per_transistor_dollars)

    @settings(max_examples=20, deadline=None)
    @given(points=st.lists(point_strategy, min_size=1, max_size=16),
           coverage=coverage_strategy)
    def test_cache_reuse_is_bitwise_invisible(self, points, coverage):
        model = _model(ORGANIC_SUBSTRATE, coverage)
        ns = np.array([n for n, _, _ in points])
        lams = np.array([lam for _, lam, _ in points])
        ks = np.array([float(k) for _, _, k in points])
        cache = BatchCache()
        cold = chiplet_cost_batch(ns, lams, ks, model, cache=cache)
        warm = chiplet_cost_batch(ns, lams, ks, model, cache=cache)
        uncached = chiplet_cost_batch(ns, lams, ks, model, cache=None)
        np.testing.assert_array_equal(cold.cost_per_transistor_dollars,
                                      warm.cost_per_transistor_dollars)
        np.testing.assert_array_equal(cold.cost_per_transistor_dollars,
                                      uncached.cost_per_transistor_dollars)


class TestServeMatrixParity:
    @settings(max_examples=15, deadline=None)
    @given(points=st.lists(point_strategy, min_size=1, max_size=16),
           max_batch_size=st.integers(min_value=1, max_value=8),
           coverage=coverage_strategy)
    def test_served_bitwise_for_any_batch_size(self, points,
                                               max_batch_size, coverage):
        model = _model(ORGANIC_SUBSTRATE, coverage)
        queries = [ChipletCostQuery(n, lam, chiplets=k, model=model)
                   for n, lam, k in points]
        served = _serve(queries, max_batch_size=max_batch_size)
        for query, result in zip(queries, served):
            want = scalar_reference_cost(query)
            got = result.cost_per_transistor_dollars
            assert got == want or (math.isinf(got) and math.isinf(want))
            assert result.feasible == math.isfinite(want)

    @settings(max_examples=10, deadline=None)
    @given(points=st.lists(point_strategy, min_size=2, max_size=20),
           duplicates=st.integers(min_value=1, max_value=8),
           seed=st.integers(min_value=0, max_value=2**31))
    def test_order_and_dedup_invariance(self, points, duplicates, seed):
        import random
        rng = random.Random(seed)
        dup_points = points + [rng.choice(points)
                               for _ in range(duplicates)]
        shuffled = dup_points[:]
        rng.shuffle(shuffled)

        def costs(pts, **kwargs):
            served = _serve([ChipletCostQuery(n, lam, chiplets=k)
                             for n, lam, k in pts], **kwargs)
            return {pt: s.cost_per_transistor_dollars
                    for pt, s in zip(pts, served)}

        one_flush = costs(dup_points, max_batch_size=1024)
        tiny_flushes = costs(dup_points, max_batch_size=2)
        reordered = costs(shuffled, max_batch_size=7)
        assert one_flush == tiny_flushes == reordered


class TestSweepParity:
    @settings(max_examples=10, deadline=None)
    @given(k_max=st.integers(min_value=1, max_value=6),
           n_points=st.integers(min_value=2, max_value=40),
           tile_size=st.integers(min_value=1, max_value=512),
           workers=st.integers(min_value=1, max_value=3),
           lam=lam_strategy)
    def test_tiling_and_workers_are_bitwise_invisible(
            self, k_max, n_points, tile_size, workers, lam):
        spec = ChipletCrossoverSweep(feature_size_um=lam)
        ks = np.arange(1, k_max + 1, dtype=float)
        counts = np.geomspace(1e5, 1e9, n_points)
        direct = np.empty((k_max, n_points))
        spec.evaluate_tile(ks, counts, direct, cache=None)
        with TiledSweepRunner(backend="thread", workers=workers,
                              tile_size=tile_size) as runner:
            tiled = runner.run(spec, ks, counts)
        np.testing.assert_array_equal(tiled.values, direct)

    def test_checkpoint_resume_is_bitwise_invisible(self, tmp_path):
        spec = ChipletCrossoverSweep(feature_size_um=0.8)
        ks = np.arange(1, 7, dtype=float)
        counts = np.geomspace(1e5, 1e9, 64)
        ckpt = str(tmp_path / "chiplet-sweep")
        with TiledSweepRunner(tile_size=48,
                              checkpoint_dir=ckpt) as runner:
            first = runner.run(spec, ks, counts)
        assert first.stats["tiles_resumed"] == 0
        with TiledSweepRunner(tile_size=48, checkpoint_dir=ckpt,
                              resume=True) as runner:
            resumed = runner.run(spec, ks, counts)
        assert resumed.stats["tiles_resumed"] \
            == resumed.stats["tiles_total"] > 0
        np.testing.assert_array_equal(resumed.values, first.values)

        direct = np.empty(first.values.shape)
        spec.evaluate_tile(ks, counts, direct, cache=None)
        np.testing.assert_array_equal(first.values, direct)

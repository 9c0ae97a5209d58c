"""Property-based parity for :mod:`repro.batch.sweep`.

The sweep engine's headline contract: tiling is **invisible**.  For
any tile size, worker count and kill/resume split, the result grid is
bitwise identical to the sequential full-grid evaluation
(``CostLandscape.grid()`` for the Fig.-8 spec).  Hypothesis drives all
three degrees of freedom; the assertions are
``np.array_equal`` — exact float equality including the inf cells of
infeasible regions, never ``allclose``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.sweep import FabCostSweep, SweepPlan, TiledSweepRunner
from repro.core.optimization import FIG8_FAB, CostLandscape

COUNTS = np.geomspace(1e5, 1e7, 13)
LAMS = np.linspace(0.3, 2.0, 19)

#: The parity reference: the sequential full-grid evaluation every
#: tiled/pooled/resumed variant must reproduce bit-for-bit.
REFERENCE = CostLandscape(fab=FIG8_FAB, feature_sizes_um=LAMS,
                          transistor_counts=COUNTS).grid()


class TestTilingInvariance:
    @settings(max_examples=40, deadline=None)
    @given(tile_size=st.integers(min_value=1, max_value=300))
    def test_any_tile_size_is_bitwise(self, tile_size):
        result = TiledSweepRunner(tile_size=tile_size).run(
            FabCostSweep(), COUNTS, LAMS)
        assert np.array_equal(result.values, REFERENCE)

    @settings(max_examples=6, deadline=None)
    @given(tile_size=st.integers(min_value=20, max_value=150),
           workers=st.integers(min_value=2, max_value=3))
    def test_process_pool_is_bitwise(self, tile_size, workers):
        with TiledSweepRunner(workers=workers,
                              tile_size=tile_size) as runner:
            result = runner.run(FabCostSweep(), COUNTS, LAMS)
        assert np.array_equal(result.values, REFERENCE)

    @settings(max_examples=15, deadline=None)
    @given(tile_size=st.integers(min_value=1, max_value=200),
           data=st.data())
    def test_interrupt_anywhere_then_resume_is_bitwise(self, tmp_path_factory,
                                                       tile_size, data):
        plan = SweepPlan.for_grid(COUNTS.size, LAMS.size, tile_size)
        stop_after = data.draw(
            st.integers(min_value=1, max_value=plan.n_tiles),
            label="stop_after")
        ckpt = tmp_path_factory.mktemp("sweep")

        class Stop(Exception):
            pass

        def hook(tile, done, total):
            if done >= stop_after:
                raise Stop

        try:
            TiledSweepRunner(tile_size=tile_size,
                             checkpoint_dir=ckpt).run(
                FabCostSweep(), COUNTS, LAMS, on_tile=hook)
            interrupted = False
        except Stop:
            interrupted = True
        result = TiledSweepRunner(tile_size=tile_size, checkpoint_dir=ckpt,
                                  resume=True).run(
            FabCostSweep(), COUNTS, LAMS)
        assert np.array_equal(result.values, REFERENCE)
        if interrupted:
            assert result.stats["tiles_resumed"] == stop_after
            assert result.stats["tiles_computed"] == \
                plan.n_tiles - stop_after
        else:
            # stop_after == n_tiles: the first run finished.
            assert result.stats["tiles_resumed"] == plan.n_tiles

    @settings(max_examples=10, deadline=None)
    @given(tile_size=st.integers(min_value=1, max_value=300),
           workers=st.integers(min_value=1, max_value=3))
    def test_landscape_grid_knobs_are_bitwise(self, tile_size, workers):
        landscape = CostLandscape(fab=FIG8_FAB, feature_sizes_um=LAMS,
                                  transistor_counts=COUNTS)
        tiled = landscape.grid(workers=workers, tile_size=tile_size)
        assert np.array_equal(tiled, REFERENCE)

"""TiledSweepRunner: plans, specs, checkpoints, faults, out= contract.

The bitwise-parity quantification over tile size / workers / backend /
resume lives in ``tests/property_based/test_sweep_parity.py``; the
kill-a-real-process resume test in
``tests/integration/test_sweep_resume.py``.  This module pins the
mechanics those rely on.
"""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from repro.batch.sweep import (
    DEFAULT_TILE_SIZE,
    DieAreaCostSweep,
    FabCostSweep,
    FAULT_ENV,
    ScenarioSweep,
    SweepCheckpoint,
    SweepPlan,
    Tile,
    TiledSweepRunner,
    validate_backend,
)
from repro.core.optimization import FIG8_FAB, CostLandscape
from repro.core.scenarios import SCENARIO_2
from repro.errors import ParameterError
from repro.yieldsim.parallel import ParallelExecutionWarning

COUNTS = np.geomspace(1e5, 1e7, 17)
LAMS = np.linspace(0.3, 2.0, 23)


def _reference_grid():
    return CostLandscape(fab=FIG8_FAB, feature_sizes_um=LAMS,
                         transistor_counts=COUNTS).grid()


class TestPlan:
    def test_tiles_partition_the_grid_exactly_once(self):
        plan = SweepPlan.for_grid(17, 23, tile_size=40)
        seen = np.zeros((17, 23), dtype=int)
        for tile in plan.tiles():
            seen[tile.row_lo:tile.row_hi, tile.col_lo:tile.col_hi] += 1
        assert (seen == 1).all()

    def test_enumeration_and_random_access_agree(self):
        plan = SweepPlan.for_grid(10, 7, tile_size=9)
        for tile in plan.tiles():
            assert plan.tile(tile.index) == tile

    def test_full_width_tiles_preferred(self):
        # tile_cols saturates at n_cols first; leftover budget stacks
        # rows — slabs stay contiguous runs of the row-major grid.
        plan = SweepPlan.for_grid(100, 10, tile_size=50)
        assert plan.tile_cols == 10
        assert plan.tile_rows == 5

    def test_tile_size_smaller_than_a_row(self):
        plan = SweepPlan.for_grid(4, 100, tile_size=30)
        assert plan.tile_cols == 30
        assert plan.tile_rows == 1
        assert plan.n_tiles == 4 * 4  # ceil(100/30) = 4 col bands

    def test_counts(self):
        plan = SweepPlan.for_grid(17, 23, tile_size=40)
        assert plan.n_tiles == plan.n_row_bands * plan.n_col_bands
        assert sum(t.n_points for t in plan.tiles()) == 17 * 23

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ParameterError):
            SweepPlan.for_grid(0, 5)
        with pytest.raises(ParameterError):
            SweepPlan.for_grid(5, 0)
        with pytest.raises(ParameterError):
            SweepPlan.for_grid(5, 5, tile_size=0)
        with pytest.raises(ParameterError):
            SweepPlan.for_grid(5, 5).tile(999)

    def test_backend_vocabulary(self):
        assert validate_backend("auto") == "auto"
        with pytest.raises(ParameterError):
            validate_backend("fork")


class TestRunnerBasics:
    def test_sequential_matches_landscape_grid_bitwise(self):
        # workers pinned: this is the parity *reference* path, and it
        # must stay sequential even under the CI env-injection matrix.
        result = TiledSweepRunner(workers=1, tile_size=64).run(
            FabCostSweep(), COUNTS, LAMS)
        assert np.array_equal(result.values, _reference_grid())
        assert result.stats["backend"] == "sequential"
        assert result.stats["tiles_computed"] == result.plan.n_tiles

    def test_out_buffer_is_filled_and_returned(self):
        out = np.empty((COUNTS.size, LAMS.size), dtype=np.float64)
        result = TiledSweepRunner(tile_size=100).run(
            FabCostSweep(), COUNTS, LAMS, out=out)
        assert result.values is out
        assert np.array_equal(out, _reference_grid())

    def test_out_validation(self):
        runner = TiledSweepRunner()
        with pytest.raises(ParameterError):
            runner.run(FabCostSweep(), COUNTS, LAMS,
                       out=np.empty((1, LAMS.size)))
        with pytest.raises(ParameterError):
            runner.run(FabCostSweep(), COUNTS, LAMS,
                       out=np.empty((COUNTS.size, LAMS.size),
                                    dtype=np.float32))

    def test_constructor_validation(self):
        with pytest.raises(ParameterError):
            TiledSweepRunner(backend="fork")
        with pytest.raises(ParameterError):
            TiledSweepRunner(workers=0)
        with pytest.raises(ParameterError):
            TiledSweepRunner(tile_size=0)
        with pytest.raises(ParameterError):
            TiledSweepRunner(resume=True)  # needs checkpoint_dir

    def test_empty_axes_rejected(self):
        with pytest.raises(ParameterError):
            TiledSweepRunner().run(FabCostSweep(), [], LAMS)

    def test_auto_backend_resolution(self):
        assert TiledSweepRunner(
            backend="auto", workers=1)._resolved_backend() == "thread"
        with TiledSweepRunner(backend="auto", workers=2) as runner:
            assert runner._resolved_backend() == "process"

    def test_on_tile_progress_sequence(self):
        calls = []
        TiledSweepRunner(tile_size=64).run(
            FabCostSweep(), COUNTS, LAMS,
            on_tile=lambda tile, done, total: calls.append((done, total)))
        total = calls[0][1]
        assert [c[0] for c in calls] == list(range(1, total + 1))
        assert all(c[1] == total for c in calls)

    def test_argmin_is_the_cheapest_feasible_cell(self):
        result = TiledSweepRunner(tile_size=64).run(
            FabCostSweep(), COUNTS, LAMS)
        i, j = result.argmin()
        finite = result.values[np.isfinite(result.values)]
        assert result.values[i, j] == finite.min()

    def test_argmin_none_when_everything_infeasible(self):
        # Counts so large no die ever fits the wafer: all-inf grid.
        result = TiledSweepRunner().run(
            FabCostSweep(), np.array([1e18, 2e18]), LAMS)
        assert not np.isfinite(result.values).any()
        assert result.argmin() is None


class TestBackends:
    def test_thread_backend_bitwise(self):
        with TiledSweepRunner(backend="thread", workers=3,
                              tile_size=37) as runner:
            result = runner.run(FabCostSweep(), COUNTS, LAMS)
        assert np.array_equal(result.values, _reference_grid())
        assert result.stats["backend"] == "thread"

    def test_process_backend_bitwise(self):
        with TiledSweepRunner(backend="process", workers=2,
                              tile_size=100) as runner:
            result = runner.run(FabCostSweep(), COUNTS, LAMS)
        assert np.array_equal(result.values, _reference_grid())
        assert result.stats["backend"] == "process"

    def test_pool_reused_across_runs(self):
        with TiledSweepRunner(backend="process", workers=2,
                              tile_size=200) as runner:
            runner.run(FabCostSweep(), COUNTS, LAMS)
            pool = runner._pool
            assert pool is not None
            runner.run(FabCostSweep(), COUNTS, LAMS)
            assert runner._pool is pool
        assert runner._pool is None  # context exit shut it down

    def test_injected_raise_surfaces_after_fallback(self):
        # "raise" faults in every process, the parent's in-process
        # retry included — the error must surface to the caller, not
        # vanish into a silent half-written grid.
        os.environ[FAULT_ENV] = "raise"
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ParallelExecutionWarning)
                with TiledSweepRunner(backend="process", workers=2,
                                      tile_size=100) as runner:
                    with pytest.raises(RuntimeError,
                                       match="injected sweep worker"):
                        runner.run(FabCostSweep(), COUNTS, LAMS)
        finally:
            del os.environ[FAULT_ENV]

    def test_killed_workers_degrade_to_sequential_parity(self):
        # Workers hard-exit; the parent (whose pid is exempted) picks
        # the tiles up in-process and the sweep still lands bitwise.
        os.environ[FAULT_ENV] = f"exit:{os.getpid()}"
        try:
            with pytest.warns(ParallelExecutionWarning):
                with TiledSweepRunner(backend="process", workers=2,
                                      tile_size=100) as runner:
                    result = runner.run(FabCostSweep(), COUNTS, LAMS)
        finally:
            del os.environ[FAULT_ENV]
        assert np.array_equal(result.values, _reference_grid())


class TestSpecs:
    def test_die_area_sweep_matches_scalar_operation_order(self):
        # Each row must land bitwise on the scalar optimizer's own
        # scan (which evaluates a 1-D batch per area): same eq.-(5)
        # operation order, same kernel, different broadcasting shape.
        from repro.batch.engine import transistor_cost_batch
        areas = np.array([0.25, 1.0, 2.5])
        lams = np.linspace(0.4, 1.6, 11)
        out = np.empty((3, 11), dtype=np.float64)
        DieAreaCostSweep().evaluate_tile(areas, lams, out, cache=None)
        for i, area in enumerate(areas):
            n_tr = area * 1.0e8 / (FIG8_FAB.design_density * lams * lams)
            want = transistor_cost_batch(
                n_tr, lams, FIG8_FAB, cache=None).cost_per_transistor_dollars
            assert np.array_equal(out[i], want)

    def test_die_area_sweep_argmin_matches_scalar_optimizer(self):
        from repro.core.optimization import (
            _DIE_AREA_SCAN_POINTS, optimal_feature_size_for_die_area)
        lams = np.linspace(0.25, 1.5, _DIE_AREA_SCAN_POINTS)
        out = np.empty((1, lams.size), dtype=np.float64)
        DieAreaCostSweep().evaluate_tile(np.array([1.0]), lams, out)
        k = int(np.argmin(np.where(np.isfinite(out[0]), out[0], np.inf)))
        lam_opt, cost_opt = optimal_feature_size_for_die_area(1.0)
        assert float(lams[k]) == lam_opt
        assert float(out[0, k]) == cost_opt

    def test_scenario_sweep_rows_are_the_per_x_curves(self):
        lams = np.linspace(0.3, 1.0, 15)
        rates = np.asarray(SCENARIO_2.growth_rates)
        out = np.empty((rates.size, lams.size), dtype=np.float64)
        ScenarioSweep(SCENARIO_2).evaluate_tile(rates, lams, out)
        for i, x in enumerate(SCENARIO_2.growth_rates):
            assert np.array_equal(out[i], SCENARIO_2._curve(lams, x))

    def test_fingerprints_distinguish_specs(self):
        prints = {FabCostSweep().fingerprint(),
                  DieAreaCostSweep().fingerprint(),
                  ScenarioSweep(SCENARIO_2).fingerprint()}
        assert len(prints) == 3
        # ...and are stable across instances (the manifest contract).
        assert FabCostSweep().fingerprint() == FabCostSweep().fingerprint()


class TestCheckpoint:
    def _interrupt_after(self, n):
        class Stop(Exception):
            pass

        def hook(tile, done, total):
            if done >= n:
                raise Stop

        return Stop, hook

    def test_interrupt_then_resume_is_bitwise(self, tmp_path):
        Stop, hook = self._interrupt_after(3)
        ckpt = tmp_path / "run"
        with pytest.raises(Stop):
            TiledSweepRunner(tile_size=64, checkpoint_dir=ckpt).run(
                FabCostSweep(), COUNTS, LAMS, on_tile=hook)
        stored = sorted(p.name for p in (ckpt / "tiles").glob("*.npy"))
        assert stored == [f"tile_{i:06d}.npy" for i in range(3)]

        result = TiledSweepRunner(tile_size=64, checkpoint_dir=ckpt,
                                  resume=True).run(
            FabCostSweep(), COUNTS, LAMS)
        assert result.stats["tiles_resumed"] == 3
        assert result.stats["tiles_computed"] == result.plan.n_tiles - 3
        assert np.array_equal(result.values, _reference_grid())

    def test_completed_dir_without_resume_refused(self, tmp_path):
        ckpt = tmp_path / "run"
        TiledSweepRunner(tile_size=64, checkpoint_dir=ckpt).run(
            FabCostSweep(), COUNTS, LAMS)
        with pytest.raises(ParameterError, match="resume=True"):
            TiledSweepRunner(tile_size=64, checkpoint_dir=ckpt).run(
                FabCostSweep(), COUNTS, LAMS)

    def test_mismatched_plan_refused_even_with_resume(self, tmp_path):
        ckpt = tmp_path / "run"
        TiledSweepRunner(tile_size=64, checkpoint_dir=ckpt).run(
            FabCostSweep(), COUNTS, LAMS)
        for runner in (
                TiledSweepRunner(tile_size=32, checkpoint_dir=ckpt,
                                 resume=True),  # different tiling
                TiledSweepRunner(tile_size=64, checkpoint_dir=ckpt,
                                 resume=True)):
            with pytest.raises(ParameterError, match="incompatible"):
                runner.run(FabCostSweep(), COUNTS[:-1], LAMS)
        with pytest.raises(ParameterError, match="incompatible"):
            TiledSweepRunner(tile_size=32, checkpoint_dir=ckpt,
                             resume=True).run(FabCostSweep(), COUNTS, LAMS)

    def test_different_spec_refused(self, tmp_path):
        ckpt = tmp_path / "run"
        TiledSweepRunner(tile_size=64, checkpoint_dir=ckpt).run(
            FabCostSweep(), COUNTS, LAMS)
        with pytest.raises(ParameterError, match="incompatible"):
            TiledSweepRunner(tile_size=64, checkpoint_dir=ckpt,
                             resume=True).run(
                DieAreaCostSweep(), COUNTS, LAMS)

    def test_resume_on_fresh_dir_computes_everything(self, tmp_path):
        result = TiledSweepRunner(tile_size=64,
                                  checkpoint_dir=tmp_path / "new",
                                  resume=True).run(
            FabCostSweep(), COUNTS, LAMS)
        assert result.stats["tiles_resumed"] == 0
        assert np.array_equal(result.values, _reference_grid())

    def test_corrupt_tile_is_recomputed(self, tmp_path):
        ckpt = tmp_path / "run"
        Stop, hook = self._interrupt_after(2)
        with pytest.raises(Stop):
            TiledSweepRunner(tile_size=64, checkpoint_dir=ckpt).run(
                FabCostSweep(), COUNTS, LAMS, on_tile=hook)
        (ckpt / "tiles" / "tile_000001.npy").write_bytes(b"garbage")
        result = TiledSweepRunner(tile_size=64, checkpoint_dir=ckpt,
                                  resume=True).run(
            FabCostSweep(), COUNTS, LAMS)
        assert result.stats["tiles_resumed"] == 1  # only the intact one
        assert np.array_equal(result.values, _reference_grid())

    def test_killed_mid_write_leaves_no_partial_tile(self, tmp_path):
        # Atomicity contract: SweepCheckpoint.store goes through a
        # temp name + os.replace, so a tile file either exists whole
        # or not at all — a leftover temp is ignored by resume.
        ckpt = SweepCheckpoint(tmp_path, resume=True)
        plan = SweepPlan.for_grid(4, 4, tile_size=4)
        manifest_stub = {"version": 1, "n_rows": 4, "n_cols": 4,
                         "tile_rows": 1, "tile_cols": 4, "n_tiles": 4,
                         "rows_sha256": "x", "cols_sha256": "y",
                         "spec": "stub"}
        ckpt.prepare(manifest_stub)
        (ckpt.tiles_dir / ".tile_000002.tmp").write_bytes(b"partial")
        assert ckpt._completed(plan.n_tiles) == set()
        assert ckpt.load(plan.tile(2)) is None


class TestProcessPoolObservability:
    def test_worker_metrics_reparent(self):
        from repro import obs

        obs.enable()
        obs.clear_trace()
        obs.metrics.reset()
        try:
            with TiledSweepRunner(backend="process", workers=2,
                                  tile_size=100) as runner:
                runner.run(FabCostSweep(), COUNTS, LAMS)
            counters = obs.metrics.snapshot()["counters"]
        finally:
            obs.disable()
            obs.clear_trace()
            obs.metrics.reset()
        plan = SweepPlan.for_grid(COUNTS.size, LAMS.size, 100)
        assert counters["sweep.runs"] == 1
        assert counters["sweep.tiles"] == plan.n_tiles
        assert counters["sweep.points"] == COUNTS.size * LAMS.size
        assert counters["sweep.shm.blocks"] == 1
        # Worker-side batch-engine activity crossed the process
        # boundary via the capture/absorb protocol.
        assert counters.get("batch.evaluate.calls", 0) > 0


class TestShutdownHygiene:
    def test_process_sweep_interpreter_exit_is_clean(self):
        # End-to-end guard for the promoted ShmBlock's tracker
        # discipline: a full process-backend sweep must leave a fresh
        # interpreter with rc 0 and zero stderr (no resource-tracker
        # KeyErrors, no leaked-segment warnings at shutdown).
        code = "\n".join([
            "import numpy as np",
            "from repro.batch.sweep import FabCostSweep, TiledSweepRunner",
            "counts = np.geomspace(1e5, 1e7, 8)",
            "lams = np.linspace(0.3, 2.0, 9)",
            "with TiledSweepRunner(backend='process', workers=2,",
            "                      tile_size=24) as runner:",
            "    runner.run(FabCostSweep(), counts, lams)",
        ])
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip() == "", proc.stderr

"""Kill-and-resume: a sweep process dying mid-run loses nothing.

The checkpoint contract end to end, with a *real* interpreter death
(``os._exit`` — no exception handlers, no atexit, no flushing beyond
what :class:`~repro.batch.sweep.SweepCheckpoint` already did): a
mega-sweep killed after K tiles, resumed in a fresh process, produces
a grid bitwise identical to an uninterrupted sequential run.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from repro.batch.sweep import FabCostSweep, SweepPlan, TiledSweepRunner
from repro.core.optimization import FIG8_FAB, CostLandscape

N_COUNTS, N_LAMS, TILE_SIZE = 24, 30, 90
KILL_AFTER = 3

_SWEEP_PROGRAM = """
import multiprocessing
import os
import sys

import numpy as np

from repro.batch.sweep import FabCostSweep, TiledSweepRunner

counts = np.geomspace(1e5, 1e7, {n_counts})
lams = np.linspace(0.3, 2.0, {n_lams})
runner = TiledSweepRunner({workers_args}tile_size={tile_size},
                          checkpoint_dir=sys.argv[1])


def kill(tile, done, total):
    if done >= {kill_after}:
        # Hard death of the whole tree (kill -9 style): no unwinding,
        # no cleanup.  Pool workers go first — orphans would otherwise
        # pin the test harness's output pipes open.
        for p in multiprocessing.active_children():
            p.kill()
        os._exit(3)


runner.run(FabCostSweep(), counts, lams, on_tile=kill)
os._exit(0)  # not reached when the kill fires
"""


@pytest.fixture(scope="module")
def reference():
    counts = np.geomspace(1e5, 1e7, N_COUNTS)
    lams = np.linspace(0.3, 2.0, N_LAMS)
    return CostLandscape(fab=FIG8_FAB, feature_sizes_um=lams,
                         transistor_counts=counts).grid()


def test_killed_sweep_resumes_bitwise(tmp_path, reference):
    counts = np.geomspace(1e5, 1e7, N_COUNTS)
    lams = np.linspace(0.3, 2.0, N_LAMS)
    plan = SweepPlan.for_grid(N_COUNTS, N_LAMS, TILE_SIZE)
    assert plan.n_tiles > KILL_AFTER  # the kill must interrupt, not finish

    ckpt = tmp_path / "run"
    program = _SWEEP_PROGRAM.format(
        n_counts=N_COUNTS, n_lams=N_LAMS, tile_size=TILE_SIZE,
        kill_after=KILL_AFTER, workers_args="")
    proc = subprocess.run(
        [sys.executable, "-c", program, str(ckpt)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 3, (proc.stdout, proc.stderr)

    # The dead run left exactly the tiles it had finished — whole
    # files only (store() is atomic), plus a valid manifest.
    stored = sorted(p.name for p in (ckpt / "tiles").glob("*.npy"))
    assert stored == [f"tile_{i:06d}.npy" for i in range(KILL_AFTER)]
    manifest = json.loads((ckpt / "plan.json").read_text())
    assert manifest["n_tiles"] == plan.n_tiles

    result = TiledSweepRunner(tile_size=TILE_SIZE, checkpoint_dir=ckpt,
                              resume=True).run(FabCostSweep(), counts, lams)
    assert result.stats["tiles_resumed"] == KILL_AFTER
    assert result.stats["tiles_computed"] == plan.n_tiles - KILL_AFTER
    assert np.array_equal(result.values, reference)


def test_killed_process_backend_sweep_resumes_bitwise(tmp_path, reference):
    # Same death, but the victim was driving the process pool —
    # resume must also work when the checkpoint came from pooled waves.
    counts = np.geomspace(1e5, 1e7, N_COUNTS)
    lams = np.linspace(0.3, 2.0, N_LAMS)
    plan = SweepPlan.for_grid(N_COUNTS, N_LAMS, TILE_SIZE)

    program = _SWEEP_PROGRAM.format(
        n_counts=N_COUNTS, n_lams=N_LAMS, tile_size=TILE_SIZE,
        kill_after=KILL_AFTER,
        workers_args="workers=2, ")
    ckpt = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-c", program, str(ckpt)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 3, (proc.stdout, proc.stderr)

    done = {int(p.stem.split("_")[1])
            for p in (ckpt / "tiles").glob("tile_*.npy")}
    assert len(done) >= KILL_AFTER  # in-flight wave may have added more

    result = TiledSweepRunner(tile_size=TILE_SIZE, checkpoint_dir=ckpt,
                              resume=True).run(FabCostSweep(), counts, lams)
    assert result.stats["tiles_resumed"] == len(done)
    assert np.array_equal(result.values, reference)

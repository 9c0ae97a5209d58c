"""repro.pool: sweeps and Monte Carlo lots share one pool of workers.

The fallback, fault-injection and reuse mechanics are pinned in
``tests/batch/test_sweep.py`` and ``tests/yieldsim/test_parallel.py``;
this module checks the sharing itself.
"""

import multiprocessing
import os

import numpy as np

from repro import obs
from repro import pool as pool_mod
from repro.batch.sweep import FabCostSweep, TiledSweepRunner
from repro.geometry import Die, Wafer
from repro.yieldsim import SpotDefectSimulator


def test_lot_inside_a_sweep_block_runs_on_the_sweep_workers():
    sim = SpotDefectSimulator(Wafer(radius_cm=7.5), Die.square(1.0),
                              defect_density_per_cm2=0.6)
    pool_mod.shutdown()  # pools other tests left at other counts
    obs.enable()
    obs.clear_trace()
    try:
        with TiledSweepRunner(workers=2, tile_size=100) as runner:
            runner.run(FabCostSweep(), np.geomspace(1e5, 1e7, 17),
                       np.linspace(0.3, 2.0, 23))
            sim.simulate_lot(6, seed=11, workers=2)
        trace = obs.get_trace()
    finally:
        obs.disable()
        obs.clear_trace()
        obs.metrics.reset()
    tile_pids = {r.pid for r in trace if r.name == "sweep.tile"}
    wafer_pids = {r.pid for r in trace if r.name == "mc.wafer"}
    assert tile_pids and os.getpid() not in tile_pids
    assert wafer_pids and wafer_pids <= tile_pids
    assert multiprocessing.active_children() == []

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
from repro.core.optimization import CostLandscape
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


def _children() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


def _landscape() -> CostLandscape:
    return CostLandscape(feature_sizes_um=np.linspace(0.3, 2.0, 60),
                         transistor_counts=np.geomspace(1e5, 1e7, 60))


def test_library_sweeps_reuse_the_shared_pool():
    pool_mod.shutdown()  # pools other tests left at other counts
    landscape = _landscape()
    obs.enable()
    obs.clear_trace()
    try:
        landscape.grid(workers=2, tile_size=400)
        workers = _children()
        landscape.grid(workers=2, tile_size=400)
        assert _children() == workers
        trace = obs.get_trace()
    finally:
        obs.disable()
        obs.clear_trace()
        obs.metrics.reset()
        pool_mod.shutdown()
    tile_pids = {r.pid for r in trace if r.name == "sweep.tile"}
    assert workers and tile_pids and tile_pids <= workers


def test_library_sweep_keeps_an_enclosing_runners_workers():
    pool_mod.shutdown()
    with TiledSweepRunner(workers=2, tile_size=100) as runner:
        runner.run(FabCostSweep(), np.geomspace(1e5, 1e7, 17),
                   np.linspace(0.3, 2.0, 23))
        workers = _children()
        _landscape().grid(workers=2, tile_size=400)
        assert workers and _children() == workers
    assert multiprocessing.active_children() == []

"""repro.pool: sweeps and Monte Carlo lots share one pool of workers.

The fallback, fault-injection and reuse mechanics are pinned in
``tests/batch/test_sweep.py`` and ``tests/yieldsim/test_parallel.py``;
this module checks the sharing itself.
"""

import ctypes
import multiprocessing
import os
import resource

import numpy as np
import pytest

from repro import obs
from repro import pool as pool_mod
from repro.batch.sweep import (
    ChipletCrossoverSweep,
    FabCostSweep,
    TiledSweepRunner,
)
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


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


#: 65,536-cell tiles: a 128 x 512 Fig.-8 tile and a 2 x 32,768
#: crossover tile, whose ~10 MiB of live temporaries need the larger
#: trim threshold.
_TILES = {
    "fig8": (FabCostSweep(), np.geomspace(1e5, 3e7, 128),
             np.linspace(0.35, 1.4, 512)),
    "crossover": (ChipletCrossoverSweep(feature_size_um=0.8),
                  np.array([7.0, 8.0]), np.geomspace(1e5, 1e8, 32768)),
}


def _repeat_tile_faults(name: str) -> tuple[int, int]:
    # (pid, minor faults of the last of three evaluations of one tile
    # in this process).
    spec, rows, cols = _TILES[name]
    out = np.empty((rows.size, cols.size))
    for _ in range(2):
        spec.evaluate_tile(rows, cols, out)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    spec.evaluate_tile(rows, cols, out)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    return os.getpid(), after - before


@pytest.mark.skipif(not _has_mallopt(), reason="C library has no mallopt")
@pytest.mark.parametrize("tile", sorted(_TILES))
def test_pool_workers_keep_the_memory_a_tile_frees(tile):
    # With glibc's default thresholds every repeat of a tile faults its
    # freed temporaries back in, in a pool worker: ~1,250 pages for the
    # Fig.-8 tile and ~2,660 for the crossover tile, which also faults
    # that many at an 8 MiB trim threshold.
    pool_mod.shutdown()
    try:
        [(pid, faults)] = pool_mod.run(_repeat_tile_faults, [(tile,)],
                                       workers=2)
    finally:
        pool_mod.shutdown()
    assert pid != os.getpid()
    assert faults < 1247 / 10


@pytest.mark.parametrize("libc", [OSError, object])
def test_worker_initializer_never_raises(monkeypatch, libc):
    # No C library to load, or one without mallopt: the allocator is
    # left as it is.  A raising initializer would break the pool.
    def load(name):
        if libc is OSError:
            raise OSError("no C library")
        return libc()

    monkeypatch.setattr(pool_mod.ctypes, "CDLL", load)
    assert pool_mod._keep_freed_memory() is None

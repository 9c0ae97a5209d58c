"""Process-sharded Monte Carlo lots with spawned seed streams.

``SpotDefectSimulator.simulate_lot`` grades a whole lot in one
vectorized pass, but on a single generator stream — lot sizes large
enough for tight statistical bounds are wall-clock bound on one core.
This module shards a lot across processes while keeping the results
**bitwise independent of worker count and scheduling**:

* every wafer gets its own child stream derived with
  ``np.random.SeedSequence.spawn`` (wafer *i* always consumes child
  *i*, no matter which worker simulates it),
* shards are contiguous wafer-index blocks, so merging preserves wafer
  order by construction,
* the per-wafer draw order inside a shard is exactly the draw order of
  ``simulate_wafer`` on that wafer's child stream, so the sharded lot
  is bitwise identical to a sequential per-wafer reference loop.

Execution degrades gracefully: ``workers=1`` (or ``None``) runs the
same spawned-stream schedule in-process, and a
:class:`~concurrent.futures.ProcessPoolExecutor` that cannot start or
run (sandboxed/fork-restricted hosts, unpicklable platforms) falls
back to the sequential schedule with a single
:class:`ParallelExecutionWarning` — results are identical either way.

The contract is pinned down by ``tests/yieldsim/test_parallel.py``
(golden determinism + convergence at large lot sizes) and
``tests/property_based/test_parallel_parity.py`` (hypothesis sweeps
over geometry, density, clustering, lot size and worker count), and
timed by ``benchmarks/bench_mc_shard.py``.
"""

from __future__ import annotations

import pickle
import time
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Union, overload

import numpy as np

from ..errors import ParameterError
from ..obs import metrics as _metrics, span as _span
from ..obs.capture import absorb, begin_capture, capture_flags, end_capture
from .monte_carlo import WaferMap

if TYPE_CHECKING:  # pragma: no cover - import cycle with monte_carlo
    from .monte_carlo import SpotDefectSimulator

#: Seeds accepted wherever a lot-level seed is expected.
SeedLike = Union[int, np.random.SeedSequence]


class ParallelExecutionWarning(RuntimeWarning):
    """Process-pool execution failed; the lot ran sequentially instead.

    Emitted at most once per :func:`simulate_lot_sharded` call.  The
    results are unaffected — the sequential fallback replays exactly
    the same per-wafer seed schedule.
    """


@dataclass(frozen=True, eq=False)
class LotResult(Sequence):
    """An ordered lot of :class:`WaferMap` plus lot-level aggregates.

    Behaves as an immutable sequence of wafer maps (``len``, indexing,
    slicing, iteration), so existing consumers written against
    ``list[WaferMap]`` keep working, while lot-level statistics live
    in one place.  All wafers in a lot share the same die grid.
    """

    wafer_maps: tuple[WaferMap, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "wafer_maps", tuple(self.wafer_maps))

    def __len__(self) -> int:
        """Number of wafers in the lot."""
        return len(self.wafer_maps)

    @overload
    def __getitem__(self, index: int) -> WaferMap: ...

    @overload
    def __getitem__(self, index: slice) -> "LotResult": ...

    def __getitem__(self, index):
        """Wafer map at ``index``; a slice returns a sub-``LotResult``."""
        if isinstance(index, slice):
            return LotResult(self.wafer_maps[index])
        return self.wafer_maps[index]

    def __iter__(self) -> Iterator[WaferMap]:
        """Iterate wafer maps in wafer order."""
        return iter(self.wafer_maps)

    @property
    def n_wafers(self) -> int:
        """Number of wafers in the lot."""
        return len(self.wafer_maps)

    @property
    def n_dies_total(self) -> int:
        """Total complete dies across the lot."""
        return sum(m.n_dies for m in self.wafer_maps)

    @property
    def n_good_total(self) -> int:
        """Total dies with zero killer defects across the lot."""
        return sum(m.n_good for m in self.wafer_maps)

    @property
    def n_defects_total(self) -> int:
        """Total physical defects thrown across the lot (killer or not)."""
        return sum(m.n_defects_total for m in self.wafer_maps)

    @property
    def yield_fraction(self) -> float:
        """Pooled lot yield: total good dies over total dies.

        Because every wafer in a lot shares one die grid, this equals
        the mean of :attr:`per_wafer_yields` (up to float rounding).
        """
        total = self.n_dies_total
        return self.n_good_total / total if total else 0.0

    @property
    def per_wafer_yields(self) -> np.ndarray:
        """Array of each wafer's ``yield_fraction``, in wafer order."""
        return np.array([m.yield_fraction for m in self.wafer_maps],
                        dtype=float)

    @property
    def defect_counts(self) -> np.ndarray:
        """Killer-defect counts stacked as a (n_wafers, n_dies) array."""
        if not self.wafer_maps:
            return np.zeros((0, 0), dtype=int)
        return np.stack([m.defect_counts for m in self.wafer_maps])


def spawn_wafer_seeds(seed: SeedLike,
                      n_wafers: int) -> list[np.random.SeedSequence]:
    """One independent child :class:`~numpy.random.SeedSequence` per wafer.

    Wafer ``i`` always receives child ``i`` of the root sequence, so
    the per-wafer streams — and therefore the simulated lot — do not
    depend on how wafers are later packed into worker shards.  An
    ``int`` seed builds a fresh root; passing a ``SeedSequence``
    spawns from it in place (advancing its spawn counter).
    """
    if n_wafers < 0:
        raise ParameterError(f"n_wafers must be >= 0, got {n_wafers}")
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    return root.spawn(n_wafers) if n_wafers else []


def _simulate_shard(sim: "SpotDefectSimulator",
                    seeds: list[np.random.SeedSequence],
                    n_dies: int, first_wafer: int = 0,
                    obs_capture: tuple[bool, bool] | None = None,
                    density_scale: float = 1.0
                    ) -> tuple[list[int], np.ndarray, dict | None]:
    # One worker's unit: draw each wafer from its own child stream (in
    # exactly simulate_wafer's draw order), then grade the whole shard
    # in one pass.  Returns (defects thrown per wafer, counts array of
    # shape (len(seeds), n_dies), observability payload or None) —
    # centers are NOT shipped back; the parent re-attaches its own copy.
    # ``obs_capture`` carries the parent's obs flags (None when off);
    # spans/metrics recorded under it are returned in the payload for
    # the parent to absorb, which works identically in-process and
    # across a spawn/fork pool boundary.
    # ``density_scale`` is the lot-level hierarchy factor — one scalar
    # drawn by the parent and shipped to every shard, so it cannot
    # depend on how the lot was split.
    frame = begin_capture(obs_capture) if obs_capture else None
    try:
        t0 = time.perf_counter() if obs_capture else 0.0
        with _span("mc.shard", first_wafer=first_wafer,
                   n_wafers=len(seeds)):
            n_thrown: list[int] = []
            killer_pos: list[np.ndarray] = []
            for i, ss in enumerate(seeds):
                with _span("mc.wafer", wafer=first_wafer + i):
                    rng = np.random.default_rng(ss)
                    thrown, pos = sim._throw_wafer_defects(
                        rng, n_dies, density_scale)
                n_thrown.append(thrown)
                killer_pos.append(pos)
                _metrics.inc("mc.wafers_simulated")
                _metrics.inc("mc.defects_thrown", thrown)
            counts = sim._grade_lot(killer_pos)
        if obs_capture:
            _metrics.observe("mc.worker.wall_seconds",
                             time.perf_counter() - t0)
    finally:
        payload = end_capture(frame) if frame else None
    return n_thrown, counts, payload


def _shard_slices(n_wafers: int, workers: int) -> list[slice]:
    # Contiguous, order-preserving blocks, sized as evenly as possible.
    bounds = np.linspace(0, n_wafers, workers + 1).astype(int)
    return [slice(int(lo), int(hi))
            for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


def simulate_lot_sharded(sim: "SpotDefectSimulator", n_wafers: int,
                         seed: SeedLike,
                         workers: int | None = None) -> LotResult:
    """Simulate a lot on per-wafer spawned streams, optionally sharded.

    Parameters
    ----------
    sim:
        The configured :class:`SpotDefectSimulator`.
    n_wafers:
        Lot size (>= 0).
    seed:
        Root entropy; expanded into one child stream per wafer via
        :func:`spawn_wafer_seeds`.
    workers:
        ``None`` or ``1`` runs the spawned-stream schedule in-process;
        ``k > 1`` splits the lot into ``k`` contiguous shards on a
        :class:`~concurrent.futures.ProcessPoolExecutor`.  Results are
        bitwise identical for every value (worker-count invariance).

    A pool that cannot start or execute falls back to the in-process
    schedule with one :class:`ParallelExecutionWarning`; genuine
    simulation errors (bad parameters) are never swallowed.
    """
    if n_wafers < 0:
        raise ParameterError(f"n_wafers must be >= 0, got {n_wafers}")
    if workers is not None and workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    centers = sim._die_centers()
    n_dies = int(centers.shape[0])
    root = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    seeds = spawn_wafer_seeds(root, n_wafers)
    # The lot-level density factor gets its own child stream, spawned
    # *after* the wafer children (child n_wafers) and only when the
    # hierarchy is enabled — non-hierarchical lots keep their exact
    # pre-existing seed schedule.  The parent draws the one scalar and
    # ships it to every shard, so the factor — like the wafer streams —
    # is independent of worker count.
    density_scale = 1.0
    if sim.lot_alpha is not None and sim.defect_density_per_cm2 > 0:
        density_scale = sim._lot_density_scale(
            np.random.default_rng(root.spawn(1)[0]))

    n_workers = 1 if workers is None else min(workers, max(n_wafers, 1))
    flags = capture_flags()
    with _span("mc.simulate_lot", n_wafers=n_wafers, workers=n_workers):
        if n_workers <= 1:
            parts = [_simulate_shard(sim, seeds, n_dies, 0, flags,
                                     density_scale)]
        else:
            slices = _shard_slices(n_wafers, n_workers)
            parts = _run_pool(
                _simulate_shard,
                [(sim, seeds[s], n_dies, s.start, flags, density_scale)
                 for s in slices])
        for part in parts:
            absorb(part[2])
    _metrics.inc("mc.lots_simulated")

    n_thrown = [t for part in parts for t in part[0]]
    counts = np.concatenate([part[1] for part in parts], axis=0) \
        if parts else np.zeros((0, n_dies), dtype=int)
    return LotResult(tuple(
        WaferMap(die_centers_cm=centers, defect_counts=counts[i],
                 n_defects_total=n_thrown[i])
        for i in range(n_wafers)))


def _run_pool(fn: Callable, argsets: list[tuple],
              pool: ProcessPoolExecutor | None = None) -> list:
    # Submit fn(*args) per argset on a process pool, one worker each.
    # Infrastructure failures (pool cannot fork/spawn, payload cannot
    # pickle, pool dies mid-flight) degrade to the sequential schedule;
    # model errors raised inside a worker propagate unchanged because
    # they are not in the caught set.  Shared by the sharded MC paths
    # here and in :mod:`repro.yieldsim.spatial`, and — with a
    # long-lived ``pool`` — by the tiled sweep runner
    # (:mod:`repro.batch.sweep`), which amortizes worker startup
    # across runs instead of paying it per call.  A caller-owned
    # pool is never shut down here, even when it turns out broken.
    import warnings

    try:
        if pool is not None:
            futures = [pool.submit(fn, *args) for args in argsets]
            return [f.result() for f in futures]
        with ProcessPoolExecutor(max_workers=len(argsets)) as tmp_pool:
            futures = [tmp_pool.submit(fn, *args) for args in argsets]
            return [f.result() for f in futures]
    except (OSError, RuntimeError, ImportError, pickle.PicklingError,
            TypeError) as exc:
        warnings.warn(
            f"process-pool execution unavailable ({exc!r}); "
            f"running the same schedule sequentially in-process",
            ParallelExecutionWarning, stacklevel=2)
        return [fn(*args) for args in argsets]

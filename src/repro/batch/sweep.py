"""Tiled mega-sweeps: million-point landscapes on the shm pool.

The paper's headline artifacts are *sweeps* — the Fig.-8 cost
landscape over (λ, N_tr), the per-die-area optimal-λ curves, the
Fig.-6/7 scenario curves.  :class:`TiledSweepRunner` evaluates any
such two-axis grid by cutting it into tiles (:class:`SweepPlan`) and
executing the tiles sequentially, on a thread pool, or on a process
pool that communicates through one :class:`~repro.shm.ShmBlock`.

Process-backend data flow (zero per-point pickling)
---------------------------------------------------
One shared segment holds the whole sweep as a flat float64 row::

    [ row-axis (R) | col-axis (C) | result grid (R·C, row-major) ]

The parent writes both axes once; a task pickles only ``(block name,
spec, tile bounds, obs flags)``.  Each worker maps the block by name,
reads its tile's axis slices, evaluates the spec's kernel straight
into its slab of the result grid (the ``out=`` write path end to
end), and unmaps.  The parent copies finished slabs into the caller's
array.  Worker crashes degrade through
:func:`repro.yieldsim.parallel._run_pool`'s sequential fallback and
the pool is rebuilt on the next wave; worker spans/metrics re-parent
into the caller's trace via the ``capture_flags``/``absorb`` protocol.

Bitwise parity
--------------
Tiling must be invisible: every backend, worker count, tile size and
resume path produces a result array **bit-for-bit identical** to the
sequential full-grid evaluation.  The sweep kernels only ever slice
axis arrays and evaluate the same elementwise :mod:`repro.batch`
ufunc pipelines on them, so a cell's value depends on nothing but its
own (row, col) inputs.  ``tests/property_based/test_sweep_parity.py``
quantifies over all four degrees of freedom.

Checkpoint / resume
-------------------
With ``checkpoint_dir=`` each finished tile is flushed to
``<dir>/tiles/tile_<index>.npy`` (written atomically via rename) under
a ``plan.json`` manifest recording the grid shape, tile shape, axis
hashes and spec fingerprint.  A killed sweep re-run with
``resume=True`` validates the manifest, loads every finished tile
back into the result array, and computes only the remainder — the
resumed array is bitwise identical to an uninterrupted run (the
parity contract above makes the merge safe).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, TYPE_CHECKING

import numpy as np

from ..errors import ParameterError
from ..obs import metrics as _metrics, span as _span
from ..obs.capture import absorb, begin_capture, capture_flags, end_capture
from ..obs.state import enabled as _obs_enabled
from ..shm import ShmBlock
from ..yieldsim.parallel import _run_pool
from .cache import BatchCache, default_cache
from .engine import (
    USE_DEFAULT_CACHE,
    _resolve_cache,
    chiplet_cost_batch,
    transistor_cost_batch,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle with core
    from ..core.optimization import FabCharacterization
    from ..core.scenarios import Scenario
    from ..system.chiplet import ChipletCostModel

__all__ = [
    "BACKEND_CHOICES",
    "ChipletCrossoverSweep",
    "DieAreaCostSweep",
    "FabCostSweep",
    "ScenarioSweep",
    "SweepPlan",
    "SweepResult",
    "Tile",
    "TiledSweepRunner",
]

#: Accepted values of the runner's ``backend=`` knob.
BACKEND_CHOICES = ("auto", "thread", "process")

#: Default points per tile: big enough that NumPy ufunc dispatch is
#: amortized, small enough that a pool sees many tiles per worker.
DEFAULT_TILE_SIZE = 65536

#: Fault-injection hook for the resilience tests
#: (``tests/batch/test_sweep.py``): ``"raise"`` raises in every process;
#: ``"exit:<pid>"`` hard-kills any process *except* ``<pid>`` so the
#: parent's sequential fallback still completes.
FAULT_ENV = "REPRO_SWEEP_WORKER_FAULT"

_MANIFEST_NAME = "plan.json"
_MANIFEST_VERSION = 1


def validate_backend(backend: str) -> str:
    """Check a ``backend=`` knob value, returning it unchanged."""
    if backend not in BACKEND_CHOICES:
        raise ParameterError(
            f"backend must be one of {BACKEND_CHOICES}, got {backend!r}")
    return backend


def _apply_fault() -> None:
    fault = os.environ.get(FAULT_ENV)
    if not fault:
        return
    if fault == "raise":
        raise RuntimeError("injected sweep worker fault")
    if fault.startswith("exit:") and os.getpid() != int(fault[5:]):
        os._exit(17)


# ---------------------------------------------------------------------------
# plan: axes → tiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Tile:
    """One rectangular slab of the sweep grid (half-open bounds)."""

    index: int
    row_lo: int
    row_hi: int
    col_lo: int
    col_hi: int

    @property
    def shape(self) -> tuple[int, int]:
        """The slab's (rows, cols) extent."""
        return (self.row_hi - self.row_lo, self.col_hi - self.col_lo)

    @property
    def n_points(self) -> int:
        """Cells in the slab."""
        return (self.row_hi - self.row_lo) * (self.col_hi - self.col_lo)


@dataclass(frozen=True)
class SweepPlan:
    """A deterministic row-major tiling of an (n_rows, n_cols) grid.

    Tiles prefer full grid width (``tile_cols = min(n_cols,
    tile_size)``) so slabs stay contiguous runs of the row-major
    result array; leftover budget stacks rows.  The enumeration order
    is part of the checkpoint format — a resumed sweep must agree with
    the killed one about which index means which slab.
    """

    n_rows: int
    n_cols: int
    tile_rows: int
    tile_cols: int

    @classmethod
    def for_grid(cls, n_rows: int, n_cols: int,
                 tile_size: int = DEFAULT_TILE_SIZE) -> "SweepPlan":
        """Tile an (n_rows, n_cols) grid into ≈``tile_size``-point tiles."""
        if n_rows < 1 or n_cols < 1:
            raise ParameterError(
                f"sweep grid must be at least 1x1, got {n_rows}x{n_cols}")
        if tile_size < 1:
            raise ParameterError(f"tile_size must be >= 1, got {tile_size}")
        tile_cols = min(n_cols, tile_size)
        tile_rows = min(n_rows, max(1, tile_size // tile_cols))
        return cls(n_rows=n_rows, n_cols=n_cols,
                   tile_rows=tile_rows, tile_cols=tile_cols)

    @property
    def n_row_bands(self) -> int:
        """Tiles stacked along the row axis."""
        return -(-self.n_rows // self.tile_rows)

    @property
    def n_col_bands(self) -> int:
        """Tiles abreast along the column axis."""
        return -(-self.n_cols // self.tile_cols)

    @property
    def n_tiles(self) -> int:
        """Total tile count."""
        return self.n_row_bands * self.n_col_bands

    def tiles(self) -> Iterator[Tile]:
        """Every tile, row-major, indices ``0..n_tiles-1``."""
        index = 0
        for row_lo in range(0, self.n_rows, self.tile_rows):
            row_hi = min(row_lo + self.tile_rows, self.n_rows)
            for col_lo in range(0, self.n_cols, self.tile_cols):
                col_hi = min(col_lo + self.tile_cols, self.n_cols)
                yield Tile(index=index, row_lo=row_lo, row_hi=row_hi,
                           col_lo=col_lo, col_hi=col_hi)
                index += 1

    def tile(self, index: int) -> Tile:
        """The tile at one enumeration index."""
        if not 0 <= index < self.n_tiles:
            raise ParameterError(
                f"tile index {index} outside 0..{self.n_tiles - 1}")
        band, col_band = divmod(index, self.n_col_bands)
        row_lo = band * self.tile_rows
        col_lo = col_band * self.tile_cols
        return Tile(index=index,
                    row_lo=row_lo,
                    row_hi=min(row_lo + self.tile_rows, self.n_rows),
                    col_lo=col_lo,
                    col_hi=min(col_lo + self.tile_cols, self.n_cols))


# ---------------------------------------------------------------------------
# sweep specs: what one tile evaluates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FabCostSweep:
    """Fig.-8 landscape rows: C_tr over (N_tr rows, λ cols).

    Rows are transistor counts, columns are feature sizes — the same
    orientation as :meth:`repro.core.optimization.CostLandscape.grid`.
    ``fab=None`` resolves to the Fig.-8 fitted fab lazily (the spec
    must stay importable without :mod:`repro.core`, which imports this
    package).
    """

    fab: "FabCharacterization | None" = None

    def _resolved_fab(self) -> "FabCharacterization":
        if self.fab is not None:
            return self.fab
        from ..core.optimization import FIG8_FAB
        return FIG8_FAB

    def fingerprint(self) -> str:
        """Stable identity for the checkpoint manifest."""
        f = self._resolved_fab()
        return ("fab_cost:" + repr((
            f.cost_growth_rate, f.reference_cost_dollars,
            f.wafer_radius_cm, f.design_density,
            f.defect_coefficient, f.size_exponent_p)))

    def evaluate_tile(self, row_values: np.ndarray, col_values: np.ndarray,
                      out: np.ndarray, *,
                      cache: BatchCache | None = None) -> None:
        """Write C_tr for ``row_values × col_values`` into ``out``."""
        result = transistor_cost_batch(
            row_values[:, None], col_values[None, :],
            self._resolved_fab(), cache=cache)
        out[...] = result.cost_per_transistor_dollars


@dataclass(frozen=True)
class DieAreaCostSweep:
    """Optimal-λ-per-die-size rows: C_tr over (die-area rows, λ cols).

    Each cell fixes the die area (row) and feature size (column); λ
    then sets N_tr via eq. (5), replicating the scalar
    :func:`~repro.core.optimization.optimal_feature_size_for_die_area`
    operation order exactly (``area·1e8 / (d_d·λ²)``, left to right)
    so per-row argmins match the scalar optimizer bit-for-bit.
    """

    fab: "FabCharacterization | None" = None

    def _resolved_fab(self) -> "FabCharacterization":
        if self.fab is not None:
            return self.fab
        from ..core.optimization import FIG8_FAB
        return FIG8_FAB

    def fingerprint(self) -> str:
        """Stable identity for the checkpoint manifest."""
        f = self._resolved_fab()
        return ("die_area_cost:" + repr((
            f.cost_growth_rate, f.reference_cost_dollars,
            f.wafer_radius_cm, f.design_density,
            f.defect_coefficient, f.size_exponent_p)))

    def evaluate_tile(self, row_values: np.ndarray, col_values: np.ndarray,
                      out: np.ndarray, *,
                      cache: BatchCache | None = None) -> None:
        """Write C_tr for ``die areas × feature sizes`` into ``out``."""
        fab = self._resolved_fab()
        lam_sq_density = fab.design_density * col_values * col_values
        n_tr = row_values[:, None] * 1.0e8 / lam_sq_density[None, :]
        result = transistor_cost_batch(
            n_tr, col_values[None, :], fab, cache=cache)
        out[...] = result.cost_per_transistor_dollars


@dataclass(frozen=True)
class ScenarioSweep:
    """Fig.-6/7 curve bundles: C_tr over (growth-rate X rows, λ cols).

    Each row is one eq.-(8)/(9) curve — the array
    :meth:`repro.core.scenarios.Scenario.curves` computes per X value,
    so a tiled run of all X at once reproduces the whole figure.
    """

    scenario: "Scenario"

    def fingerprint(self) -> str:
        """Stable identity for the checkpoint manifest."""
        s = self.scenario
        fn = s.die_area_cm2_fn
        return ("scenario:" + repr((
            s.name, s.design_density, s.reference_cost_dollars,
            s.wafer_radius_cm, s.reference_yield, s.reference_area_cm2,
            s.generation_model.name,
            f"{fn.__module__}.{getattr(fn, '__qualname__', fn)}")))

    def evaluate_tile(self, row_values: np.ndarray, col_values: np.ndarray,
                      out: np.ndarray, *,
                      cache: BatchCache | None = None) -> None:
        """Write one curve slice per growth-rate row into ``out``."""
        for i, growth_rate in enumerate(row_values.tolist()):
            out[i, :] = self.scenario._curve(col_values, growth_rate)


@dataclass(frozen=True)
class ChipletCrossoverSweep:
    """Monolithic-vs-chiplet crossover plane: C_tr over (k rows, N_tr
    cols) at one fixed feature size.

    Rows are chiplet counts (integer-valued floats — row 1.0 is the
    monolithic baseline), columns are system transistor budgets; each
    cell prices the whole k-die assembly through
    :func:`~repro.batch.engine.chiplet_cost_batch`, so per-column
    argmins read off the cheapest die count per budget and the k=1 row
    is the eq.-(1) reference the crossover is measured against.
    ``model=None`` resolves to the default
    :class:`~repro.system.chiplet.ChipletCostModel` lazily (the spec
    must stay importable without :mod:`repro.system`, which imports
    :mod:`repro.core` and hence this package).
    """

    feature_size_um: float = 0.8
    model: "ChipletCostModel | None" = None

    def _resolved_model(self) -> "ChipletCostModel":
        if self.model is not None:
            return self.model
        from ..system.chiplet import ChipletCostModel
        return ChipletCostModel()

    def fingerprint(self) -> str:
        """Stable identity for the checkpoint manifest."""
        m = self._resolved_model()
        f, pk, t = m.fab, m.packaging, m.test
        return ("chiplet_crossover:" + repr((
            self.feature_size_um,
            f.cost_growth_rate, f.reference_cost_dollars,
            f.wafer_radius_cm, f.design_density,
            f.defect_coefficient, f.size_exponent_p,
            pk.name, pk.base_cost_dollars, pk.cost_per_die_dollars,
            pk.cost_per_cm2_dollars, pk.bond_yield,
            t.tester_rate_dollars_per_hour, t.probe_base_seconds,
            t.probe_seconds_per_kilotransistor, t.final_base_seconds,
            t.final_seconds_per_kilotransistor,
            m.probe_coverage)))

    def evaluate_tile(self, row_values: np.ndarray, col_values: np.ndarray,
                      out: np.ndarray, *,
                      cache: BatchCache | None = None) -> None:
        """Write C_tr for ``chiplet counts × budgets`` into ``out``."""
        chiplet_cost_batch(
            col_values[None, :], self.feature_size_um,
            row_values[:, None], self._resolved_model(),
            cache=cache, out=out)


# ---------------------------------------------------------------------------
# checkpoint store
# ---------------------------------------------------------------------------

class SweepCheckpoint:
    """Run-dir persistence: one manifest plus one ``.npy`` per tile.

    Tile files land via write-to-temp + :func:`os.replace`, so a file
    that exists is always a complete slab — a sweep killed mid-write
    leaves only a temp file the next run ignores.
    """

    def __init__(self, directory: str | os.PathLike, *,
                 resume: bool = False) -> None:
        self.directory = Path(directory)
        self.tiles_dir = self.directory / "tiles"
        self.resume = resume

    def _manifest_path(self) -> Path:
        return self.directory / _MANIFEST_NAME

    def prepare(self, manifest: dict) -> set[int]:
        """Validate/initialize the run dir; return finished tile indices.

        A directory already holding a manifest is only usable with
        ``resume=True`` *and* a matching plan — anything else raises
        rather than silently mixing two different sweeps' tiles.
        """
        self.tiles_dir.mkdir(parents=True, exist_ok=True)
        path = self._manifest_path()
        if path.exists():
            existing = json.loads(path.read_text())
            if existing != manifest:
                raise ParameterError(
                    f"checkpoint directory {self.directory} holds an "
                    f"incompatible sweep plan; point at a fresh directory")
            if not self.resume:
                raise ParameterError(
                    f"checkpoint directory {self.directory} already "
                    f"contains a sweep; pass resume=True to continue it "
                    f"or use a fresh directory")
            return self._completed(int(manifest["n_tiles"]))
        # Fresh run: sweep out stale tiles from a manifest-less dir so
        # a later resume can trust every file it finds.
        for stale in self.tiles_dir.glob("tile_*.npy"):
            stale.unlink()
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        os.replace(tmp, path)
        return set()

    def _completed(self, n_tiles: int) -> set[int]:
        done: set[int] = set()
        for f in self.tiles_dir.glob("tile_*.npy"):
            try:
                index = int(f.stem.split("_")[1])
            except (IndexError, ValueError):
                continue
            if 0 <= index < n_tiles:
                done.add(index)
        return done

    def _tile_path(self, index: int) -> Path:
        return self.tiles_dir / f"tile_{index:06d}.npy"

    def load(self, tile: Tile) -> np.ndarray | None:
        """The stored slab for a tile, or None if absent/unreadable."""
        path = self._tile_path(tile.index)
        try:
            slab = np.load(path)
        except Exception:
            return None
        if slab.shape != tile.shape or slab.dtype != np.float64:
            return None
        return slab

    def store(self, tile: Tile, slab: np.ndarray) -> None:
        """Atomically persist one finished slab."""
        path = self._tile_path(tile.index)
        tmp = path.with_name(f".tile_{tile.index:06d}.tmp")
        with open(tmp, "wb") as f:
            np.save(f, np.ascontiguousarray(slab))
        os.replace(tmp, path)


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

def _shm_extent(n_rows: int, n_cols: int) -> int:
    # Flat layout: row axis, col axis, then the row-major grid.
    return n_rows + n_cols + n_rows * n_cols


def _tile_worker(name: str, n_rows: int, n_cols: int, spec: Any,
                 tile: Tile, flags: tuple[bool, bool] | None,
                 use_cache: bool) -> dict | None:
    """Evaluate one tile of a shared-memory sweep in place.

    Maps the named block, slices this tile's axis values out of the
    shared header, evaluates the spec's kernel directly into the
    tile's slab of the shared grid, and returns only the observability
    payload.  Runs identically in a pool worker and in the parent
    during the ``_run_pool`` sequential fallback.
    """
    frame = begin_capture(flags) if flags else None
    try:
        _apply_fault()
        cache: BatchCache | None = default_cache() if use_cache else None
        block = ShmBlock.attach(name, 1, _shm_extent(n_rows, n_cols))
        try:
            flat = block.array[0]
            # Copy the axis slices out: the kernels broadcast and
            # slice them freely, and a private copy keeps every view
            # of the shared buffer short-lived.
            rows = np.array(flat[tile.row_lo:tile.row_hi])
            cols = np.array(
                flat[n_rows + tile.col_lo:n_rows + tile.col_hi])
            grid = flat[n_rows + n_cols:].reshape(n_rows, n_cols)
            with _span("sweep.tile", index=tile.index,
                       points=tile.n_points):
                spec.evaluate_tile(
                    rows, cols,
                    grid[tile.row_lo:tile.row_hi, tile.col_lo:tile.col_hi],
                    cache=cache)
            del grid, flat
        finally:
            block.close()
    finally:
        payload = end_capture(frame) if frame else None
    return payload


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    """One finished sweep: the grid, its axes, and how it was run."""

    values: np.ndarray
    row_values: np.ndarray
    col_values: np.ndarray
    plan: SweepPlan
    stats: dict = field(default_factory=dict)

    @property
    def shape(self) -> tuple[int, int]:
        """The grid shape (n_rows, n_cols)."""
        return self.values.shape  # type: ignore[return-value]

    @property
    def n_points(self) -> int:
        """Cells in the grid."""
        return int(self.values.size)

    def argmin(self) -> tuple[int, int] | None:
        """Indices of the cheapest finite cell, or None if all masked."""
        finite = np.isfinite(self.values)
        if not finite.any():
            return None
        flat = int(np.argmin(np.where(finite, self.values, np.inf)))
        return tuple(np.unravel_index(flat, self.values.shape))


class TiledSweepRunner:
    """Execute a :class:`SweepPlan` over a spec, any backend, bitwise.

    ``backend="auto"`` picks the shared-memory process pool when more
    than one worker is configured (tile evaluation is CPU-bound NumPy
    plus the eq.-(4) reduction's Python bookkeeping, which threads
    serialize on) and in-process execution otherwise.  ``workers <= 1``
    always runs sequentially, tile by tile — that path is the parity
    reference everything else must match bit-for-bit.

    A runner owns at most one process pool; it is created lazily,
    rebuilt if a crashed worker broke it (the wave that observed the
    break completes in-process via ``_run_pool``'s fallback), and shut
    down by :meth:`close` / the context manager.
    """

    def __init__(self, *, backend: str = "auto", workers: int | None = None,
                 tile_size: int = DEFAULT_TILE_SIZE,
                 checkpoint_dir: str | os.PathLike | None = None,
                 resume: bool = False,
                 cache: Any = USE_DEFAULT_CACHE) -> None:
        self.backend = validate_backend(backend)
        self.workers = 1 if workers is None else int(workers)
        if self.workers < 1:
            raise ParameterError(
                f"workers must be >= 1, got {self.workers}")
        if tile_size < 1:
            raise ParameterError(f"tile_size must be >= 1, got {tile_size}")
        self.tile_size = int(tile_size)
        if resume and checkpoint_dir is None:
            raise ParameterError("resume=True requires checkpoint_dir")
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume
        self._cache = _resolve_cache(cache)
        self._pool: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()

    def __enter__(self) -> "TiledSweepRunner":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the process pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # -- backend plumbing ---------------------------------------------------

    def _resolved_backend(self) -> str:
        if self.backend == "auto":
            return "process" if self.workers > 1 else "thread"
        return self.backend

    def _ensure_pool(self) -> ProcessPoolExecutor:
        pool = self._pool
        if pool is not None and getattr(pool, "_broken", False):
            pool.shutdown(wait=False)
            pool = self._pool = None
        if pool is None:
            pool = self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return pool

    # -- the sweep ----------------------------------------------------------

    def run(self, spec: Any, row_values, col_values, *,
            out: np.ndarray | None = None,
            on_tile: Callable[[Tile, int, int], None] | None = None
            ) -> SweepResult:
        """Evaluate ``spec`` over ``row_values × col_values``.

        ``out``, if given, must be a float64 array of exactly
        ``(len(row_values), len(col_values))`` — the result lands in it
        and it is returned inside the :class:`SweepResult` (the same
        caller-buffer contract as the engine's ``out=`` kernels).
        ``on_tile(tile, n_done, n_total)`` fires in the parent after
        every finished tile, checkpoint write included — the hook the
        kill-and-resume tests interrupt at.
        """
        rows = np.ascontiguousarray(row_values, dtype=np.float64).ravel()
        cols = np.ascontiguousarray(col_values, dtype=np.float64).ravel()
        if rows.size < 1 or cols.size < 1:
            raise ParameterError("sweep axes must be non-empty")
        if out is None:
            out = np.empty((rows.size, cols.size), dtype=np.float64)
        else:
            if out.shape != (rows.size, cols.size):
                raise ParameterError(
                    f"out has shape {out.shape}, sweep needs "
                    f"{(rows.size, cols.size)}")
            if out.dtype != np.float64:
                raise ParameterError(
                    f"out must be float64, got dtype {out.dtype}")
        plan = SweepPlan.for_grid(rows.size, cols.size, self.tile_size)
        backend = self._resolved_backend()

        checkpoint: SweepCheckpoint | None = None
        done: set[int] = set()
        if self.checkpoint_dir is not None:
            checkpoint = SweepCheckpoint(self.checkpoint_dir,
                                         resume=self.resume)
            done = checkpoint.prepare(self._manifest(spec, plan, rows, cols))

        resumed = 0
        pending: list[Tile] = []
        for tile in plan.tiles():
            if tile.index in done and checkpoint is not None:
                slab = checkpoint.load(tile)
                if slab is not None:
                    out[tile.row_lo:tile.row_hi,
                        tile.col_lo:tile.col_hi] = slab
                    resumed += 1
                    continue
            pending.append(tile)

        obs_on = _obs_enabled()
        t0 = time.perf_counter()
        progress = {"done": resumed}
        with _span("sweep.run", shape=(rows.size, cols.size),
                   tiles=plan.n_tiles, backend=backend,
                   workers=self.workers):
            if obs_on:
                _metrics.inc("sweep.runs")
                if resumed:
                    _metrics.inc("sweep.tiles_resumed", resumed)
            if not pending:
                pass
            elif backend == "process" and self.workers > 1:
                self._run_process(spec, rows, cols, out, pending,
                                  checkpoint, on_tile, progress, plan)
            elif backend == "thread" and self.workers > 1:
                self._run_threads(spec, rows, cols, out, pending,
                                  checkpoint, on_tile, progress, plan)
            else:
                self._run_sequential(spec, rows, cols, out, pending,
                                     checkpoint, on_tile, progress, plan)
        seconds = time.perf_counter() - t0
        if obs_on:
            _metrics.observe("sweep.run.seconds", seconds)

        stats = {
            "backend": backend if self.workers > 1 else "sequential",
            "workers": self.workers,
            "tile_rows": plan.tile_rows,
            "tile_cols": plan.tile_cols,
            "tiles_total": plan.n_tiles,
            "tiles_computed": len(pending),
            "tiles_resumed": resumed,
            "points": int(rows.size * cols.size),
            "seconds": seconds,
        }
        return SweepResult(values=out, row_values=rows, col_values=cols,
                           plan=plan, stats=stats)

    def _manifest(self, spec: Any, plan: SweepPlan, rows: np.ndarray,
                  cols: np.ndarray) -> dict:
        return {
            "version": _MANIFEST_VERSION,
            "n_rows": plan.n_rows,
            "n_cols": plan.n_cols,
            "tile_rows": plan.tile_rows,
            "tile_cols": plan.tile_cols,
            "n_tiles": plan.n_tiles,
            "rows_sha256": hashlib.sha256(rows.tobytes()).hexdigest(),
            "cols_sha256": hashlib.sha256(cols.tobytes()).hexdigest(),
            "spec": spec.fingerprint(),
        }

    def _finish_tile(self, tile: Tile, out: np.ndarray,
                     checkpoint: SweepCheckpoint | None,
                     on_tile: Callable[[Tile, int, int], None] | None,
                     progress: dict, plan: SweepPlan) -> None:
        # Parent-side bookkeeping for one finished tile: persist it,
        # publish progress, then let the caller's hook observe the
        # (checkpointed) state — in that order, so a hook that kills
        # the process mid-run never loses the tile it saw finish.
        if checkpoint is not None:
            checkpoint.store(tile, out[tile.row_lo:tile.row_hi,
                                       tile.col_lo:tile.col_hi])
        progress["done"] += 1
        if _obs_enabled():
            _metrics.inc("sweep.tiles")
            _metrics.inc("sweep.points", tile.n_points)
            _metrics.set_gauge("sweep.progress",
                               progress["done"] / plan.n_tiles)
        if on_tile is not None:
            on_tile(tile, progress["done"], plan.n_tiles)

    def _run_sequential(self, spec, rows, cols, out, pending,
                        checkpoint, on_tile, progress, plan) -> None:
        for tile in pending:
            with _span("sweep.tile", index=tile.index,
                       points=tile.n_points):
                spec.evaluate_tile(
                    rows[tile.row_lo:tile.row_hi],
                    cols[tile.col_lo:tile.col_hi],
                    out[tile.row_lo:tile.row_hi, tile.col_lo:tile.col_hi],
                    cache=self._cache)
            self._finish_tile(tile, out, checkpoint, on_tile, progress,
                              plan)

    def _run_threads(self, spec, rows, cols, out, pending,
                     checkpoint, on_tile, progress, plan) -> None:
        # Tiles are disjoint slabs of `out`, so concurrent in-place
        # writes never overlap; finish-order bookkeeping serializes in
        # the parent thread as futures drain, tile order preserved so
        # checkpoint/progress semantics match the sequential path.
        def evaluate(tile: Tile) -> None:
            with _span("sweep.tile", index=tile.index,
                       points=tile.n_points):
                spec.evaluate_tile(
                    rows[tile.row_lo:tile.row_hi],
                    cols[tile.col_lo:tile.col_hi],
                    out[tile.row_lo:tile.row_hi, tile.col_lo:tile.col_hi],
                    cache=self._cache)

        with ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-sweep-worker") as pool:
            futures = [(tile, pool.submit(evaluate, tile))
                       for tile in pending]
            for tile, future in futures:
                future.result()
                self._finish_tile(tile, out, checkpoint, on_tile,
                                  progress, plan)

    def _run_process(self, spec, rows, cols, out, pending,
                     checkpoint, on_tile, progress, plan) -> None:
        flags = capture_flags()
        n_rows, n_cols = rows.size, cols.size
        pool = self._ensure_pool()
        block = ShmBlock.create(1, _shm_extent(n_rows, n_cols))
        if _obs_enabled():
            _metrics.inc("sweep.shm.blocks")
            _metrics.inc("sweep.shm.bytes", block.shm.size)
        try:
            flat = block.array[0]
            flat[:n_rows] = rows
            flat[n_rows:n_rows + n_cols] = cols
            grid = flat[n_rows + n_cols:].reshape(n_rows, n_cols)
            # Waves of ~2 tiles per worker: enough in flight to keep
            # the pool busy, small enough that checkpoints and the
            # progress gauge advance throughout the run instead of
            # once at the end.
            wave = max(1, 2 * self.workers)
            for start in range(0, len(pending), wave):
                tiles = pending[start:start + wave]
                pool = self._ensure_pool()
                argsets = [(block.name, n_rows, n_cols, spec, tile,
                            flags, self._cache is not None)
                           for tile in tiles]
                payloads = _run_pool(_tile_worker, argsets, pool=pool)
                for tile, payload in zip(tiles, payloads):
                    absorb(payload)
                    src = grid[tile.row_lo:tile.row_hi,
                               tile.col_lo:tile.col_hi]
                    out[tile.row_lo:tile.row_hi,
                        tile.col_lo:tile.col_hi] = src
                    self._finish_tile(tile, out, checkpoint, on_tile,
                                      progress, plan)
            del grid, flat
        finally:
            block.release()

"""Spot-defect Monte Carlo wafer-map simulator.

Cross-validates the closed-form yield models: defects are thrown onto a
wafer as a (possibly clustered) point process with radii drawn from the
Fig.-5 size distribution; each die is killed if any defect lands on it
with a radius exceeding the die's kill threshold.  With a homogeneous
Poisson process the simulated yield must converge to eq. (6) with
``D_eff = D · survival(kill_radius)``; with gamma-mixed density it must
converge to the negative-binomial model — both convergences are asserted
in ``tests/yieldsim/test_monte_carlo.py`` (single-stream path) and
``tests/yieldsim/test_parallel.py`` (sharded path, at the larger lot
sizes the process-parallel runner makes affordable).

The simulator also produces per-die defect counts (a *wafer map*),
which downstream consumers use for redundancy/repair studies.  Lots can
be sharded across processes on spawned seed streams via
:mod:`repro.yieldsim.parallel` — ``simulate_lot(n, seed=s, workers=k)``
is bitwise independent of ``k``; that contract is pinned by
``tests/yieldsim/test_parallel.py`` and
``tests/property_based/test_parallel_parity.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ParameterError
from ..geometry import Die, Wafer, best_grid_offset
from ..obs import metrics as _metrics, span as _span
from ..units import require_nonnegative, require_positive
from .defects import DefectSizeDistribution

#: Row and column offsets of the 3×3 block of pitch cells that
#: :meth:`SpotDefectSimulator._grade_lot` tests around each killer.
_BLOCK_ROWS, _BLOCK_COLS = np.mgrid[-1:2, -1:2].reshape(2, 9)


@dataclass(frozen=True)
class WaferMap:
    """Result of simulating one wafer.

    ``die_centers_cm`` is an (N, 2) array of die center coordinates,
    ``defect_counts`` the number of *killer* defects on each die, and
    ``n_defects_total`` the number of physical defects thrown (killer or
    not) for bookkeeping.
    """

    die_centers_cm: np.ndarray
    defect_counts: np.ndarray
    n_defects_total: int

    @property
    def n_dies(self) -> int:
        """Number of complete dies on the wafer."""
        return int(self.defect_counts.shape[0])

    @property
    def n_good(self) -> int:
        """Number of dies with zero killer defects."""
        return int(np.count_nonzero(self.defect_counts == 0))

    @property
    def yield_fraction(self) -> float:
        """Good dies divided by total dies."""
        if self.n_dies == 0:
            return 0.0
        return self.n_good / self.n_dies


@dataclass
class SpotDefectSimulator:
    """Throw spot defects at wafers and grade the resulting dies.

    Parameters
    ----------
    wafer, die:
        Geometry; dies are placed on the phase-optimized grid from
        :func:`repro.geometry.best_grid_offset`.
    defect_density_per_cm2:
        Mean physical defect density D over the wafer.
    size_distribution:
        Fig.-5 distribution for defect radii; ``None`` makes every
        defect a killer regardless of size (pure eq.-6 regime).
    kill_radius_um:
        Minimum defect radius that causes a fault (a lumped stand-in
        for the layout's critical-area onset; compare
        :mod:`repro.yieldsim.critical_area`).  Ignored when
        ``size_distribution`` is ``None``.
    clustering_alpha:
        ``None`` for a homogeneous Poisson defect count per wafer;
        otherwise the wafer-to-wafer density is gamma-distributed with
        shape ``alpha`` (mean preserved), which drives the per-die
        statistics toward the negative-binomial yield model.
    lot_alpha:
        ``None`` for independent wafers; otherwise each *lot* draws one
        mean-1 Gamma(``lot_alpha``, 1/``lot_alpha``) factor that scales
        every wafer's mean density — the two-level hierarchy of
        :class:`~repro.yieldsim.models.HierarchicalYieldModel`
        (combined with ``clustering_alpha`` as the wafer level).  The
        lot factor is drawn from its own spawned child stream on the
        ``seed=`` path, so worker-count invariance is preserved; on
        the legacy ``rng`` path it is the first draw of the lot.
    """

    wafer: Wafer
    die: Die
    defect_density_per_cm2: float
    size_distribution: DefectSizeDistribution | None = None
    kill_radius_um: float = 0.0
    clustering_alpha: float | None = None
    lot_alpha: float | None = None
    _centers: np.ndarray = field(init=False, repr=False, compare=False)
    _cells: np.ndarray = field(init=False, repr=False, compare=False)
    _cell_origin: tuple[float, float] = field(init=False, repr=False,
                                              compare=False)

    def __post_init__(self) -> None:
        require_nonnegative("defect_density_per_cm2", self.defect_density_per_cm2)
        require_nonnegative("kill_radius_um", self.kill_radius_um)
        if self.clustering_alpha is not None:
            require_positive("clustering_alpha", self.clustering_alpha)
        if self.lot_alpha is not None:
            require_positive("lot_alpha", self.lot_alpha)
        ox, oy, n = best_grid_offset(self.wafer, self.die)
        if n <= 0:
            raise ParameterError("die does not fit on the wafer")
        r = self.wafer.usable_radius_cm
        px, py = self.die.pitch_x_cm, self.die.pitch_y_cm
        w, h = self.die.width_cm, self.die.height_cm
        centers = []
        j_lo = math.floor((-r - oy) / py) - 1
        j_hi = math.ceil((r - oy) / py) + 1
        i_lo = math.floor((-r - ox) / px) - 1
        i_hi = math.ceil((r - ox) / px) + 1
        # Pitch cell (j, i) spans [ox + i·px, ox + (i+1)·px) ×
        # [oy + j·py, oy + (j+1)·py) and holds die (j, i) or none; the
        # first and last row and column of the range never hold a die.
        cells = np.full((j_hi - j_lo + 1, i_hi - i_lo + 1), -1,
                        dtype=np.intp)
        r2 = r * r
        for j in range(j_lo, j_hi + 1):
            y0 = oy + j * py
            y1 = y0 + h
            if max(y0 * y0, y1 * y1) > r2:
                continue
            half = math.sqrt(r2 - max(y0 * y0, y1 * y1))
            for i in range(i_lo, i_hi + 1):
                x0 = ox + i * px
                x1 = x0 + w
                if -half <= x0 and x1 <= half:
                    cells[j - j_lo, i - i_lo] = len(centers)
                    centers.append((x0 + w / 2.0, y0 + h / 2.0))
        self._centers = np.asarray(centers, dtype=float).reshape(-1, 2)
        self._cells = cells
        self._cell_origin = (ox + i_lo * px, oy + j_lo * py)

    def _die_centers(self) -> np.ndarray:
        """A fresh copy of the (N, 2) die centres of the grid."""
        return self._centers.copy()

    def simulate_wafer(self, rng: np.random.Generator) -> WaferMap:
        """Simulate one wafer and return its map."""
        return self.simulate_lot(1, rng)[0]

    def _lot_density_scale(self, rng: np.random.Generator) -> float:
        """The lot-level density factor, consumed from ``rng``.

        One mean-1 gamma draw when ``lot_alpha`` is set (and the
        density is positive, matching the wafer-level mixing guard);
        exactly 1.0 — and **no** stream consumption — otherwise, so
        pre-existing non-hierarchical lots replay bit-for-bit.
        """
        if self.lot_alpha is None or self.defect_density_per_cm2 <= 0:
            return 1.0
        return float(rng.gamma(self.lot_alpha, 1.0 / self.lot_alpha))

    def _throw_wafer_defects(self, rng: np.random.Generator,
                             n_dies: int,
                             density_scale: float = 1.0
                             ) -> tuple[int, np.ndarray]:
        """One wafer's random draws, in the canonical order.

        Gamma density mixing, Poisson count, rejection-sampled
        positions, then the defect-radius kill filter — exactly the
        draw order of :meth:`simulate_wafer`, so any path that feeds
        each wafer its own generator (sequential batch or spawned
        child stream) produces bitwise-identical wafers.
        ``density_scale`` is the lot-level hyper-distribution factor
        (1.0 for non-hierarchical lots — the multiply is skipped so
        legacy draws are untouched down to the last bit).  Returns
        ``(defects thrown, killer positions)``.
        """
        area = self.wafer.area_cm2
        radius = self.wafer.radius_cm
        density = self.defect_density_per_cm2
        if density_scale != 1.0:
            density = density * density_scale
        if self.clustering_alpha is not None and density > 0:
            density = density * rng.gamma(self.clustering_alpha,
                                          1.0 / self.clustering_alpha)
        n_defects = int(rng.poisson(density * area)) if density > 0 else 0

        pos = np.empty((0, 2))
        if n_defects > 0 and n_dies > 0:
            # Rejection-sample uniform positions in the circle.
            while pos.shape[0] < n_defects:
                cand = rng.uniform(-radius, radius,
                                   size=(2 * n_defects, 2))
                cand = cand[np.einsum("ij,ij->i", cand, cand)
                            <= radius * radius]
                pos = np.vstack([pos, cand])
            pos = pos[:n_defects]
            if self.size_distribution is not None:
                radii = self.size_distribution.sample(n_defects, rng)
                pos = pos[radii > self.kill_radius_um]
        return n_defects, pos

    def _grade_lot(self, killer_pos: list[np.ndarray]) -> np.ndarray:
        """Per-die killer counts for a lot (or a shard of one).

        Returns counts of shape ``(len(killer_pos), n_dies)``.  A killer
        at (x, y) hits the die centred at (cx, cy) when
        ``|x − cx| ≤ w/2`` and ``|y − cy| ≤ h/2``, so a killer on the
        shared edge of two abutting dies hits both.  Each killer is
        tested only against the dies of the 3×3 block of pitch cells
        around its own cell: the pitch is at least the die size, so no
        die farther out can satisfy the predicate, and the block
        absorbs rounding in the cell index.  Counts are exact integer
        accumulations, so the result does not depend on how the lot was
        batched or sharded.
        """
        centers, cells = self._centers, self._cells
        n_dies = centers.shape[0]
        n_wafers = len(killer_pos)
        per_wafer = np.array([p.shape[0] for p in killer_pos],
                             dtype=np.int64)
        if per_wafer.sum() == 0:
            return np.zeros((n_wafers, n_dies), dtype=int)
        pos = np.concatenate(killer_pos, axis=0)
        wafer_ids = np.repeat(np.arange(n_wafers), per_wafer)
        x0, y0 = self._cell_origin
        # Killers off the table are clamped to its border ring, whose
        # cells hold no die; the block still covers every die in reach.
        col = np.clip(np.floor((pos[:, 0] - x0) / self.die.pitch_x_cm),
                      1, cells.shape[1] - 2).astype(np.intp)
        row = np.clip(np.floor((pos[:, 1] - y0) / self.die.pitch_y_cm),
                      1, cells.shape[0] - 2).astype(np.intp)
        block = cells[row[:, None] + _BLOCK_ROWS, col[:, None] + _BLOCK_COLS]
        k, slot = np.nonzero(block >= 0)
        die = block[k, slot]
        hit = ((np.abs(pos[k, 0] - centers[die, 0])
                <= self.die.width_cm / 2.0)
               & (np.abs(pos[k, 1] - centers[die, 1])
                  <= self.die.height_cm / 2.0))
        flat = wafer_ids[k[hit]] * n_dies + die[hit]
        return np.bincount(flat, minlength=n_wafers * n_dies).reshape(
            n_wafers, n_dies)

    def simulate_lot(self, n_wafers: int,
                     rng: np.random.Generator | None = None, *,
                     seed: "int | np.random.SeedSequence | None" = None,
                     workers: int | None = None) -> "LotResult":
        """Simulate ``n_wafers`` independent wafers, grading the lot at once.

        Two seeding disciplines, selected by which argument is given
        (exactly one of ``rng``/``seed`` is required):

        ``rng``
            Legacy single-stream lot: random draws (the lot-level
            density factor when ``lot_alpha`` is set, then per wafer:
            gamma density mixing, Poisson count, rejection-sampled
            positions, defect radii) advance the one generator in the
            same per-wafer order as :meth:`simulate_wafer`, so a
            seeded lot is bitwise-reproducible regardless of batch
            size.  Grading, which finds the dies each killer defect
            lands on, runs once for the whole lot.
        ``seed``
            Spawned per-wafer streams (``SeedSequence.spawn``), which
            makes the result bitwise independent of ``workers``:
            ``workers=k`` shards the lot over a process pool via
            :func:`repro.yieldsim.parallel.simulate_lot_sharded`,
            ``workers=1``/``None`` runs the identical schedule
            in-process, and a pool failure falls back to sequential
            with one warning.

        ``workers`` requires ``seed`` — a shared generator stream
        cannot be split across processes without changing results.
        Returns a :class:`~repro.yieldsim.parallel.LotResult`, an
        immutable sequence of :class:`WaferMap` with lot-level
        aggregates.
        """
        from .parallel import LotResult, simulate_lot_sharded

        if (rng is None) == (seed is None):
            raise ParameterError(
                "specify exactly one of rng (single-stream lot) or "
                "seed (spawned per-wafer streams)")
        if workers is not None and seed is None:
            raise ParameterError(
                "workers requires seed=...: sharding needs spawned "
                "per-wafer streams to stay independent of worker count")
        if seed is not None:
            return simulate_lot_sharded(self, n_wafers, seed,
                                        workers=workers)
        if n_wafers < 0:
            raise ParameterError(f"n_wafers must be >= 0, got {n_wafers}")
        centers = self._die_centers()
        n_dies = centers.shape[0]

        with _span("mc.simulate_lot", n_wafers=n_wafers, workers=1):
            density_scale = self._lot_density_scale(rng)
            n_thrown: list[int] = []
            killer_pos: list[np.ndarray] = []
            for i in range(n_wafers):
                with _span("mc.wafer", wafer=i):
                    thrown, pos = self._throw_wafer_defects(
                        rng, n_dies, density_scale)
                n_thrown.append(thrown)
                killer_pos.append(pos)
                _metrics.inc("mc.wafers_simulated")
                _metrics.inc("mc.defects_thrown", thrown)
            counts = self._grade_lot(killer_pos)
        _metrics.inc("mc.lots_simulated")
        return LotResult(tuple(
            WaferMap(die_centers_cm=centers, defect_counts=counts[i],
                     n_defects_total=n_thrown[i])
            for i in range(n_wafers)))

    def simulate_lots(self, n_lots: int, n_wafers: int, *,
                      seed: "int | np.random.SeedSequence",
                      workers: int | None = None) -> "list[LotResult]":
        """Simulate ``n_lots`` independent lots of ``n_wafers`` wafers.

        Each lot gets its own child of the root ``SeedSequence`` (lot
        ``j`` always consumes child ``j``), so the multi-lot sample —
        like each lot individually — is bitwise independent of
        ``workers``.  With ``lot_alpha`` set, every lot draws its own
        density factor: this is the sampling counterpart of
        :class:`~repro.yieldsim.models.HierarchicalYieldModel` and the
        input shape :func:`repro.yieldsim.selection.fit_yield_models`
        consumes.
        """
        if n_lots < 0:
            raise ParameterError(f"n_lots must be >= 0, got {n_lots}")
        root = seed if isinstance(seed, np.random.SeedSequence) \
            else np.random.SeedSequence(seed)
        return [self.simulate_lot(n_wafers, seed=child, workers=workers)
                for child in (root.spawn(n_lots) if n_lots else [])]

    def estimate_yield(self, n_wafers: int,
                       rng: np.random.Generator | None = None, *,
                       seed: "int | np.random.SeedSequence | None" = None,
                       workers: int | None = None) -> float:
        """Pooled yield estimate over a simulated lot.

        Seeding/sharding arguments are forwarded to
        :meth:`simulate_lot` unchanged.
        """
        maps = self.simulate_lot(n_wafers, rng, seed=seed, workers=workers)
        good = sum(m.n_good for m in maps)
        total = sum(m.n_dies for m in maps)
        return good / total if total else 0.0

    def expected_killer_density(self) -> float:
        """Effective killer-defect density D_eff = D · P(R > kill radius)."""
        if self.size_distribution is None:
            return self.defect_density_per_cm2
        surv = float(self.size_distribution.survival(self.kill_radius_um))
        return self.defect_density_per_cm2 * surv

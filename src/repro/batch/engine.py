"""NumPy-vectorized batch evaluation of the paper's cost model.

Every headline result of the paper is a *sweep* — Fig. 8 evaluates
eqs. (1)+(3)+(4)+(7) over the whole (λ, N_tr) plane, Figs. 6/7 sweep λ,
the optimizers sweep die geometry.  The scalar functions in
:mod:`repro.core`, :mod:`repro.geometry` and :mod:`repro.yieldsim` are
the *reference semantics*; this module recomputes them over arrays in
one pass:

* :func:`wafer_cost_batch` — eq. (3) under all four
  :class:`~repro.core.wafer_cost.GenerationModel` laws (plus the
  eq.-(2) volume term),
* :func:`dies_per_wafer_batch` — eq. (4) with the per-row chord sum
  expressed as array reductions over a batch of die sizes,
* :func:`transistors_per_die_batch` — eq. (5),
* :func:`scaled_poisson_yield_batch` / :func:`poisson_yield_batch` /
  :func:`yield_for_area_batch` — eqs. (6)–(7) and the classical
  clustering baselines,
* :func:`transistor_cost_batch` / :func:`evaluate_batch` /
  :func:`chiplet_cost_batch` — eq. (1) composed, returning every
  intermediate of the scalar breakdown as an array,
* :func:`scenario1_cost_batch` / :func:`scenario2_cost_batch` —
  eqs. (8) and (9).

Parity contract with the scalar reference
-----------------------------------------
Every kernel is **bitwise** equal to its scalar reference, on every
SIMD target NumPy dispatches to, and raises the reference's error
class where the reference raises.  Pure arithmetic (die dimensions,
areas, the eq.-(4) die counts, every cost composition) replicates the
scalar code's operations in the same order: IEEE-754 multiply, divide,
sqrt and floor are exactly rounded in NumPy and the C library alike.
Each transcendental makes the libm call the scalar code makes, from
NumPy C loops that skip the SIMD kernels (whose float64 ``exp`` and
``pow`` round ~5% of arguments differently on AVX-512 hosts):

* every ``**`` with a non-integer result runs as ``np.float_power``,
  whose float64 loop calls libm ``pow`` per element, the call Python's
  ``**`` makes (``np.power`` dispatches to SIMD code instead);
* every ``exp(x)`` is the real part of complex128 ``np.exp(x + 0j)``,
  which calls libm ``cexp`` (see :func:`_exp_neg`);
* the eq.-(3) wafer cost is priced by the scalar
  :class:`~repro.core.wafer_cost.WaferCostModel` once per unique λ,
  and Murphy's ``expm1`` by ``math.expm1`` per element: neither has a
  libm route through NumPy.

``TestLibmRoutes`` in ``tests/batch/test_engine.py`` pins both NumPy
routes against builtin ``pow`` and ``math.exp``.  Infeasible cells —
die does not fit the wafer, or eq.-(7) yield underflow — are masked to
``inf`` exactly like :func:`repro.core.optimization.
transistor_cost_full`.  The composed kernels price a batch of at most
:data:`SCALAR_MAX_POINTS` points through the scalar reference itself.

Caching
-------
The dies-per-wafer and wafer-cost sub-results are memoized in the
process-wide :func:`~repro.batch.cache.default_cache`, keyed on the
exact input bytes and shared by every sweep, flush and scan in the
process.  Cached arrays are read-only.  A sub-result of more than
:data:`_CACHE_MAX_CELLS` cells (a sweep tile's die counts) bypasses
the cache entirely.  The eq.-(3) wafer cost depends on λ alone, so
the composed kernels price it over the λ operand as given, before
broadcasting: a Fig.-8 tile's wafer costs are one λ axis, small
enough to cache and shared by every tile of the sweep.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from functools import lru_cache, partial
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from ..errors import ParameterError
from ..obs import metrics as _metrics, span as _span
from ..obs.state import enabled as _obs_enabled, \
    tracing_enabled as _tracing_enabled
from ..geometry.wafer import ROW_FIT_SLACK, Wafer, check_row_count
from ..core.wafer_cost import WaferCostModel
from ..core.transistor_cost import TransistorCostModel
from ..units import UM2_PER_CM2, require_nonnegative, require_positive
from ..yieldsim.models import (
    BoseEinsteinYield,
    CompoundPoissonGamma,
    HierarchicalYieldModel,
    MurphyYield,
    NegativeBinomialYield,
    PoissonYield,
    ReferenceAreaYield,
    SeedsYield,
    YIELD_CUTOFF,
    YieldModel,
)
from .cache import array_fingerprint, default_cache

if TYPE_CHECKING:  # pragma: no cover - import cycle with core.optimization
    from ..core.optimization import FabCharacterization
    from ..system.chiplet import ChipletCostModel

#: Eq.-(7) exponent above which exp() underflows; the scalar reference
#: clamps the yield to the smallest positive denormal there.
_EXPONENT_CLAMP = 700.0
_TINY_YIELD = 5e-324

#: Batches of at most this many points are priced point by point
#: through the scalar reference: on them the vectorized kernels' fixed
#: NumPy overhead costs more than the scalar loop, which they match bit
#: for bit anyway.  The scalar path wins for every query kind up to 5
#: points, and at 6 still for model and chiplet groups while fab
#: groups lose ~10% (crossover table and the serve traffic's group
#: sizes: docs/performance.md, "Serving single-point queries").  Read
#: by the three composed kernels only (:func:`_scalar_points`).
SCALAR_MAX_POINTS = 6

#: Upper bound on elements per temporary in the chunked row reduction
#: (512 KiB of float64).  At 2**22 every sweep tile page-faulted in
#: fresh 32 MiB temporaries: higher peak RSS and about a fifth of the
#: sweep's CPU in the kernel (docs/performance.md).
_ROW_CHUNK_BUDGET = 1 << 16

#: Padding elements past which a run of dies starts a chunk of its own
#: in the row reduction rather than joining a chunk of fewer rows.  At
#: 2,048 the extra chunks cost 32-point chiplet groups more than the
#: padding they saved (eq. (4) 59 → 70 µs); at 8,192 those groups keep
#: one chunk while the 36 × 36 Fig.-8 grid, padded 3.2× in two
#: budget-bound chunks, runs in half the time (docs/performance.md,
#: "Padding bound").
_CHUNK_PAD_CELLS = 1 << 13

#: Sub-results with more cells than this are computed without the
#: cache: no key is built (a key copies its input arrays), nothing is
#: looked up or stored.  Serve groups (<= 256 points), optimizer scans
#: and the per-axis wafer costs of a sweep stay far below it; a
#: 65,536-cell sweep tile, whose fresh axes rarely repeat, is above.
_CACHE_MAX_CELLS = 1 << 14


def _deliver(result: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    # The array-out contract shared by the cached kernels: with
    # ``out=None`` the (possibly cached, read-only) result is returned
    # as-is; otherwise it is copied into the caller's float64 buffer.
    # The shape must match exactly (no broadcasting: an out= caller is
    # landing results in a preallocated slab, and a silently broadcast
    # write would corrupt its neighbors) and the dtype must be float64
    # (np.copyto would otherwise silently downcast, e.g. into a
    # float32 buffer).  int64 results — the eq.-(4) die counts — land
    # exactly in float64 below 2^53, which a wafer guarantees.  ``out``
    # is returned so call sites read like the plain form.
    if out is None:
        return result
    if out.shape != result.shape:
        raise ParameterError(
            f"out has shape {out.shape}, result needs {result.shape}")
    if out.dtype != np.float64:
        raise ParameterError(
            f"out must be a float64 buffer, got dtype {out.dtype}")
    np.copyto(out, result, casting="same_kind")
    return out


def _cached(kind: str, cells: int, key, compute) -> np.ndarray:
    # ``key()`` builds the rest of the exact key after ``kind``; it is
    # only called for a sub-result of at most _CACHE_MAX_CELLS cells.
    if _tracing_enabled():
        # A span per *computed* sub-result (cache hits record nothing).
        inner = compute

        def compute() -> np.ndarray:
            with _span(f"batch.compute.{kind}"):
                return inner()

    if cells > _CACHE_MAX_CELLS:
        return np.asarray(compute())
    return default_cache().get_or_compute((kind,) + key(), compute)


def _as_float_array(name: str, value) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.dtype != np.float64:  # pragma: no cover - asarray guarantees
        arr = arr.astype(np.float64)
    return arr


def _require_all_positive(name: str, arr: np.ndarray) -> None:
    # Mirrors require_positive elementwise: every value finite and > 0.
    # A NaN propagates through min() and max() and fails both bounds.
    if arr.size and not (arr.min() > 0 and arr.max() < math.inf):
        raise ParameterError(
            f"{name} must be finite and > 0 for every element")


def _require_all_nonnegative(name: str, arr: np.ndarray) -> None:
    # Mirrors require_nonnegative elementwise: finite and >= 0.
    if arr.size and not (arr.min() >= 0 and arr.max() < math.inf):
        raise ParameterError(
            f"{name} must be finite and >= 0 for every element")


def _require_all_fraction(name: str, arr: np.ndarray) -> None:
    if arr.size and not (arr.min() > 0 and arr.max() <= 1.0):
        raise ParameterError(f"{name} must be in (0, 1] for every element")


# ---------------------------------------------------------------------------
# eq. (3) — wafer cost
# ---------------------------------------------------------------------------

def wafer_cost_batch(model: WaferCostModel, feature_sizes_um, *,
                     volume_wafers: float | None = None,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Eq. (3) — C'_w(λ) over an array of λ, optionally with the
    eq.-(2) overhead term at ``volume_wafers``.

    Each unique λ is priced once by :meth:`WaferCostModel.pure_cost`
    (or :meth:`WaferCostModel.cost_at_volume`) itself and fanned back
    out, so the result is bitwise the scalar one, and an ``X**g`` past
    the float range raises the scalar ``OverflowError``.  Sweeps carry
    few distinct feature sizes, and the result is cached per λ array.
    With ``out`` the result is copied into the caller's buffer and
    that buffer is returned.
    """
    lam = _as_float_array("feature_sizes_um", feature_sizes_um)
    _require_all_positive("feature_sizes_um", lam)
    if volume_wafers is not None:
        require_positive("volume_wafers", volume_wafers)
    return _deliver(_wafer_cost(model, lam, volume_wafers), out)


def _wafer_cost(model: WaferCostModel, lam: np.ndarray,
                volume_wafers: float | None) -> np.ndarray:
    # wafer_cost_batch on checked operands: the composed kernels call
    # it after their own λ check.
    if volume_wafers is None:
        price = model.pure_cost
    else:
        price = partial(model.cost_at_volume, volume_wafers=volume_wafers)

    def key() -> tuple:
        return (model.reference_cost_dollars, model.cost_growth_rate,
                model.reference_feature_um, model.overhead_dollars,
                model.generation_model, model.shrink, model.linear_step_um,
                volume_wafers, array_fingerprint(lam))

    def compute() -> np.ndarray:
        flat = lam.ravel().tolist()
        by_lam = {l: price(l) for l in dict.fromkeys(flat)}
        return np.fromiter(map(by_lam.__getitem__, flat), dtype=np.float64,
                           count=len(flat)).reshape(lam.shape)

    return _cached("wafer_cost", lam.size, key, compute)


# ---------------------------------------------------------------------------
# eq. (4) — dies per wafer
# ---------------------------------------------------------------------------

def dies_per_wafer_batch(wafer: Wafer, width_cm, height_cm, *,
                         scribe_cm: float = 0.0,
                         out: np.ndarray | None = None) -> np.ndarray:
    """Eq. (4) over arrays of die sizes — exact integer parity with
    :func:`repro.geometry.wafer.dies_per_wafer_maly`.

    ``width_cm`` and ``height_cm`` broadcast together; the result is an
    int64 array of that broadcast shape (0 where the die does not fit).
    The per-row chord sum runs as array reductions, chunked so its two
    work buffers stay within a fixed element budget regardless of
    batch size.  NaN or ±inf sizes raise :class:`ParameterError`, as
    the scalar reference does.
    With ``out`` the counts are copied into the caller's buffer and
    that buffer is returned — a float64 ``out`` holds them exactly,
    since a wafer bounds N_ch far below 2^53.
    """
    w = _as_float_array("width_cm", width_cm)
    h = _as_float_array("height_cm", height_cm)
    w, h = _broadcast(w, h)
    _require_all_positive("width_cm", w)
    _require_all_positive("height_cm", h)
    require_nonnegative("scribe_cm", scribe_cm)

    def key() -> tuple:
        return (wafer.radius_cm, wafer.edge_exclusion_cm, float(scribe_cm),
                array_fingerprint(w), array_fingerprint(h))

    def compute() -> np.ndarray:
        return _dies_per_wafer_rows(wafer.usable_radius_cm,
                                    w.ravel(), h.ravel(),
                                    float(scribe_cm)).reshape(w.shape)

    return _deliver(_cached("dies_per_wafer", w.size, key, compute), out)


def _dies_per_wafer_rows(radius: float, w: np.ndarray, h: np.ndarray,
                         scribe: float) -> np.ndarray:
    # Same operations, same order, as the scalar row loop: pitch
    # a = w + scribe, b = h + scribe; floor(2R/b) rows; each row holds
    # floor(2·min(R_j, R_{j+1})/a + ROW_FIT_SLACK) dies with
    # R_j = sqrt(R² − (jb − R)²).  The per-die sums add integer-valued
    # floats far below 2^53, so they are exact in any order.  Every die
    # is padded to its chunk's largest row count r: past a die's own
    # floor(2R/b) rows the chord offset already lies outside the
    # circle, so padded rows add exactly 0.
    n = w.size
    rows = np.add(h, scribe)
    with np.errstate(over="ignore"):  # inf rows: check_row_count refuses
        np.divide(2.0 * radius, rows, out=rows)
    np.copyto(rows, 0.0, where=(w > 2.0 * radius) | (h > 2.0 * radius))
    top = float(rows.max()) if n else 0.0
    check_row_count(top)  # the unfloored 2R/b, as the scalar loop tests
    np.floor(rows, out=rows)
    top = math.floor(top)  # floor is monotone: the largest floored count
    if top == 0:
        return np.zeros(n, dtype=np.int64)
    # A stable argsort radix-sorts integer keys of at most 16 bits.
    key = rows.astype(np.uint16 if top < 1 << 16 else np.int64)
    del rows
    order = np.argsort(key, kind="stable")
    key = key[order]
    pos = int(np.searchsorted(key, 1))  # zero-row dies stay 0
    active = order[pos:]
    key = key[pos:]
    chunks = _plan_row_chunks(key)
    # Pitches in row-sorted order, gathered once.  Each chunk's per-die
    # sums land in its slice of ``b``, which no later chunk reads.
    a = w[active]
    a += scribe
    b = h[active]
    b += scribe
    size = max(min((r + 1) * (hi - lo), _ROW_CHUNK_BUDGET)
               for lo, hi, r in chunks)
    chord_buf = np.empty(size)
    row_buf = np.empty(size)
    for lo, hi, r in chunks:
        # Rows per pass: all r of them, unless the chunk is one die
        # whose r + 1 chords alone exceed the budget.
        step = _ROW_CHUNK_BUDGET // (hi - lo) - 1
        if step >= r:
            per_row = _row_floors(radius, np.arange(r + 1, dtype=np.float64),
                                  a[lo:hi], b[lo:hi], chord_buf, row_buf)
            np.add.reduce(per_row, axis=0, out=b[lo:hi])
            continue
        total = 0.0
        for j0 in range(0, r, step):
            j = np.arange(j0, min(j0 + step, r) + 1, dtype=np.float64)
            total += float(_row_floors(radius, j, a[lo:hi], b[lo:hi],
                                       chord_buf, row_buf).sum())
        b[lo] = total
    counts = np.zeros(n, dtype=np.int64)
    counts[active] = b.astype(np.int64)
    return counts


def _row_floors(radius: float, j: np.ndarray, a: np.ndarray, b: np.ndarray,
                chord_buf: np.ndarray, row_buf: np.ndarray) -> np.ndarray:
    # The dies-per-row floors of the rows between the chords at offsets
    # j[0]·b − R, ..., j[-1]·b − R, for dies of pitches a, b.  The
    # matrices are laid out (rows × dies), so every ufunc's inner loop
    # runs along the dies, and each pass writes in place into the two
    # work buffers: (len(j) × dies) chords, then one fewer row of floors.
    k, m = j.size - 1, b.size
    chord = chord_buf[:(k + 1) * m].reshape(k + 1, m)
    np.multiply(j[:, None], b, out=chord)
    np.subtract(chord, radius, out=chord)
    np.multiply(chord, chord, out=chord)
    np.subtract(radius * radius, chord, out=chord)
    np.maximum(chord, 0.0, out=chord)
    np.sqrt(chord, out=chord)
    per_row = row_buf[:k * m].reshape(k, m)
    np.minimum(chord[:-1], chord[1:], out=per_row)
    np.multiply(per_row, 2.0, out=per_row)
    np.divide(per_row, a, out=per_row)
    np.add(per_row, ROW_FIT_SLACK, out=per_row)
    np.floor(per_row, out=per_row)
    return per_row


def _plan_row_chunks(key: np.ndarray) -> list[tuple[int, int, int]]:
    # Greedy chunks (lo, hi, r) over dies sorted by row count (all
    # >= 1), built from runs of equal count.  Every die of a chunk is
    # padded to its last die's count r, and its (r + 1) × dies chord
    # matrix must fit the element budget, so a run may be cut across
    # chunks.  A run starts a new chunk when joining the open one
    # would take that chunk's padding past _CHUNK_PAD_CELLS elements.
    # A die whose chords alone exceed the budget is a chunk by itself.
    m = key.size
    last = int(key[-1])
    if (last + 1) * m <= _ROW_CHUNK_BUDGET \
            and last * m - int(key.sum()) <= _CHUNK_PAD_CELLS:
        return [(0, m, last)]  # what the loop below gives, at less cost
    bounds = [0] + (np.flatnonzero(key[1:] != key[:-1]) + 1).tolist() + [m]
    chunks = []
    lo = top = pad = 0  # open chunk: dies [lo, start), top rows, padding
    for start, end, r in zip(bounds, bounds[1:],
                             key[bounds[:-1]].tolist()):
        cap = max(_ROW_CHUNK_BUDGET // (r + 1), 1)
        pad += (start - lo) * (r - top)
        if lo < start and (pad > _CHUNK_PAD_CELLS or start - lo >= cap):
            chunks.append((lo, start, top))
            lo, pad = start, 0
        while end - lo > cap:
            chunks.append((lo, lo + cap, r))
            lo, pad = lo + cap, 0
        top = r
    if lo < m:
        chunks.append((lo, m, top))
    return chunks


# ---------------------------------------------------------------------------
# eq. (5) — transistors per die
# ---------------------------------------------------------------------------

def transistors_per_die_batch(die_area_cm2, design_density,
                              feature_sizes_um) -> np.ndarray:
    """Eq. (5): ``N_tr = A_ch / (d_d · λ²)`` over arrays.

    Matches :meth:`repro.geometry.die.Die.transistor_count` bit-for-bit.
    """
    area = _as_float_array("die_area_cm2", die_area_cm2)
    d = _as_float_array("design_density", design_density)
    lam = _as_float_array("feature_sizes_um", feature_sizes_um)
    _require_all_positive("die_area_cm2", area)
    _require_all_positive("design_density", d)
    _require_all_positive("feature_sizes_um", lam)
    area_um2 = area * UM2_PER_CM2
    return area_um2 / (d * (lam * lam))


# ---------------------------------------------------------------------------
# eqs. (6)–(7) — yield
# ---------------------------------------------------------------------------

def _exp_neg(x: np.ndarray) -> np.ndarray:
    # ``exp(-x)`` bitwise equal to math.exp(-x).  NumPy's float64 exp
    # is a SIMD kernel that, on AVX-512 hosts, rounds ~4% of arguments
    # differently from libm.  So the exp runs as complex128: NumPy's
    # complex exp calls libm cexp, whose real part at a zero imaginary
    # part is libm exp(x)·cos(0) = exp(x), the value math.exp returns.
    # TestLibmRoutes in tests/batch/test_engine.py pins this on every
    # SIMD target the test suite runs on.  Negation is exact, so libm
    # sees the scalar code's argument.
    buf = x.astype(np.complex128).reshape(-1)  # 0-d too has a .real view
    np.negative(buf.real, out=buf.real)
    np.exp(buf, out=buf)
    return buf.real.reshape(x.shape).copy()


def _exp_neg_clamped(exponent: np.ndarray) -> np.ndarray:
    # ``exp(-exponent)`` with the eq.-(7) underflow clamp, bitwise
    # equal to scaled_poisson_yield's tail: the clamp overwrites the
    # cells the scalar code never passes to exp.
    y = _exp_neg(exponent)
    y[exponent > _EXPONENT_CLAMP] = _TINY_YIELD
    return y


def poisson_yield_batch(area_cm2, defect_density_per_cm2) -> np.ndarray:
    """Eq. (6): ``Y = exp(−A·D₀)`` over arrays, bitwise equal to
    :func:`~repro.yieldsim.models.poisson_yield`."""
    return yield_for_area_batch(PoissonYield(), area_cm2,
                                defect_density_per_cm2)


def scaled_poisson_yield_batch(n_transistors, design_density,
                               defect_coefficient, feature_sizes_um,
                               p, *,
                               out: np.ndarray | None = None) -> np.ndarray:
    """Eq. (7): ``Y = exp[−N_tr·d_d·D / λ^{p−2}]`` over arrays.

    Bitwise equal to :func:`~repro.yieldsim.models.scaled_poisson_yield`,
    underflow clamp included: cells whose exponent exceeds 700 return
    the smallest positive denormal rather than 0.0, so callers dividing
    by Y never hit a zero division.  ``D / λ^p`` is computed over
    ``feature_sizes_um`` as given and broadcast afterwards.  With
    ``out`` the yields land in the caller's buffer, which is returned.
    """
    n = _as_float_array("n_transistors", n_transistors)
    d = _as_float_array("design_density", design_density)
    lam = _as_float_array("feature_sizes_um", feature_sizes_um)
    p_arr = _as_float_array("p", p)
    coeff = _as_float_array("defect_coefficient", defect_coefficient)
    _require_all_positive("n_transistors", n)
    _require_all_positive("design_density", d)
    _require_all_positive("feature_sizes_um", lam)
    _require_all_positive("p", p_arr)
    _require_all_nonnegative("defect_coefficient", coeff)
    return _deliver(_scaled_poisson_yield(n, d, coeff, lam, p_arr), out)


def _scaled_poisson_yield(n, design_density, coeff, lam, p) -> np.ndarray:
    # Eq. (7) on validated operands, in scaled_poisson_yield's operation
    # order.  An overflowing λ^p gives D₀ = 0, an underflowing one
    # D₀ = inf unless D = 0, as scaled_defect_density takes them; the
    # scalar function's float arithmetic raises nothing either.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        area_cm2 = n * design_density * (lam * lam) * 1.0e-8
        d0_per_cm2 = np.where(coeff == 0.0, coeff,
                              coeff / np.float_power(lam, p))
        exponent = area_cm2 * d0_per_cm2
    return _exp_neg_clamped(exponent)


def yield_for_area_batch(model: YieldModel, area_cm2,
                         defect_density_per_cm2, *,
                         out: np.ndarray | None = None) -> np.ndarray:
    """Any :class:`YieldModel` evaluated over arrays of (area, density).

    Bitwise equal to :meth:`YieldModel.yield_for_area` elementwise, and
    raising where it raises (a non-finite ``m = A·D`` included).  The
    classical and compound laws run as array kernels that make the
    scalar code's libm calls; :class:`MixtureYieldModel` and unknown
    subclasses fall back to a per-element loop over the scalar method,
    so every custom model keeps working.  With ``out`` the yields land
    in the caller's float64 buffer, which is returned.
    """
    area = _as_float_array("area_cm2", area_cm2)
    density = _as_float_array("defect_density_per_cm2",
                              defect_density_per_cm2)
    _require_all_nonnegative("area_cm2", area)
    _require_all_nonnegative("defect_density_per_cm2", density)
    with np.errstate(over="ignore"):  # an inf m is refused just below
        m = area * density
    _require_all_nonnegative("m", m)
    return _deliver(_yield_from_expectation_batch(model, m), out)


def yield_from_expectation_batch(model: YieldModel, m, *,
                                 out: np.ndarray | None = None
                                 ) -> np.ndarray:
    """Any :class:`YieldModel` over an array of fault expectations.

    The array form of :meth:`YieldModel.yield_from_expectation`, under
    the same dispatch and bitwise parity as :func:`yield_for_area_batch`.
    With ``out`` the result is copied into the caller's float64 buffer,
    which is returned.
    """
    arr = _as_float_array("m", m)
    _require_all_nonnegative("m", arr)
    return _deliver(_yield_from_expectation_batch(model, arr), out)


def _yield_from_expectation_batch(model: YieldModel,
                                  m: np.ndarray) -> np.ndarray:
    # Dispatch on the exact type, not isinstance: a subclass that
    # overrides yield_from_expectation must NOT ride its parent's
    # vectorized kernel, or the batched result would diverge from the
    # scalar semantics it promises to replay bitwise.  Each branch is
    # its scalar method's expression in the same operation order.
    kind = type(model)
    if kind in (PoissonYield, ReferenceAreaYield):
        return _exp_neg(m)
    if kind is MurphyYield:
        # NumPy's expm1 is not libm's, and NumPy has no route to it.
        expm1 = np.fromiter(map(math.expm1, (-m).ravel().tolist()),
                            dtype=np.float64, count=m.size)
        safe_m = np.where(m == 0.0, 1.0, m)
        with np.errstate(under="ignore"):
            y = np.float_power(-expm1.reshape(m.shape) / safe_m, 2.0)
        return np.where(m == 0.0, 1.0, y)
    if kind is SeedsYield:
        return 1.0 / (1.0 + m)
    if kind is BoseEinsteinYield:
        return np.float_power(1.0 + m / model.n_layers, -model.n_layers)
    if kind in (NegativeBinomialYield, CompoundPoissonGamma):
        return np.float_power(1.0 + m / model.alpha, -model.alpha)
    if kind is HierarchicalYieldModel:
        return _hierarchical_yield_batch(model, m)
    # MixtureYieldModel and unknown subclasses: per-element scalar
    # replay — bitwise by construction.
    flat = np.array([model.yield_from_expectation(float(v))
                     for v in m.ravel()], dtype=np.float64)
    return flat.reshape(m.shape)


def _hierarchical_yield_batch(model: HierarchicalYieldModel,
                              m: np.ndarray) -> np.ndarray:
    # Replays HierarchicalYieldModel.yield_from_expectation exactly:
    # per quadrature node the base ``1.0 + (m·t)/β`` is IEEE-exact
    # arithmetic, the pow is libm's (np.float_power), and the
    # accumulation order over nodes matches the scalar loop — so every
    # element is bit-for-bit the scalar result.
    nodes, weights = model.mixing_nodes()
    beta = model.wafer_alpha
    acc = np.zeros(m.shape, dtype=np.float64)
    for t, w in zip(nodes, weights):
        acc += w * np.float_power(1.0 + (m * t) / beta, -beta)
    return np.where(m == 0.0, 1.0, np.minimum(acc, 1.0))


# ---------------------------------------------------------------------------
# eq. (1) composed
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BatchCostResult:
    """Array-valued analog of :class:`~repro.core.transistor_cost.
    CostBreakdown` for one batched eq.-(1) evaluation.

    All arrays share one broadcast shape.  ``feasible`` is False where
    the die does not fit the wafer or the eq.-(7) yield underflows; at
    those cells ``cost_per_transistor_dollars`` is ``inf`` (matching
    :func:`~repro.core.optimization.transistor_cost_full`) while the
    intermediates keep their computed values for auditing.  Arrays that
    came out of the shared cache are read-only; copy before mutating.
    """

    feature_size_um: np.ndarray
    wafer_cost_dollars: np.ndarray
    die_area_cm2: np.ndarray
    dies_per_wafer: np.ndarray
    transistors_per_die: np.ndarray
    yield_value: np.ndarray
    cost_per_transistor_dollars: np.ndarray
    feasible: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        """The common broadcast shape of every array field."""
        return self.cost_per_transistor_dollars.shape

    @property
    def n_feasible(self) -> int:
        """Number of cells with a finite cost."""
        return int(np.count_nonzero(self.feasible))

    @property
    def cost_per_transistor_microdollars(self) -> np.ndarray:
        """C_tr in the paper's Table-3 unit, $·10⁻⁶ (inf where masked)."""
        return self.cost_per_transistor_dollars * 1.0e6

    @property
    def good_dies_per_wafer(self) -> np.ndarray:
        """Expected functioning dies per wafer: N_ch · Y."""
        return self.dies_per_wafer * self.yield_value

    @property
    def cost_per_good_die_dollars(self) -> np.ndarray:
        """Wafer cost spread over functioning dies (inf where none fit)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.wafer_cost_dollars / self.good_dies_per_wafer
        return np.where(self.dies_per_wafer >= 1, out, np.inf)


#: Result fields that are not float64 in the scalar breakdowns.
_FIELD_DTYPES = {"dies_per_wafer": np.int64, "feasible": bool}


@lru_cache(maxsize=None)
def _breakdown_fields(result_type: type, given: tuple[str, ...]
                      ) -> tuple[tuple[str, ...], Callable[[Any], tuple]]:
    # The fields of ``result_type`` read off a scalar breakdown (all
    # but ``given``), and one getter for all of them.
    names = tuple(f.name for f in fields(result_type)
                  if f.name not in given)
    return names, attrgetter(*names)


def _scalar_points(result_type: type, price: Callable[..., Any],
                   operands: tuple[np.ndarray, ...],
                   out: np.ndarray | None = None, **given: np.ndarray):
    # The composed kernels' small-batch path (see SCALAR_MAX_POINTS):
    # each element of the broadcast ``operands`` is priced by the
    # kind's scalar reference, ``price(*point)``, so the bits and the
    # errors are the reference's by construction.  Every field of
    # ``result_type`` not in ``given`` is read off the breakdowns with
    # the same name and shaped like the operands.
    names, read = _breakdown_fields(result_type, tuple(given))
    cells = [read(price(*point))
             for point in zip(*[o.ravel().tolist() for o in operands])]
    columns = {name: np.array(values, dtype=_FIELD_DTYPES.get(name,
                                                              np.float64))
               for name, values in zip(
                   names, zip(*cells) if cells else [()] * len(names))}
    shape = operands[0].shape
    if shape != (len(cells),):
        columns = {name: v.reshape(shape) for name, v in columns.items()}
    columns.update(given)
    columns["cost_per_transistor_dollars"] = _deliver(
        columns["cost_per_transistor_dollars"], out)
    return result_type(**columns)


def _broadcast(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    # np.broadcast_arrays, without its ~2 µs when the shapes already
    # agree (a serve group's N_tr and λ).
    shape = arrays[0].shape
    for a in arrays:
        if a.shape != shape:
            return np.broadcast_arrays(*arrays)
    return arrays


def _die_geometry(n: np.ndarray, design_density: float, lam: np.ndarray,
                  aspect_ratio: float
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Die.from_transistor_count → Die.from_area, same operation order.
    # A non-finite or zero area, which the scalar Die refuses, leaves a
    # NaN width that dies_per_wafer_batch refuses in turn.
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        area_um2 = n * design_density * (lam * lam)
        area_cm2 = area_um2 / UM2_PER_CM2
        height = np.sqrt(area_cm2 / aspect_ratio)
        width = area_cm2 / height
    # Report the area the way Die.area_cm2 does — recomposed from the
    # rounded dimensions — so it matches the scalar breakdown bit-for-bit
    # (width · height re-rounds and can differ from area_cm2 by 1 ulp).
    return width, height, width * height


def _masked_cost(c_w: np.ndarray, n_ch: np.ndarray, n: np.ndarray,
                 y: np.ndarray, feasible: np.ndarray) -> np.ndarray:
    # masked_cost over arrays, in its operation order: C_w / (N_ch ·
    # N_tr · Y), inf where infeasible or where the denominator is 0.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore",
                     under="ignore"):
        denominator = n_ch * n * y
        cost = c_w / denominator
    return np.where(feasible & (denominator != 0.0), cost, np.inf)


def _observed(kernel: str, cells: int, t0: float) -> None:
    _metrics.inc(f"batch.{kernel}.calls")
    _metrics.inc(f"batch.{kernel}.cells", cells)
    _metrics.observe(f"batch.{kernel}.seconds", time.perf_counter() - t0)


def transistor_cost_batch(n_transistors, feature_sizes_um,
                          fab: "FabCharacterization | None" = None
                          ) -> BatchCostResult:
    """Batched eqs. (1)+(3)+(4)+(7) — the vector form of
    :func:`repro.core.optimization.transistor_cost_breakdown`, bitwise.

    ``n_transistors`` and ``feature_sizes_um`` broadcast together, so a
    full (λ, N_tr) landscape is one call with ``counts[:, None]`` and
    ``lams[None, :]``.  ``fab`` defaults to the Fig.-8 fitted fab.
    The λ-only factors — the eq.-(3) wafer cost and eq.-(7)'s
    ``D / λ^p`` — are computed over ``feature_sizes_um`` as given and
    broadcast afterwards.  At most :data:`SCALAR_MAX_POINTS` points are
    priced by ``transistor_cost_breakdown`` itself, point by point.
    """
    from ..core import optimization  # it imports this module
    if fab is None:
        fab = optimization.FIG8_FAB
    n = _as_float_array("n_transistors", n_transistors)
    lam_axis = _as_float_array("feature_sizes_um", feature_sizes_um)
    n, lam = _broadcast(n, lam_axis)

    obs_on = _obs_enabled()
    t0 = time.perf_counter() if obs_on else 0.0
    with _span("batch.transistor_cost", cells=int(n.size)):
        if n.size <= SCALAR_MAX_POINTS:
            result = _scalar_points(
                BatchCostResult,
                partial(optimization.transistor_cost_breakdown, fab=fab),
                (n, lam))
        else:
            result = _transistor_cost_arrays(fab, n, lam, lam_axis)
    if obs_on:
        _observed("evaluate", int(n.size), t0)
    return result


def _transistor_cost_arrays(fab: "FabCharacterization", n: np.ndarray,
                            lam: np.ndarray, lam_axis: np.ndarray
                            ) -> BatchCostResult:
    _require_all_positive("n_transistors", n)
    _require_all_positive("feature_sizes_um", lam_axis)
    wafer_cost_model = fab.wafer_cost
    width, height, area_cm2 = _die_geometry(n, fab.design_density,
                                            lam_axis, 1.0)
    n_ch = dies_per_wafer_batch(fab.wafer, width, height)
    y = _scaled_poisson_yield(n, fab.design_density, fab.defect_coefficient,
                              lam_axis, fab.size_exponent_p)
    c_w = _wafer_cost(wafer_cost_model, lam_axis, None)
    feasible = (n_ch >= 1) & (y >= YIELD_CUTOFF)
    cost = _masked_cost(c_w, n_ch, n, y, feasible)
    return BatchCostResult(
        feature_size_um=lam,
        wafer_cost_dollars=np.broadcast_to(c_w, cost.shape),
        die_area_cm2=area_cm2,
        dies_per_wafer=n_ch,
        transistors_per_die=n,
        yield_value=y,
        cost_per_transistor_dollars=cost,
        feasible=feasible)


def evaluate_batch(model: TransistorCostModel, *, n_transistors,
                   feature_sizes_um, design_density: float,
                   yield_model: YieldModel | None = None,
                   defect_density_per_cm2: float | None = None,
                   yield_value=None,
                   aspect_ratio: float = 1.0) -> BatchCostResult:
    """Batched :meth:`TransistorCostModel.evaluate_masked` over arrays,
    bitwise.

    Yield is specified exactly one of three ways, as in the scalar
    method; ``yield_value`` may itself be an array, broadcast with the
    points.  Where :meth:`TransistorCostModel.evaluate` *raises*
    because the die does not fit the wafer, the batch form masks the
    cell to ``inf`` instead (``feasible=False``), so aggressive sweeps
    need no per-cell exception handling.  As in
    :func:`transistor_cost_batch`, the wafer cost is priced over
    ``feature_sizes_um`` before it is broadcast, and at most
    :data:`SCALAR_MAX_POINTS` points are priced by the scalar method
    itself, point by point.
    """
    points = [_as_float_array("n_transistors", n_transistors),
              _as_float_array("feature_sizes_um", feature_sizes_um)]
    lam_axis = points[1]
    if yield_value is not None:
        points.append(_as_float_array("yield_value", yield_value))
    points = _broadcast(*points)
    yield_values = points[2] if yield_value is not None else None
    require_positive("design_density", design_density)
    require_positive("aspect_ratio", aspect_ratio)

    def price(n_i: float, lam_i: float,
              y_i: float | None = None) -> Any:
        return model.evaluate_masked(
            n_transistors=n_i, feature_size_um=lam_i,
            design_density=design_density, yield_model=yield_model,
            defect_density_per_cm2=defect_density_per_cm2,
            yield_value=y_i, aspect_ratio=aspect_ratio)

    cells = int(points[0].size)
    obs_on = _obs_enabled()
    t0 = time.perf_counter() if obs_on else 0.0
    with _span("batch.evaluate", cells=cells):
        if cells <= SCALAR_MAX_POINTS:
            result = _scalar_points(BatchCostResult, price, points)
        else:
            result = _evaluate_arrays(
                model, points[0], points[1], lam_axis, design_density,
                yield_model, defect_density_per_cm2, yield_values,
                aspect_ratio)
    if obs_on:
        _observed("evaluate", cells, t0)
    return result


def _evaluate_arrays(model: TransistorCostModel, n: np.ndarray,
                     lam: np.ndarray, lam_axis: np.ndarray,
                     design_density: float, yield_model: YieldModel | None,
                     defect_density_per_cm2: float | None,
                     yield_values: np.ndarray | None, aspect_ratio: float
                     ) -> BatchCostResult:
    _require_all_positive("n_transistors", n)
    _require_all_positive("feature_sizes_um", lam_axis)
    width, height, area_cm2 = _die_geometry(n, design_density, lam_axis,
                                            aspect_ratio)
    n_ch = dies_per_wafer_batch(model.wafer, width, height)
    y = _resolve_yield_batch(area_cm2, yield_model, defect_density_per_cm2,
                             yield_values)
    c_w = _wafer_cost(model.wafer_cost, lam_axis, model.volume_wafers)
    feasible = n_ch >= 1
    cost = _masked_cost(c_w, n_ch, n, y, feasible)
    return BatchCostResult(
        feature_size_um=lam,
        wafer_cost_dollars=np.broadcast_to(c_w, cost.shape),
        die_area_cm2=area_cm2,
        dies_per_wafer=n_ch,
        transistors_per_die=n,
        yield_value=np.broadcast_to(y, cost.shape),
        cost_per_transistor_dollars=cost,
        feasible=feasible)


def _resolve_yield_batch(die_area_cm2: np.ndarray,
                         yield_model: YieldModel | None,
                         defect_density_per_cm2: float | None,
                         yield_value: np.ndarray | None) -> np.ndarray:
    # TransistorCostModel._resolve_yield over arrays, check for check.
    given = [yield_model is not None, yield_value is not None]
    if sum(given) != 1:
        raise ParameterError(
            "specify exactly one of yield_model or yield_value")
    if yield_value is not None:
        _require_all_fraction("yield_value", yield_value)
        return yield_value
    assert yield_model is not None
    if isinstance(yield_model, ReferenceAreaYield):
        return _reference_area_yield(yield_model, die_area_cm2)
    if defect_density_per_cm2 is None:
        raise ParameterError(
            "defect_density_per_cm2 is required with this yield model")
    return yield_for_area_batch(yield_model, die_area_cm2,
                                defect_density_per_cm2)


def _reference_area_yield(law: ReferenceAreaYield,
                          area_cm2: np.ndarray) -> np.ndarray:
    # ReferenceAreaYield.yield_for_die_area: Y₀ ** (A / A₀).
    _require_all_nonnegative("area_cm2", area_cm2)
    return np.float_power(law.reference_yield,
                          area_cm2 / law.reference_area_cm2)


# ---------------------------------------------------------------------------
# eqs. (8) and (9) — the scenario approximations
# ---------------------------------------------------------------------------

def scenario1_cost_batch(model: TransistorCostModel, feature_sizes_um,
                         design_density: float) -> np.ndarray:
    """Eq. (8) over an array of λ: ``C_tr = C_w(λ)·d_d·λ² / A_w``.

    The vector form of :meth:`TransistorCostModel.scenario1_cost`,
    bitwise.
    """
    lam = _as_float_array("feature_sizes_um", feature_sizes_um)
    _require_all_positive("feature_sizes_um", lam)
    require_positive("design_density", design_density)
    c_w = wafer_cost_batch(model.wafer_cost, lam,
                           volume_wafers=model.volume_wafers)
    wafer_area_um2 = model.wafer.area_cm2 * UM2_PER_CM2
    return c_w * design_density * (lam * lam) / wafer_area_um2


def scenario2_cost_batch(model: TransistorCostModel, feature_sizes_um,
                         design_density: float, *,
                         reference_yield: float = 0.7,
                         reference_area_cm2: float = 1.0,
                         die_area_cm2=None) -> np.ndarray:
    """Eq. (9) over an array of λ: eq. (8) divided by ``Y₀^{A(λ)/A₀}``.

    ``die_area_cm2`` may be an array aligned with λ; the default is the
    Fig.-3 trend evaluated per λ, exactly as the scalar
    :meth:`TransistorCostModel.scenario2_cost` does, and the result is
    bitwise the scalar one.
    """
    lam = _as_float_array("feature_sizes_um", feature_sizes_um)
    _require_all_positive("feature_sizes_um", lam)
    law = ReferenceAreaYield(reference_yield, reference_area_cm2)
    if die_area_cm2 is None:
        from ..technology.roadmap import die_area_trend_cm2
        area = np.array([die_area_trend_cm2(float(l)) for l in lam.ravel()],
                        dtype=np.float64).reshape(lam.shape)
    else:
        area = _as_float_array("die_area_cm2", die_area_cm2)
    _require_all_positive("die_area_cm2", area)
    y = _reference_area_yield(law, area)
    return scenario1_cost_batch(model, lam, design_density) / y


# ---------------------------------------------------------------------------
# chiplet system cost — repro.system.chiplet, vectorized
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChipletBatchResult:
    """Array-valued analog of :class:`~repro.system.chiplet.
    ChipletCostBreakdown` for one batched chiplet evaluation.

    All arrays share one broadcast shape.  ``feasible`` is False where
    a chiplet does not fit the wafer or the effective (probe ×
    assembly) yield underflows the economic cutoff; the three cost
    fields are ``inf`` there — exactly like the scalar reference —
    while the physical intermediates keep their computed values.
    """

    feature_size_um: np.ndarray
    chiplet_count: np.ndarray
    transistors_per_chiplet: np.ndarray
    chiplet_area_cm2: np.ndarray
    wafer_cost_dollars: np.ndarray
    dies_per_wafer: np.ndarray
    die_yield: np.ndarray
    assembly_yield: np.ndarray
    effective_yield: np.ndarray
    packaging_cost_dollars: np.ndarray
    silicon_cost_per_transistor_dollars: np.ndarray
    overhead_cost_per_transistor_dollars: np.ndarray
    cost_per_transistor_dollars: np.ndarray
    feasible: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        """The common broadcast shape of every array field."""
        return self.cost_per_transistor_dollars.shape

    @property
    def n_feasible(self) -> int:
        """Number of cells with a finite cost."""
        return int(np.count_nonzero(self.feasible))

    @property
    def cost_per_transistor_microdollars(self) -> np.ndarray:
        """C_tr in the paper's Table-3 unit, $·10⁻⁶ (inf where masked)."""
        return self.cost_per_transistor_dollars * 1.0e6


def chiplet_cost_batch(n_transistors, feature_sizes_um, chiplets,
                       model: "ChipletCostModel | None" = None, *,
                       out: np.ndarray | None = None
                       ) -> ChipletBatchResult:
    """Batched :meth:`~repro.system.chiplet.ChipletCostModel.
    system_cost` — the vector form of the chiplet parity reference,
    bitwise.

    ``n_transistors``, ``feature_sizes_um`` and ``chiplets`` broadcast
    together, so a (k × N_tr) crossover plane at fixed λ is one call
    with ``ks[:, None]`` and ``counts[None, :]``.  ``chiplets`` must be
    integer-valued (floats are fine — the sweep engine feeds float
    axes) and ≥ 1 everywhere.

    The pure arithmetic (geometry, eq.-(4) die counts, every cost
    composition) is vectorized in the scalar operation order; eq. (3)
    and eq. (7) come from :func:`wafer_cost_batch` and the body of
    :func:`scaled_poisson_yield_batch`, and the three KGD/assembly pows
    run as ``np.float_power`` (the libm routes in the module
    docstring).  Sub-results (die counts, wafer cost) memoize in the
    process-wide :func:`~repro.batch.cache.default_cache`.  A batch of
    at most :data:`SCALAR_MAX_POINTS` elements skips the kernel and the
    cache: each element is priced by ``system_cost`` itself.

    With ``out`` the composed C_tr lands in the caller's float64
    buffer (e.g. a sweep tile's slab), which also becomes the
    result's ``cost_per_transistor_dollars``.
    """
    from ..system.chiplet import ChipletCostModel
    if model is None:
        model = ChipletCostModel()
    elif not isinstance(model, ChipletCostModel):
        raise ParameterError(
            f"model must be a ChipletCostModel, got {model!r}")
    n = _as_float_array("n_transistors", n_transistors)
    lam_axis = _as_float_array("feature_sizes_um", feature_sizes_um)
    kk = _as_float_array("chiplets", chiplets)
    n, lam, kk = _broadcast(n, lam_axis, kk)
    # system_cost(int(k), ...) would truncate a fractional k: this
    # check cannot be left to the scalar reference.
    if kk.size and not (kk.min() >= 1 and kk.max() < math.inf
                        and bool((np.floor(kk) == kk).all())):
        raise ParameterError(
            "chiplets must be integer-valued and >= 1 for every element")

    def price(n_i: float, lam_i: float, k_i: float) -> Any:
        return model.system_cost(int(k_i), n_i, lam_i)

    obs_on = _obs_enabled()
    t0 = time.perf_counter() if obs_on else 0.0
    with _span("batch.chiplet_cost", cells=int(n.size)):
        if n.size <= SCALAR_MAX_POINTS:
            result = _scalar_points(ChipletBatchResult, price, (n, lam, kk),
                                    out, chiplet_count=kk)
        else:
            result = _chiplet_cost_arrays(model, n, lam_axis, kk, out)
    if obs_on:
        _observed("chiplet", int(n.size), t0)
    return result


def _chiplet_cost_arrays(model: "ChipletCostModel", n: np.ndarray,
                         lam_axis: np.ndarray, kk: np.ndarray,
                         out: np.ndarray | None) -> ChipletBatchResult:
    # ``n`` and ``kk`` come broadcast to the result shape; ``lam_axis``
    # is the λ operand as given, so the λ-only factors (wafer cost,
    # D / λ^p) run once per distinct λ.
    _require_all_positive("n_transistors", n)
    _require_all_positive("feature_sizes_um", lam_axis)
    fab = model.fab
    pk = model.packaging
    t = model.test
    wafer_cost_model = fab.wafer_cost
    n_k = n / kk
    width, height, area_cm2 = _die_geometry(n_k, fab.design_density,
                                            lam_axis, 1.0)
    n_ch = dies_per_wafer_batch(fab.wafer, width, height)
    y = _scaled_poisson_yield(n_k, fab.design_density,
                              fab.defect_coefficient, lam_axis,
                              fab.size_exponent_p)
    c_w = _wafer_cost(wafer_cost_model, lam_axis, None)
    pc = model.probe_coverage
    pass_rate = np.float_power(y, pc)
    q = np.float_power(y, 1.0 - pc)
    y_asm = np.float_power(q * pk.bond_yield, kk)
    y_eff = pass_rate * y_asm
    packaging_cost = pk.base_cost_dollars \
        + pk.cost_per_die_dollars * kk \
        + pk.cost_per_cm2_dollars * (kk * area_cm2)
    rate = t.tester_rate_dollars_per_hour
    probe_c = (t.probe_base_seconds
               + t.probe_seconds_per_kilotransistor * n_k / 1000.0) \
        * rate / 3600.0
    final_c = (t.final_base_seconds
               + t.final_seconds_per_kilotransistor * n / 1000.0) \
        * rate / 3600.0
    feasible = (n_ch >= 1) & (y_eff >= YIELD_CUTOFF)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore",
                     under="ignore"):
        silicon = c_w / (n_ch * n_k * y_eff)
        overhead_total = kk * (probe_c / pass_rate) \
            + packaging_cost + final_c
        overhead = overhead_total / (y_asm * n)
        cost = silicon + overhead
    return ChipletBatchResult(
        feature_size_um=np.broadcast_to(lam_axis, n.shape),
        chiplet_count=kk,
        transistors_per_chiplet=n_k,
        chiplet_area_cm2=area_cm2,
        wafer_cost_dollars=np.broadcast_to(c_w, n.shape),
        dies_per_wafer=n_ch,
        die_yield=y,
        assembly_yield=y_asm,
        effective_yield=y_eff,
        packaging_cost_dollars=packaging_cost,
        silicon_cost_per_transistor_dollars=np.where(
            feasible, silicon, np.inf),
        overhead_cost_per_transistor_dollars=np.where(
            feasible, overhead, np.inf),
        cost_per_transistor_dollars=_deliver(
            np.where(feasible, cost, np.inf), out),
        feasible=feasible)

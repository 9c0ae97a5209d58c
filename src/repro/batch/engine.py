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
* :func:`transistor_cost_batch` / :func:`evaluate_batch` — eq. (1)
  composed, returning every :class:`~repro.core.transistor_cost.
  CostBreakdown` intermediate as an array,
* :func:`scenario1_cost_batch` / :func:`scenario2_cost_batch` —
  eqs. (8) and (9).

Parity contract with the scalar reference
-----------------------------------------
Pure-arithmetic quantities (die dimensions, areas, the eq.-(4) die
counts, feasibility masks) replicate the scalar code's operations in
the same order and are **bit-for-bit identical** — IEEE-754 multiply,
divide, sqrt and floor are exactly rounded in both NumPy and the C
library.  Quantities passing through transcendental functions (``pow``,
``exp``, ``log``) may differ in the last ulp because NumPy's SIMD
kernels and libm round those independently; they agree to
``np.allclose(rtol=1e-12)`` (observed ≤ 3e-16 relative).  Infeasible
cells — die does not fit the wafer, or eq.-(7) yield underflow — are
masked to ``inf`` exactly like :func:`repro.core.optimization.
transistor_cost_full`.

Caching
-------
The dies-per-wafer and wafer-cost sub-results are memoized in a
:class:`~repro.batch.cache.BatchCache` keyed on the exact input bytes,
shared across sweeps.  Pass ``cache=None`` to disable, or a private
:class:`BatchCache` to isolate; by default the process-wide cache from
:func:`~repro.batch.cache.default_cache` is used.  Cached arrays are
read-only.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from ..errors import ParameterError
from ..obs import metrics as _metrics, span as _span
from ..obs.state import enabled as _obs_enabled, \
    tracing_enabled as _tracing_enabled
from ..geometry.wafer import ROW_FIT_SLACK, Wafer
from ..core.wafer_cost import GenerationModel, WaferCostModel
from ..core.transistor_cost import TransistorCostModel
from ..units import UM2_PER_CM2, require_nonnegative
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
from .cache import BatchCache, array_fingerprint, default_cache

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
#: for bit anyway (crossover table: docs/performance.md, "Serving
#: single-point queries").  Used by :func:`chiplet_cost_batch` and the
#: serve executor.
SCALAR_MAX_POINTS = 8

#: Refuse eq.-(4) batches whose row reduction would exceed this many
#: rows for a single die (the scalar loop would effectively hang too).
_MAX_ROWS = 100_000_000

#: Upper bound on elements per temporary in the chunked row reduction
#: (512 KiB of float64).  At 2**22 every sweep tile page-faulted in
#: fresh 32 MiB temporaries: higher peak RSS and about a fifth of the
#: sweep's CPU in the kernel (docs/performance.md).
_ROW_CHUNK_BUDGET = 1 << 16

#: Sentinel: "use the process-wide default cache".
USE_DEFAULT_CACHE: Any = object()


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


def _resolve_cache(cache: Any) -> BatchCache | None:
    if cache is USE_DEFAULT_CACHE:
        return default_cache()
    if cache is None or isinstance(cache, BatchCache):
        return cache
    raise ParameterError(
        f"cache must be a BatchCache, None, or USE_DEFAULT_CACHE; "
        f"got {cache!r}")


def _cached(cache: BatchCache | None, key, compute) -> np.ndarray:
    if _tracing_enabled():
        # A span per *computed* sub-result (cache hits record nothing):
        # key[0] names the kernel ("wafer_cost", "dies_per_wafer").
        kind = key[0] if isinstance(key, tuple) and key else "anonymous"
        inner = compute

        def compute() -> np.ndarray:
            with _span(f"batch.compute.{kind}"):
                return inner()

    if cache is None:
        return np.asarray(compute())
    return cache.get_or_compute(key, compute)


def _as_float_array(name: str, value) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.dtype != np.float64:  # pragma: no cover - asarray guarantees
        arr = arr.astype(np.float64)
    return arr


def _require_all_positive(name: str, arr: np.ndarray) -> None:
    # Mirrors require_positive elementwise: raises on value <= 0 (NaN
    # propagates, as in the scalar code, rather than raising).
    if bool((arr <= 0).any()):
        raise ParameterError(f"{name} must be > 0 for every element")


def _require_all_fraction(name: str, arr: np.ndarray) -> None:
    if bool(((arr <= 0) | (arr > 1.0)).any()):
        raise ParameterError(f"{name} must be in (0, 1] for every element")


# ---------------------------------------------------------------------------
# eq. (3) — wafer cost
# ---------------------------------------------------------------------------

def generations_batch(feature_sizes_um, reference_um: float = 1.0, *,
                      model: GenerationModel = GenerationModel.SHRINK_LOG,
                      shrink: float = 0.7,
                      linear_step_um: float = 0.15) -> np.ndarray:
    """g(λ) over an array of feature sizes — all four laws of
    :class:`~repro.core.wafer_cost.GenerationModel`."""
    lam = _as_float_array("feature_sizes_um", feature_sizes_um)
    _require_all_positive("feature_sizes_um", lam)
    if reference_um <= 0:
        raise ParameterError(f"reference_um must be > 0, got {reference_um}")
    ratio = reference_um / lam
    if model is GenerationModel.SHRINK_LOG:
        if not 0.0 < shrink < 1.0:
            raise ParameterError(f"shrink must be in (0, 1), got {shrink}")
        return np.log(ratio) / math.log(1.0 / shrink)
    if model is GenerationModel.LINEAR:
        if linear_step_um <= 0:
            raise ParameterError(
                f"linear_step_um must be > 0, got {linear_step_um}")
        return (reference_um - lam) / linear_step_um
    if model is GenerationModel.INVERSE:
        return 2.0 * (ratio - 1.0)
    if model is GenerationModel.PRINTED:
        return 0.5 * (1.0 - lam / reference_um)
    raise ParameterError(f"unknown generation model {model!r}")


def wafer_cost_batch(model: WaferCostModel, feature_sizes_um, *,
                     volume_wafers: float | None = None,
                     cache: Any = USE_DEFAULT_CACHE,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Eq. (3) — C'_w(λ) over an array of λ, optionally with the
    eq.-(2) overhead term at ``volume_wafers``.

    Matches :meth:`WaferCostModel.pure_cost` /
    :meth:`WaferCostModel.cost_at_volume` elementwise to 1e-12.
    With ``out`` the result is copied into the caller's buffer (e.g. a
    shared-memory row) and that buffer is returned.
    """
    lam = _as_float_array("feature_sizes_um", feature_sizes_um)
    _require_all_positive("feature_sizes_um", lam)
    if volume_wafers is not None and volume_wafers <= 0:
        raise ParameterError(
            f"volume_wafers must be > 0, got {volume_wafers}")
    cache = _resolve_cache(cache)
    key = ("wafer_cost", model.reference_cost_dollars,
           model.cost_growth_rate, model.reference_feature_um,
           model.overhead_dollars, model.generation_model,
           model.shrink, model.linear_step_um, volume_wafers,
           array_fingerprint(lam))

    def compute() -> np.ndarray:
        g = generations_batch(lam, model.reference_feature_um,
                              model=model.generation_model,
                              shrink=model.shrink,
                              linear_step_um=model.linear_step_um)
        pure = model.reference_cost_dollars * model.cost_growth_rate ** g
        if volume_wafers is None:
            return pure
        return pure + model.overhead_dollars / volume_wafers

    return _deliver(_cached(cache, key, compute), out)


# ---------------------------------------------------------------------------
# eq. (4) — dies per wafer
# ---------------------------------------------------------------------------

def dies_per_wafer_batch(wafer: Wafer, width_cm, height_cm, *,
                         scribe_cm: float = 0.0,
                         cache: Any = USE_DEFAULT_CACHE,
                         out: np.ndarray | None = None) -> np.ndarray:
    """Eq. (4) over arrays of die sizes — exact integer parity with
    :func:`repro.geometry.wafer.dies_per_wafer_maly`.

    ``width_cm`` and ``height_cm`` broadcast together; the result is an
    int64 array of that broadcast shape (0 where the die does not fit).
    The per-row chord sum runs as array reductions, chunked so no
    temporary exceeds a fixed element budget regardless of batch size.
    With ``out`` the counts are copied into the caller's buffer and
    that buffer is returned — a float64 ``out`` (a shared-memory row)
    holds them exactly, since a wafer bounds N_ch far below 2^53.
    """
    w = _as_float_array("width_cm", width_cm)
    h = _as_float_array("height_cm", height_cm)
    w, h = np.broadcast_arrays(w, h)
    _require_all_positive("width_cm", w)
    _require_all_positive("height_cm", h)
    require_nonnegative("scribe_cm", scribe_cm)
    cache = _resolve_cache(cache)
    key = ("dies_per_wafer", wafer.radius_cm, wafer.edge_exclusion_cm,
           float(scribe_cm), array_fingerprint(w), array_fingerprint(h))

    def compute() -> np.ndarray:
        return _dies_per_wafer_rows(wafer.usable_radius_cm,
                                    w.ravel(), h.ravel(),
                                    float(scribe_cm)).reshape(w.shape)

    return _deliver(_cached(cache, key, compute), out)


def _dies_per_wafer_rows(radius: float, w: np.ndarray, h: np.ndarray,
                         scribe: float) -> np.ndarray:
    # Same operations, same order, as the scalar row loop: pitch
    # a = w + scribe, b = h + scribe; floor(2R/b) rows; each row holds
    # floor(2·min(R_j, R_{j+1})/a + ROW_FIT_SLACK) dies with
    # R_j = sqrt(R² − (jb − R)²).
    a = w + scribe
    b = h + scribe
    n = w.size
    counts = np.zeros(n, dtype=np.int64)
    if n == 0:
        return counts
    fits = ~((w > 2.0 * radius) | (h > 2.0 * radius))
    rows = np.zeros(n, dtype=np.int64)
    rows[fits] = np.floor(2.0 * radius / b[fits]).astype(np.int64)
    if bool((rows > _MAX_ROWS).any()):
        raise ParameterError(
            f"a die in the batch implies more than {_MAX_ROWS} wafer rows; "
            f"refusing the (intractable) eq.-(4) reduction")
    order = np.argsort(rows, kind="stable")
    rows_sorted = rows[order]
    r2 = radius * radius
    pos = int(np.searchsorted(rows_sorted, 1))  # zero-row dies stay 0
    if pos >= n:
        return counts
    active = order[pos:]
    r_active = rows_sorted[pos:]
    # Dies are padded to their chunk's max row count (rows past a die's
    # own floor(2R/b) contribute exactly 0: the chord at offset
    # (j+1)·b − R already lies outside the circle).  Chunk boundaries
    # group dies whose row counts agree within ×1.5 so that padding
    # wastes at most ~50% of each chunk's row matrix, and each chunk is
    # further split to keep its temporaries under the element budget.
    bucket = np.floor(np.log(r_active.astype(np.float64))
                      / math.log(1.5)).astype(np.int64)
    cuts = np.flatnonzero(np.diff(bucket)) + 1
    starts = np.concatenate(([0], cuts))
    ends = np.concatenate((cuts, [r_active.size]))
    for start, end in zip(starts, ends):
        max_size = max(1, _ROW_CHUNK_BUDGET // (int(r_active[end - 1]) + 2))
        for lo in range(start, end, max_size):
            hi = min(lo + max_size, end)
            sel = active[lo:hi]
            r_chunk = int(r_active[hi - 1])
            j = np.arange(r_chunk + 1, dtype=np.float64)
            offset = j[None, :] * b[sel, None] - radius
            inside = r2 - offset * offset
            chord = np.sqrt(np.maximum(inside, 0.0))
            row_chord = np.minimum(chord[:, :-1], chord[:, 1:])
            per_row = np.floor(2.0 * row_chord / a[sel, None]
                               + ROW_FIT_SLACK)
            counts[sel] = per_row.sum(axis=1).astype(np.int64)
    return counts


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

def poisson_yield_batch(area_cm2, defect_density_per_cm2) -> np.ndarray:
    """Eq. (6): ``Y = exp(−A·D₀)`` over arrays."""
    area = _as_float_array("area_cm2", area_cm2)
    density = _as_float_array("defect_density_per_cm2",
                              defect_density_per_cm2)
    if bool((area < 0).any()) or bool((density < 0).any()):
        raise ParameterError("areas and densities must be >= 0")
    return np.exp(-(area * density))


def scaled_poisson_yield_batch(n_transistors, design_density,
                               defect_coefficient, feature_sizes_um,
                               p, *,
                               out: np.ndarray | None = None) -> np.ndarray:
    """Eq. (7): ``Y = exp[−N_tr·d_d·D / λ^{p−2}]`` over arrays.

    Preserves the scalar reference's underflow clamp: cells whose
    exponent exceeds 700 return the smallest positive denormal rather
    than 0.0, so callers dividing by Y never hit a zero division.
    With ``out`` the yields land in the caller's buffer, which is
    returned.
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
    if bool((coeff < 0).any()):
        raise ParameterError("defect_coefficient must be >= 0 everywhere")
    area_cm2 = n * d * (lam * lam) * 1.0e-8
    d0_per_cm2 = coeff / lam ** p_arr
    exponent = area_cm2 * d0_per_cm2
    with np.errstate(under="ignore"):
        y = np.exp(-exponent)
    return _deliver(np.where(exponent > _EXPONENT_CLAMP, _TINY_YIELD, y),
                    out)


def yield_for_area_batch(model: YieldModel, area_cm2,
                         defect_density_per_cm2, *,
                         out: np.ndarray | None = None) -> np.ndarray:
    """Any :class:`YieldModel` evaluated over arrays of (area, density).

    The classical models are dispatched to closed-form array kernels
    (1e-12 parity through the transcendentals); the compound family
    (:class:`CompoundPoissonGamma`, :class:`HierarchicalYieldModel`,
    :class:`MixtureYieldModel`) replays the scalar reference's exact
    operation order per element and is **bitwise** identical to it;
    unknown subclasses fall back to a per-element loop so every custom
    model keeps working.  With ``out`` the yields land in the caller's
    float64 buffer (e.g. a shared-memory row), which is returned.
    """
    area = _as_float_array("area_cm2", area_cm2)
    density = _as_float_array("defect_density_per_cm2",
                              defect_density_per_cm2)
    if bool((area < 0).any()) or bool((density < 0).any()):
        raise ParameterError("areas and densities must be >= 0")
    m = area * density
    return _deliver(_yield_from_expectation_batch(model, m), out)


def yield_from_expectation_batch(model: YieldModel, m, *,
                                 out: np.ndarray | None = None
                                 ) -> np.ndarray:
    """Any :class:`YieldModel` over an array of fault expectations.

    The array form of :meth:`YieldModel.yield_from_expectation`, under
    the same dispatch and parity rules as :func:`yield_for_area_batch`
    (closed-form kernels for the classical laws, bitwise scalar replay
    for the compound family).  With ``out`` the result is copied into
    the caller's float64 buffer, which is returned.
    """
    arr = _as_float_array("m", m)
    if bool((arr < 0).any()):
        raise ParameterError("m must be >= 0 for every element")
    return _deliver(_yield_from_expectation_batch(model, arr), out)


def _scalar_pow_elementwise(base: np.ndarray, exponent: float) -> np.ndarray:
    # ``base ** exponent`` through the *scalar* libm pow, element by
    # element.  NumPy's SIMD pow may round differently in the last ulp,
    # which would break the bitwise contract of the compound-family
    # kernels; the surrounding arithmetic stays vectorized (IEEE-exact
    # ops only) and just the transcendental goes through Python floats.
    flat = np.fromiter((b ** exponent for b in base.ravel().tolist()),
                       dtype=np.float64, count=base.size)
    return flat.reshape(base.shape)


def _yield_from_expectation_batch(model: YieldModel,
                                  m: np.ndarray) -> np.ndarray:
    # Dispatch on the exact type, not isinstance: a subclass that
    # overrides yield_from_expectation must NOT ride its parent's
    # vectorized kernel, or the batched result would diverge from the
    # scalar semantics it promises to replay bitwise.
    kind = type(model)
    if kind in (PoissonYield, ReferenceAreaYield):
        return np.exp(-m)
    if kind is MurphyYield:
        safe_m = np.where(m == 0.0, 1.0, m)
        with np.errstate(under="ignore"):
            y = (-np.expm1(-m) / safe_m) ** 2
        return np.where(m == 0.0, 1.0, y)
    if kind is SeedsYield:
        return 1.0 / (1.0 + m)
    if kind is BoseEinsteinYield:
        return (1.0 + m / model.n_layers) ** (-model.n_layers)
    if kind is CompoundPoissonGamma:
        # Same expression as NegativeBinomialYield below, but routed
        # through scalar pow so batched == scalar bit-for-bit (the
        # base ``1.0 + m/α`` is exactly rounded either way).
        return _scalar_pow_elementwise(1.0 + m / model.alpha, -model.alpha)
    if kind is NegativeBinomialYield:
        return (1.0 + m / model.alpha) ** (-model.alpha)
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
    # arithmetic (vectorized), the pow goes through scalar libm, and
    # the accumulation order over nodes matches the scalar loop —
    # so every element is bit-for-bit the scalar result.
    nodes, weights = model.mixing_nodes()
    beta = model.wafer_alpha
    acc = np.zeros(m.shape, dtype=np.float64)
    for t, w in zip(nodes, weights):
        acc += w * _scalar_pow_elementwise(1.0 + (m * t) / beta, -beta)
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


def _die_geometry(n: np.ndarray, design_density: float, lam: np.ndarray,
                  aspect_ratio: float
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Die.from_transistor_count → Die.from_area, same operation order.
    area_um2 = n * design_density * (lam * lam)
    area_cm2 = area_um2 / UM2_PER_CM2
    height = np.sqrt(area_cm2 / aspect_ratio)
    width = area_cm2 / height
    # Report the area the way Die.area_cm2 does — recomposed from the
    # rounded dimensions — so it matches the scalar breakdown bit-for-bit
    # (width · height re-rounds and can differ from area_cm2 by 1 ulp).
    return width, height, width * height


def transistor_cost_batch(n_transistors, feature_sizes_um,
                          fab: "FabCharacterization | None" = None, *,
                          cache: Any = USE_DEFAULT_CACHE
                          ) -> BatchCostResult:
    """Batched eqs. (1)+(3)+(4)+(7) — the vector form of
    :func:`repro.core.optimization.transistor_cost_full`.

    ``n_transistors`` and ``feature_sizes_um`` broadcast together, so a
    full (λ, N_tr) landscape is one call with ``counts[:, None]`` and
    ``lams[None, :]``.  ``fab`` defaults to the Fig.-8 fitted fab.
    """
    from ..core.optimization import FIG8_FAB
    if fab is None:
        fab = FIG8_FAB
    n = _as_float_array("n_transistors", n_transistors)
    lam = _as_float_array("feature_sizes_um", feature_sizes_um)
    n, lam = np.broadcast_arrays(n, lam)
    _require_all_positive("n_transistors", n)
    _require_all_positive("feature_sizes_um", lam)
    cache = _resolve_cache(cache)

    obs_on = _obs_enabled()
    t0 = time.perf_counter() if obs_on else 0.0
    with _span("batch.transistor_cost", cells=int(n.size)):
        wafer = Wafer(radius_cm=fab.wafer_radius_cm)
        wafer_cost_model = WaferCostModel(
            reference_cost_dollars=fab.reference_cost_dollars,
            cost_growth_rate=fab.cost_growth_rate)
        width, height, area_cm2 = _die_geometry(n, fab.design_density,
                                                lam, 1.0)
        n_ch = dies_per_wafer_batch(wafer, width, height, cache=cache)
        y = scaled_poisson_yield_batch(n, fab.design_density,
                                       fab.defect_coefficient, lam,
                                       fab.size_exponent_p)
        c_w = wafer_cost_batch(wafer_cost_model, lam, cache=cache)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore",
                         under="ignore"):
            cost = c_w / (n_ch * n * y)
        feasible = (n_ch >= 1) & (y >= YIELD_CUTOFF)
        cost = np.where(feasible, cost, np.inf)
    if obs_on:
        _metrics.inc("batch.evaluate.calls")
        _metrics.inc("batch.evaluate.cells", int(n.size))
        _metrics.observe("batch.evaluate.seconds", time.perf_counter() - t0)
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
                   aspect_ratio: float = 1.0,
                   cache: Any = USE_DEFAULT_CACHE) -> BatchCostResult:
    """Batched :meth:`TransistorCostModel.evaluate` over arrays.

    Yield is specified exactly one of three ways, as in the scalar
    method; ``yield_value`` may itself be an array.  Where the scalar
    method *raises* because the die does not fit the wafer, the batch
    form masks the cell to ``inf`` instead (``feasible=False``), so
    aggressive sweeps need no per-cell exception handling.
    """
    n = _as_float_array("n_transistors", n_transistors)
    lam = _as_float_array("feature_sizes_um", feature_sizes_um)
    n, lam = np.broadcast_arrays(n, lam)
    _require_all_positive("n_transistors", n)
    _require_all_positive("feature_sizes_um", lam)
    if design_density <= 0:
        raise ParameterError(
            f"design_density must be > 0, got {design_density}")
    if aspect_ratio <= 0:
        raise ParameterError(
            f"aspect_ratio must be > 0, got {aspect_ratio}")
    cache = _resolve_cache(cache)

    obs_on = _obs_enabled()
    t0 = time.perf_counter() if obs_on else 0.0
    with _span("batch.evaluate", cells=int(n.size)):
        width, height, area_cm2 = _die_geometry(n, design_density, lam,
                                                aspect_ratio)
        n_ch = dies_per_wafer_batch(model.wafer, width, height, cache=cache)
        y = _resolve_yield_batch(area_cm2, yield_model,
                                 defect_density_per_cm2, yield_value)
        c_w = wafer_cost_batch(model.wafer_cost, lam,
                               volume_wafers=model.volume_wafers, cache=cache)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore",
                         under="ignore"):
            cost = c_w / (n_ch * n * y)
        feasible = n_ch >= 1
        cost = np.where(feasible, cost, np.inf)
    if obs_on:
        _metrics.inc("batch.evaluate.calls")
        _metrics.inc("batch.evaluate.cells", int(n.size))
        _metrics.observe("batch.evaluate.seconds", time.perf_counter() - t0)
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
                         yield_value) -> np.ndarray:
    given = [yield_model is not None, yield_value is not None]
    if sum(given) != 1:
        raise ParameterError(
            "specify exactly one of yield_model or yield_value")
    if yield_value is not None:
        y = _as_float_array("yield_value", yield_value)
        _require_all_fraction("yield_value", y)
        return y
    assert yield_model is not None
    if isinstance(yield_model, ReferenceAreaYield):
        return yield_model.reference_yield ** (
            die_area_cm2 / yield_model.reference_area_cm2)
    if defect_density_per_cm2 is None:
        raise ParameterError(
            "defect_density_per_cm2 is required with this yield model")
    return yield_for_area_batch(yield_model, die_area_cm2,
                                defect_density_per_cm2)


# ---------------------------------------------------------------------------
# eqs. (8) and (9) — the scenario approximations
# ---------------------------------------------------------------------------

def scenario1_cost_batch(model: TransistorCostModel, feature_sizes_um,
                         design_density: float, *,
                         cache: Any = USE_DEFAULT_CACHE) -> np.ndarray:
    """Eq. (8) over an array of λ: ``C_tr = C_w(λ)·d_d·λ² / A_w``.

    The vector form of :meth:`TransistorCostModel.scenario1_cost`.
    """
    lam = _as_float_array("feature_sizes_um", feature_sizes_um)
    _require_all_positive("feature_sizes_um", lam)
    if design_density <= 0:
        raise ParameterError(
            f"design_density must be > 0, got {design_density}")
    c_w = wafer_cost_batch(model.wafer_cost, lam,
                           volume_wafers=model.volume_wafers, cache=cache)
    wafer_area_um2 = model.wafer.area_cm2 * UM2_PER_CM2
    return c_w * design_density * (lam * lam) / wafer_area_um2


def scenario2_cost_batch(model: TransistorCostModel, feature_sizes_um,
                         design_density: float, *,
                         reference_yield: float = 0.7,
                         reference_area_cm2: float = 1.0,
                         die_area_cm2=None,
                         cache: Any = USE_DEFAULT_CACHE) -> np.ndarray:
    """Eq. (9) over an array of λ: eq. (8) divided by ``Y₀^{A(λ)/A₀}``.

    ``die_area_cm2`` may be an array aligned with λ; the default is the
    Fig.-3 trend evaluated per λ, exactly as the scalar
    :meth:`TransistorCostModel.scenario2_cost` does.
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
    y = law.reference_yield ** (area / law.reference_area_cm2)
    return scenario1_cost_batch(model, lam, design_density,
                                cache=cache) / y


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


def _scalar_pow_pairwise(base: np.ndarray,
                         exponent: np.ndarray) -> np.ndarray:
    # ``base ** exponent`` with a per-element exponent, through the
    # scalar libm pow — the pairwise sibling of
    # ``_scalar_pow_elementwise`` (same bitwise rationale).
    flat = np.fromiter((b ** e for b, e in zip(base.ravel().tolist(),
                                               exponent.ravel().tolist())),
                       dtype=np.float64, count=base.size)
    return flat.reshape(base.shape)


def _scalar_exp_neg_clamped(exponent: np.ndarray) -> np.ndarray:
    # ``exp(-exponent)`` through scalar libm with the eq.-(7) underflow
    # clamp — replays scaled_poisson_yield's tail (and its bits)
    # exactly, element by element.
    exp = math.exp
    flat = np.fromiter(
        (_TINY_YIELD if e > _EXPONENT_CLAMP else exp(-e)
         for e in exponent.ravel().tolist()),
        dtype=np.float64, count=exponent.size)
    return flat.reshape(exponent.shape)


def _scalar_wafer_cost_batch(model: WaferCostModel, lam: np.ndarray,
                             cache: BatchCache | None) -> np.ndarray:
    # Eq. (3) per *unique* λ through the scalar ``pure_cost`` (libm pow
    # and log), fanned back out — bitwise equal to the scalar path, and
    # cheap because sweeps carry few distinct feature sizes.
    key = ("chiplet_wafer_cost", model.reference_cost_dollars,
           model.cost_growth_rate, model.reference_feature_um,
           model.generation_model, model.shrink, model.linear_step_um,
           array_fingerprint(lam))

    def compute() -> np.ndarray:
        uniq, inv = np.unique(lam.ravel(), return_inverse=True)
        pure = model.pure_cost
        vals = np.fromiter((pure(l) for l in uniq.tolist()),
                           dtype=np.float64, count=uniq.size)
        return vals[inv].reshape(lam.shape)

    return _cached(cache, key, compute)


def chiplet_cost_batch(n_transistors, feature_sizes_um, chiplets,
                       model: "ChipletCostModel | None" = None, *,
                       cache: Any = USE_DEFAULT_CACHE,
                       out: np.ndarray | None = None
                       ) -> ChipletBatchResult:
    """Batched :meth:`~repro.system.chiplet.ChipletCostModel.
    system_cost` — the vector form of the chiplet parity reference.

    ``n_transistors``, ``feature_sizes_um`` and ``chiplets`` broadcast
    together, so a (k × N_tr) crossover plane at fixed λ is one call
    with ``ks[:, None]`` and ``counts[None, :]``.  ``chiplets`` must be
    integer-valued (floats are fine — the sweep engine feeds float
    axes) and ≥ 1 everywhere.

    Parity is **bitwise**, not 1e-12: the pure arithmetic (geometry,
    eq.-(4) die counts, every cost composition) is vectorized in the
    scalar operation order, while the transcendental steps — eq.-(3)
    wafer cost per unique λ, the eq.-(7) exp, and the three KGD/
    assembly pows — run through scalar libm element by element
    (the ``_scalar_pow_elementwise`` idiom the compound yield family
    established).  That lets the serve executor and the loadgen
    verifier hold chiplet traffic to the same bitwise contract as fab
    queries.  Sub-results (die counts, wafer cost, die yield) memoize
    in the shared :class:`~repro.batch.cache.BatchCache`.  A batch of
    at most :data:`SCALAR_MAX_POINTS` elements skips the kernel and
    the cache: each element is priced by ``system_cost`` itself.

    With ``out`` the composed C_tr lands in the caller's float64
    buffer (e.g. a shared-memory sweep tile), which also becomes the
    result's ``cost_per_transistor_dollars``.
    """
    from ..system.chiplet import ChipletCostModel
    if model is None:
        model = ChipletCostModel()
    elif not isinstance(model, ChipletCostModel):
        raise ParameterError(
            f"model must be a ChipletCostModel, got {model!r}")
    n = _as_float_array("n_transistors", n_transistors)
    lam = _as_float_array("feature_sizes_um", feature_sizes_um)
    kk = _as_float_array("chiplets", chiplets)
    n, lam, kk = np.broadcast_arrays(n, lam, kk)
    _require_all_positive("n_transistors", n)
    _require_all_positive("feature_sizes_um", lam)
    if bool((kk < 1).any()) or bool((np.floor(kk) != kk).any()):
        raise ParameterError(
            "chiplets must be integer-valued and >= 1 for every element")
    cache = _resolve_cache(cache)

    obs_on = _obs_enabled()
    t0 = time.perf_counter() if obs_on else 0.0
    with _span("batch.chiplet_cost", cells=int(n.size)):
        if n.size <= SCALAR_MAX_POINTS:
            result = _chiplet_cost_points(model, n, lam, kk, out)
        else:
            result = _chiplet_cost_arrays(model, n, lam, kk, cache, out)
    if obs_on:
        _metrics.inc("batch.chiplet.calls")
        _metrics.inc("batch.chiplet.cells", int(n.size))
        _metrics.observe("batch.chiplet.seconds", time.perf_counter() - t0)
    return result


def _chiplet_cost_points(model: "ChipletCostModel", n: np.ndarray,
                         lam: np.ndarray, kk: np.ndarray,
                         out: np.ndarray | None) -> ChipletBatchResult:
    # A small batch is priced by the scalar reference itself, point by
    # point (see SCALAR_MAX_POINTS), and fanned into the result arrays.
    system_cost = model.system_cost
    cells = [system_cost(int(k), n_i, lam_i) for n_i, lam_i, k in zip(
        n.ravel().tolist(), lam.ravel().tolist(), kk.ravel().tolist())]

    def column(name: str, dtype=np.float64) -> np.ndarray:
        return np.array([getattr(c, name) for c in cells],
                        dtype=dtype).reshape(n.shape)

    return ChipletBatchResult(
        feature_size_um=lam,
        chiplet_count=kk,
        transistors_per_chiplet=column("transistors_per_chiplet"),
        chiplet_area_cm2=column("chiplet_area_cm2"),
        wafer_cost_dollars=column("wafer_cost_dollars"),
        dies_per_wafer=column("dies_per_wafer", np.int64),
        die_yield=column("die_yield"),
        assembly_yield=column("assembly_yield"),
        effective_yield=column("effective_yield"),
        packaging_cost_dollars=column("packaging_cost_dollars"),
        silicon_cost_per_transistor_dollars=column(
            "silicon_cost_per_transistor_dollars"),
        overhead_cost_per_transistor_dollars=column(
            "overhead_cost_per_transistor_dollars"),
        cost_per_transistor_dollars=_deliver(
            column("cost_per_transistor_dollars"), out),
        feasible=column("feasible", bool))


def _chiplet_cost_arrays(model: "ChipletCostModel", n: np.ndarray,
                         lam: np.ndarray, kk: np.ndarray,
                         cache: BatchCache | None,
                         out: np.ndarray | None) -> ChipletBatchResult:
    fab = model.fab
    pk = model.packaging
    t = model.test
    wafer = Wafer(radius_cm=fab.wafer_radius_cm)
    wafer_cost_model = WaferCostModel(
        reference_cost_dollars=fab.reference_cost_dollars,
        cost_growth_rate=fab.cost_growth_rate)
    n_k = n / kk
    width, height, area_cm2 = _die_geometry(n_k, fab.design_density,
                                            lam, 1.0)
    n_ch = dies_per_wafer_batch(wafer, width, height, cache=cache)
    c_w = _scalar_wafer_cost_batch(wafer_cost_model, lam, cache)
    ykey = ("chiplet_die_yield", fab.design_density,
            fab.defect_coefficient, fab.size_exponent_p,
            array_fingerprint(n_k), array_fingerprint(lam))

    def compute_yield() -> np.ndarray:
        # scaled_poisson_yield's exact operation order: the d0 pow
        # per unique λ through scalar libm, the area product
        # vectorized (IEEE-exact), the exp per element.
        uniq, inv = np.unique(lam.ravel(), return_inverse=True)
        p = fab.size_exponent_p
        coeff = fab.defect_coefficient
        d0_u = np.fromiter((coeff / l ** p for l in uniq.tolist()),
                           dtype=np.float64, count=uniq.size)
        area_y = n_k * fab.design_density * (lam * lam) * 1.0e-8
        exponent = area_y * d0_u[inv].reshape(lam.shape)
        return _scalar_exp_neg_clamped(exponent)

    y = _cached(cache, ykey, compute_yield)
    pc = model.probe_coverage
    pass_rate = _scalar_pow_elementwise(y, pc)
    q = _scalar_pow_elementwise(y, 1.0 - pc)
    y_asm = _scalar_pow_pairwise(q * pk.bond_yield, kk)
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
        feature_size_um=lam,
        chiplet_count=kk,
        transistors_per_chiplet=n_k,
        chiplet_area_cm2=area_cm2,
        wafer_cost_dollars=c_w,
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

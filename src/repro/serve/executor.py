"""Bitwise-scalar-exact execution of one coalesced group.

The scheduler hands this module a *group*: queries sharing one model
signature, already deduplicated to unique ``(N_tr, λ)`` points.  The
executor prices the group and must satisfy the service's headline
contract:

    **every served number is bitwise equal to the direct scalar
    evaluation of that query, no matter how the scheduler sliced the
    traffic into batches.**

A group of at most :data:`~repro.batch.engine.SCALAR_MAX_POINTS`
unique points is priced by its kind's scalar reference itself, point
by point: :func:`~repro.core.optimization.transistor_cost_breakdown`
(fab), :meth:`~repro.core.transistor_cost.TransistorCostModel.
evaluate_masked` (model) and, inside
:func:`~repro.batch.engine.chiplet_cost_batch`,
:meth:`~repro.system.chiplet.ChipletCostModel.system_cost` (chiplet).
On such groups the kernels' fixed NumPy overhead costs more than the
scalar arithmetic, and parity holds by construction.  Larger groups
are priced all at once as follows.

The batch engine alone cannot promise bitwise parity: its
pure-arithmetic kernels are bit-for-bit with the scalar path, but
quantities routed through NumPy's SIMD transcendentals (``exp``,
``pow``, ``log``) can differ from libm in the last ulp (see the parity
contract in :mod:`repro.batch.engine`).  So the executor splits the
work by arithmetic class:

* die geometry (multiply/divide/sqrt — exactly rounded, bit-identical
  by IEEE-754) and the eq.-(4) die count (exact integer parity, and
  the dominant scalar cost: a per-row Python loop in
  :func:`~repro.geometry.wafer.dies_per_wafer_maly`) run **vectorized**
  through :func:`repro.batch.engine.dies_per_wafer_batch`, reusing the
  shared :class:`~repro.batch.cache.BatchCache`;
* the cheap transcendental steps — eq.-(3) wafer cost (memoized per
  unique λ) and eq.-(6/7) yield — run the **same scalar arithmetic**
  as the reference path, operation for operation (either by calling
  the same functions or by inlining their exact body with validation
  hoisted to query construction), so they agree bitwise by
  construction;
* the final eq.-(1) division composes them elementwise in exactly the
  scalar operation order.

Because every step is elementwise in the unique points, results are
independent of batch composition and order — the batch-boundary
invariance the hypothesis suite (``tests/property_based/
test_serve_parity.py``) enforces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ..batch.cache import BatchCache
from ..batch.engine import SCALAR_MAX_POINTS, _die_geometry, \
    chiplet_cost_batch, dies_per_wafer_batch
from ..core.optimization import transistor_cost_breakdown
from ..core.wafer_cost import WaferCostModel
from ..errors import ParameterError
from ..geometry.wafer import Wafer
from ..yieldsim.models import YIELD_CUTOFF, ReferenceAreaYield, \
    scaled_defect_density
from .query import CostQuery, ServedCost

__all__ = ["GroupResult", "execute_group"]


@dataclass(frozen=True)
class GroupResult:
    """Array-valued results for one group's unique design points.

    Tickets hold ``(GroupResult, slot)`` pairs; :meth:`served` and
    :meth:`cost` fan a single point back out.  Materializing a
    :class:`ServedCost` is deferred to the waiter so the flush loop
    never pays per-request dataclass construction.
    """

    n_transistors: np.ndarray
    feature_sizes_um: np.ndarray
    wafer_cost_dollars: np.ndarray
    die_area_cm2: np.ndarray
    dies_per_wafer: np.ndarray
    yield_value: np.ndarray
    cost_per_transistor_dollars: np.ndarray
    feasible: np.ndarray

    def __len__(self) -> int:
        return self.cost_per_transistor_dollars.size

    def _columns(self) -> tuple[list, ...]:
        # Every field as a plain Python list, built on first access and
        # memoized in ``__dict__``: waiters fan out one result per
        # request, and list indexing is several times cheaper than
        # boxing a NumPy scalar each time.  (``tolist`` round-trips
        # float64 exactly; a racing double-build is benign because the
        # conversion is idempotent.)
        columns = self.__dict__.get("_column_lists")
        if columns is None:
            columns = self.__dict__["_column_lists"] = (
                self.n_transistors.tolist(),
                self.feature_sizes_um.tolist(),
                self.wafer_cost_dollars.tolist(),
                self.die_area_cm2.tolist(),
                self.dies_per_wafer.tolist(),
                self.yield_value.tolist(),
                self.cost_per_transistor_dollars.tolist(),
                self.feasible.tolist())
        return columns

    def cost(self, slot: int) -> float:
        """C_tr of unique point ``slot`` (inf where infeasible)."""
        return self._columns()[6][slot]  # cost_per_transistor_dollars

    def served(self, slot: int) -> ServedCost:
        """The full :class:`ServedCost` of unique point ``slot``."""
        n, lam, wafer, area, dies, y, cost, feasible = self._columns()
        return ServedCost(
            n_transistors=float(n[slot]),
            feature_size_um=float(lam[slot]),
            wafer_cost_dollars=float(wafer[slot]),
            die_area_cm2=float(area[slot]),
            dies_per_wafer=int(dies[slot]),
            yield_value=float(y[slot]),
            cost_per_transistor_dollars=float(cost[slot]),
            feasible=bool(feasible[slot]))


def _compose_cost(c_w: np.ndarray, n_ch: np.ndarray, n: np.ndarray,
                  y: np.ndarray, feasible: np.ndarray) -> np.ndarray:
    # Exactly the scalar order: c_w / (n_ch * n_transistors * y), each
    # product/quotient exactly rounded, so elementwise == the scalar.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore",
                     under="ignore"):
        cost = c_w / (n_ch * n * y)
    return np.where(feasible, cost, np.inf)


def _fab_group(exemplar, n: np.ndarray, lam: np.ndarray,
               cache: BatchCache | None) -> GroupResult:
    # Mirrors transistor_cost_full step for step.
    fab = exemplar.fab
    wafer = Wafer(radius_cm=fab.wafer_radius_cm)
    width, height, area_cm2 = _die_geometry(n, fab.design_density, lam, 1.0)
    n_ch = dies_per_wafer_batch(wafer, width, height, cache=cache)
    wafer_cost = WaferCostModel(
        reference_cost_dollars=fab.reference_cost_dollars,
        cost_growth_rate=fab.cost_growth_rate)
    c_w_by_lam: dict[float, float] = {}
    c_w = np.empty(n.size, dtype=np.float64)
    y = np.empty(n.size, dtype=np.float64)
    d, coeff, p = fab.design_density, fab.defect_coefficient, \
        fab.size_exponent_p
    pure_cost = wafer_cost.pure_cost
    cw_get = c_w_by_lam.get
    exp = math.exp
    # One fused pass: eq.-(7) yield with the *inlined* arithmetic of
    # scaled_poisson_yield (validation already ran at query
    # construction; the operation order is identical, so the result is
    # bitwise equal — enforced by tests/property_based/
    # test_serve_parity.py), and eq.-(3) wafer cost memoized per
    # unique λ.
    for i, (n_i, lam_i) in enumerate(zip(n.tolist(), lam.tolist())):
        exponent = (n_i * d * (lam_i * lam_i) * 1.0e-8) \
            * scaled_defect_density(coeff, lam_i, p)
        y[i] = 5e-324 if exponent > 700.0 else exp(-exponent)
        cached = cw_get(lam_i)
        if cached is None:
            cached = c_w_by_lam[lam_i] = pure_cost(lam_i)
        c_w[i] = cached
    feasible = (n_ch >= 1) & (y >= YIELD_CUTOFF)
    cost = _compose_cost(c_w, n_ch, n, y, feasible)
    return GroupResult(
        n_transistors=n, feature_sizes_um=lam, wafer_cost_dollars=c_w,
        die_area_cm2=area_cm2, dies_per_wafer=n_ch, yield_value=y,
        cost_per_transistor_dollars=cost,
        feasible=feasible)


def _model_group(exemplar, n: np.ndarray, lam: np.ndarray,
                 cache: BatchCache | None) -> GroupResult:
    # Mirrors TransistorCostModel.evaluate step for step, except that an
    # unfittable die masks to an infeasible cell instead of raising.
    model = exemplar.model
    width, height, area_cm2 = _die_geometry(
        n, exemplar.design_density, lam, exemplar.aspect_ratio)
    n_ch = dies_per_wafer_batch(model.wafer, width, height, cache=cache)
    y = np.empty(n.size, dtype=np.float64)
    if exemplar.yield_value is not None:
        y.fill(exemplar.yield_value)
    elif isinstance(exemplar.yield_model, ReferenceAreaYield):
        point_yield = exemplar.yield_model.yield_for_die_area
        for i, a in enumerate(area_cm2.tolist()):
            y[i] = point_yield(a)
    else:
        law = exemplar.yield_model
        density = exemplar.defect_density_per_cm2
        for i, a in enumerate(area_cm2.tolist()):
            y[i] = law.yield_for_area(a, density)
    c_w_by_lam: dict[float, float] = {}
    c_w = np.empty(n.size, dtype=np.float64)
    cw_get = c_w_by_lam.get
    wafer_cost_dollars = model.wafer_cost_dollars
    for i, lam_i in enumerate(lam.tolist()):
        cached = cw_get(lam_i)
        if cached is None:
            cached = c_w_by_lam[lam_i] = wafer_cost_dollars(lam_i)
        c_w[i] = cached
    feasible = n_ch >= 1
    cost = _compose_cost(c_w, n_ch, n, y, feasible)
    return GroupResult(
        n_transistors=n, feature_sizes_um=lam, wafer_cost_dollars=c_w,
        die_area_cm2=area_cm2, dies_per_wafer=n_ch, yield_value=y,
        cost_per_transistor_dollars=cost,
        feasible=feasible)


def _chiplet_group(exemplar, n: np.ndarray, lam: np.ndarray,
                   cache: BatchCache | None) -> GroupResult:
    # Chiplet queries need no inlining here: chiplet_cost_batch is
    # already *bitwise* equal to the scalar ChipletCostModel (its
    # transcendentals make the scalar code's libm calls, from NumPy's
    # C loops — see its docstring), so one kernel call serves the
    # group.  The ServedCost projection:
    # die_area is the per-chiplet area, dies_per_wafer the per-chiplet
    # eq.-(4) count, yield_value the effective (probe × assembly)
    # system yield — the quantities the eq.-(1)-shaped cost composes.
    result = chiplet_cost_batch(n, lam, float(exemplar.chiplets),
                                exemplar.model, cache=cache)
    return GroupResult(
        n_transistors=n, feature_sizes_um=lam,
        wafer_cost_dollars=result.wafer_cost_dollars,
        die_area_cm2=result.chiplet_area_cm2,
        dies_per_wafer=result.dies_per_wafer,
        yield_value=result.effective_yield,
        cost_per_transistor_dollars=result.cost_per_transistor_dollars,
        feasible=result.feasible)


_EXECUTORS = {"fab": _fab_group, "model": _model_group,
              "chiplet": _chiplet_group}


def _scalar_group(exemplar: CostQuery,
                  points: list[tuple[float, float]]) -> GroupResult:
    # A small fab or model group, priced point by point by the kind's
    # scalar reference (chiplet groups route inside chiplet_cost_batch).
    if exemplar.kind == "fab":
        price = partial(transistor_cost_breakdown, fab=exemplar.fab)
    else:
        price = partial(
            exemplar.model.evaluate_masked,
            design_density=exemplar.design_density,
            yield_model=exemplar.yield_model,
            defect_density_per_cm2=exemplar.defect_density_per_cm2,
            yield_value=exemplar.yield_value,
            aspect_ratio=exemplar.aspect_ratio)
    cells = [price(n_transistors=n, feature_size_um=lam)
             for n, lam in points]

    def column(name: str, dtype=np.float64) -> np.ndarray:
        return np.array([getattr(c, name) for c in cells], dtype=dtype)

    return GroupResult(
        n_transistors=column("transistors_per_die"),
        feature_sizes_um=column("feature_size_um"),
        wafer_cost_dollars=column("wafer_cost_dollars"),
        die_area_cm2=column("die_area_cm2"),
        dies_per_wafer=column("dies_per_wafer", np.int64),
        yield_value=column("yield_value"),
        cost_per_transistor_dollars=column("cost_per_transistor_dollars"),
        feasible=column("feasible", bool))


def execute_group(exemplar: CostQuery, points: list[tuple[float, float]],
                  *, cache: BatchCache | None = None) -> GroupResult:
    """Price one coalesced group of unique ``(N_tr, λ)`` points.

    ``exemplar`` is any query of the group (they share a signature, so
    any member carries the group's model parameters).  A fab or model
    group of at most :data:`~repro.batch.engine.SCALAR_MAX_POINTS`
    points is priced by the kind's scalar reference, point by point;
    larger groups run the vectorized arithmetic described above.
    """
    run = _EXECUTORS.get(exemplar.kind)
    if run is None:
        raise ParameterError(f"unknown query kind {exemplar.kind!r}")
    if len(points) <= SCALAR_MAX_POINTS and exemplar.kind != "chiplet":
        return _scalar_group(exemplar, points)
    n = np.array([p[0] for p in points], dtype=np.float64)
    lam = np.array([p[1] for p in points], dtype=np.float64)
    return run(exemplar, n, lam, cache)

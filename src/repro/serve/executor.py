"""Bitwise-scalar-exact execution of one coalesced group.

The scheduler hands this module a *group*: queries sharing one model
signature, already deduplicated to unique ``(N_tr, λ)`` points.  The
executor prices the group and must satisfy the service's headline
contract:

    **every served number is bitwise equal to the direct scalar
    evaluation of that query, no matter how the scheduler sliced the
    traffic into batches.**

It does no arithmetic of its own.  Each group is one call of its
kind's batch kernel — :func:`~repro.batch.engine.transistor_cost_batch`
(fab), :func:`~repro.batch.engine.evaluate_batch` (model) or
:func:`~repro.batch.engine.chiplet_cost_batch` (chiplet) — projected
onto :class:`GroupResult`.  The kernels hold the one parity contract
of :mod:`repro.batch.engine`: bitwise equal to the scalar reference
on every SIMD target, and the reference's error class where it raises.
A group of at most :data:`~repro.batch.engine.SCALAR_MAX_POINTS`
points is priced inside the kernel by the scalar reference itself.

Because every kernel is elementwise in the unique points, results are
independent of batch composition and order — the batch-boundary
invariance the hypothesis suites (``tests/property_based/
test_serve_parity.py`` and ``test_batch_parity.py``) enforce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..batch.engine import chiplet_cost_batch, evaluate_batch, \
    transistor_cost_batch
from ..errors import ParameterError
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


def _fab_result(exemplar, n: np.ndarray, lam: np.ndarray) -> tuple:
    r = transistor_cost_batch(n, lam, exemplar.fab)
    return r, r.die_area_cm2, r.yield_value


def _model_result(exemplar, n: np.ndarray, lam: np.ndarray) -> tuple:
    r = evaluate_batch(
        exemplar.model, n_transistors=n, feature_sizes_um=lam,
        design_density=exemplar.design_density,
        yield_model=exemplar.yield_model,
        defect_density_per_cm2=exemplar.defect_density_per_cm2,
        yield_value=exemplar.yield_value,
        aspect_ratio=exemplar.aspect_ratio)
    return r, r.die_area_cm2, r.yield_value


def _chiplet_result(exemplar, n: np.ndarray, lam: np.ndarray) -> tuple:
    # The ServedCost projection: die_area is the per-chiplet area,
    # dies_per_wafer the per-chiplet eq.-(4) count, yield_value the
    # effective (probe × assembly) system yield — the quantities the
    # eq.-(1)-shaped cost composes.
    r = chiplet_cost_batch(n, lam, float(exemplar.chiplets),
                           exemplar.model)
    return r, r.chiplet_area_cm2, r.effective_yield


_KERNELS = {"fab": _fab_result, "model": _model_result,
            "chiplet": _chiplet_result}


def execute_group(exemplar: CostQuery,
                  points: list[tuple[float, float]]) -> GroupResult:
    """Price one coalesced group of unique ``(N_tr, λ)`` points.

    ``exemplar`` is any query of the group (they share a signature, so
    any member carries the group's model parameters).  The group is
    one call of its kind's batch kernel; whatever that kernel raises
    for the group propagates.
    """
    kernel = _KERNELS.get(exemplar.kind)
    if kernel is None:
        raise ParameterError(f"unknown query kind {exemplar.kind!r}")
    n = np.array([p[0] for p in points], dtype=np.float64)
    lam = np.array([p[1] for p in points], dtype=np.float64)
    r, area, y = kernel(exemplar, n, lam)
    return GroupResult(
        n_transistors=n, feature_sizes_um=lam,
        wafer_cost_dollars=r.wafer_cost_dollars, die_area_cm2=area,
        dies_per_wafer=r.dies_per_wafer, yield_value=y,
        cost_per_transistor_dollars=r.cost_per_transistor_dollars,
        feasible=r.feasible)

"""Query and result types for the :mod:`repro.serve` cost service.

A *query* is one scalar design point plus everything needed to price
it.  Three families cover the library's eq.-(1) entry points:

* :class:`FabCostQuery` — the Fig.-8 composed form
  (eqs. 1+3+4+7) against a
  :class:`~repro.core.optimization.FabCharacterization`; its scalar
  reference is :func:`~repro.core.optimization.transistor_cost_full`.
* :class:`ModelCostQuery` — the general
  :meth:`~repro.core.transistor_cost.TransistorCostModel.evaluate`
  form with an explicit yield specification; its scalar reference is
  :meth:`~repro.core.transistor_cost.TransistorCostModel.
  evaluate_masked`, which returns an unfittable die as an infeasible
  result instead of raising, exactly like
  :func:`repro.batch.evaluate_batch`.
* :class:`ChipletCostQuery` — a k-chiplet assembly against a
  :class:`~repro.system.chiplet.ChipletCostModel`; its scalar
  reference is that model's ``cost_per_transistor``.  The chiplet
  count and model live in the *signature* while ``point()`` stays
  ``(N_tr, λ)``, so chiplet traffic rides the scheduler's coalescing,
  dedup, and shared-memory machinery unchanged.

Queries validate at construction, so a bad parameter fails at the
submitting call site rather than poisoning a whole micro-batch.

Coalescing key
--------------
``signature()`` returns a hashable key over every *model* parameter —
two queries with equal signatures may be evaluated in the same
vectorized batch; ``point()`` is the remaining per-query coordinate
``(N_tr, λ)`` used to deduplicate identical design points within a
flush.  Custom (unhashable or non-frozen) yield models fall back to
an identity-based signature: structurally equal but distinct custom
instances then coalesce conservatively (never incorrectly).

:class:`ServedCost` is the scalar result — the served analog of
:class:`~repro.core.transistor_cost.CostBreakdown`, with an explicit
``feasible`` flag instead of the scalar path's raise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from ..core.optimization import FIG8_FAB, FabCharacterization
from ..core.transistor_cost import TransistorCostModel
from ..errors import ParameterError
from ..system.chiplet import ChipletCostModel
from ..units import require_fraction, require_positive
from ..yieldsim.models import ReferenceAreaYield, YieldModel

__all__ = [
    "ChipletCostQuery",
    "CostQuery",
    "FabCostQuery",
    "ModelCostQuery",
    "ServedCost",
    "scalar_reference_cost",
]


@dataclass(frozen=True)
class ServedCost:
    """One served eq.-(1) evaluation — scalar fields, array-backed.

    The scalar analog of one cell of
    :class:`~repro.batch.engine.BatchCostResult`: where the query's
    die does not fit its wafer (or the eq.-(7) yield underflows, for
    fab queries) ``feasible`` is False and
    ``cost_per_transistor_dollars`` is ``inf`` while the intermediates
    keep their computed values for auditing.
    """

    n_transistors: float
    feature_size_um: float
    wafer_cost_dollars: float
    die_area_cm2: float
    dies_per_wafer: int
    yield_value: float
    cost_per_transistor_dollars: float
    feasible: bool

    @property
    def cost_per_transistor_microdollars(self) -> float:
        """C_tr in the paper's Table-3 unit, $·10⁻⁶ (inf when masked)."""
        return self.cost_per_transistor_dollars * 1.0e6

    @property
    def good_dies_per_wafer(self) -> float:
        """Expected functioning dies per wafer: N_ch · Y."""
        return self.dies_per_wafer * self.yield_value

    @property
    def cost_per_good_die_dollars(self) -> float:
        """Wafer cost spread over functioning dies (inf when none fit)."""
        if self.dies_per_wafer < 1:
            return float("inf")
        return self.wafer_cost_dollars / self.good_dies_per_wafer


class CostQuery:
    """Common protocol of the service's query families.

    Subclasses are frozen dataclasses carrying one ``(N_tr, λ)`` design
    point plus a model specification; they provide the coalescing key
    (:meth:`signature`), the dedup coordinate (:meth:`point`), and an
    executor kind tag consumed by :mod:`repro.serve.executor`.
    """

    #: Executor dispatch tag; set by each subclass.
    kind = "abstract"

    def signature(self) -> Hashable:
        """Hashable key over every model parameter (not the point)."""
        raise NotImplementedError

    def point(self) -> tuple[float, float]:
        """The ``(n_transistors, feature_size_um)`` dedup coordinate."""
        raise NotImplementedError


@dataclass(frozen=True)
class FabCostQuery(CostQuery):
    """Price one ``(N_tr, λ)`` point against a fitted fab (Fig.-8 form).

    Scalar reference:
    ``transistor_cost_full(n_transistors, feature_size_um, fab)`` —
    the service's answer is bitwise equal to it, including the ``inf``
    convention for infeasible points.
    """

    n_transistors: float
    feature_size_um: float
    fab: FabCharacterization = field(default_factory=lambda: FIG8_FAB)

    kind = "fab"

    def __post_init__(self) -> None:
        require_positive("n_transistors", self.n_transistors)
        require_positive("feature_size_um", self.feature_size_um)
        if not isinstance(self.fab, FabCharacterization):
            raise ParameterError(
                f"fab must be a FabCharacterization, got {self.fab!r}")

    def signature(self) -> Hashable:
        """All six fitted fab parameters (floats, so exactly hashable).

        Computed once per query and memoized in ``__dict__`` (a frozen
        dataclass still owns a plain instance dict): the scheduler reads
        the signature on every coalescing pass, and rebuilding the
        tuple per request is pure overhead on the hot path.
        """
        sig = self.__dict__.get("_sig")
        if sig is None:
            fab = self.fab
            sig = self.__dict__["_sig"] = (
                "fab", fab.cost_growth_rate, fab.reference_cost_dollars,
                fab.wafer_radius_cm, fab.design_density,
                fab.defect_coefficient, fab.size_exponent_p)
        return sig

    def point(self) -> tuple[float, float]:
        """The ``(N_tr, λ)`` coordinate."""
        return (self.n_transistors, self.feature_size_um)


@dataclass(frozen=True)
class ChipletCostQuery(CostQuery):
    """Price one ``(N_tr, λ)`` point as a ``chiplets``-die assembly.

    Scalar reference:
    ``model.cost_per_transistor(chiplets, n_transistors,
    feature_size_um)`` — the service's answer is bitwise equal to it
    (the chiplet batch kernel replays the scalar operation order
    exactly, transcendentals included), with the same ``inf``
    convention for infeasible points.

    ``point()`` stays the ``(N_tr, λ)`` dedup coordinate; the chiplet
    count and every model parameter live in :meth:`signature`, so two
    queries coalesce into one vectorized group only when they price
    the same assembly design.
    """

    n_transistors: float
    feature_size_um: float
    chiplets: int = 4
    model: ChipletCostModel = field(default_factory=ChipletCostModel)

    kind = "chiplet"

    def __post_init__(self) -> None:
        require_positive("n_transistors", self.n_transistors)
        require_positive("feature_size_um", self.feature_size_um)
        if isinstance(self.chiplets, bool) \
                or not isinstance(self.chiplets, int):
            raise ParameterError(
                f"chiplets must be an int, got {self.chiplets!r}")
        if self.chiplets < 1:
            raise ParameterError(
                f"chiplets must be >= 1, got {self.chiplets}")
        if not isinstance(self.model, ChipletCostModel):
            raise ParameterError(
                f"model must be a ChipletCostModel, got {self.model!r}")

    def signature(self) -> Hashable:
        """Chiplet count + fab + packaging + test + probe coverage.

        Memoized per query instance (see
        :meth:`FabCostQuery.signature` for why).
        """
        sig = self.__dict__.get("_sig")
        if sig is None:
            m = self.model
            fab, pk, t = m.fab, m.packaging, m.test
            sig = self.__dict__["_sig"] = (
                "chiplet", self.chiplets,
                fab.cost_growth_rate, fab.reference_cost_dollars,
                fab.wafer_radius_cm, fab.design_density,
                fab.defect_coefficient, fab.size_exponent_p,
                pk.name, pk.base_cost_dollars, pk.cost_per_die_dollars,
                pk.cost_per_cm2_dollars, pk.bond_yield,
                t.tester_rate_dollars_per_hour, t.probe_base_seconds,
                t.probe_seconds_per_kilotransistor, t.final_base_seconds,
                t.final_seconds_per_kilotransistor,
                m.probe_coverage)
        return sig

    def point(self) -> tuple[float, float]:
        """The ``(N_tr, λ)`` coordinate."""
        return (self.n_transistors, self.feature_size_um)


def scalar_reference_cost(query: CostQuery) -> float:
    """The scalar-path C_tr the service must match bitwise for ``query``.

    The canonical statement of the serving parity contract, shared by
    the benches and the load generator's ``verify`` mode: a
    :class:`FabCostQuery` references
    :func:`~repro.core.optimization.transistor_cost_full`, a
    :class:`ModelCostQuery` references
    :meth:`~repro.core.transistor_cost.TransistorCostModel.evaluate_masked`
    (``evaluate`` with an unfittable die masked to ``inf`` instead of
    raised), a :class:`ChipletCostQuery` references
    :meth:`~repro.system.chiplet.ChipletCostModel.cost_per_transistor`.
    """
    from ..core.optimization import transistor_cost_full

    if isinstance(query, FabCostQuery):
        return transistor_cost_full(query.n_transistors,
                                    query.feature_size_um, query.fab)
    if isinstance(query, ChipletCostQuery):
        return query.model.cost_per_transistor(
            query.chiplets, query.n_transistors, query.feature_size_um)
    if not isinstance(query, ModelCostQuery):
        raise ParameterError(
            f"no scalar reference for query {query!r}")
    return query.model.evaluate_masked(
        n_transistors=query.n_transistors,
        feature_size_um=query.feature_size_um,
        design_density=query.design_density,
        yield_model=query.yield_model,
        defect_density_per_cm2=query.defect_density_per_cm2,
        yield_value=query.yield_value,
        aspect_ratio=query.aspect_ratio).cost_per_transistor_dollars


def _yield_signature(yield_model: YieldModel | None,
                     defect_density_per_cm2: float | None,
                     yield_value: float | None) -> Hashable:
    if yield_value is not None:
        return ("value", yield_value)
    if isinstance(yield_model, ReferenceAreaYield):
        return ("refarea", yield_model.reference_yield,
                yield_model.reference_area_cm2)
    try:
        hash(yield_model)
        key: Hashable = yield_model
    except TypeError:  # custom unhashable model: identity-coalesce only
        key = id(yield_model)
    return ("model", type(yield_model).__qualname__, key,
            defect_density_per_cm2)


@dataclass(frozen=True)
class ModelCostQuery(CostQuery):
    """Price one point with the general evaluate() form of eq. (1).

    Mirrors the keyword surface of
    :meth:`~repro.core.transistor_cost.TransistorCostModel.evaluate`:
    yield comes from exactly one of ``yield_value``, a
    :class:`~repro.yieldsim.models.ReferenceAreaYield`, or any other
    yield model plus ``defect_density_per_cm2``.  Where the scalar
    method raises because the die does not fit the wafer, the served
    result is ``feasible=False`` with ``inf`` cost instead (the
    :func:`repro.batch.evaluate_batch` masking convention).
    """

    n_transistors: float
    feature_size_um: float
    model: TransistorCostModel
    design_density: float
    yield_model: YieldModel | None = None
    defect_density_per_cm2: float | None = None
    yield_value: float | None = None
    aspect_ratio: float = 1.0

    kind = "model"

    def __post_init__(self) -> None:
        require_positive("n_transistors", self.n_transistors)
        require_positive("feature_size_um", self.feature_size_um)
        require_positive("design_density", self.design_density)
        require_positive("aspect_ratio", self.aspect_ratio)
        if not isinstance(self.model, TransistorCostModel):
            raise ParameterError(
                f"model must be a TransistorCostModel, got {self.model!r}")
        given = [self.yield_model is not None, self.yield_value is not None]
        if sum(given) != 1:
            raise ParameterError(
                "specify exactly one of yield_model or yield_value")
        if self.yield_value is not None:
            require_fraction("yield_value", self.yield_value,
                             inclusive_low=False)
        elif not isinstance(self.yield_model, ReferenceAreaYield) \
                and self.defect_density_per_cm2 is None:
            raise ParameterError(
                "defect_density_per_cm2 is required with this yield model")

    def signature(self) -> Hashable:
        """Wafer + wafer-cost + density/aspect + yield specification.

        Memoized per query instance (see
        :meth:`FabCostQuery.signature` for why).
        """
        sig = self.__dict__.get("_sig")
        if sig is None:
            m = self.model
            wc = m.wafer_cost
            sig = self.__dict__["_sig"] = (
                "model",
                m.wafer.radius_cm, m.wafer.edge_exclusion_cm,
                wc.reference_cost_dollars, wc.cost_growth_rate,
                wc.reference_feature_um, wc.overhead_dollars,
                wc.generation_model, wc.shrink, wc.linear_step_um,
                m.volume_wafers, self.design_density, self.aspect_ratio,
                _yield_signature(self.yield_model,
                                 self.defect_density_per_cm2,
                                 self.yield_value))
        return sig

    def point(self) -> tuple[float, float]:
        """The ``(N_tr, λ)`` coordinate."""
        return (self.n_transistors, self.feature_size_um)

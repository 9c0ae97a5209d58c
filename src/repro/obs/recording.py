"""Traffic recording: persist served cost queries as a replayable log.

The serve layer prices queries and throws them away; capacity planning
wants them back.  This module defines the **recorded-log format** — an
append-only JSONL file where each line is one served query with its
arrival offset, coalescing signature key, flush id, executing backend,
and the served cost — plus the writer (:class:`QueryRecorder`, driven
by ``MicroBatchScheduler(record=PATH)``) and the readers the rest of
the toolchain shares: :func:`load_recorded_log` (the replay harness,
:mod:`repro.replay`), :func:`load_recorded_queries` (cache prewarm via
:meth:`repro.batch.cache.BatchCache.prewarm`), and
:func:`is_recorded_log` (format auto-detection against the legacy
points-file format of :func:`repro.serve.io.load_points`).

Record schema (version 1), one JSON object per line::

    {"v": 1, "t": 0.0183, "kind": "model", "sig": "9f0c…",
     "flush": 4, "backend": "thread", "cost": 1.07e-06,
     "q": {…}}                      # null when not reconstructible

``t`` is seconds since the recorder was attached (monotonic clock, so
replay can reproduce inter-arrival gaps); ``sig`` is the
:func:`signature_key` digest of the query's coalescing signature;
``backend`` is always ``"thread"`` (older logs may say ``"process"``;
replay does not read it); ``cost`` is the *served*
C_tr in dollars — the bitwise parity target replay asserts against.
``q`` holds enough model parameters to rebuild the query
(:func:`record_to_query`); custom yield models that cannot be
serialized degrade to ``"q": null`` — the line still documents the
traffic shape, it just cannot be replayed.  A failed flush stamps
``"error"`` with the exception type and ``cost: null``.

Crash-safety contract: the writer appends whole lines and flushes the
OS buffer once per scheduler flush, so a crash can lose or truncate at
most the final line.  :func:`load_recorded_log` therefore tolerates
(and counts) an unparseable *final* line, while garbage earlier in the
file — which no crash can produce — raises
:class:`~repro.errors.ParameterError`.

This module deliberately imports nothing from :mod:`repro.serve` at
module level (the scheduler imports :mod:`repro.obs` first); the query
(de)serializers import it lazily, once.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pickle
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, TypeVar

from ..errors import ParameterError
from . import metrics as _metrics
from .state import enabled as _obs_enabled

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids the cycle
    from ..serve.query import CostQuery

__all__ = [
    "RECORD_VERSION",
    "QueryRecorder",
    "RecordedLog",
    "RecordedQuery",
    "is_recorded_log",
    "load_recorded_log",
    "load_recorded_queries",
    "query_to_record",
    "record_to_query",
    "shared_model",
    "signature_key",
]

#: Schema version stamped on every line; readers reject other versions.
RECORD_VERSION = 1

#: Distinct model payloads :func:`shared_model` keeps built objects for.
SHARED_MODELS = 256

_T = TypeVar("_T")


def signature_key(sig: Any) -> str:
    """Stable 16-hex-digit key for one coalescing signature.

    The scheduler's signatures are tuples of floats/strings/hashables
    whose ``repr`` is deterministic across runs (float ``repr`` is the
    shortest exact round-trip), so a digest of it identifies the same
    model parameters in every recorded log.  Custom yield models that
    fall back to identity-based signatures (``id(model)``) get a key
    that is only stable within one process.
    """
    return hashlib.sha1(repr(sig).encode("utf-8")).hexdigest()[:16]


@functools.lru_cache(maxsize=SHARED_MODELS)
def _build_shared(build: Callable[..., Any], key: bytes) -> Any:
    # The key holds only what shared_model pickled itself.
    return build(*pickle.loads(key))


def shared_model(build: Callable[..., _T], *parts: Any) -> _T:
    """``build(*parts)``, reusing the object an identical call built.

    Decoders call this for the model half of a query, which traffic
    repeats from query to query, so each distinct model payload is
    built and validated once.  ``build`` must return an immutable
    object.  Calls are identical when their pickles are: pickle writes
    every value with its type and exact bits, so ``1``, ``1.0`` and
    ``True``, or ``0.0`` and ``-0.0``, never share an object.  The
    objects of the last :data:`SHARED_MODELS` distinct calls are kept;
    a call that raises keeps nothing, and parts that cannot be pickled
    are built afresh.
    """
    try:
        key = pickle.dumps(parts, pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError):
        return build(*parts)
    return _build_shared(build, key)


@functools.cache
def _yield_law_registry() -> dict[str, type]:
    from ..yieldsim.models import (
        BoseEinsteinYield,
        CompoundPoissonGamma,
        HierarchicalYieldModel,
        MixtureYieldModel,
        MurphyYield,
        NegativeBinomialYield,
        PoissonYield,
        ReferenceAreaYield,
        SeedsYield,
    )
    return {cls.__name__: cls for cls in (
        PoissonYield, MurphyYield, SeedsYield, BoseEinsteinYield,
        NegativeBinomialYield, CompoundPoissonGamma,
        HierarchicalYieldModel, MixtureYieldModel, ReferenceAreaYield)}


def _yield_model_to_record(model: Any) -> dict[str, Any] | None:
    # Only the library's own frozen laws serialize: a subclass (or a
    # custom model) may override the math, and replaying it as the
    # base law would silently price different numbers.
    import dataclasses

    registry = _yield_law_registry()
    cls = registry.get(type(model).__name__)
    if cls is None or type(model) is not cls:
        return None
    if type(model).__name__ == "MixtureYieldModel":
        components = []
        for weight, member in model.components:
            sub = _yield_model_to_record(member)
            if sub is None:
                return None
            components.append([weight, sub])
        return {"law": "MixtureYieldModel", "components": components}
    return {"law": type(model).__name__,
            "params": {f.name: getattr(model, f.name)
                       for f in dataclasses.fields(model)}}


def _yield_model_from_record(data: dict[str, Any]) -> Any:
    registry = _yield_law_registry()
    law = data.get("law")
    cls = registry.get(law)
    if cls is None:
        raise ParameterError(f"unknown recorded yield law {law!r}")
    if law == "MixtureYieldModel":
        components = tuple(
            (float(weight), _yield_model_from_record(sub))
            for weight, sub in data.get("components", []))
        return cls(components=components)
    return cls(**data.get("params", {}))


@functools.cache
def _query_classes() -> tuple[type, type, type]:
    from ..serve.query import ChipletCostQuery, FabCostQuery, ModelCostQuery
    return ChipletCostQuery, FabCostQuery, ModelCostQuery


def query_to_record(query: "CostQuery") -> dict[str, Any] | None:
    """Serialize one query's model parameters to the ``"q"`` payload.

    Returns ``None`` when the query cannot be rebuilt from JSON (a
    custom yield model, an unknown query kind) — the recorder then
    writes ``"q": null`` and the line is traffic-shape-only.
    """
    ChipletCostQuery, FabCostQuery, ModelCostQuery = _query_classes()
    if isinstance(query, ChipletCostQuery):
        model = query.model
        fab = model.fab
        pk = model.packaging
        test = model.test
        return {
            "n": query.n_transistors,
            "lam": query.feature_size_um,
            "chiplet": {
                "chiplets": query.chiplets,
                "fab": {
                    "cost_growth_rate": fab.cost_growth_rate,
                    "reference_cost_dollars": fab.reference_cost_dollars,
                    "wafer_radius_cm": fab.wafer_radius_cm,
                    "design_density": fab.design_density,
                    "defect_coefficient": fab.defect_coefficient,
                    "size_exponent_p": fab.size_exponent_p,
                },
                "packaging": {
                    "name": pk.name,
                    "base_cost_dollars": pk.base_cost_dollars,
                    "cost_per_die_dollars": pk.cost_per_die_dollars,
                    "cost_per_cm2_dollars": pk.cost_per_cm2_dollars,
                    "bond_yield": pk.bond_yield,
                },
                "test": {
                    "tester_rate_dollars_per_hour":
                        test.tester_rate_dollars_per_hour,
                    "probe_base_seconds": test.probe_base_seconds,
                    "probe_seconds_per_kilotransistor":
                        test.probe_seconds_per_kilotransistor,
                    "final_base_seconds": test.final_base_seconds,
                    "final_seconds_per_kilotransistor":
                        test.final_seconds_per_kilotransistor,
                },
                "probe_coverage": model.probe_coverage,
            },
        }
    if isinstance(query, FabCostQuery):
        fab = query.fab
        return {
            "n": query.n_transistors,
            "lam": query.feature_size_um,
            "fab": {
                "cost_growth_rate": fab.cost_growth_rate,
                "reference_cost_dollars": fab.reference_cost_dollars,
                "wafer_radius_cm": fab.wafer_radius_cm,
                "design_density": fab.design_density,
                "defect_coefficient": fab.defect_coefficient,
                "size_exponent_p": fab.size_exponent_p,
            },
        }
    if isinstance(query, ModelCostQuery):
        if query.yield_value is not None:
            yield_spec: dict[str, Any] | None = {"value": query.yield_value}
        else:
            yield_spec = _yield_model_to_record(query.yield_model)
            if yield_spec is None:
                return None
        model = query.model
        wc = model.wafer_cost
        return {
            "n": query.n_transistors,
            "lam": query.feature_size_um,
            "wafer": {
                "radius_cm": model.wafer.radius_cm,
                "edge_exclusion_cm": model.wafer.edge_exclusion_cm,
            },
            "wafer_cost": {
                "reference_cost_dollars": wc.reference_cost_dollars,
                "cost_growth_rate": wc.cost_growth_rate,
                "reference_feature_um": wc.reference_feature_um,
                "overhead_dollars": wc.overhead_dollars,
                "generation_model": wc.generation_model.name,
                "shrink": wc.shrink,
                "linear_step_um": wc.linear_step_um,
            },
            "volume_wafers": model.volume_wafers,
            "design_density": query.design_density,
            "aspect_ratio": query.aspect_ratio,
            "defect_density_per_cm2": query.defect_density_per_cm2,
            "yield": yield_spec,
        }
    return None


def _fab_model(fab: dict[str, Any]) -> Any:
    from ..core.optimization import FabCharacterization
    return FabCharacterization(**fab)


def _chiplet_model(fab: dict[str, Any], packaging: dict[str, Any],
                   test: dict[str, Any], probe_coverage: Any) -> Any:
    from ..manufacturing.test_cost import TestCostModel
    from ..system.chiplet import ChipletCostModel, PackagingTech
    return ChipletCostModel(fab=_fab_model(fab),
                            packaging=PackagingTech(**packaging),
                            test=TestCostModel(**test),
                            probe_coverage=probe_coverage)


def _transistor_model(wafer_cost: dict[str, Any], wafer: dict[str, Any],
                      volume_wafers: Any) -> Any:
    from ..core.transistor_cost import TransistorCostModel
    from ..core.wafer_cost import GenerationModel, WaferCostModel
    from ..geometry.wafer import Wafer
    wc_data = dict(wafer_cost)
    wc_data["generation_model"] = GenerationModel[wc_data["generation_model"]]
    return TransistorCostModel(wafer_cost=WaferCostModel(**wc_data),
                               wafer=Wafer(**wafer),
                               volume_wafers=volume_wafers)


def record_to_query(data: dict[str, Any]) -> "CostQuery":
    """Rebuild a query from a ``"q"`` payload written by the recorder.

    The inverse of :func:`query_to_record`: the rebuilt query has an
    equal :meth:`~repro.serve.query.CostQuery.signature` and
    :meth:`~repro.serve.query.CostQuery.point` (floats round-trip
    exactly through JSON's shortest-repr encoding), so a replayed log
    coalesces identically to the live traffic it recorded.  Queries
    with identical model payloads share one model object
    (:func:`shared_model`).  Raises
    :class:`~repro.errors.ParameterError` on a malformed payload.
    """
    if not isinstance(data, dict):
        raise ParameterError(
            f"recorded query payload must be an object, got {data!r}")
    ChipletCostQuery, FabCostQuery, ModelCostQuery = _query_classes()
    try:
        if "chiplet" in data:
            spec = data["chiplet"]
            return ChipletCostQuery(
                n_transistors=data["n"],
                feature_size_um=data["lam"],
                chiplets=spec["chiplets"],
                model=shared_model(_chiplet_model, spec["fab"],
                                   spec["packaging"], spec["test"],
                                   spec["probe_coverage"]))
        if "fab" in data:
            return FabCostQuery(
                n_transistors=data["n"],
                feature_size_um=data["lam"],
                fab=shared_model(_fab_model, data["fab"]))
        yield_spec = data["yield"]
        if "value" in yield_spec:
            yield_model = None
            yield_value = yield_spec["value"]
        else:
            yield_model = shared_model(_yield_model_from_record, yield_spec)
            yield_value = None
        return ModelCostQuery(
            n_transistors=data["n"],
            feature_size_um=data["lam"],
            model=shared_model(_transistor_model, data["wafer_cost"],
                               data["wafer"], data.get("volume_wafers")),
            design_density=data["design_density"],
            yield_model=yield_model,
            defect_density_per_cm2=data.get("defect_density_per_cm2"),
            yield_value=yield_value,
            aspect_ratio=data.get("aspect_ratio", 1.0))
    except ParameterError:
        raise
    except Exception as exc:
        raise ParameterError(
            f"malformed recorded query payload: {exc}") from None


class QueryRecorder:
    """Append-only JSONL writer for served traffic.

    Attached to a scheduler via ``MicroBatchScheduler(record=PATH)``;
    the flusher calls :meth:`record_flush` once per flush with every
    ticket it completed.  The file is opened in append mode (recording
    across restarts accumulates into one log) and flushed to the OS
    after each scheduler flush, so a crash loses at most the final
    line — the tolerance :func:`load_recorded_log` is built around.

    The recorder must never take the flusher thread down: per-query
    serialization failures degrade to ``"q": null`` lines (counted in
    :attr:`unreplayable`), and an I/O failure disables further writes
    (:attr:`failed`) instead of raising into the flush loop.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._fh = open(self.path, "a", encoding="utf-8")
        #: Monotonic instant arrival offsets are measured from.
        self.epoch = time.perf_counter()
        #: Lines successfully written so far.
        self.written = 0
        #: Lines whose query could not be serialized (``"q": null``).
        self.unreplayable = 0
        #: Set on the first I/O error; recording stops, serving continues.
        self.failed = False
        self._closed = False

    def record_flush(self, flush_id: int,
                     entries: Iterable[tuple[float, "CostQuery", str,
                                             str, float | None,
                                             str | None]]) -> int:
        """Append one line per completed ticket of one flush.

        ``entries`` yields ``(t_submit, query, sig_key, backend, cost,
        error)`` tuples — ``t_submit`` on the recorder's clock
        (``time.perf_counter()``), ``cost`` the served C_tr (``None``
        if the flush failed, with ``error`` naming the exception
        type).  Returns the number of lines written; never raises.
        """
        lines = []
        n_unreplayable = 0
        for t_submit, query, sig_key, backend, cost, error in entries:
            try:
                payload = query_to_record(query)
            except Exception:
                payload = None
            if payload is None:
                n_unreplayable += 1
            rec: dict[str, Any] = {
                "v": RECORD_VERSION,
                "t": max(0.0, t_submit - self.epoch),
                "kind": query.kind,
                "sig": sig_key,
                "flush": flush_id,
                "backend": backend,
                "cost": cost,
                "q": payload,
            }
            if error is not None:
                rec["error"] = error
            lines.append(json.dumps(rec))
        if not lines:
            return 0
        with self._lock:
            if self._closed or self.failed:
                return 0
            try:
                self._fh.write("\n".join(lines) + "\n")
                self._fh.flush()
            except (OSError, ValueError):
                # ValueError: writing on a descriptor something else
                # closed.  Either way: stop recording, keep serving.
                self.failed = True
                return 0
            self.written += len(lines)
            self.unreplayable += n_unreplayable
        if _obs_enabled():
            _metrics.inc("serve.record.lines", len(lines))
        return len(lines)

    def close(self) -> None:
        """Flush and close the log file (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._fh.close()
            except OSError:
                self.failed = True


@dataclass(frozen=True)
class RecordedQuery:
    """One parsed line of a recorded-traffic log.

    ``query`` is the rebuilt :class:`~repro.serve.query.CostQuery`, or
    ``None`` for a line recorded with ``"q": null`` (traffic shape
    known, parameters not reconstructible).  ``cost`` is the served
    C_tr the original run produced — replay's bitwise parity target —
    and ``None`` when the recorded flush failed (see ``error``).
    """

    t: float
    kind: str
    sig: str
    flush: int
    backend: str | None
    cost: float | None
    query: "CostQuery | None"
    error: str | None = None


@dataclass(frozen=True)
class RecordedLog:
    """A fully parsed recorded-traffic log.

    ``truncated_lines`` counts the tolerated unparseable final line
    (0 or 1 — the crash-safety allowance); ``unreplayable`` counts
    lines whose query could not be rebuilt.  :meth:`replayable`
    filters to the records replay can actually re-drive.
    """

    path: Path
    records: list[RecordedQuery] = field(default_factory=list)
    truncated_lines: int = 0
    unreplayable: int = 0

    def replayable(self) -> list[RecordedQuery]:
        """The records with a rebuilt query, in recorded order."""
        return [r for r in self.records if r.query is not None]

    def __len__(self) -> int:
        return len(self.records)


def load_recorded_log(path: str | os.PathLike) -> RecordedLog:
    """Parse a recorder JSONL file into a :class:`RecordedLog`.

    Tolerates an unparseable or truncated *final* line (the most a
    crash mid-append can leave behind) and counts it; malformed JSON
    anywhere else, an unknown schema version, or a corrupt query
    payload raise :class:`~repro.errors.ParameterError`.
    """
    p = Path(path)
    if not p.exists():
        raise ParameterError(f"recorded log not found: {p}")
    raw_lines = p.read_text(encoding="utf-8").splitlines()
    records: list[RecordedQuery] = []
    truncated = 0
    unreplayable = 0
    last_index = len(raw_lines) - 1
    for i, line in enumerate(raw_lines):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except ValueError:
            if i == last_index:
                truncated = 1
                break
            raise ParameterError(
                f"{p}:{i + 1}: corrupt record line (not valid JSON)"
            ) from None
        if not isinstance(data, dict) or data.get("v") != RECORD_VERSION:
            raise ParameterError(
                f"{p}:{i + 1}: unsupported record version "
                f"{data.get('v') if isinstance(data, dict) else data!r} "
                f"(this build reads version {RECORD_VERSION})")
        payload = data.get("q")
        query = record_to_query(payload) if payload is not None else None
        if query is None:
            unreplayable += 1
        records.append(RecordedQuery(
            t=float(data.get("t", 0.0)),
            kind=str(data.get("kind", "")),
            sig=str(data.get("sig", "")),
            flush=int(data.get("flush", 0)),
            backend=data.get("backend"),
            cost=data.get("cost"),
            query=query,
            error=data.get("error")))
    return RecordedLog(path=p, records=records, truncated_lines=truncated,
                       unreplayable=unreplayable)


def load_recorded_queries(path: str | os.PathLike) -> list["CostQuery"]:
    """The replayable queries of a recorded log, in recorded order.

    The prewarm entry point:
    :meth:`repro.batch.cache.BatchCache.prewarm` feeds these straight
    back through the serve executor.
    """
    return [r.query for r in load_recorded_log(path).records
            if r.query is not None]


def is_recorded_log(path: str | os.PathLike) -> bool:
    """Sniff whether a file is a recorder JSONL log.

    Reads the first non-empty line and checks for the record shape (a
    JSON object carrying ``"v"`` and ``"kind"``), distinguishing the
    recorded format from the legacy points files of
    :func:`repro.serve.io.load_points`.  Any read or parse failure
    answers ``False`` — callers fall back to the legacy loader.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    data = json.loads(line)
                    return (isinstance(data, dict) and "v" in data
                            and "kind" in data)
    except (OSError, ValueError):
        return False
    return False

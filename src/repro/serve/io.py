"""Point-file loading and result serialization for batch CLI traffic.

The CLI's batch mode (``python -m repro cost --input points.csv
--format json``) reads design points from a file, prices them through
:class:`~repro.serve.service.CostService`, and emits the served
arrays.  This module is the I/O half of that pipeline:

* :func:`load_points` — read a ``.csv`` (header + one row per point)
  or ``.json`` file (either a list of objects or a columnar dict of
  equal-length arrays) into a list of per-point field dicts;
* :func:`format_served_csv` / :func:`format_served_json` — serialize
  a list of :class:`~repro.serve.query.ServedCost` results as a CSV
  table or a columnar JSON document (the
  :class:`~repro.batch.engine.BatchCostResult` array convention).

Field names accepted per point: ``transistors`` (or
``n_transistors``), ``feature_size`` (or ``feature_size_um``), and
optional per-point overrides ``density`` and ``yield0``.  Unknown
fields are rejected loudly — silently ignoring a typo'd column would
misprice every point in the file.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Sequence

from ..errors import ParameterError
from .query import ServedCost

__all__ = [
    "RESULT_FIELDS",
    "format_served_csv",
    "format_served_json",
    "load_points",
    "normalize_point",
    "served_row",
]

#: Emitted per point, in column order — the served analog of the
#: :class:`~repro.batch.engine.BatchCostResult` array fields.
RESULT_FIELDS = (
    "n_transistors",
    "feature_size_um",
    "wafer_cost_dollars",
    "die_area_cm2",
    "dies_per_wafer",
    "yield_value",
    "cost_per_transistor_dollars",
    "cost_per_transistor_microdollars",
    "feasible",
)

_ALIASES = {
    "transistors": "transistors",
    "n_transistors": "transistors",
    "feature_size": "feature_size",
    "feature_size_um": "feature_size",
    "density": "density",
    "design_density": "density",
    "yield0": "yield0",
    "reference_yield": "yield0",
    "die_area": "die_area",
    "die_area_cm2": "die_area",
}


def normalize_point(record: dict, where: str) -> dict[str, float]:
    """Normalize one raw point mapping to canonical field names.

    Shared by the file loaders here and by the HTTP front-end's JSON
    request bodies (:mod:`repro.serve.http`): aliases resolve
    (``n_transistors`` → ``transistors``), unknown fields raise
    :class:`~repro.errors.ParameterError` loudly, and empty values fall
    through to the caller's defaults.  ``where`` labels the error.
    """
    return _normalize_record(record, where)


def _normalize_record(record: dict, where: str) -> dict[str, float]:
    point: dict[str, float] = {}
    for raw_key, value in record.items():
        key = _ALIASES.get(str(raw_key).strip().lower())
        if key is None:
            raise ParameterError(
                f"{where}: unknown point field {raw_key!r} (expected one "
                f"of {sorted(set(_ALIASES))})")
        if value is None or (isinstance(value, str) and not value.strip()):
            continue  # empty CSV cell: fall back to the CLI default
        try:
            point[key] = float(value)
        except (TypeError, ValueError):
            raise ParameterError(
                f"{where}: field {raw_key!r} has non-numeric value "
                f"{value!r}") from None
    if not point:
        raise ParameterError(f"{where}: empty point record")
    return point


def _load_csv(path: Path) -> list[dict[str, float]]:
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise ParameterError(f"{path}: missing CSV header row")
        return [_normalize_record(row, f"{path}:{i + 2}")
                for i, row in enumerate(reader)]


def _load_json(path: Path) -> list[dict[str, float]]:
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:
        raise ParameterError(f"{path}: invalid JSON ({exc})") from None
    if isinstance(payload, dict):  # columnar: {"transistors": [...], ...}
        lengths = {len(v) for v in payload.values()
                   if isinstance(v, (list, tuple))}
        if len(lengths) != 1 or not all(
                isinstance(v, (list, tuple)) for v in payload.values()):
            raise ParameterError(
                f"{path}: columnar JSON needs equal-length arrays per key")
        n = lengths.pop()
        payload = [{k: v[i] for k, v in payload.items()} for i in range(n)]
    if not isinstance(payload, list):
        raise ParameterError(
            f"{path}: JSON points must be a list of objects or a "
            f"columnar dict of arrays")
    return [_normalize_record(rec, f"{path}[{i}]")
            for i, rec in enumerate(payload)]


def load_points(path: str | Path) -> list[dict[str, float]]:
    """Read a points file (.csv or .json) into per-point field dicts."""
    p = Path(path)
    if not p.exists():
        raise ParameterError(f"points file not found: {p}")
    suffix = p.suffix.lower()
    if suffix == ".csv":
        return _load_csv(p)
    if suffix == ".json":
        return _load_json(p)
    raise ParameterError(
        f"unsupported points file type {suffix!r} (use .csv or .json)")


def served_row(result: ServedCost) -> list:
    """One result's values in :data:`RESULT_FIELDS` column order."""
    return _row(result)


def _row(result: ServedCost) -> list:
    return [
        result.n_transistors,
        result.feature_size_um,
        result.wafer_cost_dollars,
        result.die_area_cm2,
        result.dies_per_wafer,
        result.yield_value,
        result.cost_per_transistor_dollars,
        result.cost_per_transistor_microdollars,
        result.feasible,
    ]


def format_served_csv(results: Sequence[ServedCost]) -> str:
    """CSV table (header + one row per point) of served results."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(RESULT_FIELDS)
    for result in results:
        writer.writerow(_row(result))
    return out.getvalue()


def format_served_json(results: Sequence[ServedCost]) -> str:
    """Columnar JSON — one equal-length array per result field.

    Compact, on one line plus a newline: an ``indent`` would make
    CPython's ``json`` fall back from its C encoder to the pure-Python
    one, which takes up to 1.8 times as long on a 32-point response.
    """
    rows = [_row(result) for result in results]
    columns = {name: [row[i] for row in rows]
               for i, name in enumerate(RESULT_FIELDS)}
    return json.dumps(columns, separators=(",", ":")) + "\n"

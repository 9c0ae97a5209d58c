"""Shared helpers for the reproduction benches.

Every bench (a) times the figure/table computation via pytest-benchmark,
(b) prints the reproduced series/rows so ``bench_output.txt`` doubles
as the reproduction record, and (c) asserts the *shape* claims the
paper makes (who wins, direction of trends, rough factors).

Besides the human-readable ASCII record, every emit also appends a
machine-readable entry to ``benchmarks/BENCH_repro.json`` (a JSON list,
reset at the start of each bench session), and the pytest-benchmark
timings are appended there at session end — so CI and regression
tooling can diff numbers instead of parsing banners.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.analysis import ascii_chart, ascii_table

_BENCH_JSON = Path(__file__).resolve().parent / "BENCH_repro.json"
_session_started = False


def _load_records() -> list:
    if not _session_started or not _BENCH_JSON.exists():
        return []
    try:
        records = json.loads(_BENCH_JSON.read_text())
    except (OSError, ValueError):
        return []
    return records if isinstance(records, list) else []


def emit_json(record: dict) -> None:
    """Append one record to ``benchmarks/BENCH_repro.json``.

    The file holds a JSON list; it is truncated at the start of each
    bench session so it always reflects exactly one run.  Records are
    free-form dicts — figures emit their series, tables their rows,
    and the session-finish hook the pytest-benchmark timings.
    """
    global _session_started
    records = _load_records()
    _session_started = True
    records.append(record)
    _BENCH_JSON.write_text(json.dumps(records, indent=2) + "\n")


def update_bench_json(name: str, key: str, record: dict) -> None:
    """Read-modify-write one claim's record into ``benchmarks/<name>``.

    The file holds one JSON object with one key per claim; a missing
    or unreadable one starts fresh.
    """
    path = _BENCH_JSON.parent / name
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        data = {}
    if not isinstance(data, dict):
        data = {}
    data[key] = record
    path.write_text(json.dumps(data, indent=2) + "\n")


def emit(title: str, body: str) -> None:
    """Print a reproduction block with a recognizable banner."""
    bar = "=" * 74
    print(f"\n{bar}\n{title}\n{bar}\n{body}", file=sys.stderr)


def emit_figure(data) -> None:
    """Render a FigureData as an ASCII chart plus its numeric series."""
    chart = ascii_chart(data.x, data.series, log_y=data.log_y,
                        x_label=data.x_label, y_label=data.y_label)
    rows = []
    for i, x in enumerate(data.x):
        rows.append((float(x),) + tuple(float(ys[i])
                                        for ys in data.series.values()))
    table = ascii_table((data.x_label,) + tuple(data.series),
                        rows[:: max(len(rows) // 12, 1)])
    emit(f"{data.name} — {data.notes}", chart + "\n\n" + table)
    emit_json({
        "kind": "figure",
        "name": data.name,
        "notes": data.notes,
        "x_label": data.x_label,
        "y_label": data.y_label,
        "x": [float(x) for x in data.x],
        "series": {label: [float(v) for v in ys]
                   for label, ys in data.series.items()},
    })


def emit_table(data) -> None:
    """Render a TableData with its notes."""
    emit(f"{data.name} — {data.notes}",
         ascii_table(data.headers, list(data.rows)))
    emit_json({
        "kind": "table",
        "name": data.name,
        "notes": data.notes,
        "headers": list(data.headers),
        "rows": [[cell if isinstance(cell, (int, float, str, bool))
                  or cell is None else str(cell) for cell in row]
                 for row in data.rows],
    })


def pytest_sessionfinish(session: pytest.Session, exitstatus: int) -> None:
    """Append pytest-benchmark timings to the JSON record.

    Silently a no-op under ``--benchmark-disable`` or when the
    benchmark plugin is absent — the figure/table records still land.
    """
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None:
        return
    timings = []
    for bench in getattr(bench_session, "benchmarks", []):
        if getattr(bench, "stats", None) is None:
            continue
        try:
            timings.append({
                "name": bench.name,
                "mean_s": bench["mean"],
                "min_s": bench["min"],
                "stddev_s": bench["stddev"],
                "rounds": bench["rounds"],
            })
        except (AttributeError, KeyError, TypeError):
            continue
    if timings:
        emit_json({"kind": "timings", "benchmarks": timings})

"""The run-dir reporter: raw JSON → results.csv → report.md.

:func:`run_all` is the ``python -m repro replay --run-dir DIR`` engine
and follows the run-dir idiom end to end: the replay writes its full
measurement as ``raw/replay.json``; :func:`to_results_csv` turns the
raw file into a one-row ``results.csv``; and :func:`write_report`
renders ``report.md`` — a markdown table with throughput, p50/p95/p99
latency, flush occupancy, dedup, and the parity verdict.  Because each
stage only reads the previous stage's file, the CSV and report can be
regenerated from ``raw/`` alone, and partial runs leave usable
artifacts.

Layout of a finished run dir::

    DIR/
      raw/replay.json       ReplayResult.to_dict()
      results.csv           one aggregated row
      report.md             markdown summary
"""

from __future__ import annotations

import csv
import json
import os
from pathlib import Path
from typing import Any

from ..errors import ParameterError
from ..obs import span as _span
from ..obs.recording import RecordedLog, load_recorded_log
from .engine import ReplayResult, replay_log

__all__ = ["CSV_COLUMNS", "run_all", "to_results_csv", "write_report"]

#: Columns of ``results.csv``, in order.
CSV_COLUMNS = (
    "mode", "n_queries", "mismatches", "wall_s", "qps", "p50_ms",
    "p95_ms", "p99_ms", "flushes", "mean_flush_requests",
    "mean_occupancy", "dedup_rate", "max_queue_depth",
)

#: The raw result file, relative to the run dir.
RAW_FILE = Path("raw") / "replay.json"


def _write_raw(run_dir: Path, result: ReplayResult) -> Path:
    path = run_dir / RAW_FILE
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result.to_dict(), indent=2) + "\n",
                    encoding="utf-8")
    return path


def _load_raw(run_dir: Path) -> dict[str, Any]:
    path = run_dir / RAW_FILE
    if not path.is_file():
        raise ParameterError(f"no {RAW_FILE.as_posix()} under {run_dir}")
    return json.loads(path.read_text(encoding="utf-8"))


def to_results_csv(run_dir: str | os.PathLike) -> Path:
    """Write ``results.csv`` (header + one row) from ``raw/replay.json``.

    Returns the CSV path; raises :class:`~repro.errors.ParameterError`
    when the run dir has no raw result.
    """
    run_dir = Path(run_dir)
    doc = _load_raw(run_dir)
    path = run_dir / "results.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerow([doc[column] for column in CSV_COLUMNS])
    return path


def write_report(run_dir: str | os.PathLike) -> Path:
    """Render ``report.md`` from the run dir's raw result.

    One table row with throughput, p50/p95/p99 latency, flush
    occupancy and dedup rate, followed by the parity verdict.  Returns
    the report path.
    """
    run_dir = Path(run_dir)
    doc = _load_raw(run_dir)
    lines = [
        "# Replay report",
        "",
        f"{doc['n_queries']} replayed queries, mode `{doc['mode']}` "
        f"(speed ×{doc['speed']:g}).",
        "",
        "| wall s | qps | p50 ms | p95 ms | p99 ms | occupancy | dedup "
        "| mismatches |",
        "|---:|---:|---:|---:|---:|---:|---:|---:|",
        f"| {doc['wall_s']:.3f} | {doc['qps']:.0f} "
        f"| {doc['p50_ms']:.2f} | {doc['p95_ms']:.2f} "
        f"| {doc['p99_ms']:.2f} | {doc['mean_occupancy']:.2f} "
        f"| {doc['dedup_rate']:.2f} | {doc['mismatches']} |",
        "",
    ]
    if doc["mismatches"] == 0:
        lines.append(
            "**Parity:** every replayed cost was bitwise equal to the "
            "recording.")
    else:
        lines.append(
            f"**Parity: FAILED** — {doc['mismatches']} bitwise "
            f"mismatches against the recording (serve contract "
            f"violation; see {RAW_FILE.as_posix()}).")
    lines.append("")
    path = run_dir / "report.md"
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


def run_all(log: RecordedLog | str | os.PathLike,
            run_dir: str | os.PathLike, *,
            mode: str = "closed",
            speed: float = 1.0,
            timeout: float = 300.0) -> dict[str, Any]:
    """Replay a log once and emit the full run dir.

    Returns a summary dict with the
    :class:`~repro.replay.engine.ReplayResult` (``"result"``), its
    ``"mismatches"``, and the artifact paths.
    """
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    if isinstance(log, (str, os.PathLike)):
        log = load_recorded_log(log)
    with _span("replay.rundir"):
        result = replay_log(log, mode=mode, speed=speed, timeout=timeout)
        raw_path = _write_raw(run_dir, result)
        csv_path = to_results_csv(run_dir)
        report_path = write_report(run_dir)
    return {
        "run_dir": run_dir,
        "result": result,
        "raw": raw_path,
        "csv": csv_path,
        "report": report_path,
        "mismatches": result.mismatches,
    }

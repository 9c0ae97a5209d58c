"""repro.replay — recorded-traffic replay and run-dir reports.

The offline half of the serve telemetry loop.  :mod:`repro.obs.
recording` captures live traffic (``MicroBatchScheduler(record=PATH)``
appends every served query as JSONL); this package re-drives those
logs:

* :mod:`~repro.replay.engine` — :func:`~repro.replay.engine.
  replay_log` runs a recorded log through the shipped
  :class:`~repro.serve.scheduler.MicroBatchScheduler`, in open-loop
  (original or time-scaled arrivals) or closed-loop (maximum
  pressure) mode, asserting bitwise cost parity with the recording
  and measuring p50/p95/p99 latency, flush shapes, queue depth, and
  dedup rates.
* :mod:`~repro.replay.rundir` — the run-dir reporter behind ``python
  -m repro replay --run-dir DIR``: ``raw/replay.json`` →
  ``results.csv`` → ``report.md`` (the run_all → raw/ → to_csv →
  report idiom).

Every stage is traced (``replay.*`` spans and metrics, off by default
like all of :mod:`repro.obs`).  See ``docs/replay.md`` for the
walkthrough.
"""

from .engine import ReplayResult, replay_log
from .rundir import run_all, to_results_csv, write_report

__all__ = [
    "ReplayResult",
    "replay_log",
    "run_all",
    "to_results_csv",
    "write_report",
]

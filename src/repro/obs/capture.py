"""Cross-process observability capture for sharded workloads.

:func:`repro.pool.run` runs sweep tiles and Monte Carlo shards either
in worker processes (the happy path) or in-process (``workers=1`` lots
and the pool-failure fallback).  Either way, each task's spans and
metrics must end up in the *parent's* trace and registry, re-parented
under the span that launched the work.  The protocol, applied once by
:mod:`repro.pool` around every task:

* the parent computes :func:`capture_flags` and ships it with the
  task (a plain tuple, picklable, ``None`` when observability is off);
* the task runs inside :func:`begin_capture` / :func:`end_capture`,
  which force the requested flags on, swap in fresh span/metric
  storage, and return everything recorded as one plain-dict payload
  (pickles across the pool boundary);
* the parent calls :func:`absorb` on each returned payload, adopting
  the spans under its current span and merging the metric deltas.

Because the *same* bracket runs in-process during the sequential
fallback, a fallback run produces an equivalent span tree and
identical metric totals to a pooled run — asserted by
``tests/obs/test_process_merge.py``.
"""

from __future__ import annotations

from typing import Any

from . import trace as _trace
from .registry import metrics
from .state import STATE

#: What a shard should capture: (tracing, metrics) flags, or None.
CaptureFlags = "tuple[bool, bool] | None"


def capture_flags() -> tuple[bool, bool] | None:
    """The flags a worker should capture under, or ``None`` when off.

    Computed in the parent and shipped with the shard so capture works
    even when the child process does not inherit the parent's
    programmatic ``enable()`` state (e.g. spawn-based pools).
    """
    if not (STATE.tracing or STATE.metrics):
        return None
    return (STATE.tracing, STATE.metrics)


def begin_capture(flags: tuple[bool, bool]) -> tuple:
    """Start collecting spans/metrics into fresh, isolated storage.

    Forces the requested enablement flags on (saving the previous
    state) so capture works in spawn-children that never saw the
    parent's ``enable()`` call.  Returns an opaque frame for
    :func:`end_capture`.  Frames nest (the storage swap is a stack
    discipline), but a shard normally opens exactly one.
    """
    trace_on, metrics_on = flags
    frame = (_trace._TRACER.push_isolated(),
             metrics.push_isolated(),
             STATE.tracing, STATE.metrics)
    STATE.tracing, STATE.metrics = trace_on, metrics_on
    return frame


def end_capture(frame: tuple) -> dict[str, Any]:
    """Stop an isolated capture and export what it collected.

    Restores the storage and enablement flags saved by
    :func:`begin_capture` and returns a picklable payload
    (``{"spans": [...], "metrics": {...}}``) for :func:`absorb`.
    """
    tracer_frame, metrics_frame, trace_flag, metrics_flag = frame
    spans = _trace._TRACER.pop_isolated(tracer_frame)
    snapshot = metrics.pop_isolated(metrics_frame)
    STATE.tracing, STATE.metrics = trace_flag, metrics_flag
    return {"spans": spans, "metrics": snapshot}


def absorb(payload: dict[str, Any] | None) -> None:
    """Merge a worker's capture payload into this process's trace/metrics.

    Spans are adopted under the caller's current span; metric counters
    and histogram summaries add into the process-wide registry.  A
    ``None`` payload (observability was off when the shard ran) is a
    no-op, as are the halves whose instrumentation is disabled here.
    """
    if not payload:
        return
    if STATE.tracing and payload.get("spans"):
        _trace.adopt_spans(payload["spans"])
    if STATE.metrics and payload.get("metrics"):
        metrics.merge(payload["metrics"])

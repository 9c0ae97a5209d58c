"""repro.obs — spans, metrics, and profiling hooks for the hot paths.

A zero-dependency observability layer for the batch engine, the
``BatchCache``, the parallel Monte Carlo shards, and the CLI:

* :mod:`~repro.obs.trace` — a span tracer (``with obs.span(name,
  **attrs):`` or as a decorator): nested, thread-safe via
  contextvars, monotonic-clocked, exportable as JSON lines
  (:func:`write_trace_jsonl`) or a pretty tree
  (:func:`format_trace_tree`), and mergeable across processes.
* :mod:`~repro.obs.registry` — a process-wide
  :class:`MetricsRegistry` (``repro.obs.metrics``) of counters,
  gauges, and summary histograms, snapshot-able to a dict.
* :mod:`~repro.obs.capture` — the capture bracket :mod:`repro.pool`
  opens around every task, which ships worker-process spans/metrics
  back to the parent
  (:func:`capture_flags` / :func:`begin_capture` /
  :func:`end_capture` / :func:`absorb`).
* :mod:`~repro.obs.recording` — the recorded-traffic JSONL format:
  :class:`QueryRecorder` (attached via
  ``MicroBatchScheduler(record=PATH)``) plus the loader the replay
  harness (:mod:`repro.replay`) reads.

Everything is **off by default** and near-zero-cost while off: every
hook is guarded by the flags in :mod:`~repro.obs.state` (one attribute
read), a contract asserted by ``benchmarks/bench_obs_overhead.py``.
Enable with ``REPRO_TRACE=1`` / ``REPRO_METRICS=1`` in the
environment, programmatically via :func:`enable`, or per CLI run with
``python -m repro <command> --trace trace.jsonl --metrics``.  Metric
names and the overhead contract are documented in
``docs/observability.md``.
"""

from .state import (
    ObsState,
    disable,
    enable,
    enabled,
    metrics_enabled,
    tracing_enabled,
)
from .trace import (
    SpanRecord,
    Tracer,
    adopt_spans,
    clear_trace,
    current_span_id,
    format_trace_tree,
    get_trace,
    span,
    write_trace_jsonl,
)
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metrics,
)
from .capture import absorb, begin_capture, capture_flags, end_capture
from .recording import (
    QueryRecorder,
    RecordedLog,
    RecordedQuery,
    load_recorded_log,
)

__all__ = [
    "ObsState",
    "enable",
    "disable",
    "enabled",
    "tracing_enabled",
    "metrics_enabled",
    "span",
    "SpanRecord",
    "Tracer",
    "get_trace",
    "clear_trace",
    "current_span_id",
    "adopt_spans",
    "format_trace_tree",
    "write_trace_jsonl",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metrics",
    "capture_flags",
    "begin_capture",
    "end_capture",
    "absorb",
    "QueryRecorder",
    "RecordedLog",
    "RecordedQuery",
    "load_recorded_log",
]

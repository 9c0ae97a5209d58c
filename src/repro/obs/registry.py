"""Process-wide metrics: counters, gauges, and summary histograms.

:class:`MetricsRegistry` is a thread-safe, name-keyed collection of
three metric kinds:

* **Counter** — a monotonically increasing total
  (``batch.cache.hits``, ``mc.wafers_simulated``),
* **Gauge** — a last-written value (``batch.cache.entries``),
* **Histogram** — a running summary of observations: count, sum, min,
  max, mean (``mc.worker.wall_seconds``).

The process-wide instance is exported as ``repro.obs.metrics`` and is
*gated*: its ``inc`` / ``set_gauge`` / ``observe`` helpers no-op unless
metrics are enabled (``REPRO_METRICS=1`` or
:func:`repro.obs.enable`), which is what makes the hot-path hooks
near-free when observability is off.  Privately constructed registries
(``MetricsRegistry()``) are ungated and always record — useful in
tests and for library consumers keeping their own books.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain nested dicts —
JSON-ready, and the wire form merged across processes by
:meth:`MetricsRegistry.merge` when Monte Carlo shards report back.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Iterator, Sequence

from .state import STATE


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 <= q <= 1``) of sorted values.

    The smallest value with at least ``q`` of the sample at or below
    it: ``sorted_values[ceil(q * n) - 1]``, so p50 of ``[1, 2, 3, 4]``
    is 2.  Returns ``nan`` for an empty sample.
    """
    if not sorted_values:
        return math.nan
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        """Add ``n`` (default 1) to the total."""
        self.value += n


class Gauge:
    """A last-written value (not aggregated, just stored)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        self.value = value


class Histogram:
    """A running summary of observations: count, sum, min, max.

    Deliberately a summary rather than a bucketed histogram — the
    consumers here (per-worker wall times, per-call cell counts) need
    totals and extremes, and a summary merges exactly across
    processes.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        """Fold one observation into the summary."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, float]:
        """JSON-ready summary (min/max omitted via ``None`` when empty)."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
        }


class MetricsRegistry:
    """A thread-safe, name-keyed collection of metrics.

    ``gated=True`` (the process-wide ``repro.obs.metrics`` instance)
    makes the writer helpers — :meth:`inc`, :meth:`set_gauge`,
    :meth:`observe` — no-ops unless metrics are enabled, so
    instrumented hot paths cost one flag check when observability is
    off.  The accessor methods (:meth:`counter` etc.) and readers
    always work.
    """

    def __init__(self, *, gated: bool = False) -> None:
        self.gated = gated
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- accessors (create on first use) --------------------------------
    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created if absent)."""
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter()
            return metric

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created if absent)."""
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge()
            return metric

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under ``name`` (created if absent)."""
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram()
            return metric

    # -- gated writers (the hot-path entry points) ----------------------
    def inc(self, name: str, n: int | float = 1) -> None:
        """Increment counter ``name`` by ``n`` (no-op when gated off)."""
        if self.gated and not STATE.metrics:
            return
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter()
            metric.inc(n)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (no-op when gated off)."""
        if self.gated and not STATE.metrics:
            return
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge()
            metric.set(value)

    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into histogram ``name`` (no-op when gated off)."""
        if self.gated and not STATE.metrics:
            return
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram()
            metric.observe(value)

    # -- readers ---------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """A JSON-ready nested dict of every metric's current value.

        Shape: ``{"counters": {name: total}, "gauges": {name: value},
        "histograms": {name: {count, sum, min, max, mean}}}``.  This is
        also the wire form consumed by :meth:`merge`.
        """
        with self._lock:
            return {
                "counters": {k: c.value for k, c in self._counters.items()},
                "gauges": {k: g.value for k, g in self._gauges.items()},
                "histograms": {k: h.to_dict()
                               for k, h in self._histograms.items()},
            }

    def rows(self) -> list[tuple[str, float]]:
        """Flat, name-sorted ``(metric, value)`` rows for table display.

        Histograms expand to ``name.count`` / ``name.mean`` /
        ``name.min`` / ``name.max`` / ``name.sum`` rows.
        """
        snap = self.snapshot()
        out: list[tuple[str, float]] = []
        for name, value in snap["counters"].items():
            out.append((name, value))
        for name, value in snap["gauges"].items():
            out.append((name, value))
        for name, summary in snap["histograms"].items():
            out.append((f"{name}.count", summary["count"]))
            out.append((f"{name}.mean", summary["mean"]))
            if summary["count"]:
                out.append((f"{name}.min", summary["min"]))
                out.append((f"{name}.max", summary["max"]))
            out.append((f"{name}.sum", summary["sum"]))
        return sorted(out)

    def merge(self, snapshot: dict[str, Any]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and histogram summaries add; gauges take the incoming
        value (last write wins).  This is how metrics recorded inside
        worker processes reach the parent registry.
        """
        if not snapshot:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, summary in snapshot.get("histograms", {}).items():
            hist = self.histogram(name)
            with self._lock:
                hist.count += summary.get("count", 0)
                hist.total += summary.get("sum", 0.0)
                if summary.get("count"):
                    hist.min = min(hist.min, summary["min"])
                    hist.max = max(hist.max, summary["max"])

    def reset(self) -> None:
        """Drop every registered metric (names and values)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def __iter__(self) -> Iterator[str]:
        """Iterate all registered metric names."""
        with self._lock:
            names = (list(self._counters) + list(self._gauges)
                     + list(self._histograms))
        return iter(names)

    # -- isolation frames (cross-process capture) ------------------------
    def push_isolated(self) -> tuple[dict, dict, dict]:
        """Swap in empty storage; returns a frame for ``pop_isolated``."""
        with self._lock:
            frame = (self._counters, self._gauges, self._histograms)
            self._counters, self._gauges, self._histograms = {}, {}, {}
        return frame

    def pop_isolated(self, frame: tuple[dict, dict, dict]) -> dict[str, Any]:
        """Restore storage swapped by ``push_isolated``.

        Returns the snapshot of everything recorded while isolated.
        """
        captured = self.snapshot()
        with self._lock:
            self._counters, self._gauges, self._histograms = frame
        return captured


#: The process-wide, gated registry the instrumentation hooks write to.
metrics = MetricsRegistry(gated=True)

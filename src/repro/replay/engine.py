"""Re-drive a recorded traffic log through the serve scheduler.

:func:`replay_log` is the measurement core of the replay harness: it
builds a fresh :class:`~repro.serve.scheduler.MicroBatchScheduler`
with the shipped defaults, pushes a recorded log's queries through it,
and returns a :class:`ReplayResult` with two kinds of truth:

* **Parity** — every replayed cost is compared *bitwise* against the
  cost the original run recorded.  The serve contract says results
  are independent of batching, so any mismatch is a real bug (or a
  corrupted log), not noise.  Replay is therefore also a regression
  harness: a log recorded yesterday re-checks today's scheduler end
  to end.
* **Performance** — wall time, throughput, p50/p95/p99 request
  latency, flush-size histogram, queue-depth high-water mark, and
  dedup/coalescing rates, from the same run.

Two drive modes:

* ``mode="open"`` (open-loop) replays the recorded inter-arrival
  gaps — each query is submitted at its original offset divided by
  ``speed`` (``speed=2.0`` → twice as fast) — measuring latency under
  the recorded arrival process.  The replaying thread drives the
  scheduler itself: it prices what is pending whenever its next
  arrival lies in the future.
* ``mode="closed"`` submits everything at once through the bulk path
  and drains — the maximum-pressure shape, measuring throughput and
  coalescing with arrival timing factored out.

Obs integration (off by default): the run is wrapped in a
``replay.run`` span, and ``replay.queries`` / ``replay.mismatches``
counters accumulate across runs.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Iterable

from ..errors import ParameterError
from ..obs import metrics as _metrics, span as _span
from ..obs.recording import RecordedLog, RecordedQuery, load_recorded_log
from ..obs.registry import nearest_rank
from ..obs.state import enabled as _obs_enabled
from ..serve.scheduler import FlushRecord, MicroBatchScheduler

__all__ = ["ReplayResult", "replay_log"]

#: Replay drive modes (see the module docstring).
REPLAY_MODES = ("open", "closed")


@dataclass
class ReplayResult:
    """Everything one replay run measured.

    ``mismatches`` counts replayed costs that were not bitwise equal
    to the recorded ones (the parity contract says it must be 0).
    Latency fields are milliseconds from submit to ticket completion.
    ``flush_records`` keeps the raw scheduler telemetry;
    :meth:`to_dict` summarizes it (histogram + means) instead of
    serializing every record.
    """

    mode: str
    speed: float
    n_queries: int
    n_skipped: int
    wall_s: float
    mismatches: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_queue_depth: int
    max_batch_size: int
    flush_records: list[FlushRecord] = field(default_factory=list)

    @property
    def qps(self) -> float:
        """Replayed queries per wall-clock second."""
        return self.n_queries / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def flushes(self) -> int:
        """Number of scheduler flushes the replay produced."""
        return len(self.flush_records)

    @property
    def mean_flush_requests(self) -> float:
        """Mean requests per flush (the coalescing win)."""
        if not self.flush_records:
            return 0.0
        return sum(f.requests for f in self.flush_records) \
            / len(self.flush_records)

    @property
    def mean_occupancy(self) -> float:
        """Mean flush fill fraction of ``max_batch_size``."""
        return self.mean_flush_requests / self.max_batch_size

    @property
    def dedup_rate(self) -> float:
        """Fraction of requests answered from an in-flush duplicate."""
        total = sum(f.requests for f in self.flush_records)
        if total == 0:
            return 0.0
        unique = sum(f.unique for f in self.flush_records)
        return 1.0 - unique / total

    @property
    def flush_size_hist(self) -> dict[str, int]:
        """Histogram of flush sizes (requests per flush → count)."""
        hist: dict[int, int] = {}
        for flush in self.flush_records:
            hist[flush.requests] = hist.get(flush.requests, 0) + 1
        return {str(size): hist[size] for size in sorted(hist)}

    def to_dict(self) -> dict[str, Any]:
        """The ``raw/replay.json`` document for one replay run."""
        return {
            "mode": self.mode,
            "speed": self.speed,
            "n_queries": self.n_queries,
            "n_skipped": self.n_skipped,
            "wall_s": self.wall_s,
            "qps": self.qps,
            "mismatches": self.mismatches,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "max_queue_depth": self.max_queue_depth,
            "max_batch_size": self.max_batch_size,
            "flushes": self.flushes,
            "mean_flush_requests": self.mean_flush_requests,
            "mean_occupancy": self.mean_occupancy,
            "dedup_rate": self.dedup_rate,
            "flush_size_hist": self.flush_size_hist,
        }


def _coerce_log(log: RecordedLog | str | os.PathLike
                | Iterable[RecordedQuery]) -> list[RecordedQuery]:
    if isinstance(log, (str, os.PathLike)):
        log = load_recorded_log(log)
    if isinstance(log, RecordedLog):
        return log.records
    return list(log)


def replay_log(log: RecordedLog | str | os.PathLike
               | Iterable[RecordedQuery], *,
               mode: str = "open",
               speed: float = 1.0,
               timeout: float = 300.0) -> ReplayResult:
    """Replay a recorded log through the scheduler; measure and verify.

    ``log`` is a :class:`~repro.obs.recording.RecordedLog`, a path to
    one, or an iterable of records.  Records without a rebuilt query
    are skipped (counted in ``n_skipped``); the rest are submitted in
    recorded order — at their original arrival offsets divided by
    ``speed`` when ``mode="open"``, all at once when
    ``mode="closed"``.  Each replayed cost is compared bitwise against
    the recorded cost (recorded-error lines, ``cost=None``, only
    check that replay also fails).  ``timeout`` bounds the whole
    drain.  Returns the measured :class:`ReplayResult`; raises
    :class:`~repro.errors.ParameterError` on a bad mode/speed and
    ``TimeoutError`` if the drain exceeds ``timeout``.
    """
    if mode not in REPLAY_MODES:
        raise ParameterError(
            f"mode must be one of {REPLAY_MODES}, got {mode!r}")
    if speed <= 0:
        raise ParameterError(f"speed must be > 0, got {speed}")
    records = _coerce_log(log)
    replayable = [r for r in records if r.query is not None]
    n_skipped = len(records) - len(replayable)

    latencies: list[float] = []

    def _make_callback(t_submit: float):
        def _cb(_ticket) -> None:
            latencies.append(time.perf_counter() - t_submit)
        return _cb

    obs_on = _obs_enabled()
    with _span("replay.run", mode=mode, queries=len(replayable)):
        scheduler = MicroBatchScheduler(
            flush_history=max(1, len(replayable) + 16),
            max_queue_depth=max(10_000, len(replayable)))
        max_depth = 0
        tickets = []
        try:
            t_wall0 = time.perf_counter()
            if mode == "open":
                epoch = time.perf_counter()
                for rec in replayable:
                    target = epoch + rec.t / speed
                    # Price what is pending while the next arrival is
                    # still in the future, one slice at a time.
                    while time.perf_counter() < target \
                            and scheduler.flush_once():
                        pass
                    delay = target - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    t_submit = time.perf_counter()
                    ticket = scheduler.submit(rec.query)
                    ticket.add_done_callback(_make_callback(t_submit))
                    tickets.append(ticket)
                    depth = scheduler.queue_depth
                    if depth > max_depth:
                        max_depth = depth
            else:
                t_submit = time.perf_counter()
                tickets = scheduler.submit_many(
                    [r.query for r in replayable])
                for ticket in tickets:
                    ticket.add_done_callback(_make_callback(t_submit))
                max_depth = scheduler.queue_depth
            deadline = time.monotonic() + timeout
            mismatches = 0
            for ticket, rec in zip(tickets, replayable):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"replay of {len(replayable)} queries exceeded "
                        f"timeout={timeout}s")
                if rec.cost is None:
                    # The recorded flush failed; replay matches parity
                    # by failing too (any exception type counts).
                    try:
                        ticket.cost(remaining)
                    except TimeoutError:
                        raise
                    except Exception:
                        pass
                    else:
                        mismatches += 1
                    continue
                if ticket.cost(remaining) != rec.cost:
                    mismatches += 1
            wall_s = time.perf_counter() - t_wall0
            flush_records = scheduler.recent_flushes
        finally:
            scheduler.close()

    latencies.sort()
    lat_ms = [v * 1e3 for v in latencies]
    if obs_on:
        _metrics.inc("replay.queries", len(replayable))
        _metrics.inc("replay.mismatches", mismatches)
    return ReplayResult(
        mode=mode, speed=speed,
        n_queries=len(replayable), n_skipped=n_skipped,
        wall_s=wall_s, mismatches=mismatches,
        p50_ms=nearest_rank(lat_ms, 0.50),
        p95_ms=nearest_rank(lat_ms, 0.95),
        p99_ms=nearest_rank(lat_ms, 0.99),
        max_queue_depth=max_depth,
        max_batch_size=scheduler.max_batch_size,
        flush_records=flush_records)

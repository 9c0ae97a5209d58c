"""Tick-based micro-batch scheduler: queue, coalesce, flush, fan out.

:class:`MicroBatchScheduler` is the heart of :mod:`repro.serve`.  Many
callers (threads or asyncio tasks) submit small independent cost
queries; a single background *flusher* thread drains them in
micro-batches and prices each batch with as few vectorized evaluations
as the traffic allows:

1. **Tick** — a flush fires when ``max_batch_size`` requests are
   pending *or* the oldest pending request has waited ``max_wait_s``,
   whichever comes first.  An idle scheduler sleeps on a condition
   variable; the first submit after idle starts the tick clock.
2. **Coalesce** — drained requests are grouped by model
   :meth:`~repro.serve.query.CostQuery.signature`; identical
   ``(N_tr, λ)`` points within a group are deduplicated, and every
   waiter receives its own result view (dedup is invisible to
   callers).
3. **Execute** — each group is priced inline on the flusher thread by
   :meth:`~repro.serve.backend.ThreadBackend.run_group`, which runs
   :func:`repro.serve.executor.execute_group` against the shared
   :class:`~repro.batch.cache.BatchCache`.
4. **Fan out** — tickets are completed under one condition broadcast
   per flush (no per-request locks on the hot path), and registered
   callbacks (the asyncio bridge) fire after completion.

Backpressure is explicit: the pending queue is bounded by
``max_queue_depth`` and :meth:`submit` either blocks for space (up to
a timeout) or raises :class:`~repro.errors.BackpressureError`
immediately when ``timeout=0`` (the error carries ``queue_depth``).

Observability (:mod:`repro.obs`, off by default): a ``serve.flush``
span per flush; counters ``serve.requests`` / ``serve.flushes`` /
``serve.groups`` / ``serve.dedup.duplicates``; the gauge
``serve.queue.depth``; histograms ``serve.flush.occupancy``,
``serve.flush.seconds`` and ``serve.request.latency_seconds``.  Every
hook is guarded so the disabled-observability overhead stays inside
the < 3% contract of ``benchmarks/bench_obs_overhead.py``.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from ..batch.cache import BatchCache
from ..batch.engine import USE_DEFAULT_CACHE, _resolve_cache
from ..errors import (
    BackpressureError,
    ParameterError,
    ServiceClosedError,
)
from ..obs import metrics as _metrics, span as _span
from ..obs.recording import QueryRecorder, signature_key
from ..obs.state import enabled as _obs_enabled
from .backend import ThreadBackend
from .executor import GroupResult
from .query import CostQuery, ServedCost

__all__ = ["CostTicket", "FlushRecord", "MicroBatchScheduler"]

_PENDING = 0
_DONE = 1
_FAILED = 2


class CostTicket:
    """A claim on one submitted query's future result.

    Created by :meth:`MicroBatchScheduler.submit`; completed by the
    flusher.  :meth:`result` / :meth:`cost` block until the owning
    flush lands (all waiters share one scheduler-level condition, so a
    ticket costs an object and two attribute writes, not a lock and an
    event).  ``add_done_callback`` is the asyncio bridge: callbacks
    run on the flusher thread right after completion.
    """

    __slots__ = ("query", "_scheduler", "_state", "_group", "_slot",
                 "_exc", "_callbacks", "_t_submit")

    def __init__(self, query: CostQuery, scheduler: "MicroBatchScheduler",
                 t_submit: float) -> None:
        self.query = query
        self._scheduler = scheduler
        self._state = _PENDING
        self._group: GroupResult | None = None
        self._slot = -1
        self._exc: BaseException | None = None
        self._callbacks: list[Callable[["CostTicket"], None]] | None = None
        self._t_submit = t_submit

    def done(self) -> bool:
        """True once the owning flush has completed (or failed)."""
        return self._state != _PENDING

    def _wait(self, timeout: float | None) -> None:
        if self._state != _PENDING:
            return
        cond = self._scheduler._done_cond
        deadline = None if timeout is None else time.monotonic() + timeout
        with cond:
            while self._state == _PENDING:
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(
                        "query result not ready within timeout")
                cond.wait(remaining)

    def result(self, timeout: float | None = None) -> ServedCost:
        """The full served breakdown (blocks until the flush lands)."""
        self._wait(timeout)
        if self._state == _FAILED:
            assert self._exc is not None
            raise self._exc
        assert self._group is not None
        return self._group.served(self._slot)

    def cost(self, timeout: float | None = None) -> float:
        """Just C_tr in dollars (blocks until the flush lands)."""
        self._wait(timeout)
        if self._state == _FAILED:
            assert self._exc is not None
            raise self._exc
        assert self._group is not None
        return self._group.cost(self._slot)

    def exception(self, timeout: float | None = None
                  ) -> BaseException | None:
        """The failed flush's exception, or ``None`` on success.

        Blocks until the flush lands, like :meth:`result`, but builds
        no result.
        """
        self._wait(timeout)
        return self._exc

    def add_done_callback(self,
                          fn: Callable[["CostTicket"], None]) -> None:
        """Run ``fn(ticket)`` once completed (immediately if already)."""
        with self._scheduler._done_cond:
            if self._state == _PENDING:
                if self._callbacks is None:
                    self._callbacks = []
                self._callbacks.append(fn)
                return
        fn(self)


class _Group:
    """One signature's share of a flush: unique points + member tickets."""

    __slots__ = ("exemplar", "points", "index", "members")

    def __init__(self, exemplar: CostQuery) -> None:
        self.exemplar = exemplar
        self.points: list[tuple[float, float]] = []
        self.index: dict[tuple[float, float], int] = {}
        self.members: list[CostTicket] = []


class FlushRecord(NamedTuple):
    """One flush's shape, kept when ``flush_history`` is enabled.

    ``duration_s`` covers coalescing + execution + fan-out;
    ``flush_id`` numbers flushes from 1 per scheduler.
    """

    requests: int
    unique: int
    groups: int
    duration_s: float
    flush_id: int = 0


class MicroBatchScheduler:
    """Aggregates small cost queries into few vectorized evaluations.

    Parameters
    ----------
    max_batch_size:
        Flush as soon as this many requests are pending.
    max_wait_s:
        Flush when the oldest pending request has waited this long,
        even if the batch is not full — bounds added latency.
    max_queue_depth:
        Bound on pending requests; beyond it submits block or raise
        :class:`~repro.errors.BackpressureError`.
    flush_history:
        Keep the last N :class:`FlushRecord` shapes in
        :attr:`recent_flushes` (0 disables; benches and replay read
        them).
    record:
        Path of a recorded-traffic JSONL log
        (:mod:`repro.obs.recording`): every completed query is
        appended with its arrival offset, signature key, flush id,
        backend, and served cost.  ``None`` (default) disables
        recording.  The file is appended to and flushed once per
        scheduler flush (crash loses at most the final line).
    cache:
        The :class:`~repro.batch.cache.BatchCache` shared by every
        flush (and safely by other users — it is thread-safe).
        Defaults to the process-wide cache; pass ``None`` to disable.
    """

    def __init__(self, *, max_batch_size: int = 256,
                 max_wait_s: float = 0.002,
                 max_queue_depth: int = 10_000,
                 flush_history: int = 0,
                 record: str | os.PathLike | None = None,
                 cache: Any = USE_DEFAULT_CACHE) -> None:
        if max_batch_size < 1:
            raise ParameterError(
                f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_wait_s < 0:
            raise ParameterError(
                f"max_wait_s must be >= 0, got {max_wait_s}")
        if max_queue_depth < max_batch_size:
            raise ParameterError(
                f"max_queue_depth ({max_queue_depth}) must be >= "
                f"max_batch_size ({max_batch_size})")
        if flush_history < 0:
            raise ParameterError(
                f"flush_history must be >= 0, got {flush_history}")
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_s
        self.max_queue_depth = max_queue_depth
        self._recorder: QueryRecorder | None = \
            QueryRecorder(record) if record is not None else None
        self._flush_count = 0
        self.cache: BatchCache | None = _resolve_cache(cache)
        self._backend = ThreadBackend()
        self._history: deque[FlushRecord] | None = \
            deque(maxlen=flush_history) if flush_history else None
        # Appends happen on the flusher thread while any thread may
        # snapshot recent_flushes; iterating a deque during a mutation
        # raises, so both sides take this (tiny, once-per-flush) lock.
        self._history_lock = threading.Lock()

        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._space = threading.Condition(self._lock)
        self._done_cond = threading.Condition(threading.Lock())
        self._pending: list[CostTicket] = []
        self._oldest_enqueued = 0.0
        self._closing = False
        self._started = False
        self._thread: threading.Thread | None = None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "MicroBatchScheduler":
        """Start the flusher thread (idempotent)."""
        with self._lock:
            if self._closing:
                raise ServiceClosedError("scheduler already closed")
            if self._started:
                return self
            self._started = True
        self._thread = threading.Thread(target=self._run,
                                        name="repro-serve-flusher",
                                        daemon=True)
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop accepting, flush every pending request, join (idempotent)."""
        with self._lock:
            if self._closing:
                thread = None
            else:
                self._closing = True
                thread = self._thread
            self._work.notify_all()
            self._space.notify_all()
        if thread is not None:
            thread.join()
        if self._recorder is not None:
            # After the join: every pending flush has been recorded.
            self._recorder.close()

    def __enter__(self) -> "MicroBatchScheduler":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def queue_depth(self) -> int:
        """Number of requests currently pending (pre-flush)."""
        with self._lock:
            return len(self._pending)

    @property
    def recent_flushes(self) -> list[FlushRecord]:
        """The last ``flush_history`` flush shapes, oldest first."""
        if self._history is None:
            return []
        with self._history_lock:
            return list(self._history)

    @property
    def recorder(self) -> QueryRecorder | None:
        """The attached traffic recorder (``None`` unless ``record=``)."""
        return self._recorder

    # -- submission ------------------------------------------------------

    def submit(self, query: CostQuery, *,
               timeout: float | None = None) -> CostTicket:
        """Enqueue one query; returns its :class:`CostTicket`.

        Blocks while the queue is full: forever with ``timeout=None``,
        up to ``timeout`` seconds otherwise (``timeout=0`` never
        blocks).  Raises :class:`~repro.errors.BackpressureError` when
        space does not free up in time, and
        :class:`~repro.errors.ServiceClosedError` after :meth:`close`.
        """
        return self._submit_all((query,), timeout)[0]

    def submit_many(self, queries: Iterable[CostQuery], *,
                    timeout: float | None = None) -> list[CostTicket]:
        """Enqueue many queries with one lock acquisition per space wait.

        The bulk analog of :meth:`submit` — the fast path for
        sweep-shaped callers.  Queries are enqueued in order; if the
        queue fills mid-way the call blocks for space (the flusher is
        draining on the other side), so a partial enqueue only remains
        on timeout, in which case the raised
        :class:`~repro.errors.BackpressureError` carries the already
        issued tickets in its ``tickets`` attribute.

        Bulk submissions skip the ``max_wait_s`` tick: the grace
        period exists so independent single submits can coalesce, and
        a sweep arrives pre-coalesced, so the flusher drains it
        immediately rather than idling out the deadline.
        """
        return self._submit_all(tuple(queries), timeout)

    def _submit_all(self, queries: Sequence[CostQuery],
                    timeout: float | None) -> list[CostTicket]:
        if not self._started:
            self.start()
        obs_on = _obs_enabled()
        now = time.monotonic()
        t_submit = time.perf_counter() \
            if (obs_on or self._recorder is not None) else 0.0
        tickets: list[CostTicket] = []
        deadline = None if timeout is None else now + timeout
        i = 0
        with self._lock:
            while i < len(queries):
                if self._closing:
                    raise ServiceClosedError(
                        "scheduler is closed to new queries")
                free = self.max_queue_depth - len(self._pending)
                if free <= 0:
                    remaining = None if deadline is None \
                        else deadline - time.monotonic()
                    if remaining is not None and remaining <= 0:
                        exc = BackpressureError(
                            f"queue full ({self.max_queue_depth} pending); "
                            f"enqueued {i} of {len(queries)} queries")
                        exc.tickets = tickets
                        exc.queue_depth = len(self._pending)
                        raise exc
                    self._space.wait(remaining)
                    continue
                was_empty = not self._pending
                for query in queries[i:i + free]:
                    ticket = CostTicket(query, self, t_submit)
                    self._pending.append(ticket)
                    tickets.append(ticket)
                    i += 1
                if len(queries) > 1:
                    # A bulk submission is already coalesced — the tick
                    # grace period exists to let *independent* single
                    # submits pile up, so a sweep's deadline is born
                    # expired and the flusher drains it immediately.
                    self._oldest_enqueued = now - self.max_wait_s
                    self._work.notify()
                elif was_empty:
                    self._oldest_enqueued = time.monotonic()
                    self._work.notify()
                elif len(self._pending) >= self.max_batch_size:
                    self._work.notify()
        if obs_on:
            _metrics.inc("serve.requests", len(tickets))
            _metrics.set_gauge("serve.queue.depth", len(self._pending))
        return tickets

    # -- the flusher -----------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._lock:
                while not self._pending and not self._closing:
                    self._work.wait()
                if not self._pending and self._closing:
                    return
                # Tick: wait out the remainder of the oldest request's
                # grace period unless the batch is already full.
                if not self._closing:
                    deadline = self._oldest_enqueued + self.max_wait_s
                    while len(self._pending) < self.max_batch_size \
                            and not self._closing:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        self._work.wait(remaining)
                drained = self._pending[:self.max_batch_size]
                del self._pending[:self.max_batch_size]
                # Leftover requests keep the old tick timestamp: they
                # were enqueued before this flush, so their grace
                # period has already elapsed and the next iteration
                # drains them without another wait.
                self._space.notify_all()
            self._flush(drained)

    def _flush(self, tickets: list[CostTicket]) -> None:
        obs_on = _obs_enabled()
        history = self._history is not None
        recorder = self._recorder
        t0 = time.perf_counter() if (obs_on or history) else 0.0
        self._flush_count += 1
        flush_id = self._flush_count
        groups: dict[Any, _Group] = {}
        groups_get = groups.get  # hot loop: bind lookups once
        for ticket in tickets:
            query = ticket.query
            sig = query.signature()
            group = groups_get(sig)
            if group is None:
                group = groups[sig] = _Group(query)
            point = query.point()
            index = group.index
            slot = index.get(point)
            if slot is None:
                slot = index[point] = len(group.points)
                group.points.append(point)
            ticket._slot = slot
            group.members.append(ticket)
        unique = sum(len(g.points) for g in groups.values())
        backend = self._backend
        record_entries: list[tuple] = []
        with _span("serve.flush", requests=len(tickets), unique=unique,
                   groups=len(groups)) as sp:
            for sig, group in groups.items():
                error: str | None = None
                try:
                    result = backend.run_group(
                        group.exemplar, group.points, self.cache)
                except BaseException as exc:  # propagate to every waiter
                    error = type(exc).__name__
                    result = None
                    self._complete(group.members, None, exc)
                else:
                    self._complete(group.members, result, None)
                if recorder is not None:
                    sig_key = signature_key(sig)
                    for ticket in group.members:
                        cost = result.cost(ticket._slot) \
                            if result is not None else None
                        record_entries.append(
                            (ticket._t_submit, ticket.query, sig_key,
                             backend.name, cost, error))
            sp.annotate(flush_id=flush_id)
        if recorder is not None:
            recorder.record_flush(flush_id, record_entries)
        if history:
            assert self._history is not None
            record = FlushRecord(
                requests=len(tickets), unique=unique, groups=len(groups),
                duration_s=time.perf_counter() - t0, flush_id=flush_id)
            with self._history_lock:
                self._history.append(record)
        if obs_on:
            now = time.perf_counter()
            _metrics.inc("serve.flushes")
            _metrics.inc("serve.groups", len(groups))
            _metrics.inc("serve.dedup.duplicates", len(tickets) - unique)
            _metrics.observe("serve.flush.occupancy",
                             len(tickets) / self.max_batch_size)
            _metrics.observe("serve.flush.seconds", now - t0)
            for ticket in tickets:
                _metrics.observe("serve.request.latency_seconds",
                                 now - ticket._t_submit)
            _metrics.set_gauge("serve.queue.depth", self.queue_depth)

    def _complete(self, tickets: list[CostTicket],
                  result: GroupResult | None,
                  exc: BaseException | None) -> None:
        callbacks: list[tuple[Callable[[CostTicket], None], CostTicket]] = []
        with self._done_cond:
            for ticket in tickets:
                if exc is not None:
                    ticket._exc = exc
                    ticket._state = _FAILED
                else:
                    ticket._group = result
                    ticket._state = _DONE
                if ticket._callbacks:
                    callbacks.extend(
                        (fn, ticket) for fn in ticket._callbacks)
                    ticket._callbacks = None
            self._done_cond.notify_all()
        for fn, ticket in callbacks:
            fn(ticket)

"""Micro-batch scheduler: queue, coalesce, flush, fan out.

:class:`MicroBatchScheduler` is the heart of :mod:`repro.serve`.  Many
callers (threads or asyncio tasks) submit small independent cost
queries into one bounded queue, and whoever drives the scheduler
prices them in micro-batches with as few vectorized evaluations as the
traffic allows.  The scheduler starts no thread of its own:

1. **Drive** — :meth:`MicroBatchScheduler.flush_once` drains one
   ``max_batch_size`` slice of the queue and prices it on the calling
   thread.  One thread at a time holds the flusher role; a caller that
   finds it held returns at once, and the holder keeps going until the
   queue is empty.  :class:`~repro.serve.aio.AsyncCostService` calls it
   from one ``loop.call_soon`` callback per loop iteration, so
   requests coalesce per loop iteration; synchronous callers drive it
   themselves — a wait on a pending :class:`CostTicket`, a blocking
   submit into a full queue and :meth:`~MicroBatchScheduler.close`
   each flush on the calling thread until the queue is empty.
2. **Coalesce** — drained requests are grouped by model
   :meth:`~repro.serve.query.CostQuery.signature`; identical
   ``(N_tr, λ)`` points within a group are deduplicated, and every
   waiter receives its own result view (dedup is invisible to
   callers).
3. **Execute** — each group is priced inline by
   :meth:`~repro.serve.backend.ThreadBackend.run_group`, which runs
   :func:`repro.serve.executor.execute_group` against the process-wide
   :func:`~repro.batch.cache.default_cache`.  A group of several unique
   points that raises is priced again point by point, so each request
   gets its own point's cost or its own point's exception.
4. **Fan out** — tickets are completed under one condition broadcast
   per group (no per-request locks on the hot path), and registered
   callbacks (the asyncio bridge) fire after completion, on the
   flushing thread.  A callback must not wait on a pending ticket: it
   runs inside a flush, so the wait raises
   :class:`~repro.errors.ServiceError` rather than hang.

Backpressure is explicit: the pending queue is bounded by
``max_queue_depth`` and :meth:`~MicroBatchScheduler.submit` either
raises :class:`~repro.errors.BackpressureError` immediately when
``timeout=0`` (the error carries ``queue_depth``) or makes room by
flushing on the calling thread, waiting out another thread's flush up
to ``timeout``.

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

from ..errors import (
    BackpressureError,
    ParameterError,
    ServiceClosedError,
    ServiceError,
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

    Created by :meth:`MicroBatchScheduler.submit`; completed by
    whichever thread flushes it.  :meth:`result` / :meth:`cost` price
    the pending queue on the waiting thread, or wait on the
    scheduler's condition while another thread is flushing (a ticket
    costs an object and two attribute writes, not a lock and an
    event).  ``add_done_callback`` is the asyncio bridge: callbacks
    run on the flushing thread right after completion.
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
        sched = self._scheduler
        sched._refuse_reentry("wait on a pending ticket")
        deadline = None if timeout is None else time.monotonic() + timeout
        cond = sched._cond
        while True:
            sched._flush_all()
            with cond:
                if self._state != _PENDING:
                    return
                if sched._pending and sched._flusher is None:
                    continue  # refilled since our flush: price it too
                # Another thread is flushing this ticket, or nothing
                # will (a ticket that never entered the queue).
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(
                        "query result not ready within timeout")
                cond.wait(remaining)

    def result(self, timeout: float | None = None) -> ServedCost:
        """The full served breakdown (flushes or waits until it lands)."""
        self._wait(timeout)
        if self._state == _FAILED:
            assert self._exc is not None
            raise self._exc
        assert self._group is not None
        return self._group.served(self._slot)

    def cost(self, timeout: float | None = None) -> float:
        """Just C_tr in dollars (flushes or waits until it lands)."""
        self._wait(timeout)
        if self._state == _FAILED:
            assert self._exc is not None
            raise self._exc
        assert self._group is not None
        return self._group.cost(self._slot)

    def exception(self, timeout: float | None = None
                  ) -> BaseException | None:
        """The failed flush's exception, or ``None`` on success.

        Flushes or waits until the flush lands, like :meth:`result`,
        but builds no result.
        """
        self._wait(timeout)
        return self._exc

    def add_done_callback(self,
                          fn: Callable[["CostTicket"], None]) -> None:
        """Run ``fn(ticket)`` once completed (immediately if already)."""
        with self._scheduler._cond:
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
        The most requests one flush prices (one slice of the queue).
    max_queue_depth:
        Bound on pending requests; beyond it submits flush to make
        room or raise :class:`~repro.errors.BackpressureError`.
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
    """

    def __init__(self, *, max_batch_size: int = 256,
                 max_queue_depth: int = 10_000,
                 flush_history: int = 0,
                 record: str | os.PathLike | None = None) -> None:
        if max_batch_size < 1:
            raise ParameterError(
                f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_queue_depth < max_batch_size:
            raise ParameterError(
                f"max_queue_depth ({max_queue_depth}) must be >= "
                f"max_batch_size ({max_batch_size})")
        if flush_history < 0:
            raise ParameterError(
                f"flush_history must be >= 0, got {flush_history}")
        self.max_batch_size = max_batch_size
        self.max_queue_depth = max_queue_depth
        self._recorder: QueryRecorder | None = \
            QueryRecorder(record) if record is not None else None
        self._flush_count = 0
        self._backend = ThreadBackend()
        self._history: deque[FlushRecord] | None = \
            deque(maxlen=flush_history) if flush_history else None

        # One lock guards the queue, the flusher role, ticket states
        # and the flush history; its condition is notified whenever
        # tickets complete or the flusher role is released.
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._pending: list[CostTicket] = []
        #: ``threading.get_ident()`` of the thread holding the flusher
        #: role, or ``None``.
        self._flusher: int | None = None
        self._closing = False

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Stop accepting, price every pending request (idempotent).

        Flushes on the calling thread, waiting out another thread's
        flush, and closes the recorder once the queue is empty.
        """
        self._refuse_reentry("close the scheduler")
        with self._cond:
            self._closing = True
            self._cond.notify_all()  # blocked submitters now refuse
        while True:
            self._flush_all()
            with self._cond:
                if not self._pending and self._flusher is None:
                    break
                if self._flusher is not None:
                    self._cond.wait()
        if self._recorder is not None:
            # After the drain: every pending flush has been recorded.
            self._recorder.close()

    def __enter__(self) -> "MicroBatchScheduler":
        return self

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
        with self._lock:
            return list(self._history)

    @property
    def recorder(self) -> QueryRecorder | None:
        """The attached traffic recorder (``None`` unless ``record=``)."""
        return self._recorder

    # -- submission ------------------------------------------------------

    def submit(self, query: CostQuery, *,
               timeout: float | None = None) -> CostTicket:
        """Enqueue one query; returns its :class:`CostTicket`.

        Nothing is priced until someone drives the scheduler (see
        :meth:`flush_once`).  When the queue is full, ``timeout=0``
        raises :class:`~repro.errors.BackpressureError` at once;
        otherwise the call flushes on this thread to make room,
        waiting out another thread's flush for up to ``timeout``
        seconds (forever with ``None``).  Raises
        :class:`~repro.errors.ServiceClosedError` after :meth:`close`.
        """
        return self._submit_all((query,), timeout)[0]

    def submit_many(self, queries: Iterable[CostQuery], *,
                    timeout: float | None = None) -> list[CostTicket]:
        """Enqueue many queries under one lock while they fit.

        The bulk analog of :meth:`submit` — the fast path for
        sweep-shaped callers.  Queries are enqueued in order; if the
        queue fills mid-way the call makes room like :meth:`submit`,
        so a partial enqueue only remains on timeout, in which case
        the raised :class:`~repro.errors.BackpressureError` carries
        the already issued tickets in its ``tickets`` attribute.
        """
        return self._submit_all(tuple(queries), timeout)

    def _submit_all(self, queries: Sequence[CostQuery],
                    timeout: float | None) -> list[CostTicket]:
        obs_on = _obs_enabled()
        t_submit = time.perf_counter() \
            if (obs_on or self._recorder is not None) else 0.0
        tickets: list[CostTicket] = []
        deadline = None if timeout is None else time.monotonic() + timeout
        i = 0
        while True:
            with self._cond:
                if self._closing:
                    raise ServiceClosedError(
                        "scheduler is closed to new queries")
                free = max(0, self.max_queue_depth - len(self._pending))
                for query in queries[i:i + free]:
                    ticket = CostTicket(query, self, t_submit)
                    self._pending.append(ticket)
                    tickets.append(ticket)
                i = len(tickets)
                if i == len(queries):
                    break
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    exc = BackpressureError(
                        f"queue full ({self.max_queue_depth} pending); "
                        f"enqueued {i} of {len(queries)} queries")
                    exc.tickets = tickets
                    exc.queue_depth = len(self._pending)
                    raise exc
                if self._flusher is not None \
                        and self._flusher != threading.get_ident():
                    # Another thread is draining: wait for it to let go.
                    self._cond.wait(remaining)
                    continue
            self._refuse_reentry("submit into a full queue")
            self._flush_all()  # make room on this thread
        if obs_on:
            _metrics.inc("serve.requests", len(tickets))
            _metrics.set_gauge("serve.queue.depth", len(self._pending))
        return tickets

    # -- flushing --------------------------------------------------------

    def flush_once(self) -> bool:
        """Price one ``max_batch_size`` slice of the queue on this thread.

        Returns ``True`` when this call priced a slice and requests
        remain pending, so the caller should call again (the event
        loop reschedules; a synchronous caller loops).  Returns
        ``False`` when the queue is empty, or at once when another
        thread holds the flusher role: that thread sees every request
        still pending before it lets go, because the role is released
        under the same lock as the emptiness check.
        """
        with self._lock:
            if self._flusher is not None or not self._pending:
                return False
            self._flusher = threading.get_ident()
            drained = self._pending[:self.max_batch_size]
            del self._pending[:self.max_batch_size]
        try:
            self._flush(drained)
        finally:
            with self._cond:
                self._flusher = None
                more = bool(self._pending)
                self._cond.notify_all()
        return more

    def _flush_all(self) -> None:
        # The synchronous drivers' loop: price until the queue is empty
        # or another thread holds the role (it then empties the queue).
        while self.flush_once():
            pass

    def _refuse_reentry(self, what: str) -> None:
        # A done-callback runs inside a flush on the flushing thread;
        # waiting there for another flush would wait for itself.
        if self._flusher == threading.get_ident():
            raise ServiceError(
                f"cannot {what} from inside a flush (a ticket "
                f"done-callback); it would wait on itself")

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
                try:
                    result = backend.run_group(group.exemplar,
                                               group.points)
                except BaseException as exc:  # propagate to the waiters
                    if isinstance(exc, Exception) and len(group.points) > 1:
                        self._run_pointwise(group)
                    else:
                        self._complete(group.members, None, exc)
                else:
                    self._complete(group.members, result, None)
                if recorder is not None:
                    sig_key = signature_key(sig)
                    for ticket in group.members:
                        exc = ticket._exc
                        record_entries.append(
                            (ticket._t_submit, ticket.query, sig_key,
                             backend.name,
                             ticket._group.cost(ticket._slot)
                             if exc is None else None,
                             None if exc is None else type(exc).__name__))
            sp.annotate(flush_id=flush_id)
        if recorder is not None:
            recorder.record_flush(flush_id, record_entries)
        if history:
            assert self._history is not None
            record = FlushRecord(
                requests=len(tickets), unique=unique, groups=len(groups),
                duration_s=time.perf_counter() - t0, flush_id=flush_id)
            with self._lock:
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

    def _run_pointwise(self, group: _Group) -> None:
        # The group raised: price each unique point alone, so a refused
        # point fails only the requests that asked for it and every
        # other request still gets its own cost.
        by_slot: list[list[CostTicket]] = [[] for _ in group.points]
        for ticket in group.members:
            by_slot[ticket._slot].append(ticket)
        for point, members in zip(group.points, by_slot):
            try:
                result = self._backend.run_group(group.exemplar, [point])
            except BaseException as exc:  # propagate to the waiters
                self._complete(members, None, exc)
            else:
                for ticket in members:
                    ticket._slot = 0
                self._complete(members, result, None)

    def _complete(self, tickets: list[CostTicket],
                  result: GroupResult | None,
                  exc: BaseException | None) -> None:
        callbacks: list[tuple[Callable[[CostTicket], None], CostTicket]] = []
        with self._cond:
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
            self._cond.notify_all()
        for fn, ticket in callbacks:
            fn(ticket)

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
3. **Execute** — each group runs on an execution *backend*
   (:mod:`repro.serve.backend`): the thread backend chunks
   :func:`repro.serve.executor.execute_group` across an optional
   thread pool; the process backend packs the group into a
   shared-memory block and prices slices on a persistent process
   pool, sidestepping the GIL for CPU-bound flushes.  ``backend=``
   picks one explicitly, or ``"auto"`` routes each group by size
   (``process_threshold``).  Both reuse the shared
   :class:`~repro.batch.cache.BatchCache` and produce identical bits.
4. **Fan out** — tickets are completed under one condition broadcast
   per flush (no per-request locks on the hot path), and registered
   callbacks (the asyncio bridge) fire after completion.

Backpressure is explicit: the pending queue is bounded by
``max_queue_depth`` and :meth:`submit` either blocks for space (up to
a timeout) or raises :class:`~repro.errors.BackpressureError`
immediately when ``timeout=0`` (the error carries ``queue_depth``).

The tick is fixed by default; with ``adaptive=True`` the scheduler
tracks an EWMA of the arrival rate and of flush occupancy
(:class:`_AdaptiveTick`) and re-sizes the wait window inside
``wait_bounds`` after every flush — tiny waits under bursty load
(batches fill anyway), longer waits when traffic trickles (better
coalescing per flush).

Observability (:mod:`repro.obs`, off by default): a ``serve.flush``
span per flush; counters ``serve.requests`` / ``serve.flushes`` /
``serve.groups`` / ``serve.dedup.duplicates`` / ``serve.chunks`` /
``serve.backend.{thread,process}.groups`` (and ``serve.shm.*`` from
the process backend); gauges ``serve.queue.depth`` and
``serve.adaptive.wait_s``; histograms ``serve.flush.occupancy``,
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
from ..obs.recording import QueryRecorder
from ..obs.state import enabled as _obs_enabled
from .backend import BACKEND_CHOICES, ProcessBackend, ThreadBackend
from .executor import GroupResult
from .query import CostQuery, ServedCost
from .tuning import TuningProfile, signature_key

__all__ = ["CostTicket", "FlushRecord", "GroupRecord",
           "MicroBatchScheduler", "SCHEDULER_BACKEND_CHOICES"]

#: The scheduler accepts the execution backends plus ``"tuned"`` —
#: ``"auto"`` routing driven by a learned per-signature
#: :class:`~repro.serve.tuning.TuningProfile` instead of one global
#: ``process_threshold``.
SCHEDULER_BACKEND_CHOICES = BACKEND_CHOICES + ("tuned",)

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


class GroupRecord(NamedTuple):
    """One signature group's share of a flush (telemetry detail).

    ``sig_key`` is the :func:`~repro.serve.tuning.signature_key`
    digest that joins this observation against recorded logs and
    tuning profiles; ``points`` counts unique design points,
    ``requests`` the tickets fanned out to; ``backend`` names the
    executing backend and ``duration_s`` covers just its
    ``run_group`` — the raw material
    :func:`repro.replay.tuning.learn_profile` fits thresholds from.
    """

    sig_key: str
    points: int
    requests: int
    backend: str
    duration_s: float


class FlushRecord(NamedTuple):
    """One flush's shape, kept when ``flush_history`` is enabled.

    ``wait_s`` is the tick window that was in force when the flush
    fired (the adaptive tick re-sizes it *after* each flush), and
    ``duration_s`` covers coalescing + execution + fan-out.
    ``flush_id`` numbers flushes from 1 per scheduler;
    ``group_records`` carries the per-signature
    :class:`GroupRecord` detail (both trailing additions, so older
    positional consumers are unaffected).
    """

    requests: int
    unique: int
    groups: int
    wait_s: float
    duration_s: float
    flush_id: int = 0
    group_records: tuple[GroupRecord, ...] = ()


class _AdaptiveTick:
    """EWMA arrival-rate / occupancy tracker that sizes the tick.

    The wait window targets the time the queue needs to fill one
    batch at the observed rate — ``max_batch_size / rate`` — clamped
    to the configured bounds.  Bursty traffic therefore gets a tiny
    window (batches fill on their own; waiting only adds latency),
    while a trickle gets a long one (the only way those requests ever
    coalesce).  An occupancy EWMA short-circuits the rate estimate:
    when recent flushes run essentially full, the window pins to the
    lower bound regardless of the (noisy) instantaneous rate.

    Updates happen on the flusher thread only, once per flush — no
    locking, no per-request cost.
    """

    __slots__ = ("lo", "hi", "alpha", "batch", "rate", "occupancy",
                 "_t_prev")

    #: EWMA smoothing weight of the newest observation.
    ALPHA = 0.3
    #: Occupancy above which the window pins to the lower bound.
    FULL_OCCUPANCY = 0.9

    def __init__(self, lo: float, hi: float, batch: int) -> None:
        self.lo = lo
        self.hi = hi
        self.alpha = self.ALPHA
        self.batch = batch
        self.rate = 0.0
        self.occupancy = 0.0
        self._t_prev: float | None = None

    def update(self, n_requests: int, now: float) -> float | None:
        """Fold one flush in; return the next wait window (or None).

        ``None`` means "no opinion yet" — the first flush has no
        inter-flush interval to estimate a rate from.
        """
        occ = n_requests / self.batch
        self.occupancy = self.alpha * occ \
            + (1.0 - self.alpha) * self.occupancy
        if self._t_prev is None:
            self._t_prev = now
            return None
        dt = now - self._t_prev
        self._t_prev = now
        if dt <= 0.0:
            return None
        inst = n_requests / dt
        self.rate = inst if self.rate == 0.0 \
            else self.alpha * inst + (1.0 - self.alpha) * self.rate
        if self.occupancy >= self.FULL_OCCUPANCY:
            return self.lo
        if self.rate <= 0.0:
            return self.hi
        return min(self.hi, max(self.lo, self.batch / self.rate))


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
    chunk_size, workers:
        Flushes whose unique-point count exceeds ``chunk_size`` are
        split across ``workers`` execution lanes of the selected
        backend (``workers=1`` on the thread backend executes
        inline).
    backend:
        ``"thread"`` (the in-process chunked path), ``"process"``
        (every group through the shared-memory process pool), or
        ``"auto"`` (default): groups of at least ``process_threshold``
        unique points go to the process pool when ``workers > 1``,
        everything else stays on threads.  Bitwise identical either
        way — see :mod:`repro.serve.backend`.
    process_threshold:
        The ``"auto"`` crossover, in unique points per group.  Below
        it, shared-memory setup costs more than the GIL does.
    adaptive, wait_bounds:
        ``adaptive=True`` re-sizes the tick window after every flush
        within ``wait_bounds = (lo, hi)`` seconds (default
        ``(max_wait_s / 8, max_wait_s * 8)``) from EWMAs of arrival
        rate and flush occupancy; ``adaptive=False`` (default) keeps
        the fixed ``max_wait_s`` tick exactly as before.
    flush_history:
        Keep the last N :class:`FlushRecord` shapes in
        :attr:`recent_flushes` (0 disables; benches, the adaptive
        tests, and the tuning analyzer read them).  With history (or a
        recorder) on, each record carries per-signature
        :class:`GroupRecord` detail.
    record:
        Path of a recorded-traffic JSONL log
        (:mod:`repro.obs.recording`): every completed query is
        appended with its arrival offset, signature key, flush id,
        backend, and served cost.  ``None`` (default) disables
        recording.  The file is appended to and flushed once per
        scheduler flush (crash loses at most the final line).
    profile:
        A :class:`~repro.serve.tuning.TuningProfile` (or a path to one
        saved as JSON).  Required with ``backend="tuned"`` — per-group
        routing then uses the profile's learned per-signature
        ``process_threshold`` and chunk size instead of the global
        knobs — and rejected with any other backend.
    cache:
        The :class:`~repro.batch.cache.BatchCache` shared by every
        flush (and safely by other users — it is thread-safe).
        Defaults to the process-wide cache; pass ``None`` to disable.
        (Process-backend workers memoize in their own per-process
        caches; ``None`` disables those too.)
    """

    def __init__(self, *, max_batch_size: int = 256,
                 max_wait_s: float = 0.002,
                 max_queue_depth: int = 10_000,
                 chunk_size: int = 4096,
                 workers: int = 1,
                 backend: str = "auto",
                 process_threshold: int = 2048,
                 adaptive: bool = False,
                 wait_bounds: tuple[float, float] | None = None,
                 flush_history: int = 0,
                 record: str | os.PathLike | None = None,
                 profile: TuningProfile | str | os.PathLike | None = None,
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
        if chunk_size < 1:
            raise ParameterError(
                f"chunk_size must be >= 1, got {chunk_size}")
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        if process_threshold < 1:
            raise ParameterError(
                f"process_threshold must be >= 1, got {process_threshold}")
        if flush_history < 0:
            raise ParameterError(
                f"flush_history must be >= 0, got {flush_history}")
        if wait_bounds is not None and not adaptive:
            raise ParameterError("wait_bounds requires adaptive=True")
        if backend not in SCHEDULER_BACKEND_CHOICES:
            raise ParameterError(
                f"backend must be one of {SCHEDULER_BACKEND_CHOICES}, "
                f"got {backend!r}")
        if backend == "tuned":
            if profile is None:
                raise ParameterError(
                    "backend='tuned' requires a profile= "
                    "(a TuningProfile or a path to a saved one)")
            if not isinstance(profile, TuningProfile):
                profile = TuningProfile.load(profile)
        elif profile is not None:
            raise ParameterError(
                f"profile= requires backend='tuned', got {backend!r}")
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_s
        self.max_queue_depth = max_queue_depth
        self.chunk_size = chunk_size
        self.workers = workers
        self.backend = backend
        self.process_threshold = process_threshold
        self.adaptive = adaptive
        self.profile: TuningProfile | None = profile
        self._recorder: QueryRecorder | None = \
            QueryRecorder(record) if record is not None else None
        self._flush_count = 0
        self.cache: BatchCache | None = _resolve_cache(cache)

        if adaptive:
            lo, hi = wait_bounds if wait_bounds is not None \
                else (max_wait_s / 8.0, max_wait_s * 8.0)
            if not 0.0 <= lo <= hi:
                raise ParameterError(
                    f"wait_bounds must satisfy 0 <= lo <= hi, "
                    f"got ({lo}, {hi})")
            self.wait_bounds: tuple[float, float] | None = (lo, hi)
            self._tick: _AdaptiveTick | None = _AdaptiveTick(
                lo, hi, max_batch_size)
            self._wait_s = min(hi, max(lo, max_wait_s))
            self._wait_hi = hi
        else:
            self.wait_bounds = None
            self._tick = None
            self._wait_s = max_wait_s
            self._wait_hi = max_wait_s
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
        self._thread_backend: ThreadBackend | None = None
        self._process_backend: ProcessBackend | None = None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "MicroBatchScheduler":
        """Start the flusher thread and backends (idempotent)."""
        with self._lock:
            if self._closing:
                raise ServiceClosedError("scheduler already closed")
            if self._started:
                return self
            self._started = True
        if self.backend != "process":
            self._thread_backend = ThreadBackend(self.workers,
                                                 self.chunk_size)
            self._thread_backend.start()
        if self.backend == "process" or (self.backend in ("auto", "tuned")
                                         and self.workers > 1):
            self._process_backend = ProcessBackend(self.workers,
                                                   self.chunk_size)
            if self.backend == "process":
                # Fork the workers now, from the caller's thread,
                # instead of inside the first flush.  "auto" stays
                # lazy — its pool spins up only if a group ever
                # crosses the size threshold.
                self._process_backend.start()
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
        if self._thread_backend is not None:
            self._thread_backend.close()
            self._thread_backend = None
        if self._process_backend is not None:
            self._process_backend.close()
            self._process_backend = None
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
    def current_wait_s(self) -> float:
        """The tick window currently in force.

        Equals ``max_wait_s`` on a fixed tick; moves inside
        ``wait_bounds`` when ``adaptive=True``.  (Written only by the
        flusher thread; reading races are benign.)
        """
        return self._wait_s

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
                    # Backdate by the *upper* wait bound: the adaptive
                    # tick never grows the window past it, so the
                    # deadline stays expired whatever the tick does.
                    self._oldest_enqueued = now - self._wait_hi
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
                    deadline = self._oldest_enqueued + self._wait_s
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
            t_drain = time.monotonic() if self._tick is not None else 0.0
            self._flush(drained)
            if self._tick is not None:
                # Rate is estimated from drain-to-drain intervals; the
                # re-sized window applies from the *next* tick, so the
                # flush above recorded the wait that produced it.
                want = self._tick.update(len(drained), t_drain)
                if want is not None:
                    self._wait_s = want
                    if _obs_enabled():
                        _metrics.set_gauge("serve.adaptive.wait_s", want)

    def _backend_for(self, n_points: int, sig_key: str | None = None):
        # Explicit "process" routes everything to shared memory; on
        # "auto", only groups big enough to amortize block setup (and
        # only when workers > 1, else the pool cannot help).  "tuned"
        # is "auto" with the threshold looked up per signature in the
        # learned profile.
        process = self._process_backend
        if process is None:
            return self._thread_backend
        if self.backend == "process":
            return process
        threshold = self.process_threshold
        if self.backend == "tuned":
            assert self.profile is not None
            threshold = self.profile.process_threshold_for(sig_key)
        if n_points >= threshold:
            return process
        return self._thread_backend

    def _flush(self, tickets: list[CostTicket]) -> None:
        obs_on = _obs_enabled()
        history = self._history is not None
        recorder = self._recorder
        tuned = self.backend == "tuned"
        # "detail" gates the per-group extras — signature digests and
        # run_group timing — that telemetry and recording consume but
        # plain serving should not pay for.
        detail = history or recorder is not None
        t0 = time.perf_counter() if (obs_on or detail) else 0.0
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
        chunk_total = 0
        backend_groups: dict[str, int] = {}
        group_records: list[GroupRecord] = []
        record_entries: list[tuple] = []
        with _span("serve.flush", requests=len(tickets), unique=unique,
                   groups=len(groups)) as sp:
            for sig, group in groups.items():
                sig_key = signature_key(sig) if (tuned or detail) else None
                backend = self._backend_for(len(group.points), sig_key)
                chunk = self.profile.chunk_size_for(sig_key) \
                    if tuned else None
                if obs_on:
                    chunk_total += backend.n_chunks_for(len(group.points))
                backend_groups[backend.name] = \
                    backend_groups.get(backend.name, 0) + 1
                t_g = time.perf_counter() if detail else 0.0
                error: str | None = None
                try:
                    # Only tuned profiles override chunking; omitting
                    # the kwarg otherwise keeps run_group's plain
                    # three-argument call shape.
                    if chunk is None:
                        result = backend.run_group(
                            group.exemplar, group.points, self.cache)
                    else:
                        result = backend.run_group(
                            group.exemplar, group.points, self.cache,
                            chunk_size=chunk)
                except BaseException as exc:  # propagate to every waiter
                    error = type(exc).__name__
                    result = None
                    self._complete(group.members, None, exc)
                else:
                    self._complete(group.members, result, None)
                if detail:
                    group_records.append(GroupRecord(
                        sig_key=sig_key or "", points=len(group.points),
                        requests=len(group.members), backend=backend.name,
                        duration_s=time.perf_counter() - t_g))
                if recorder is not None:
                    for ticket in group.members:
                        cost = result.cost(ticket._slot) \
                            if result is not None else None
                        record_entries.append(
                            (ticket._t_submit, ticket.query, sig_key or "",
                             backend.name, cost, error))
            sp.annotate(flush_id=flush_id, backends=dict(backend_groups))
        if recorder is not None:
            recorder.record_flush(flush_id, record_entries)
        if history:
            assert self._history is not None
            record = FlushRecord(
                requests=len(tickets), unique=unique, groups=len(groups),
                wait_s=self._wait_s,
                duration_s=time.perf_counter() - t0,
                flush_id=flush_id,
                group_records=tuple(group_records))
            with self._history_lock:
                self._history.append(record)
        if obs_on:
            now = time.perf_counter()
            _metrics.inc("serve.flushes")
            _metrics.inc("serve.groups", len(groups))
            _metrics.inc("serve.dedup.duplicates", len(tickets) - unique)
            _metrics.inc("serve.chunks", chunk_total)
            for name, count in backend_groups.items():
                _metrics.inc(f"serve.backend.{name}.groups", count)
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

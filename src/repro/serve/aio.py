"""asyncio front-end over the same micro-batch scheduler.

:class:`AsyncCostService` gives coroutine code the service's batching
without a second scheduler and without a thread: awaiting tasks submit
into the *same* queue as threads, and the event loop itself prices
them.  The first submit in a loop iteration schedules one
``loop.call_soon`` callback; it runs after the loop has handled every
other ready callback of that iteration, prices one ``max_batch_size``
slice with :meth:`~repro.serve.scheduler.MicroBatchScheduler.flush_once`
and reschedules itself while requests remain.  Concurrent
``await``-ers (and pipelined HTTP requests) therefore coalesce into
one flush per loop iteration, and no callback runs longer than one
slice.  Completions come back to the loop with
``call_soon_threadsafe``, which is also the right hop when a
synchronous thread flushes a scheduler shared through
``AsyncCostService(service=...)``.

Usage::

    from repro.serve import AsyncCostService, FabCostQuery

    async def price_designs(points):
        async with AsyncCostService() as svc:
            return await asyncio.gather(
                *(svc.cost(FabCostQuery(n, lam)) for n, lam in points))

Backpressure in the async world: submits first try without blocking.
When the queue is full, ``timeout=0`` surfaces
:class:`~repro.errors.BackpressureError` at once (the HTTP server's
default); any other timeout makes room by pricing pending work on the
loop, waiting out a synchronous thread's flush for up to ``timeout``.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Callable, Iterable, TypeVar

from ..errors import BackpressureError
from .query import CostQuery, ServedCost
from .scheduler import CostTicket, MicroBatchScheduler
from .service import CostService

__all__ = ["AsyncCostService"]

_T = TypeVar("_T")


class AsyncCostService:
    """Awaitable cost queries over a (possibly shared) scheduler.

    Construct it standalone (keyword arguments go to
    :class:`~repro.serve.scheduler.MicroBatchScheduler`) or wrap an
    existing :class:`~repro.serve.service.CostService` to share one
    queue between sync and async callers::

        svc = CostService(max_batch_size=512)
        async_svc = AsyncCostService(service=svc)

    When wrapping, closing the async facade does *not* close the
    shared service; standalone instances own their scheduler and
    close it.
    """

    def __init__(self, *, service: CostService | None = None,
                 max_batch_size: int = 256,
                 max_queue_depth: int = 10_000,
                 flush_history: int = 0,
                 record: Any = None) -> None:
        if service is not None:
            self.scheduler: MicroBatchScheduler = service.scheduler
            self._owns_scheduler = False
        else:
            self.scheduler = MicroBatchScheduler(
                max_batch_size=max_batch_size,
                max_queue_depth=max_queue_depth,
                flush_history=flush_history, record=record)
            self._owns_scheduler = True
        # The loop whose flush callback is scheduled and has not run.
        self._flush_loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle -------------------------------------------------------

    async def __aenter__(self) -> "AsyncCostService":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    async def close(self) -> None:
        """Close the owned scheduler, pricing what is pending on the
        loop (no-op when wrapping)."""
        if self._owns_scheduler:
            self.scheduler.close()

    # -- flushing on the loop --------------------------------------------

    def _schedule_flush(self, loop: asyncio.AbstractEventLoop) -> None:
        if self._flush_loop is not loop:
            self._flush_loop = loop
            loop.call_soon(self._flush_slice, loop)

    def _flush_slice(self, loop: asyncio.AbstractEventLoop) -> None:
        self._flush_loop = None
        if self.scheduler.flush_once():
            self._schedule_flush(loop)

    def _enqueue(self, loop: asyncio.AbstractEventLoop,
                 submit: Callable[..., _T], queries: Any,
                 timeout: float | None) -> _T:
        try:
            try:
                return submit(queries, timeout=0)
            except BackpressureError as exc:
                if timeout is not None and timeout <= 0:
                    raise
                # Make room on the loop; a bulk submit resumes after
                # the tickets it already issued.
                issued = exc.tickets
                if issued:
                    return issued + submit(queries[len(issued):],
                                           timeout=timeout)
                return submit(queries, timeout=timeout)
        finally:
            # Even a refused submit may have queued part of a bulk.
            self._schedule_flush(loop)

    # -- submission ------------------------------------------------------

    async def submit(self, query: CostQuery, *,
                     timeout: float | None = None
                     ) -> "asyncio.Future[CostTicket]":
        """Enqueue one query; resolves when its flush lands.

        Returns an :class:`asyncio.Future` whose result is the
        completed :class:`~repro.serve.scheduler.CostTicket`.  The
        fast path never blocks the loop; a full queue is handled as
        described in the module docstring, with ``timeout`` as the
        backpressure bound.
        """
        loop = asyncio.get_running_loop()
        ticket = self._enqueue(loop, self.scheduler.submit, query, timeout)
        future: "asyncio.Future[CostTicket]" = loop.create_future()

        def _resolve(done: CostTicket) -> None:
            loop.call_soon_threadsafe(_land, done)

        def _land(done: CostTicket) -> None:
            if future.cancelled():
                return
            exc = done.exception(timeout=0)
            if exc is not None:
                future.set_exception(exc)
            else:
                future.set_result(done)

        ticket.add_done_callback(_resolve)
        return future

    async def evaluate(self, query: CostQuery, *,
                       timeout: float | None = None) -> ServedCost:
        """Await one query's full served breakdown."""
        ticket = await (await self.submit(query, timeout=timeout))
        return ticket.result(timeout=0)

    async def cost(self, query: CostQuery, *,
                   timeout: float | None = None) -> float:
        """Await one query's C_tr in dollars."""
        ticket = await (await self.submit(query, timeout=timeout))
        return ticket.cost(timeout=0)

    async def map(self, queries: Iterable[CostQuery], *,
                  timeout: float | None = None) -> list[ServedCost]:
        """Await a whole sweep, results in submission order."""
        futures = [await self.submit(q, timeout=timeout) for q in queries]
        tickets = await asyncio.gather(*futures)
        return [t.result(timeout=0) for t in tickets]

    # -- bulk submission -------------------------------------------------

    async def submit_bulk(self, queries: Iterable[CostQuery], *,
                          timeout: float | None = None
                          ) -> list[CostTicket]:
        """Bulk-enqueue through the scheduler's coalesced path.

        The async mirror of
        :meth:`~repro.serve.service.CostService.submit_many`: all
        queries enter the queue in one
        :meth:`~repro.serve.scheduler.MicroBatchScheduler.submit_many`
        call — so a bulk request is priced in as few flushes as
        ``max_batch_size`` allows, instead of fanning out per-point
        ``await``\\ s and futures like :meth:`map` does.  Resolves once
        **every** ticket's flush has landed; returns the completed
        tickets in submission order.  Backpressure behaves like
        :meth:`submit`.  A failed flush raises its exception here
        (all-or-nothing, like the sync bulk path's first failing
        ticket).
        """
        queries = list(queries)
        if not queries:
            return []
        loop = asyncio.get_running_loop()
        tickets = self._enqueue(loop, self.scheduler.submit_many, queries,
                                timeout)
        future: "asyncio.Future[None]" = loop.create_future()
        lock = threading.Lock()
        remaining = len(tickets)

        def _resolve(done: CostTicket) -> None:
            # Runs on the flushing thread, or on this one for a ticket
            # that landed before its callback was added.  The request
            # crosses to the loop once: after its last ticket, or at
            # its first failed one.
            nonlocal remaining
            with lock:
                if not remaining:
                    return
                remaining = 0 if done.exception(timeout=0) is not None \
                    else remaining - 1
                if remaining:
                    return
            loop.call_soon_threadsafe(_land, done)

        def _land(done: CostTicket) -> None:
            if future.done():
                return
            exc = done.exception(timeout=0)
            if exc is not None:
                future.set_exception(exc)
            else:
                future.set_result(None)

        for ticket in tickets:
            ticket.add_done_callback(_resolve)
        await future
        return tickets

    async def map_bulk(self, queries: Iterable[CostQuery], *,
                       timeout: float | None = None) -> list[ServedCost]:
        """Bulk :meth:`submit_bulk` + collect: breakdowns in order."""
        tickets = await self.submit_bulk(queries, timeout=timeout)
        return [t.result(timeout=0) for t in tickets]

    async def costs_bulk(self, queries: Iterable[CostQuery], *,
                         timeout: float | None = None) -> list[float]:
        """Like :meth:`map_bulk` but only C_tr dollars per query."""
        tickets = await self.submit_bulk(queries, timeout=timeout)
        return [t.cost(timeout=0) for t in tickets]

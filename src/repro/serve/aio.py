"""asyncio front-end over the same micro-batch scheduler.

:class:`AsyncCostService` gives coroutine code the service's batching
without a second scheduler: awaiting tasks submit into the *same*
queue as threads, their completions are bridged back to the event
loop with ``call_soon_threadsafe``, and concurrent ``await``-ers
coalesce into the same flushes as everyone else.

Usage::

    from repro.serve import AsyncCostService, FabCostQuery

    async def price_designs(points):
        async with AsyncCostService(max_wait_s=0.001) as svc:
            return await asyncio.gather(
                *(svc.cost(FabCostQuery(n, lam)) for n, lam in points))

Backpressure in the async world: submits first try without blocking;
when the queue is full the blocking wait is pushed to the default
executor so the event loop never stalls, and the same
:class:`~repro.errors.BackpressureError` surfaces on timeout.
"""

from __future__ import annotations

import asyncio
import functools
import threading
from typing import Any, Iterable

from ..batch.engine import USE_DEFAULT_CACHE
from ..errors import BackpressureError
from .query import CostQuery, ServedCost
from .scheduler import CostTicket, MicroBatchScheduler
from .service import CostService

__all__ = ["AsyncCostService"]


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
                 max_wait_s: float = 0.002,
                 max_queue_depth: int = 10_000,
                 flush_history: int = 0,
                 record: Any = None,
                 cache: Any = USE_DEFAULT_CACHE) -> None:
        if service is not None:
            self.scheduler: MicroBatchScheduler = service.scheduler
            self._owns_scheduler = False
        else:
            self.scheduler = MicroBatchScheduler(
                max_batch_size=max_batch_size, max_wait_s=max_wait_s,
                max_queue_depth=max_queue_depth,
                flush_history=flush_history, record=record, cache=cache)
            self._owns_scheduler = True

    # -- lifecycle -------------------------------------------------------

    async def __aenter__(self) -> "AsyncCostService":
        self.scheduler.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    async def close(self) -> None:
        """Close the owned scheduler off-loop (no-op when wrapping)."""
        if self._owns_scheduler:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self.scheduler.close)

    # -- submission ------------------------------------------------------

    async def submit(self, query: CostQuery, *,
                     timeout: float | None = None
                     ) -> "asyncio.Future[CostTicket]":
        """Enqueue one query; resolves when its flush lands.

        Returns an :class:`asyncio.Future` whose result is the
        completed :class:`~repro.serve.scheduler.CostTicket`.  The
        fast path never blocks the loop; a full queue falls back to a
        blocking submit in the default executor, honoring ``timeout``
        as the backpressure bound.
        """
        loop = asyncio.get_running_loop()
        try:
            ticket = self.scheduler.submit(query, timeout=0)
        except BackpressureError:
            if timeout is not None and timeout <= 0:
                raise
            ticket = await loop.run_in_executor(
                None, functools.partial(self.scheduler.submit, query,
                                        timeout=timeout))
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
        call — so a bulk request is drained as one pre-coalesced flush
        (no tick wait) instead of fanning out per-point ``await``\\ s
        and futures like :meth:`map` does.  Resolves once **every**
        ticket's flush has landed; returns the completed tickets in
        submission order.  Backpressure behaves like :meth:`submit`:
        the fast path never blocks the loop, a full queue falls back
        to a blocking bulk submit in the default executor, and
        ``timeout <= 0`` surfaces
        :class:`~repro.errors.BackpressureError` immediately.  A
        failed flush raises its exception here (all-or-nothing, like
        the sync bulk path's first failing ticket).
        """
        queries = list(queries)
        if not queries:
            return []
        loop = asyncio.get_running_loop()
        try:
            tickets = self.scheduler.submit_many(queries, timeout=0)
        except BackpressureError:
            if timeout is not None and timeout <= 0:
                raise
            tickets = await loop.run_in_executor(
                None, functools.partial(self.scheduler.submit_many,
                                        queries, timeout=timeout))
        future: "asyncio.Future[None]" = loop.create_future()
        lock = threading.Lock()
        remaining = len(tickets)

        def _resolve(done: CostTicket) -> None:
            # Runs on the flusher thread, or on this one for a ticket
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

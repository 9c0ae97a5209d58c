"""The thread-safe synchronous client over the micro-batch scheduler.

:class:`CostService` is what most callers touch: it owns a
:class:`~repro.serve.scheduler.MicroBatchScheduler`, exposes
submit/wait in a handful of shapes, and cleans up on ``close()`` /
``with``.  Any number of threads may share one service — the
scheduler's queue is the serialization point, and concurrent callers
are exactly what micro-batching feeds on (their queries coalesce into
the same flushes).  No thread runs behind it: a wait on a pending
ticket prices the queue on the waiting thread (or waits while another
thread does), so a lone caller flushes inline.

Usage::

    from repro.serve import CostService, FabCostQuery

    with CostService(max_batch_size=256) as svc:
        one = svc.cost(FabCostQuery(3.1e6, 0.8))        # blocking single
        many = svc.map([FabCostQuery(n, 0.8)            # bulk sweep
                        for n in (1e5, 1e6, 1e7)])
        ticket = svc.submit(FabCostQuery(2e6, 0.6))     # fire, join later
        ...
        later = ticket.result()

For the asyncio shape of the same scheduler see
:class:`repro.serve.aio.AsyncCostService`.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from .query import CostQuery, ServedCost
from .scheduler import CostTicket, MicroBatchScheduler

__all__ = ["CostService"]


class CostService:
    """In-process cost-query service: submit scalars, get batched speed.

    Keyword arguments are forwarded verbatim to
    :class:`~repro.serve.scheduler.MicroBatchScheduler` — see it for
    the tuning surface (``max_batch_size``, ``max_queue_depth``,
    ``flush_history``, ``record``).
    """

    def __init__(self, *, max_batch_size: int = 256,
                 max_queue_depth: int = 10_000,
                 flush_history: int = 0,
                 record: Any = None) -> None:
        self.scheduler = MicroBatchScheduler(
            max_batch_size=max_batch_size,
            max_queue_depth=max_queue_depth,
            flush_history=flush_history, record=record)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Price pending queries and refuse new ones (idempotent)."""
        self.scheduler.close()

    def __enter__(self) -> "CostService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- submission ------------------------------------------------------

    def submit(self, query: CostQuery, *,
               timeout: float | None = None) -> CostTicket:
        """Enqueue one query; returns a ticket to join on later.

        ``timeout`` bounds the wait for *queue space* (backpressure),
        not for the result — see
        :meth:`~repro.serve.scheduler.MicroBatchScheduler.submit`.
        """
        return self.scheduler.submit(query, timeout=timeout)

    def submit_many(self, queries: Iterable[CostQuery], *,
                    timeout: float | None = None) -> list[CostTicket]:
        """Bulk :meth:`submit` under one lock while the queries fit."""
        return self.scheduler.submit_many(queries, timeout=timeout)

    # -- blocking conveniences ------------------------------------------

    def cost(self, query: CostQuery, *,
             timeout: float | None = None) -> float:
        """Submit one query and block for its C_tr in dollars."""
        return self.submit(query).cost(timeout)

    def evaluate(self, query: CostQuery, *,
                 timeout: float | None = None) -> ServedCost:
        """Submit one query and block for its full breakdown."""
        return self.submit(query).result(timeout)

    def map(self, queries: Sequence[CostQuery], *,
            timeout: float | None = None) -> list[ServedCost]:
        """Submit a batch and block for every breakdown, in order.

        The bulk entry point sweeps should use: all queries are
        enqueued before the first wait, so the scheduler sees the
        whole sweep and slices it into maximal flushes.
        """
        tickets = self.submit_many(queries, timeout=timeout)
        return [t.result(timeout) for t in tickets]

    def costs(self, queries: Sequence[CostQuery], *,
              timeout: float | None = None) -> list[float]:
        """Like :meth:`map` but returns only C_tr dollars per query."""
        tickets = self.submit_many(queries, timeout=timeout)
        return [t.cost(timeout) for t in tickets]

    # -- introspection ---------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for a flush."""
        return self.scheduler.queue_depth

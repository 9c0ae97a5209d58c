"""The flush execution seam: price one coalesced group inline.

The scheduler (:mod:`repro.serve.scheduler`) coalesces traffic into
signature groups and prices each one with a single positional call,
:meth:`ThreadBackend.run_group`, on its flusher thread.  The call runs
:func:`~repro.serve.executor.execute_group` inline and shares the
scheduler's :class:`~repro.batch.cache.BatchCache`; results are
bitwise equal to the scalar reference (see
:mod:`repro.serve.executor`).

The class is kept as a named boundary so that external tracing can
time every group the scheduler prices.
"""

from __future__ import annotations

from ..batch.cache import BatchCache
from .executor import GroupResult, execute_group
from .query import CostQuery

__all__ = ["ThreadBackend"]


class ThreadBackend:
    """Prices a coalesced group on the calling thread."""

    name = "thread"

    def run_group(self, exemplar: CostQuery,
                  points: list[tuple[float, float]],
                  cache: BatchCache | None) -> GroupResult:
        """Price one coalesced group (see :func:`execute_group`)."""
        return execute_group(exemplar, points, cache=cache)

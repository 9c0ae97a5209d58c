"""The flush execution seam: price one coalesced group inline.

The scheduler (:mod:`repro.serve.scheduler`) coalesces traffic into
signature groups and prices each one with a single positional call,
:meth:`ThreadBackend.run_group`, on whichever thread holds the flusher
role (the event loop's, or a synchronous caller's).  The call runs
:func:`~repro.serve.executor.execute_group` inline, whose kernels
memoize in the process-wide :func:`~repro.batch.cache.default_cache`;
results are bitwise equal to the scalar reference (see
:mod:`repro.serve.executor`).

The class is kept as a named boundary so that external tracing can
time every group the scheduler prices.
"""

from __future__ import annotations

from .executor import GroupResult, execute_group
from .query import CostQuery

__all__ = ["ThreadBackend"]


class ThreadBackend:
    """Prices a coalesced group on the calling thread."""

    name = "thread"

    def run_group(self, exemplar: CostQuery,
                  points: list[tuple[float, float]]) -> GroupResult:
        """Price one coalesced group (see :func:`execute_group`)."""
        return execute_group(exemplar, points)

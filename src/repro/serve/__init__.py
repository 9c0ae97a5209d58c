"""repro.serve — in-process micro-batching for cost-query traffic.

Design-space explorers built on Maly-style cost models issue floods of
*small independent* queries — one ``(λ, N_tr, fab)`` point at a time.
The vectorized :mod:`repro.batch` engine is 55–300× faster than the
scalar path, but only for callers that hand-assemble arrays.  This
package closes that gap with a service: callers submit scalar queries
from any number of threads or asyncio tasks, and a tick-based
scheduler coalesces them into few large vectorized evaluations.

Pieces:

* :class:`~repro.serve.query.FabCostQuery` /
  :class:`~repro.serve.query.ModelCostQuery` /
  :class:`~repro.serve.query.ChipletCostQuery` — one design point
  plus its model (the chiplet form prices a whole k-die assembly per
  point); :class:`~repro.serve.query.ServedCost` — the scalar
  result, bitwise equal to direct scalar evaluation regardless of how
  the scheduler sliced the traffic (the batch-boundary invariance
  contract, enforced by ``tests/property_based/test_serve_parity.py``).
* :class:`~repro.serve.scheduler.MicroBatchScheduler` — bounded queue
  with explicit backpressure, flush on max-batch-size or max-wait
  (whichever first), signature coalescing + point dedup, inline
  pricing of each group on the flusher thread
  (:class:`~repro.serve.backend.ThreadBackend`, sharing the
  :class:`~repro.batch.cache.BatchCache`), and :mod:`repro.obs`
  spans/metrics per flush.
* :class:`~repro.serve.service.CostService` — the thread-safe
  synchronous client; :class:`~repro.serve.aio.AsyncCostService` —
  the asyncio front-end over the same scheduler.
* :mod:`repro.serve.io` — point-file loading and served-array
  serialization behind ``python -m repro cost --input``.

Traffic recording lives in :mod:`repro.obs.recording` (enabled with
``record=PATH``) and is re-driven by :mod:`repro.replay`.  See
``docs/serving.md`` for scheduler semantics, ``docs/replay.md`` for
the record → replay loop, and
``benchmarks/bench_serve.py`` for the measured throughput win.
"""

from .aio import AsyncCostService
from .backend import ThreadBackend
from .codec import error_body, retry_after_s, status_for
from .executor import GroupResult, execute_group
from .http import (
    CostHttpServer,
    HttpParseError,
    HttpRequest,
    RequestParser,
    ServerThread,
    run_server,
)
from .io import (
    RESULT_FIELDS,
    format_served_csv,
    format_served_json,
    load_points,
    normalize_point,
    served_row,
)
from .query import (
    ChipletCostQuery,
    CostQuery,
    FabCostQuery,
    ModelCostQuery,
    ServedCost,
    scalar_reference_cost,
)
from .scheduler import CostTicket, FlushRecord, MicroBatchScheduler
from .service import CostService

__all__ = [
    "AsyncCostService",
    "ChipletCostQuery",
    "CostHttpServer",
    "CostQuery",
    "CostService",
    "CostTicket",
    "FabCostQuery",
    "FlushRecord",
    "GroupResult",
    "HttpParseError",
    "HttpRequest",
    "MicroBatchScheduler",
    "ModelCostQuery",
    "RequestParser",
    "ServedCost",
    "ServerThread",
    "ThreadBackend",
    "RESULT_FIELDS",
    "error_body",
    "execute_group",
    "format_served_csv",
    "format_served_json",
    "load_points",
    "normalize_point",
    "retry_after_s",
    "run_server",
    "scalar_reference_cost",
    "served_row",
    "status_for",
]

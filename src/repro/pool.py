"""One process pool for tiled sweeps and sharded Monte Carlo lots.

:class:`~repro.batch.sweep.TiledSweepRunner` tiles,
:func:`~repro.yieldsim.parallel.simulate_lot_sharded` shards and
:func:`~repro.yieldsim.spatial.simulate_radial_lot` shards all run
through :func:`run`:

* ``workers <= 1`` runs every task in-process, in order — the
  reference schedule.
* ``workers = k`` submits the tasks to a long-lived
  :class:`~concurrent.futures.ProcessPoolExecutor` of ``k`` processes.
  There is one such pool per worker count per process: created on
  first use, reused by every later call (a sweep and the Monte Carlo
  lot after it run on the same workers), rebuilt when broken, and shut
  down by :func:`shutdown` — :meth:`TiledSweepRunner.close` calls it —
  or at interpreter exit (``concurrent.futures`` joins idle pools
  there).
* A pool that cannot start or run a batch (fork-restricted hosts,
  unpicklable payloads, a worker that died) is shut down and
  forgotten, and that batch runs in-process with one
  :class:`ParallelExecutionWarning`.  Errors raised by the work itself
  still propagate: the in-process retry raises them again.

Every task runs inside the :mod:`repro.obs.capture` bracket — in a
worker, in the fallback and in-process alike — so its spans and metrics
reach the caller's trace the same way however the batch was scheduled.

Each worker starts by telling glibc's allocator to keep the memory a
task frees (:func:`_keep_freed_memory`).  A 65,536-cell sweep tile
allocates and frees ~20 temporaries of 0.5–1 MiB; by default glibc
trims them from the heap top or unmaps them on ``free``, and the next
tile faults the same pages back in: 9–11k minor faults and 20–27 ms of
sys CPU per worker per perfbench ``offline`` job, against ~10 and ~1 ms
with the memory kept (docs/performance.md, "Pool workers keep freed
memory").  Only the pool's own workers change.  ``workers <= 1``, the
in-process fallback and the caller's process keep their allocator as
it is, and so do hosts whose C library has no ``mallopt``.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence

from .obs.capture import absorb, begin_capture, capture_flags, end_capture

__all__ = ["FAULT_ENV", "ParallelExecutionWarning", "run", "shutdown"]

#: Fault-injection hook for the resilience tests
#: (``tests/batch/test_sweep.py``): ``"raise"`` raises in every process;
#: ``"exit:<pid>"`` hard-kills any process *except* ``<pid>`` so the
#: in-process fallback still completes.  The parent reads it and ships
#: it with each task, so a worker started before it was set sees it.
FAULT_ENV = "REPRO_SWEEP_WORKER_FAULT"

#: Failures of the pool itself; anything else a task raises propagates.
_POOL_ERRORS = (OSError, RuntimeError, ImportError, pickle.PicklingError,
                TypeError)

#: glibc ``mallopt`` parameter numbers (``<malloc.h>``).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

#: A worker's requests of at least this many bytes bypass the heap and
#: are mapped and unmapped per call.  A tile's largest temporary is the
#: 1 MiB complex128 buffer of the bitwise ``exp`` (65,536 cells); 2 MiB
#: is the smallest power of two that keeps it, with its chunk header,
#: on the heap.
_WORKER_MMAP_THRESHOLD = 2 << 20

#: Free memory at a worker's heap top beyond this many bytes goes back
#: to the kernel.  A 65,536-cell chiplet tile peaks at ~10 MiB of live
#: temporaries, which fall free together when it returns.  16 MiB is
#: the smallest power of two above that: at 8 MiB every repeat of the
#: tile still faulted ~2.8k pages, and 12 MiB, which faulted none,
#: leaves under 2 MiB to spare.
_WORKER_TRIM_THRESHOLD = 16 << 20

_POOLS: dict[int, ProcessPoolExecutor] = {}
# A forked child (pool workers included) must never drive its parent's
# executors.
os.register_at_fork(after_in_child=_POOLS.clear)


class ParallelExecutionWarning(RuntimeWarning):
    """Process-pool execution failed; the batch ran in-process instead.

    Emitted at most once per :func:`run` call (one Monte Carlo lot, one
    wave of sweep tiles).  The results are unaffected — the in-process
    schedule runs exactly the same tasks.
    """


def _task(fn: Callable, args: tuple, flags: tuple[bool, bool] | None,
          fault: str) -> tuple[Any, dict]:
    # One unit of work, run the same way in a worker and in-process.
    # The bracket opens even with observability off (both flags off),
    # so a worker forked while the parent had it on stays silent.
    if fault == "raise":
        raise RuntimeError("injected sweep worker fault")
    if fault.startswith("exit:") and os.getpid() != int(fault[5:]):
        os._exit(17)
    frame = begin_capture(flags or (False, False))
    try:
        result = fn(*args)
    finally:
        payload = end_capture(frame)
    return result, payload


def _keep_freed_memory() -> None:
    # The pool's worker initializer.  Fixed thresholds also switch off
    # glibc's dynamic mmap threshold, which would otherwise re-tune
    # both from the sizes freed so far.  A raising initializer breaks
    # the pool for every task, so where the process has no C library
    # to load (OSError; TypeError on Windows, which takes no None) or
    # its C library has no mallopt (AttributeError), the allocator is
    # left as it is.
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _WORKER_MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _WORKER_TRIM_THRESHOLD)


def _executor(workers: int) -> ProcessPoolExecutor:
    pool = _POOLS.get(workers)
    if pool is not None and getattr(pool, "_broken", False):
        shutdown(workers)
        pool = None
    if pool is None:
        pool = _POOLS[workers] = ProcessPoolExecutor(
            max_workers=workers, initializer=_keep_freed_memory)
    return pool


def run(fn: Callable, argsets: Sequence[tuple], workers: int) -> list:
    """``[fn(*args) for args in argsets]``, on the pool when ``workers > 1``.

    ``fn`` must be a module-level (picklable) function.  Results come
    back in ``argsets`` order, and each task's spans and metrics are
    absorbed under the caller's current span in the same order.
    """
    flags = capture_flags()
    fault = os.environ.get(FAULT_ENV, "")
    outs = None
    if workers > 1:
        try:
            pool = _executor(workers)
            futures = [pool.submit(_task, fn, args, flags, fault)
                       for args in argsets]
            outs = [f.result() for f in futures]
        except _POOL_ERRORS as exc:
            shutdown(workers)
            warnings.warn(
                f"process-pool execution unavailable ({exc!r}); "
                f"running the same schedule sequentially in-process",
                ParallelExecutionWarning, stacklevel=2)
    if outs is None:
        outs = [_task(fn, args, flags, fault) for args in argsets]
    for _, payload in outs:
        absorb(payload)
    return [result for result, _ in outs]


def shutdown(workers: int | None = None) -> None:
    """Shut down the pool of ``workers`` processes, or every pool.

    Waits for the workers to exit; the next :func:`run` at that count
    starts a fresh pool.  Idempotent.
    """
    for key in list(_POOLS) if workers is None else [workers]:
        pool = _POOLS.pop(key, None)
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

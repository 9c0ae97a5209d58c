"""Keyed memoization for batch sub-results shared across sweeps.

The batch engine's two expensive sub-computations — dies-per-wafer
(eq. 4, a per-row reduction over every die in the batch) and wafer cost
(eq. 3, a transcendental per λ) — recur verbatim: a serve group or an
optimizer scan over the same points needs the same die-count array,
and every tile of a sweep over one λ axis needs the same wafer costs.
:class:`BatchCache` memoizes them under exact keys built from the model
parameters plus the raw bytes of the input arrays, so a hit requires
bit-identical inputs — there is no approximate matching and therefore
no way for the cache to change results.

There is one cache per process, :func:`default_cache`; every kernel
call goes through it.  What bypasses it: a sub-result of more than
:data:`~repro.batch.engine._CACHE_MAX_CELLS` (16,384) cells — the die
counts of a 65,536-cell sweep tile — is computed
without building a key, looking up or storing anything; so are the
groups of at most :data:`~repro.batch.engine.SCALAR_MAX_POINTS` points
that the scalar references price.  A sweep tile still caches its
wafer costs, which the engine prices over the λ axis alone.

Worst-case footprint: an admitted entry holds at most 16,384 float64
or int64 cells, and its key copies at most two input arrays of the
same size, so it pins at most ~384 KiB; the :data:`MAX_ENTRIES` (128)
entries stay below ~48 MiB per process.

Cached arrays are stored (and returned) with ``writeable=False`` so a
consumer cannot corrupt entries in place; callers that need to mutate
must copy.  Eviction is LRU with a bounded entry count, and the cache
is lock-protected so concurrent flushes and sweeps share it safely.
Its traffic is counted by the ``batch.cache.{hits,misses,evictions}``
metrics (:mod:`repro.obs`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

import numpy as np

from ..obs import metrics as _metrics

#: Entries the cache holds before it evicts the least recently used.
MAX_ENTRIES = 128


def array_fingerprint(arr: np.ndarray) -> tuple:
    """An exact, hashable key component for an ndarray's full contents."""
    a = np.ascontiguousarray(arr)
    return (a.shape, a.dtype.str, a.tobytes())


class BatchCache:
    """A bounded, thread-safe, LRU map from exact keys to result arrays.

    The engine only offers it sub-results of at most
    :data:`~repro.batch.engine._CACHE_MAX_CELLS` cells, so its
    :data:`MAX_ENTRIES` entries pin at most ~48 MiB (see the module
    docstring).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()

    def get_or_compute(self, key: Hashable,
                       compute: Callable[[], np.ndarray]) -> np.ndarray:
        """Return the cached array for ``key``, computing it on a miss.

        The computed array is frozen (``writeable=False``) before being
        stored and returned; the same frozen array object is handed to
        every subsequent hit.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                value = self._entries[key]
                _metrics.inc("batch.cache.hits")
                return value
        value = np.asarray(compute())
        value.flags.writeable = False
        evicted = 0
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > MAX_ENTRIES:
                self._entries.popitem(last=False)
                evicted += 1
        _metrics.inc("batch.cache.misses")
        if evicted:
            _metrics.inc("batch.cache.evictions", evicted)
        return value

    def clear(self) -> None:
        """Drop every stored entry (cleared entries are not evictions)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        # Locked: len(OrderedDict) alone is atomic in CPython, but
        # taking the lock keeps the count coherent with a concurrent
        # eviction loop in get_or_compute (and costs nothing off the
        # hot path).
        with self._lock:
            return len(self._entries)


_DEFAULT_CACHE = BatchCache()


def default_cache() -> BatchCache:
    """The process-wide cache every batch kernel memoizes in."""
    return _DEFAULT_CACHE

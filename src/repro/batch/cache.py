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

What bypasses it: a sub-result of more than
:data:`~repro.batch.engine._CACHE_MAX_CELLS` (16,384) cells — the die
counts of a 65,536-cell sweep tile — is computed
without building a key, looking up or storing anything; so are the
groups of at most :data:`~repro.batch.engine.SCALAR_MAX_POINTS` points
that the scalar references price.  A sweep tile still caches its
wafer costs, which the engine prices over the λ axis alone.

Worst-case footprint: an admitted entry holds at most 16,384 float64
or int64 cells, and its key copies at most two input arrays of the
same size, so it pins at most ~384 KiB; the default 128 entries stay
below ~48 MiB per process.

Cached arrays are stored (and returned) with ``writeable=False`` so a
consumer cannot corrupt entries in place; callers that need to mutate
must copy.  Eviction is LRU with a bounded entry count, and the cache
is lock-protected so concurrent sweeps (the ROADMAP's service-style
workloads) can share one instance safely.

``default_cache()`` returns the process-wide instance the engine uses
unless a call site supplies its own (or ``None`` to disable caching).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable

import numpy as np

from ..errors import ParameterError
from ..obs import metrics as _metrics


@dataclass(frozen=True)
class CacheStats:
    """Lifetime traffic counters for one :class:`BatchCache`.

    ``hits``, ``misses`` and ``evictions`` count every lookup/eviction
    since the cache was *constructed* — they are lifetime totals and
    deliberately survive :meth:`BatchCache.clear`, which resets the
    stored entries only.  ``entries`` is the one live quantity: the
    number of arrays currently held.  When metrics are enabled
    (:mod:`repro.obs`), the same traffic also lands on the
    process-wide ``batch.cache.{hits,misses,evictions}`` counters.
    """

    hits: int
    misses: int
    entries: int
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over total lookups (0.0 when the cache is untouched)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def array_fingerprint(arr: np.ndarray) -> tuple:
    """An exact, hashable key component for an ndarray's full contents."""
    a = np.ascontiguousarray(arr)
    return (a.shape, a.dtype.str, a.tobytes())


class BatchCache:
    """A bounded, thread-safe, LRU map from exact keys to result arrays.

    The engine only offers it sub-results of at most
    :data:`~repro.batch.engine._CACHE_MAX_CELLS` cells, so with the
    default ``max_entries=128`` it pins at most ~48 MiB (see the module
    docstring).
    """

    def __init__(self, max_entries: int = 128) -> None:
        if max_entries < 1:
            raise ParameterError(
                f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get_or_compute(self, key: Hashable,
                       compute: Callable[[], np.ndarray]) -> np.ndarray:
        """Return the cached array for ``key``, computing it on a miss.

        The computed array is frozen (``writeable=False``) before being
        stored and returned; the same frozen array object is handed to
        every subsequent hit.
        """
        with self._lock:
            if key in self._entries:
                self._hits += 1
                self._entries.move_to_end(key)
                value = self._entries[key]
                _metrics.inc("batch.cache.hits")
                return value
        value = np.asarray(compute())
        value.flags.writeable = False
        evicted = 0
        with self._lock:
            self._misses += 1
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1
                evicted += 1
        _metrics.inc("batch.cache.misses")
        if evicted:
            _metrics.inc("batch.cache.evictions", evicted)
        return value

    def clear(self) -> None:
        """Drop every stored entry; lifetime counters are preserved.

        Only the *entries* reset — the hit/miss/eviction counters in
        :attr:`stats` keep counting across clears, so a long-lived
        service can clear for memory without losing its traffic
        history.  (Cleared entries do not count as evictions; the
        eviction counter tracks LRU capacity pressure only.)
        """
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        # Locked: len(OrderedDict) alone is atomic in CPython, but
        # taking the lock keeps the count coherent with a concurrent
        # eviction loop in get_or_compute (and costs nothing off the
        # hot path).
        with self._lock:
            return len(self._entries)

    @property
    def stats(self) -> CacheStats:
        """A snapshot: lifetime hit/miss/eviction counters + live entries."""
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses,
                              entries=len(self._entries),
                              evictions=self._evictions)


_DEFAULT_CACHE = BatchCache()


def default_cache() -> BatchCache:
    """The process-wide cache used by the engine unless told otherwise."""
    return _DEFAULT_CACHE

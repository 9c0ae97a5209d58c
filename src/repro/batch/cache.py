"""Keyed memoization for batch sub-results shared across sweeps.

The batch engine's two expensive sub-computations — dies-per-wafer
(eq. 4, a per-row reduction over every die in the batch) and wafer cost
(eq. 3, a transcendental per λ) — recur verbatim across sweeps: every
Fig.-8 landscape over the same (λ, N_tr) axes needs the same die-count
array, every scenario curve over the same λ grid needs the same wafer
costs.  :class:`BatchCache` memoizes them under exact keys built from
the model parameters plus the raw bytes of the input arrays, so a hit
requires bit-identical inputs — there is no approximate matching and
therefore no way for the cache to change results.

Cached arrays are stored (and returned) with ``writeable=False`` so a
consumer cannot corrupt entries in place; callers that need to mutate
must copy.  Eviction is LRU with a bounded entry count, and the cache
is lock-protected so concurrent sweeps (the ROADMAP's service-style
workloads) can share one instance safely.

``default_cache()`` returns the process-wide instance the engine uses
unless a call site supplies its own (or ``None`` to disable caching).
"""

from __future__ import annotations

import os
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
    """A bounded, thread-safe, LRU map from exact keys to result arrays."""

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

    def prewarm(self, queries) -> int:
        """Replay recorded cost queries into this cache; return uniques.

        ``queries`` is any iterable of
        :class:`repro.serve.query.CostQuery` — typically rebuilt from
        a recorded traffic file (``python -m repro cost --prewarm
        FILE``) — or a path: a recorder JSONL log
        (:mod:`repro.obs.recording`, auto-detected by
        :func:`~repro.obs.recording.is_recorded_log`) loads its
        replayable queries directly, and any other file goes through
        the caller's legacy loader first.  Queries are coalesced
        exactly the way a flush would
        (grouped by signature, deduplicated by point) and priced
        through the serve executor with *this* cache, so the
        expensive memoized sub-results — eq.-(4) die-count arrays,
        eq.-(3) wafer costs — are resident before live traffic
        arrives.  A service whose flushes repeat the recorded grids
        then starts at its steady-state hit rate instead of paying
        the cold-start misses (see ``docs/serving.md``).  Groups of
        at most :data:`~repro.batch.engine.SCALAR_MAX_POINTS` points
        warm nothing: the executor prices them through the scalar
        references, which use no cache.

        Returns the number of unique points evaluated.  The computed
        group results are discarded — only the cache entries matter.
        """
        # Lazy import: repro.serve imports this module at load time.
        from ..serve.executor import execute_group

        if isinstance(queries, (str, os.PathLike)):
            from ..obs.recording import (
                is_recorded_log,
                load_recorded_queries,
            )
            if not is_recorded_log(queries):
                raise ParameterError(
                    f"{queries}: not a recorded-traffic log (for legacy "
                    f"point files, load the queries and pass them in)")
            queries = load_recorded_queries(queries)

        groups: dict[Hashable, tuple[Any, dict]] = {}
        for query in queries:
            sig = query.signature()
            entry = groups.get(sig)
            if entry is None:
                entry = groups[sig] = (query, {})
            entry[1][query.point()] = None
        total = 0
        for exemplar, points in groups.values():
            unique = list(points)
            execute_group(exemplar, unique, cache=self)
            total += len(unique)
        _metrics.inc("batch.cache.prewarm.points", total)
        return total

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

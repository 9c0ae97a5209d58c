"""Tests for :mod:`repro.batch.cache`.

Every test runs on the process-wide :func:`default_cache`, emptied
before each test (``tests/conftest.py``); its traffic is read from the
``batch.cache.{hits,misses,evictions}`` metrics (``cache_counts``).
"""

import threading

import numpy as np
import pytest

from repro.batch import default_cache
from repro.batch.cache import MAX_ENTRIES, BatchCache, array_fingerprint


def _fill(cache, keys):
    for key in keys:
        cache.get_or_compute(key, lambda: np.array([1.0]))


class TestArrayFingerprint:
    def test_equal_content_equal_key(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([1.0, 2.0, 3.0])
        assert array_fingerprint(a) == array_fingerprint(b)

    def test_shape_distinguishes(self):
        a = np.arange(6.0)
        assert array_fingerprint(a) != array_fingerprint(a.reshape(2, 3))

    def test_dtype_distinguishes(self):
        a = np.array([1, 2, 3], dtype=np.int64)
        assert array_fingerprint(a) != array_fingerprint(a.astype(float))

    def test_non_contiguous_ok(self):
        a = np.arange(10.0)[::2]
        assert array_fingerprint(a) == array_fingerprint(a.copy())


class TestBatchCache:
    def test_miss_then_hit_returns_same_object(self, cache_counts):
        cache = default_cache()
        calls = []

        def compute():
            calls.append(1)
            return np.array([1.0, 2.0])

        first = cache.get_or_compute("k", compute)
        second = cache.get_or_compute("k", compute)
        assert first is second
        assert len(calls) == 1
        assert (cache_counts("hits"), cache_counts("misses")) == (1, 1)

    def test_cached_arrays_are_read_only(self):
        arr = default_cache().get_or_compute("k", lambda: np.array([1.0]))
        with pytest.raises(ValueError):
            arr[0] = 9.0

    def test_distinct_keys_distinct_entries(self):
        cache = default_cache()
        a = cache.get_or_compute(("x", 1), lambda: np.array([1.0]))
        b = cache.get_or_compute(("x", 2), lambda: np.array([2.0]))
        assert a[0] == 1.0 and b[0] == 2.0
        assert len(cache) == 2

    def test_lru_eviction(self):
        cache = default_cache()
        _fill(cache, range(MAX_ENTRIES))
        _fill(cache, [0])              # refresh key 0
        _fill(cache, ["new"])          # evicts key 1, the oldest
        assert len(cache) == MAX_ENTRIES
        calls = []
        cache.get_or_compute(0, lambda: calls.append(1) or np.array([1.0]))
        assert not calls  # key 0 survived
        cache.get_or_compute(1, lambda: calls.append(1) or np.array([1.0]))
        assert calls  # key 1 was evicted

    def test_clear_keeps_counters(self, cache_counts):
        # clear() drops the entries; the metrics keep their totals.
        cache = default_cache()
        _fill(cache, ["k"])
        cache.clear()
        assert len(cache) == 0
        assert cache_counts("misses") == 1

    def test_evictions_counted_under_lru_pressure(self, cache_counts):
        _fill(default_cache(), range(MAX_ENTRIES + 2))
        assert cache_counts("evictions") == 2
        assert cache_counts("misses") == MAX_ENTRIES + 2

    def test_no_pressure_no_evictions(self, cache_counts):
        _fill(default_cache(), range(MAX_ENTRIES))
        assert cache_counts("evictions") == 0

    def test_clear_is_not_an_eviction(self, cache_counts):
        cache = default_cache()
        _fill(cache, ["a", "b"])
        cache.clear()
        assert cache_counts("evictions") == 0

    def test_evictions_survive_clear(self, cache_counts):
        cache = default_cache()
        _fill(cache, range(MAX_ENTRIES + 1))  # evicts key 0
        cache.clear()
        assert cache_counts("evictions") == 1

    def test_untouched_hit_rate_zero(self, cache_counts):
        # No lookup, no traffic: both counters read 0.
        assert len(default_cache()) == 0
        assert cache_counts("hits") == cache_counts("misses") == 0

    def test_hit_rate_zero_after_clear_without_traffic(self, cache_counts):
        default_cache().clear()
        assert cache_counts("hits") == cache_counts("misses") == 0

    def test_hit_rate_reflects_lifetime_traffic(self, cache_counts):
        _fill(default_cache(), ["k"] * 4)
        hits, misses = cache_counts("hits"), cache_counts("misses")
        assert (hits, misses) == (3, 1)
        assert hits / (hits + misses) == 0.75

    def test_invalid_max_entries(self):
        # The bound is a module constant, not a constructor option.
        assert MAX_ENTRIES == 128
        with pytest.raises(TypeError):
            BatchCache(max_entries=0)

    def test_default_cache_is_singleton(self):
        assert default_cache() is default_cache()


class TestConcurrentAccess:
    """Regression: the one cache shared by concurrent flushes and sweeps.

    Every scheduler flush and every in-process sweep tile of the
    process goes through the same cache, so lookups, insertions,
    evictions and ``len()`` must all stay coherent under contention.
    """

    def test_hammered_cache_stays_consistent(self, cache_counts):
        cache = default_cache()
        n_threads, per_thread = 8, 400
        n_keys = MAX_ENTRIES + 16  # contended + evicting key set
        barrier = threading.Barrier(n_threads)
        errors = []

        def worker(tid):
            try:
                barrier.wait()
                for i in range(per_thread):
                    key = ("k", (i + tid) % n_keys)
                    value = cache.get_or_compute(
                        key, lambda i=i: np.array([float(i % n_keys)]))
                    assert value.shape == (1,)
                    assert not value.flags.writeable
                    len(cache)          # must never race the evictor
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(tid,))
                   for tid in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # Every lookup is either a hit or a miss — none lost to races.
        lookups = cache_counts("hits") + cache_counts("misses")
        assert lookups == n_threads * per_thread
        assert cache_counts("evictions") > 0
        assert len(cache) == MAX_ENTRIES

    def test_concurrent_same_key_returns_equal_arrays(self, cache_counts):
        cache = default_cache()
        results = [None] * 6
        barrier = threading.Barrier(len(results))

        def worker(slot):
            barrier.wait()
            results[slot] = cache.get_or_compute(
                "shared", lambda: np.array([42.0]))

        threads = [threading.Thread(target=worker, args=(slot,))
                   for slot in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(np.array_equal(r, np.array([42.0])) for r in results)
        assert cache_counts("hits") + cache_counts("misses") == len(results)
        # A same-key race may compute more than once, but the cache
        # must keep exactly one live entry for the key.
        assert len(cache) == 1

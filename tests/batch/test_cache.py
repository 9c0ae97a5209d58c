"""Tests for :mod:`repro.batch.cache`."""

import threading

import numpy as np
import pytest

from repro.batch import BatchCache, default_cache
from repro.batch.cache import array_fingerprint
from repro.errors import ParameterError


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
    def test_miss_then_hit_returns_same_object(self):
        cache = BatchCache()
        calls = []

        def compute():
            calls.append(1)
            return np.array([1.0, 2.0])

        first = cache.get_or_compute("k", compute)
        second = cache.get_or_compute("k", compute)
        assert first is second
        assert len(calls) == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_cached_arrays_are_read_only(self):
        cache = BatchCache()
        arr = cache.get_or_compute("k", lambda: np.array([1.0]))
        with pytest.raises(ValueError):
            arr[0] = 9.0

    def test_distinct_keys_distinct_entries(self):
        cache = BatchCache()
        a = cache.get_or_compute(("x", 1), lambda: np.array([1.0]))
        b = cache.get_or_compute(("x", 2), lambda: np.array([2.0]))
        assert a[0] == 1.0 and b[0] == 2.0
        assert len(cache) == 2

    def test_lru_eviction(self):
        cache = BatchCache(max_entries=2)
        cache.get_or_compute("a", lambda: np.array([1.0]))
        cache.get_or_compute("b", lambda: np.array([2.0]))
        cache.get_or_compute("a", lambda: np.array([1.0]))  # refresh "a"
        cache.get_or_compute("c", lambda: np.array([3.0]))  # evicts "b"
        calls = []
        cache.get_or_compute("a", lambda: calls.append(1) or np.array([1.0]))
        assert not calls  # "a" survived
        cache.get_or_compute("b", lambda: calls.append(1) or np.array([2.0]))
        assert calls  # "b" was evicted

    def test_clear_keeps_counters(self):
        cache = BatchCache()
        cache.get_or_compute("k", lambda: np.array([1.0]))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.misses == 1

    def test_evictions_counted_under_lru_pressure(self):
        cache = BatchCache(max_entries=2)
        for key in ("a", "b", "c", "d"):
            cache.get_or_compute(key, lambda: np.array([1.0]))
        assert cache.stats.evictions == 2
        assert cache.stats.misses == 4

    def test_no_pressure_no_evictions(self):
        cache = BatchCache(max_entries=8)
        for key in ("a", "b", "c"):
            cache.get_or_compute(key, lambda: np.array([1.0]))
        assert cache.stats.evictions == 0

    def test_clear_is_not_an_eviction(self):
        cache = BatchCache(max_entries=2)
        cache.get_or_compute("a", lambda: np.array([1.0]))
        cache.get_or_compute("b", lambda: np.array([2.0]))
        cache.clear()
        assert cache.stats.evictions == 0

    def test_evictions_survive_clear(self):
        cache = BatchCache(max_entries=1)
        cache.get_or_compute("a", lambda: np.array([1.0]))
        cache.get_or_compute("b", lambda: np.array([2.0]))  # evicts "a"
        cache.clear()
        assert cache.stats.evictions == 1

    def test_untouched_hit_rate_zero(self):
        # Regression pin: hits + misses == 0 must yield 0.0, not a
        # ZeroDivisionError — a service polls stats before traffic.
        assert BatchCache().stats.hit_rate == 0.0

    def test_hit_rate_zero_after_clear_without_traffic(self):
        cache = BatchCache()
        cache.clear()
        assert cache.stats.hit_rate == 0.0

    def test_hit_rate_reflects_lifetime_traffic(self):
        cache = BatchCache()
        cache.get_or_compute("k", lambda: np.array([1.0]))
        for _ in range(3):
            cache.get_or_compute("k", lambda: np.array([1.0]))
        assert cache.stats.hit_rate == 0.75

    def test_invalid_max_entries(self):
        with pytest.raises(ParameterError):
            BatchCache(max_entries=0)

    def test_default_cache_is_singleton(self):
        assert default_cache() is default_cache()


class TestConcurrentAccess:
    """Regression: one BatchCache shared by concurrent sweeps.

    The serve scheduler hands the same cache to every flush (and a
    worker pool may hit it from several threads at once), so lookups,
    insertions, evictions, ``len()`` and ``stats`` must all stay
    coherent under contention.
    """

    def test_hammered_cache_stays_consistent(self):
        cache = BatchCache(max_entries=16)
        n_threads, per_thread = 8, 200
        barrier = threading.Barrier(n_threads)
        errors = []

        def worker(tid):
            try:
                barrier.wait()
                for i in range(per_thread):
                    key = ("k", i % 24)  # contended + evicting key set
                    value = cache.get_or_compute(
                        key, lambda i=i: np.array([float(i % 24)]))
                    assert value.shape == (1,)
                    assert not value.flags.writeable
                    len(cache)          # must never race the evictor
                    cache.stats         # snapshot under contention
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(tid,))
                   for tid in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cache.stats
        # Every lookup is either a hit or a miss — none lost to races.
        assert stats.hits + stats.misses == n_threads * per_thread
        assert stats.entries == len(cache) <= 16

    def test_concurrent_same_key_returns_equal_arrays(self):
        cache = BatchCache()
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
        stats = cache.stats
        assert stats.hits + stats.misses == len(results)
        # A same-key race may compute more than once, but the cache
        # must keep exactly one live entry for the key.
        assert stats.entries == 1

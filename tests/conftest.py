"""Shared fixtures: a cold batch cache per test, and an
environment-selected sweep worker count.

Every batch kernel memoizes in the one process-wide
:func:`repro.batch.default_cache`, so each test starts with it empty:
a test that counts cache traffic or ``batch.compute.*`` spans must not
see entries an earlier test left behind.

``REPRO_SWEEP_WORKERS`` reruns every test that goes through
:class:`repro.batch.sweep.TiledSweepRunner` at that worker count — the
sweep CI job reruns the whole sweep surface on the process pool, and
the bitwise-parity assertions must keep holding (the same idiom as
``REPRO_TEST_WORKERS`` for the Monte Carlo shards).  The injection uses
``setdefault``: tests that pin ``workers=`` explicitly keep their
pinned value.
"""

import os

import pytest

_SWEEP_WORKERS = os.environ.get("REPRO_SWEEP_WORKERS")


@pytest.fixture(autouse=True)
def _cold_batch_cache():
    from repro.batch import default_cache
    default_cache().clear()


@pytest.fixture
def cache_counts():
    """Metrics on, on a clean registry, for one test;
    ``cache_counts(name)`` reads the ``batch.cache.<name>`` counter."""
    from repro import obs
    from repro.obs.state import STATE
    prev = (STATE.tracing, STATE.metrics)
    obs.metrics.reset()
    obs.enable(trace=False, metrics=True)
    yield lambda name: obs.metrics.counter(f"batch.cache.{name}").value
    STATE.tracing, STATE.metrics = prev
    obs.metrics.reset()


@pytest.fixture(autouse=True, scope="session")
def _sweep_workers_from_env():
    if not _SWEEP_WORKERS:
        yield
        return
    from repro.batch.sweep import TiledSweepRunner

    original = TiledSweepRunner.__init__

    def injected(self, **kwargs):
        kwargs.setdefault("workers", int(_SWEEP_WORKERS))
        original(self, **kwargs)

    TiledSweepRunner.__init__ = injected
    try:
        yield
    finally:
        TiledSweepRunner.__init__ = original

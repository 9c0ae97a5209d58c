"""Shared fixtures: environment-selected sweep worker count.

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

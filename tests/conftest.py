"""Shared fixtures: environment-selected sweep backend matrix.

``REPRO_SWEEP_BACKEND``/``REPRO_SWEEP_WORKERS`` rerun every test that
goes through :class:`repro.batch.sweep.TiledSweepRunner` on the chosen
backend — the sweep CI job reruns the whole sweep surface on the shm
process pool, and the bitwise-parity assertions must keep holding
(the same idiom as ``REPRO_TEST_WORKERS`` for the Monte Carlo
shards).  The injection uses ``setdefault``: tests that pin
``backend=``/``workers=`` explicitly keep their pinned values.
"""

import os

import pytest

_SWEEP_BACKEND = os.environ.get("REPRO_SWEEP_BACKEND")
_SWEEP_WORKERS = os.environ.get("REPRO_SWEEP_WORKERS")


@pytest.fixture(autouse=True, scope="session")
def _sweep_backend_from_env():
    if not (_SWEEP_BACKEND or _SWEEP_WORKERS):
        yield
        return
    from repro.batch.sweep import TiledSweepRunner

    original = TiledSweepRunner.__init__

    def injected(self, **kwargs):
        if _SWEEP_BACKEND:
            kwargs.setdefault("backend", _SWEEP_BACKEND)
        if _SWEEP_WORKERS:
            kwargs.setdefault("workers", int(_SWEEP_WORKERS))
        original(self, **kwargs)

    TiledSweepRunner.__init__ = injected
    try:
        yield
    finally:
        TiledSweepRunner.__init__ = original

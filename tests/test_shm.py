"""repro.shm: import surface + the vanished-name unlink contract.

The creation/visibility/lifecycle basics live in
``tests/serve/test_shm.py``.  This module covers:

* a round trip through the ``repro.shm`` home;
* an owner whose segment name vanished out from under it (external
  ``/dev/shm`` sweep, racing second release) swallows the missing name
  exactly once **and** drops the stale resource-tracker registration,
  so interpreter shutdown stays silent — no KeyError traceback from
  the tracker process, no "leaked shared_memory objects" warning.
"""

import subprocess
import sys

import numpy as np

from repro.shm import ShmBlock


class TestPromotion:
    def test_canonical_home_round_trip(self):
        block = ShmBlock.create(2, 3)
        try:
            block.array[:] = np.arange(6.0).reshape(2, 3)
            other = ShmBlock.attach(block.name, 2, 3)
            assert other.array[1, 2] == 5.0
            other.close()
        finally:
            block.release()


class TestVanishedName:
    def test_unlink_survives_externally_removed_segment(self):
        # Simulate an external cleanup (cron sweep of /dev/shm, a
        # foreign process calling shm_unlink): the name is gone before
        # the owner unlinks, and nothing told the owner's resource
        # tracker.  The owner must swallow it — once.
        from multiprocessing.shared_memory import _posixshmem
        block = ShmBlock.create(2, 2)
        _posixshmem.shm_unlink(block.shm._name)  # the "external" removal
        block.release()  # FileNotFoundError swallowed here
        block.unlink()  # latch: second call is a pure no-op
        assert block._unlinked

    def test_shutdown_is_silent_after_vanished_name(self):
        # The regression proper: without the tracker unregister in
        # ShmBlock.unlink, the resource tracker still holds the stale
        # name and errors at interpreter shutdown trying to clean it.
        # Run the whole lifecycle in a fresh interpreter and require a
        # clean exit with empty stderr.
        code = "\n".join([
            "from multiprocessing.shared_memory import _posixshmem",
            "from repro.shm import ShmBlock",
            "block = ShmBlock.create(4, 4)",
            "_posixshmem.shm_unlink(block.shm._name)",
            "block.release()",
            "block.unlink()",
        ])
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip() == "", proc.stderr

    def test_owner_shutdown_silent_with_worker_attachments(self):
        # Attach-and-close from a second mapping must not strip the
        # owner's tracker registration (the set-semantics trap): the
        # owner's later unlink still finds its registration and the
        # tracker never warns.
        code = "\n".join([
            "from repro.shm import ShmBlock",
            "block = ShmBlock.create(4, 4)",
            "for _ in range(3):",
            "    m = ShmBlock.attach(block.name, 4, 4)",
            "    m.close()",
            "block.release()",
        ])
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip() == "", proc.stderr

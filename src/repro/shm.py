"""Named shared-memory float64 matrices for cross-process work.

The tiled sweep engine (:mod:`repro.batch.sweep`) moves bulk float64
payloads between a parent and pool workers through a single
:class:`multiprocessing.shared_memory.SharedMemory` segment viewed as
a ``(rows, cols)`` matrix: it packs a whole (rows-axis, cols-axis,
result-grid) landscape into one block, workers map the *same* segment
by name and write their tile slabs in place.  Zero per-point data is
pickled in either direction.

Everything in the matrix is float64 on purpose: the eq.-(4) die counts
are integers far below 2⁵³ (a wafer physically bounds them), so the
int64→float64→int64 round trip is exact, and feasibility masks
round-trip as 0.0/1.0.  That keeps the segment a single homogeneous
block with trivial slicing arithmetic.

Lifecycle contract (enforced by ``tests/test_shm.py`` and
``tests/serve/test_shm.py``):

* the **parent** :meth:`ShmBlock.create`\\ s a block and must
  :meth:`unlink` it when the work completes, fails, or the owner
  closes — creation registers the segment with the resource tracker,
  so even a crashed parent is eventually cleaned up;
* **workers** :meth:`ShmBlock.attach` by name and only ever
  :meth:`close` their mapping (``track=False`` where the runtime
  supports it; older runtimes auto-register on attach, so the attach
  helper unregisters again — a worker-side tracker must never
  "clean up" a segment the parent still owns);
* :meth:`close` tolerates live NumPy views (a view pins the mapping
  until garbage collection — the *name* is still removed by
  ``unlink``, which is what "no leak" means here);
* :meth:`unlink` is idempotent, and a name that vanished out from
  under the owner (an external sweep, a racing second release) is
  swallowed **and** unregistered from the resource tracker exactly
  once — otherwise the tracker would try to clean the stale name at
  interpreter shutdown and warn about "leaked" segments.
"""

from __future__ import annotations

import threading
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from .errors import ParameterError

__all__ = ["ShmBlock"]

_ITEMSIZE = 8  # float64

_attach_lock = threading.Lock()


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    # Python 3.13+ lets an attaching process opt out of resource
    # tracking.  Older runtimes always register on attach — and since
    # every process funnels into one tracker whose per-type store is a
    # *set*, a worker's register is a no-op (the owner already added
    # the name) but its balancing unregister would strip the *owner's*
    # registration, leaving the tracker to KeyError when the owner
    # unlinks.  So on those runtimes the register call is suppressed
    # outright instead of undone: the attaching side never owns the
    # name; tracking (and unlinking) is the creator's job.
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - depends on runtime version
        with _attach_lock:
            original = resource_tracker.register
            resource_tracker.register = lambda *args, **kwargs: None
            try:
                return shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original


class ShmBlock:
    """One named shared float64 matrix: parent creates, workers attach."""

    __slots__ = ("shm", "shape", "_owner", "_unlinked")

    def __init__(self, shm: shared_memory.SharedMemory,
                 shape: tuple[int, int], owner: bool) -> None:
        self.shm = shm
        self.shape = shape
        self._owner = owner
        self._unlinked = False

    @classmethod
    def create(cls, rows: int, cols: int) -> "ShmBlock":
        """Allocate a fresh named segment sized for ``rows × cols``."""
        if rows < 1 or cols < 1:
            raise ParameterError(
                f"shared block must be at least 1x1, got {rows}x{cols}")
        shm = shared_memory.SharedMemory(
            create=True, size=_ITEMSIZE * rows * cols)
        return cls(shm, (rows, cols), owner=True)

    @classmethod
    def attach(cls, name: str, rows: int, cols: int) -> "ShmBlock":
        """Map an existing segment by name (worker side, never unlinks)."""
        return cls(_attach_untracked(name), (rows, cols), owner=False)

    @property
    def name(self) -> str:
        """The segment's system-wide name (ship this to workers)."""
        return self.shm.name

    @property
    def array(self) -> np.ndarray:
        """A fresh ``(rows, cols)`` float64 view of the whole segment.

        Views alias the shared buffer directly — writes are visible to
        every process mapping the block.  Drop all views before
        :meth:`close` where possible; a surviving view merely delays
        the unmap until garbage collection (see :meth:`close`).
        """
        return np.ndarray(self.shape, dtype=np.float64, buffer=self.shm.buf)

    def close(self) -> None:
        """Unmap this process's view of the segment.

        A NumPy view still referencing the buffer raises
        ``BufferError`` inside ``mmap.close``; that is tolerated here —
        the mapping is then released when the view is collected, and
        the segment *name* is governed by :meth:`unlink` regardless.
        """
        try:
            self.shm.close()
        except BufferError:
            pass

    def unlink(self) -> None:
        """Remove the segment name system-wide (owner only, idempotent).

        After unlink, :meth:`attach` with this name raises
        ``FileNotFoundError`` — the assertion the leak tests use.

        If the name already vanished (removed externally, or by a
        racing second release), ``SharedMemory.unlink`` raises
        *before* it can unregister the segment from the resource
        tracker; that registration is dropped here instead, so the
        tracker does not warn about (and try to re-remove) the stale
        name at interpreter shutdown.  The ``_unlinked`` latch makes
        any further unlink a pure no-op — each block swallows the
        missing-name case exactly once.
        """
        if not self._owner or self._unlinked:
            return
        self._unlinked = True
        try:
            self.shm.unlink()
        except FileNotFoundError:
            try:
                resource_tracker.unregister(self.shm._name, "shared_memory")
            except Exception:
                pass

    def release(self) -> None:
        """Owner teardown: :meth:`close` then :meth:`unlink`."""
        self.close()
        self.unlink()

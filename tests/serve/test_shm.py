"""ShmBlock: creation, cross-mapping visibility, and the unlink contract."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.shm import ShmBlock


class TestCreation:
    def test_create_shapes_and_zeroes(self):
        block = ShmBlock.create(8, 16)
        try:
            assert block.shape == (8, 16)
            assert block.shm.size >= 8 * 16 * 8
            arr = block.array
            assert arr.dtype == np.float64
            assert arr.shape == (8, 16)
            assert np.all(arr == 0.0)
            del arr
        finally:
            block.release()

    @pytest.mark.parametrize("rows,cols", [(0, 4), (4, 0), (-1, 2), (2, -3)])
    def test_degenerate_shapes_rejected(self, rows, cols):
        with pytest.raises(ParameterError):
            ShmBlock.create(rows, cols)


class TestVisibility:
    def test_writes_visible_through_second_mapping(self):
        block = ShmBlock.create(3, 5)
        try:
            block.array[1, :] = np.arange(5.0)
            other = ShmBlock.attach(block.name, 3, 5)
            view = other.array
            assert view[1].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
            # ...and the reverse direction: attached writes reach the owner.
            view[2, 0] = 42.0
            del view
            other.close()
            assert block.array[2, 0] == 42.0
        finally:
            block.release()

    def test_int_counts_round_trip_exactly(self):
        # Die counts ride float64 rows; integers below 2**53 are exact.
        counts = np.array([0, 1, 2**40, 2**53 - 1], dtype=np.int64)
        block = ShmBlock.create(1, 4)
        try:
            block.array[0, :] = counts
            back = block.array[0, :].astype(np.int64)
            assert (back == counts).all()
        finally:
            block.release()


class TestLifecycle:
    def test_unlink_removes_the_name(self):
        block = ShmBlock.create(2, 2)
        name = block.name
        block.release()
        with pytest.raises(FileNotFoundError):
            ShmBlock.attach(name, 2, 2)

    def test_unlink_is_idempotent(self):
        block = ShmBlock.create(2, 2)
        block.release()
        block.unlink()  # second unlink swallows FileNotFoundError

    def test_attached_mapping_never_unlinks(self):
        block = ShmBlock.create(2, 2)
        try:
            other = ShmBlock.attach(block.name, 2, 2)
            other.unlink()  # non-owner: a no-op
            other.close()
            again = ShmBlock.attach(block.name, 2, 2)  # name still live
            again.close()
        finally:
            block.release()

    def test_close_tolerates_live_views(self):
        block = ShmBlock.create(2, 2)
        view = block.array  # pins the mmap buffer
        block.close()  # BufferError swallowed
        assert view.shape == (2, 2)
        del view
        block.unlink()

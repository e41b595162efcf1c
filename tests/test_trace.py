"""Memory trace container behaviour."""

import numpy as np
import pytest

from repro.mem.trace import Trace


def make_trace(n=10):
    return Trace.from_records([(i * 64, i % 2 == 0, i) for i in range(n)])


def row(t, i):
    return int(t.addresses[i]), bool(t.is_write[i]), int(t.gaps[i])


class TestTrace:
    def test_round_trip_records(self):
        t = make_trace(5)
        assert len(t) == 5
        assert row(t, 3) == (3 * 64, False, 3)

    def test_lines_vectorised(self):
        t = make_trace(5)
        assert np.array_equal(t.lines, np.arange(5, dtype=np.uint64))

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trace(
                np.zeros(3, dtype=np.uint64),
                np.zeros(2, dtype=np.bool_),
                np.zeros(3, dtype=np.uint32),
            )

    def test_dtype_coercion(self):
        t = Trace(
            np.arange(4, dtype=np.int64),
            np.zeros(4, dtype=np.int32),
            np.ones(4, dtype=np.int64),
        )
        assert t.addresses.dtype == np.uint64
        assert t.is_write.dtype == np.bool_
        assert t.gaps.dtype == np.uint32

    def test_concat(self):
        a, b = make_trace(3), make_trace(2)
        c = a.concat(b)
        assert len(c) == 5
        assert row(c, 3) == row(b, 0)

    def test_footprint_lines(self):
        t = Trace.from_records([(line * 64, False, 0) for line in (1, 2, 2, 3, 1)])
        assert t.footprint_lines() == 3

    def test_empty_trace(self):
        t = Trace.from_records([])
        assert len(t) == 0
        assert t.footprint_lines() == 0

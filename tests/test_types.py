"""Unit tests for repro.types: edge packing and TriangleCount."""

import numpy as np
import pytest

from repro.types import (PACKED_DTYPE, VERTEX_DTYPE, TriangleCount,
                         pack_edges, unpack_edges)


class TestPackEdges:
    def test_roundtrip(self):
        u = np.array([0, 5, 123456, 2**31 - 1], dtype=VERTEX_DTYPE)
        v = np.array([7, 0, 654321, 0], dtype=VERTEX_DTYPE)
        f, s = unpack_edges(pack_edges(u, v))
        assert np.array_equal(f, u)
        assert np.array_equal(s, v)

    def test_dtype(self):
        packed = pack_edges(np.array([1], dtype=VERTEX_DTYPE),
                            np.array([2], dtype=VERTEX_DTYPE))
        assert packed.dtype == PACKED_DTYPE

    def test_first_lands_in_low_bits(self):
        """The little-endian struct layout: first endpoint = low word."""
        packed = pack_edges(np.array([3], dtype=VERTEX_DTYPE),
                            np.array([9], dtype=VERTEX_DTYPE))
        assert int(packed[0]) == (9 << 32) | 3

    def test_sort_orders_by_second_then_first(self):
        """The Section III-D2 'slightly different ordering'."""
        u = np.array([5, 1, 3], dtype=VERTEX_DTYPE)
        v = np.array([2, 2, 1], dtype=VERTEX_DTYPE)
        packed = np.sort(pack_edges(u, v))
        f, s = unpack_edges(packed)
        # sorted by (second, first): (3,1), (1,2), (5,2)
        assert list(s) == [1, 2, 2]
        assert list(f) == [3, 1, 5]

    def test_empty(self):
        empty = np.empty(0, dtype=VERTEX_DTYPE)
        packed = pack_edges(empty, empty)
        assert len(packed) == 0
        f, s = unpack_edges(packed)
        assert len(f) == 0 and len(s) == 0


class TestTriangleCount:
    def test_int_conversion(self):
        assert int(TriangleCount(triangles=42)) == 42

    def test_defaults(self):
        tc = TriangleCount(triangles=1)
        assert tc.elapsed_ms == 0.0
        assert tc.breakdown is None

    def test_frozen(self):
        tc = TriangleCount(triangles=1)
        with pytest.raises(AttributeError):
            tc.triangles = 2

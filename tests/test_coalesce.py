"""Unit tests for per-warp transaction coalescing."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.gpusim.coalesce import coalesce


def _w(*ids):
    return np.array(ids, dtype=np.int64)


class TestCoalesce:
    def test_perfectly_coalesced_warp(self):
        """32 consecutive 4-byte reads = one 128-byte transaction."""
        addrs = np.arange(32, dtype=np.int64) * 4
        batch = coalesce(np.zeros(32, np.int64), addrs, 128)
        assert batch.transactions == 1
        assert batch.coalescing_ratio == 32.0

    def test_fully_scattered_warp(self):
        addrs = np.arange(32, dtype=np.int64) * 128
        batch = coalesce(np.zeros(32, np.int64), addrs, 128)
        assert batch.transactions == 32
        assert batch.coalescing_ratio == 1.0

    def test_warps_do_not_share_transactions(self):
        """Same line touched by two warps = two transactions."""
        batch = coalesce(_w(0, 1), np.array([0, 0], np.int64), 128)
        assert batch.transactions == 2

    def test_line_alignment(self):
        # offsets 120 and 130 straddle a 128-byte boundary -> 2 lines
        batch = coalesce(_w(0, 0), np.array([120, 130], np.int64), 128)
        assert batch.transactions == 2
        assert set(batch.line_addrs.tolist()) == {0, 128}

    def test_sector_granularity(self):
        # same two addresses at 32-byte granularity -> sectors 3 and 4
        batch = coalesce(_w(0, 0), np.array([120, 130], np.int64), 32)
        assert set(batch.line_addrs.tolist()) == {96, 128}

    def test_empty(self):
        batch = coalesce(_w(), np.array([], np.int64), 128)
        assert batch.transactions == 0
        assert batch.coalescing_ratio == 0.0

    def test_warp_ids_preserved(self):
        batch = coalesce(_w(3, 3, 7), np.array([0, 4, 0], np.int64), 128)
        assert sorted(batch.warp_ids.tolist()) == [3, 7]
        assert batch.lane_requests == 3

    def test_no_aliasing_at_huge_addresses(self):
        # With the old fixed ``warp << 44`` packing, (warp=1, granule=0)
        # and (warp=0, granule=2^44) collapsed into one key and one of
        # the two transactions silently vanished.
        addrs = np.array([0, (1 << 44) * 128], np.int64)
        batch = coalesce(_w(1, 0), addrs, 128)
        assert batch.transactions == 2
        pairs = sorted(zip(batch.warp_ids.tolist(),
                           batch.line_addrs.tolist()))
        assert pairs == [(0, (1 << 44) * 128), (1, 0)]

    def test_lexsort_fallback_matches_packed(self):
        # Addresses near the int64 packing bound must take the lexsort
        # path and produce the same multiset a safe packing would.
        rng = np.random.default_rng(7)
        warps = rng.integers(0, 101, size=200).astype(np.int64)
        granules = rng.integers(0, 10, size=200).astype(np.int64)
        # span ~= 2^56, so span * (max warp + 1) overflows the 2^62
        # packing bound while the byte addresses still fit in int64.
        base = (1 << 56) - 16
        big = coalesce(warps, (base + granules) * 128, 128)
        small = coalesce(warps, granules * 128, 128)
        assert big.transactions == small.transactions
        big_pairs = sorted(zip(big.warp_ids.tolist(),
                               (big.line_addrs - base * 128).tolist()))
        small_pairs = sorted(zip(small.warp_ids.tolist(),
                                 small.line_addrs.tolist()))
        assert big_pairs == small_pairs


def _brute_force(warps, addrs, granule):
    """Sorted distinct ``(warp, line address)`` pairs, one at a time."""
    return sorted({(int(w), int(a) // granule * granule)
                   for w, a in zip(warps, addrs)})


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 5000)),
                min_size=1, max_size=120),
       st.sampled_from([32, 128]),
       st.sampled_from([0, 1 << 40]))
def test_matches_brute_force(lanes, granule, base):
    """Both paths give exactly the sorted distinct (warp, granule)
    pairs: small ids take the packed sort (``base == 0``); with warp ids
    and granules both past 2^32, ``span * warps`` exceeds the 2^62
    packing bound and the lexsort path runs."""
    warps = np.array([w for w, _ in lanes], np.int64) + base
    addrs = np.array([a for _, a in lanes], np.int64) + base
    batch = coalesce(warps, addrs, granule)
    got = list(zip(batch.warp_ids.tolist(), batch.line_addrs.tolist()))
    assert got == _brute_force(warps, addrs, granule)
    assert batch.lane_requests == len(lanes)

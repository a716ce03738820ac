"""Per-warp transaction coalescing, held to a brute-force oracle.

A warp's lanes that touch the same granule share one transaction, so
the engine's transaction count for one call is its number of distinct
(warp, address // granule) pairs.  Each memory method counts at its own
granularity: reads by line with the L1 on and by sector without it,
writes by sector, atomics by word (colliding lanes serialize) with
their L2/DRAM traffic by sector.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.gpusim.device import GTX_980
from repro.gpusim.memory import DeviceMemory
from repro.gpusim.simt import LaunchConfig, SimtEngine
from tests.conftest import forced_transport

#: A synthetic 24-lane part: its warp strides are not powers of two, so
#: the engine divides where the 32-lane part shifts.
_WARP24 = replace(GTX_980, name="warp-24", warp_size=24)

_GEOMETRIES = [
    (GTX_980, LaunchConfig(64, 2)),
    (GTX_980, LaunchConfig(64, 2, simulated_warp_size=4)),
    (_WARP24, LaunchConfig(48, 2)),
    (_WARP24, LaunchConfig(48, 2, simulated_warp_size=6)),
]


def _read_bytes(warps, byte_addrs, use_l1=True):
    """One engine read of the given byte addresses (an int8 buffer at
    device address 0, so an index is a byte address), lane ``i`` issued
    by warp ``warps[i]``.  Returns the engine."""
    warps = np.asarray(warps, np.int64)
    addrs = np.asarray(byte_addrs, np.int64)
    mem = DeviceMemory(GTX_980)
    buf = mem.alloc("x", np.zeros(int(addrs.max(initial=0)) + 1, np.int8))
    assert buf.device_addr == 0
    tids = warps * GTX_980.warp_size + np.arange(len(warps)) % 32
    with forced_transport("inline"):
        eng = SimtEngine(GTX_980, LaunchConfig(64, 2), use_ro_cache=use_l1)
        eng.read_compacted(buf, addrs, tids)
    return eng


def _resident(cache):
    """Byte addresses of the lines a cache level holds."""
    tags = cache._tags
    return {int(t) * cache.line_bytes for t in tags[tags >= 0]}


class TestCoalesce:
    def test_perfectly_coalesced_warp(self):
        """32 consecutive 4-byte reads = one 128-byte transaction."""
        rep = _read_bytes(np.zeros(32), np.arange(32) * 4).report
        assert rep.transactions == 1
        assert rep.lane_reads / rep.transactions == 32.0

    def test_fully_scattered_warp(self):
        rep = _read_bytes(np.zeros(32), np.arange(32) * 128).report
        assert rep.transactions == 32
        assert rep.lane_reads / rep.transactions == 1.0

    def test_warps_do_not_share_transactions(self):
        """Same line touched by two warps = two transactions."""
        assert _read_bytes([0, 1], [0, 0]).report.transactions == 2

    def test_line_alignment(self):
        # offsets 120 and 130 straddle a 128-byte boundary -> 2 lines
        eng = _read_bytes([0, 0], [120, 130])
        assert eng.report.transactions == 2
        assert _resident(eng.l1) == {0, 128}

    def test_sector_granularity(self):
        # without the L1, the same two addresses are sectors 3 and 4:
        # two 32-byte transactions to the L2, which fills lines 0 and 1
        eng = _read_bytes([0, 0], [120, 130], use_l1=False)
        rep = eng.report
        assert rep.transactions == 2
        assert rep.l2_bytes == 2 * GTX_980.sector_bytes
        assert _resident(eng.l2) == {0, 128}
        # 100 and 120 share sector 3
        assert _read_bytes([0, 0], [100, 120],
                           use_l1=False).report.transactions == 1

    def test_empty(self):
        rep = _read_bytes([], []).report
        assert rep.transactions == 0
        assert rep.lane_reads == 0

    def test_warp_ids_preserved(self):
        # warps 3 and 7 run on different SMs (two warps per block,
        # blocks round-robin over SMs), so each transaction misses in
        # its own SM's L1
        rep = _read_bytes([3, 3, 7], [0, 4, 0]).report
        assert rep.transactions == 2
        assert rep.lane_reads == 3
        assert rep.l1_misses == 2


def _brute_force(warps, addrs, granule):
    """Sorted distinct ``(warp, line address)`` pairs, one at a time."""
    return sorted({(int(w), int(a) // granule * granule)
                   for w, a in zip(warps, addrs)})


@settings(max_examples=80, deadline=None)
@given(geometry=st.sampled_from(_GEOMETRIES),
       dtype=st.sampled_from([np.int32, np.int64]),
       n=st.integers(1, 40) | st.integers(1024, 1100),
       stride=st.sampled_from([0, 1, 3, 32]),
       span=st.integers(1, 600),
       seed=st.integers(0, 2**16))
def test_matches_brute_force(geometry, dtype, n, stride, span, seed):
    """``stride == 0`` draws lanes at random from ``span`` slots (small
    spans make lanes collide); otherwise consecutive lanes read
    ``stride`` elements apart from a random start, so runs straddle
    sector and line boundaries.  ``n`` reaches the one-lane and the
    int32-sort paths of ``read_compacted``."""
    device, launch = geometry
    rng = np.random.default_rng(seed)
    num_threads = launch.total_threads(device)
    if stride == 0:
        idx = rng.integers(0, span, n)
        tids = rng.integers(0, num_threads, n)
    else:
        idx = int(rng.integers(0, span)) + stride * np.arange(n)
        tids = (int(rng.integers(0, num_threads)) + np.arange(n)) \
            % num_threads

    mem = DeviceMemory(device)
    mem.alloc_empty("pad", 1, np.int8)      # a nonzero base address
    buf = mem.alloc("x", np.zeros(int(idx.max()) + 1, dtype))
    warp_size = launch.simulated_warp_size or device.warp_size
    warps = tids // warp_size
    addrs = buf.device_addr + idx * buf.itemsize

    def pairs(granule):
        return len(_brute_force(warps, addrs, granule))

    sectors = pairs(device.sector_bytes)
    with forced_transport("inline"):
        for use_l1, granule in ((True, device.line_bytes),
                                (False, device.sector_bytes)):
            eng = SimtEngine(device, launch, use_ro_cache=use_l1)
            eng.read_compacted(buf, idx, tids)
            assert eng.report.lane_reads == n
            assert eng.report.transactions == pairs(granule)

        eng = SimtEngine(device, launch)
        eng.write(buf, idx, np.ones(n, dtype), tids)
        rep = eng.report
        assert rep.transactions == sectors
        assert rep.dram_bytes == sectors * device.sector_bytes

        eng = SimtEngine(device, launch)
        eng.atomic_add(buf, idx, np.ones(n, dtype), tids)
        rep = eng.report
        assert rep.transactions == pairs(buf.itemsize)
        assert rep.l2_bytes == 2 * sectors * device.sector_bytes
        assert rep.dram_bytes == sectors * device.sector_bytes

"""Unit tests for the set-associative LRU cache model."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.gpusim.cache import CacheArray, CacheStats
from repro.gpusim.device import GTX_980
from repro.gpusim.memory import DeviceMemory
from repro.gpusim.simt import LaunchConfig, SimtEngine


def _probe(c, lines, inst=0):
    """Probe ``lines`` of instance ``inst`` as one batch, deduplicated
    the way the engine presents them (distinct lines, ascending; the
    repeats counted as extra hits).  Returns the distinct lines' hits."""
    lines = np.asarray(lines, dtype=np.int64)
    uniq = np.unique(lines)
    return c.probe_unique(uniq % c.sets + inst * c.sets, uniq,
                          extra_hits=len(lines) - len(uniq))


class TestBasics:
    def test_geometry(self):
        c = CacheArray(num_instances=2, capacity_bytes=4096, line_bytes=128,
                       ways=4)
        assert c.sets == 8
        assert c.num_instances == 2

    def test_too_small_rejected(self):
        with pytest.raises(ReproError, match="too small"):
            CacheArray(1, 64, 128, 4)

    def test_instance_count_rejected(self):
        with pytest.raises(ReproError):
            CacheArray(0, 4096, 128, 4)

    def test_cold_miss_then_hit(self):
        c = CacheArray(1, 4096, 128, 4)
        assert not _probe(c, [5])[0]
        assert _probe(c, [5])[0]
        assert c.stats.hits == 1
        assert c.stats.misses == 1

    def test_same_line_different_offsets_hit(self):
        # Byte offsets 1000 and 1004 share a line: the engine maps both
        # to one line id, so the second read is an L1 hit.
        buf = DeviceMemory(GTX_980).alloc("x", np.arange(512, dtype=np.int32))
        eng = SimtEngine(GTX_980, LaunchConfig(64, 1))
        eng.read_compacted(buf, np.array([250]), np.array([0]))
        eng.read_compacted(buf, np.array([251]), np.array([0]))
        assert (eng.report.l1_misses, eng.report.l1_hits) == (1, 1)

    def test_instances_are_independent(self):
        c = CacheArray(2, 4096, 128, 4)
        _probe(c, [5], inst=0)
        assert not _probe(c, [5], inst=1)[0]

    def test_reset(self):
        c = CacheArray(1, 4096, 128, 4)
        _probe(c, [5])
        c.reset()
        assert c.stats.requests == 0
        assert not _probe(c, [5])[0]
        assert c.resident_lines() == 1

    def test_empty_batch(self):
        c = CacheArray(1, 4096, 128, 4)
        assert len(_probe(c, [])) == 0
        assert c.stats.requests == 0


class TestLRU:
    def test_eviction_order(self):
        # 1 set, 2 ways: lines mapping to the same set evict LRU-first.
        c = CacheArray(1, 256, 128, 2)  # sets=1
        _probe(c, [0])                  # miss, insert 0
        _probe(c, [1])                  # miss, insert 1
        _probe(c, [0])                  # hit, 0 becomes MRU
        _probe(c, [2])                  # miss, evicts 1 (LRU)
        assert _probe(c, [0])[0]        # still resident
        assert not _probe(c, [1])[0]    # was evicted

    def test_capacity_working_set_fits(self):
        c = CacheArray(1, 4096, 128, 4)  # 32 lines
        lines = list(range(32))
        _probe(c, lines)
        assert _probe(c, lines).all()

    def test_streaming_never_hits(self):
        c = CacheArray(1, 4096, 128, 4)
        a = _probe(c, range(64))
        b = _probe(c, range(64, 128))
        assert not a.any() and not b.any()


class TestBatchSemantics:
    def test_duplicates_in_batch_count_as_hits(self):
        """MSHR merging: N requests for one missing line = 1 miss + N-1 hits."""
        c = CacheArray(1, 4096, 128, 4)
        assert not _probe(c, [7, 7, 7]).any()
        assert c.stats.misses == 1
        assert c.stats.hits == 2

    def test_same_set_collisions_all_inserted(self):
        c = CacheArray(1, 512, 128, 4)  # 1 set, 4 ways
        assert not _probe(c, [1, 2, 3]).any()
        assert c.resident_lines() == 3
        assert _probe(c, [1, 2, 3]).all()

    def test_more_collisions_than_ways(self):
        c = CacheArray(1, 256, 128, 2)  # 1 set, 2 ways
        _probe(c, [1, 2, 3, 4])
        # only `ways` of them can be resident: the last two inserted
        assert c.resident_lines() == 2
        assert _probe(c, [3, 4]).all()


class TestStats:
    def test_hit_rate(self):
        s = CacheStats(hits=3, misses=1)
        assert s.hit_rate == 0.75
        assert s.requests == 4

    def test_empty_hit_rate(self):
        assert CacheStats().hit_rate == 0.0

    def test_merge(self):
        a = CacheStats(1, 2)
        a.merge(CacheStats(3, 4))
        assert a.hits == 4 and a.misses == 6


class TestPairKeyExactness:
    """Tags keep exact line ids: storage starts at int32 and widens to
    int64 on the first line id above 2^31 - 1, so distinct lines never
    alias."""

    def test_lines_apart_by_2_40_are_distinct(self):
        c = CacheArray(1, 4096, 128, 4)  # 8 sets
        # Same set (lines differ by a multiple of sets=8), line ids
        # differing by exactly 2^40.
        lines = [3, 3 + (1 << 40)]
        assert not _probe(c, lines).any()
        assert c.stats.misses == 2 and c.stats.hits == 0
        # Both lines must actually be resident now.
        assert _probe(c, lines).all()

    def test_huge_line_ids_fall_back_to_exact_path(self):
        # Line ids near 2^57 (int64 tags) must still dedupe and store
        # exactly: distinct lines miss, the repeat is an MSHR hit.
        c = CacheArray(4, 4096, 128, 4)
        base = (1 << 57) + 11
        hits = _probe(c, [base, base + (1 << 40), base, base + 8], inst=2)
        assert not hits.any()
        assert c.stats.misses == 3 and c.stats.hits == 1
        assert _probe(c, [base, base + (1 << 40), base + 8], inst=2).all()

    def test_mixed_instances_same_line(self):
        # The same line on two instances is two distinct pairs.
        c = CacheArray(2, 4096, 128, 4)
        lines = np.array([5, 5], dtype=np.int64)
        hits = c.probe_unique(lines % c.sets + np.array([0, 1]) * c.sets,
                              lines)
        assert not hits.any()
        assert c.resident_lines() == 2

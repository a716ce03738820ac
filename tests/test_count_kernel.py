"""Unit tests for the CountTriangles SIMT kernel."""

import numpy as np
import pytest

from repro.core.count_kernel import count_triangles_kernel
from repro.core.options import GpuOptions
from repro.core.preprocess import preprocess
from repro.errors import ReproError
from repro.graphs.edgearray import EdgeArray
from repro.gpusim.device import GTX_980, NVS_5200M
from repro.gpusim.memory import DeviceMemory
from repro.gpusim.simt import LaunchConfig, SimtEngine
from repro.gpusim.timing import Timeline


def _prep(graph, options=GpuOptions(), device=GTX_980):
    memory = DeviceMemory(device)
    return preprocess(graph, device, memory, Timeline(), options)


def _run(graph, options=GpuOptions(), device=GTX_980, launch=None, **kw):
    pre = _prep(graph, options, device)
    engine = SimtEngine(device, launch or options.launch,
                        use_ro_cache=options.use_readonly_cache)
    return count_triangles_kernel(engine, pre, options, **kw), engine


class TestCorrectness:
    def test_known_counts(self, any_graph, oracle):
        res, _ = _run(any_graph)
        assert res.triangles == oracle(any_graph)

    def test_k12(self, k12):
        res, _ = _run(k12)
        assert res.triangles == 220

    def test_empty_graph(self):
        res, _ = _run(EdgeArray.empty(5))
        assert res.triangles == 0

    def test_preliminary_variant_same_count(self, small_rmat, oracle):
        res, _ = _run(small_rmat,
                      GpuOptions(merge_variant="preliminary"))
        assert res.triangles == oracle(small_rmat)

    def test_aos_same_count(self, small_rmat, oracle):
        res, _ = _run(small_rmat, GpuOptions(unzip=False))
        assert res.triangles == oracle(small_rmat)

    def test_no_readonly_cache_same_count(self, small_ba, oracle):
        res, _ = _run(small_ba, GpuOptions(use_readonly_cache=False))
        assert res.triangles == oracle(small_ba)

    def test_small_device(self, small_rmat, oracle):
        res, _ = _run(small_rmat, device=NVS_5200M)
        assert res.triangles == oracle(small_rmat)

    def test_unusual_launches(self, small_ws, oracle):
        for tpb, bps in ((32, 1), (256, 2), (512, 4)):
            res, _ = _run(small_ws, launch=LaunchConfig(tpb, bps))
            assert res.triangles == oracle(small_ws), (tpb, bps)

    def test_simulated_half_warps(self, small_rmat, oracle):
        res, _ = _run(small_rmat,
                      launch=LaunchConfig(64, 8, simulated_warp_size=16))
        assert res.triangles == oracle(small_rmat)

    def test_arc_range_partition(self, small_ba, oracle):
        """Counting disjoint arc ranges must sum to the total (the
        multi-GPU decomposition's core invariant)."""
        pre = _prep(small_ba)
        m = pre.num_forward_arcs
        total = 0
        for lo, hi in ((0, m // 3), (m // 3, 2 * m // 3), (2 * m // 3, m)):
            engine = SimtEngine(GTX_980, LaunchConfig())
            total += count_triangles_kernel(engine, pre, lo=lo, hi=hi).triangles
        assert total == oracle(small_ba)

    def test_invalid_range(self, k5):
        pre = _prep(k5)
        engine = SimtEngine(GTX_980, LaunchConfig())
        with pytest.raises(ReproError):
            count_triangles_kernel(engine, pre, lo=5, hi=2)

    def test_result_buffer_write(self, k5):
        pre = _prep(k5)
        device = GTX_980
        engine = SimtEngine(device, LaunchConfig())
        mem = DeviceMemory(device)
        buf = mem.alloc_empty("result", engine.num_threads, np.uint64)
        res = count_triangles_kernel(engine, pre, result_buf=buf)
        assert int(buf.data.sum()) == res.triangles
        assert np.array_equal(buf.data, res.thread_counts)


class TestWorkAccounting:
    def test_grid_stride_balances_threads(self, small_ws):
        """Per-thread counts spread over many threads, none hogging."""
        res, engine = _run(small_ws)
        total = int(res.thread_counts.sum())
        peak = int(res.thread_counts.max())
        assert peak < max(total * 0.05, 10)
        # every thread with an assigned arc did its own counting: at most
        # min(m, T) threads can be non-zero
        active = int((res.thread_counts > 0).sum())
        assert active <= min(engine.num_threads, small_ws.num_edges)

    def test_merge_steps_recorded(self, small_rmat):
        _, engine = _run(small_rmat)
        assert engine.report.warp_steps["merge"] > 0
        assert engine.report.warp_steps["setup"] > 0
        assert engine.report.lane_reads > 0

    def test_setup_steps_cover_all_arcs(self, small_ba):
        """Every arc costs exactly one setup read of its endpoints, so
        lane-level setup activity = number of forward arcs."""
        pre = _prep(small_ba)
        engine = SimtEngine(GTX_980, LaunchConfig())
        count_triangles_kernel(engine, pre)
        # 6 reads per arc in setup (2 endpoints + 4 node entries) plus
        # 2 initial adjacency loads; lane_reads also includes merge loads.
        assert engine.report.lane_reads >= 8 * pre.num_forward_arcs

    def test_divergence_reported(self, small_rmat):
        _, engine = _run(small_rmat)
        eff = engine.report.simd_efficiency
        assert 0.0 < eff <= 1.0

    def test_preliminary_reads_more(self, small_ba):
        """Section III-D3: the preliminary loop reads two values per
        iteration, the final loop ~one."""
        _, eng_final = _run(small_ba)
        _, eng_prelim = _run(small_ba, GpuOptions(merge_variant="preliminary"))
        assert eng_prelim.report.lane_reads > eng_final.report.lane_reads * 1.2

    def test_aos_increases_memory_pressure(self, small_ws):
        """Section III-D1: the interleaved layout wastes half of each
        fetched line, so the kernel needs more transactions and misses
        its caches more."""
        _, eng_soa = _run(small_ws)
        _, eng_aos = _run(small_ws, GpuOptions(unzip=False))
        assert eng_aos.report.transactions > eng_soa.report.transactions
        assert eng_aos.report.l1_misses > eng_soa.report.l1_misses

    def test_uncached_path_hits_dram_harder(self, small_ba):
        _, cached = _run(small_ba)
        _, uncached = _run(small_ba, GpuOptions(use_readonly_cache=False))
        assert uncached.report.l1_hits == 0
        assert uncached.report.l1_misses == 0
        assert uncached.report.l2_hits + uncached.report.l2_misses > 0

    def test_ticks_bounded_by_work(self, k5):
        res, _ = _run(k5)
        assert 0 < res.ticks < 1000

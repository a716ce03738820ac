"""The warp-intersect kernel (Section V comparator): Green et al.'s
warp-per-arc chunked search, run as a strategy on the one driver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.count_kernel import count_triangles_kernel
from repro.core.options import GpuOptions
from repro.core.preprocess import preprocess
from repro.errors import ReproError
from repro.graphs.generators import barabasi_albert, complete_graph, rmat
from repro.gpusim.device import GTX_980, NVS_5200M, TESLA_C2050
from repro.gpusim.memory import DeviceMemory
from repro.gpusim.simt import LaunchConfig, SimtEngine
from repro.gpusim.timing import Timeline

WARP = GpuOptions(kernel="warp_intersect")


def _pre(graph, options=WARP, device=GTX_980):
    return preprocess(graph, device, DeviceMemory(device), Timeline(),
                      options)


def _run(graph, launch=LaunchConfig(32, 1), **kw):
    pre = _pre(graph)
    engine = SimtEngine(GTX_980, launch)
    return count_triangles_kernel(engine, pre, WARP, **kw), engine


def _arc_lists(pre, arc):
    """(short, long) adjacency lists of forward arc ``arc``, short
    first as the kernel picks them (ties go to the ``u`` side)."""
    adj = pre.adj.data
    node = pre.node.data
    u, v = int(pre.adj.data[arc]), int(pre.keys.data[arc])
    lu = adj[node[u]:node[u + 1]]
    lv = adj[node[v]:node[v + 1]]
    return (lu, lv) if len(lu) <= len(lv) else (lv, lu)


class TestCorrectness:
    def test_known_counts(self, any_graph, oracle):
        res, _ = _run(any_graph)
        assert res.triangles == oracle(any_graph)

    def test_agrees_with_merge_kernel(self, small_rmat):
        pre = _pre(small_rmat)
        merge = count_triangles_kernel(SimtEngine(GTX_980, LaunchConfig()),
                                       pre)
        warp = count_triangles_kernel(SimtEngine(GTX_980, LaunchConfig()),
                                      pre, WARP)
        assert warp.triangles == merge.triangles

    def test_arc_range_partition(self, small_ba, oracle):
        pre = _pre(small_ba)
        m = pre.num_forward_arcs
        total = 0
        for lo, hi in ((0, m // 2), (m // 2, m)):
            engine = SimtEngine(GTX_980, LaunchConfig(32, 1))
            total += count_triangles_kernel(engine, pre, WARP, lo=lo,
                                            hi=hi).triangles
        assert total == oracle(small_ba)

    def test_various_launches(self, small_ws, oracle):
        for launch in (LaunchConfig(64, 8), LaunchConfig(256, 2)):
            res, _ = _run(small_ws, launch=launch)
            assert res.triangles == oracle(small_ws)

    def test_fermi_device(self, small_rmat, oracle):
        pre = _pre(small_rmat, device=TESLA_C2050)
        engine = SimtEngine(TESLA_C2050, LaunchConfig(32, 1))
        assert count_triangles_kernel(engine, pre, WARP).triangles == \
               oracle(small_rmat)

    def test_requires_soa(self, k5):
        pre = _pre(k5, GpuOptions(unzip=False))
        engine = SimtEngine(GTX_980, LaunchConfig(32, 1))
        with pytest.raises(ReproError, match="SoA"):
            count_triangles_kernel(engine, pre, WARP)

    def test_invalid_range(self, k5):
        pre = _pre(k5)
        engine = SimtEngine(GTX_980, LaunchConfig(32, 1))
        with pytest.raises(ReproError):
            count_triangles_kernel(engine, pre, WARP, lo=9, hi=1)

    def test_result_buffer(self, k5):
        pre = _pre(k5)
        engine = SimtEngine(GTX_980, LaunchConfig(32, 1))
        mem = DeviceMemory(GTX_980)
        buf = mem.alloc_empty("result", engine.num_threads, np.uint64)
        res = count_triangles_kernel(engine, pre, WARP, result_buf=buf)
        assert int(buf.data.sum()) == res.triangles


class TestWorkCharacter:
    def test_probes_scale_with_log(self, small_ba):
        """Search work is O(min · log max): per warp-sized chunk of the
        shorter list, at most ⌈log2(|long| + 1)⌉ bisection rounds and
        one final probe."""
        res, engine = _run(small_ba)
        steps = engine.report.warp_steps["search"]
        pre = _pre(small_ba)
        ws = engine.warp_size
        bound = 0
        for arc in range(pre.num_forward_arcs):
            short, long_ = _arc_lists(pre, arc)
            if len(short) and len(long_):
                chunks = -(-len(short) // ws)
                bound += chunks * (int(np.ceil(np.log2(len(long_) + 1))) + 1)
        assert 0 < steps <= bound

    def test_search_reads_coalesce(self, small_ws):
        """Lanes of a warp search the same list, so their probe paths
        share lines — transactions per lane-read stay well below 1."""
        res, engine = _run(small_ws, launch=LaunchConfig(64, 8))
        rep = engine.report
        assert rep.transactions < rep.lane_reads * 0.9


def _warp_model(pre, ws, num_warps, lo, hi):
    """Scalar model of the warp-per-arc mapping: per-lane counts, kernel
    ticks and the setup/chunk warp steps.

    Warp ``w`` runs arcs ``lo + w``, ``lo + w + num_warps``, ...; an arc
    takes max(⌈|short| / ws⌉, 1) ticks (0 chunks with an empty side, and
    its first chunk shares the setup tick), and a warp's last tick
    finds no arc.  Lane ``j`` owns the short-list positions ≡ j
    (mod ws).
    """
    counts = np.zeros(num_warps * ws, np.uint64)
    warp_ticks = np.ones(num_warps, np.int64)
    chunks_total = 0
    for arc in range(lo, hi):
        w = (arc - lo) % num_warps
        short, long_ = _arc_lists(pre, arc)
        chunks = -(-len(short) // ws) if len(long_) else 0
        chunks_total += chunks
        warp_ticks[w] += max(chunks, 1)
        if chunks:
            hit = np.isin(short, long_)
            for j in range(ws):
                counts[w * ws + j] += int(hit[j::ws].sum())
    return counts, int(warp_ticks.max()), hi - lo, chunks_total


_GRAPHS = {
    "ba": lambda n, seed: barabasi_albert(n, 1 + seed % 6, seed=seed),
    "rmat": lambda n, seed: rmat(4 + n % 4, edge_factor=6, seed=seed),
    "complete": lambda n, seed: complete_graph(3 + n % 40),
}


class TestWarpPerArcModel:
    @settings(max_examples=25, deadline=None)
    @given(family=st.sampled_from(sorted(_GRAPHS)),
           n=st.integers(8, 80),
           seed=st.integers(0, 2**16),
           wsz=st.sampled_from([None, 4, 8, 16]),
           tpb=st.sampled_from([32, 64]),
           device=st.sampled_from(["gtx980", "nvs5200m", "tiny"]),
           lo_frac=st.floats(0.0, 1.0),
           hi_frac=st.floats(0.0, 1.0))
    def test_driver_matches_scalar_model(self, tiny_device, family, n, seed,
                                         wsz, tpb, device, lo_frac,
                                         hi_frac):
        dev = {"gtx980": GTX_980, "nvs5200m": NVS_5200M,
               "tiny": tiny_device}[device]
        graph = _GRAPHS[family](n, seed)
        options = WARP.but(launch=LaunchConfig(tpb, 1,
                                               simulated_warp_size=wsz))
        pre = _pre(graph, options, dev)
        m = pre.num_forward_arcs
        lo, hi = sorted((int(lo_frac * m), int(hi_frac * m)))
        engine = SimtEngine(dev, options.launch)
        res = count_triangles_kernel(engine, pre, options, lo=lo, hi=hi)
        counts, ticks, setups, chunks = _warp_model(
            pre, engine.warp_size, engine.num_warps, lo, hi)
        assert res.thread_counts.tolist() == counts.tolist()
        assert res.ticks == ticks
        steps = engine.report.warp_steps
        assert steps.get("setup", 0) == setups
        assert steps.get("chunk", 0) == chunks

"""Validate the engine against the per-thread reference executor."""

import numpy as np
import pytest

from repro.core.count_kernel import count_triangles_kernel
from repro.core.preprocess import preprocess
from repro.errors import KernelFault, ReproError
from repro.gpusim.device import GTX_980
from repro.gpusim.memory import DeviceMemory
from repro.gpusim.reference import reference_kernel
from repro.gpusim.simt import LaunchConfig, SimtEngine
from repro.gpusim.timing import Timeline


def _pre(graph):
    return preprocess(graph, GTX_980, DeviceMemory(GTX_980), Timeline())


def _reference(pre, launch, **kw):
    return reference_kernel(GTX_980, launch, node=pre.node,
                            num_arcs=pre.num_forward_arcs, adj=pre.adj,
                            keys=pre.keys, **kw)


def _both(graph, launch=LaunchConfig(32, 1)):
    pre = _pre(graph)
    engine = SimtEngine(GTX_980, launch)
    fast = count_triangles_kernel(engine, pre)
    golden = _reference(pre, launch)
    return fast, golden, engine


class TestGoldenAgreement:
    def test_per_thread_counts_match(self, small_rmat):
        fast, golden, _ = _both(small_rmat)
        assert np.array_equal(fast.thread_counts, golden.thread_counts)

    def test_per_thread_counts_match_all_fixtures(self, any_graph):
        fast, golden, engine = _both(any_graph)
        assert fast.triangles == golden.triangles
        assert np.array_equal(fast.thread_counts, golden.thread_counts)
        assert fast.ticks == golden.ticks
        assert engine.report.counters() == golden.report.counters()

    def test_warp_step_accounting_matches(self, small_ba):
        """The engine's warp-step totals equal the reference's
        warp-synchronous iteration counts — the quantity the timing
        model's compute/divergence terms are built on."""
        fast, golden, engine = _both(small_ba)
        assert engine.report.warp_steps == golden.report.warp_steps
        assert set(golden.report.warp_steps) == {"setup", "merge"}

    def test_arc_subrange(self, small_ws):
        pre = _pre(small_ws)
        m = pre.num_forward_arcs
        launch = LaunchConfig(32, 1)
        engine = SimtEngine(GTX_980, launch)
        fast = count_triangles_kernel(engine, pre, lo=m // 4, hi=m // 2)
        golden = _reference(pre, launch, lo=m // 4, hi=m // 2)
        assert np.array_equal(fast.thread_counts, golden.thread_counts)
        assert engine.report.counters() == golden.report.counters()

    def test_invalid_range(self, small_ws):
        pre = _pre(small_ws)
        with pytest.raises(ReproError, match="outside"):
            _reference(pre, LaunchConfig(32, 1), lo=5, hi=2)


class TestKernelFaults:
    def test_read_out_of_bounds_faults(self):
        mem = DeviceMemory(GTX_980)
        buf = mem.alloc("x", np.arange(8, dtype=np.int32))
        engine = SimtEngine(GTX_980, LaunchConfig(32, 1))
        with pytest.raises(KernelFault, match="out-of-bounds read"):
            engine.read_compacted(buf, np.array([8]), np.array([0]))
        with pytest.raises(KernelFault, match="out-of-bounds read"):
            engine.read_compacted(buf, np.array([-1]), np.array([0]))
        with pytest.raises(KernelFault, match="out-of-bounds read"):
            engine.read_compacted(buf, np.array([0, 9]), np.array([0, 1]))

    def test_write_out_of_bounds_faults(self):
        mem = DeviceMemory(GTX_980)
        buf = mem.alloc("x", np.zeros(4, np.int64))
        engine = SimtEngine(GTX_980, LaunchConfig(32, 1))
        with pytest.raises(KernelFault, match="out-of-bounds write"):
            engine.write(buf, np.array([4]), np.array([1]), np.array([0]))

    def test_kernel_never_faults_on_valid_graphs(self, any_graph):
        """The padded adjacency buffer absorbs the final variant's
        one-past-the-end reads on every fixture."""
        pre = _pre(any_graph)
        engine = SimtEngine(GTX_980, LaunchConfig(32, 1))
        count_triangles_kernel(engine, pre)  # must not raise

"""The intersection-strategy layer: registry, lifecycle contracts,
per-strategy mechanics, and the strategy-refactor bit-identity pin.

The tentpole contract of the layer is that the merge strategy, factored
out of the two engine drivers, is *bit-identical* to the pre-refactor
monolithic kernels — pinned here against the committed golden counters
(which predate the refactor) and via cross-strategy count equality on
every reference graph.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.count_kernel import count_triangles_kernel
from repro.core.intersect import (MergeStrategy, WarpIntersectStrategy,
                                  check_per_vertex, get_strategy,
                                  lower_bound_round, strategy_names)
from repro.core.intersect.hashed import pow2_ceil
from repro.core.options import GpuOptions
from repro.core.preprocess import preprocess
from repro.cpu.forward import forward_count_cpu
from repro.errors import ReproError
from repro.gpusim.device import GTX_980
from repro.gpusim.memory import DeviceMemory
from repro.gpusim.simt import SimtEngine
from repro.gpusim.timing import Timeline
from repro.runtime import LaunchPlan, launch


class TestRegistry:
    def test_builtin_strategies(self):
        assert strategy_names() == ("binary_search", "hash", "two_pointer",
                                    "warp_intersect")
        for name in strategy_names():
            assert get_strategy(name).name == name

    def test_two_pointer_maps_to_merge(self):
        assert isinstance(get_strategy(GpuOptions().kernel), MergeStrategy)

    def test_warp_intersect_is_a_warp_per_arc_strategy(self):
        strategy = get_strategy("warp_intersect")
        assert isinstance(strategy, WarpIntersectStrategy)
        assert strategy.warp_per_arc
        assert not any(get_strategy(n).warp_per_arc
                       for n in strategy_names() if n != "warp_intersect")

    def test_auto_must_be_resolved_first(self):
        with pytest.raises(ReproError, match="autopick"):
            get_strategy("auto")

    def test_unknown_strategy_names_choices(self):
        with pytest.raises(ReproError, match="two_pointer"):
            get_strategy("bitonic")


class TestLifecycleContracts:
    def test_only_merge_supports_per_vertex(self, small_rmat):
        device = GTX_980
        for kernel in ("binary_search", "hash", "warp_intersect"):
            options = GpuOptions(kernel=kernel)
            memory = DeviceMemory(device)
            pre = preprocess(small_rmat, device, memory, Timeline(), options)
            engine = SimtEngine(device, options.launch)
            pv = memory.alloc("pv", np.zeros(small_rmat.num_nodes, np.int64))
            with pytest.raises(ReproError, match="per-vertex"):
                count_triangles_kernel(engine, pre, options,
                                       per_vertex_buf=pv, memory=memory)

    def test_check_per_vertex_merge_passes(self):
        assert check_per_vertex(get_strategy("two_pointer"), False) is False
        assert check_per_vertex(get_strategy("two_pointer"), True) is True

    def test_hash_requires_memory(self, small_rmat):
        options = GpuOptions(kernel="hash")
        memory = DeviceMemory(GTX_980)
        pre = preprocess(small_rmat, GTX_980, memory, Timeline(), options)
        engine = SimtEngine(GTX_980, options.launch)
        with pytest.raises(ReproError, match="DeviceMemory"):
            count_triangles_kernel(engine, pre, options, memory=None)

    def test_hash_frees_its_device_tables(self, small_rmat):
        """finish() releases the bucket tables in reverse allocation
        order, so back-to-back dispatches see identical addresses (the
        allocation-order half of the bit-identity surface)."""
        options = GpuOptions(kernel="hash")
        memory = DeviceMemory(GTX_980)
        pre = preprocess(small_rmat, GTX_980, memory, Timeline(), options)
        held = memory.used_bytes
        runs = []
        for _ in range(2):
            engine = SimtEngine(GTX_980, options.launch)
            res = count_triangles_kernel(engine, pre, options, memory=memory)
            assert memory.used_bytes == held
            runs.append((res.triangles, engine.report.counters()))
        assert runs[0] == runs[1]


class TestStrategyCounts:
    @pytest.mark.parametrize("kernel", ["two_pointer", "binary_search",
                                        "hash", "warp_intersect"])
    def test_exact_on_every_reference_graph(self, any_graph, kernel):
        want = forward_count_cpu(any_graph).triangles
        run = launch(LaunchPlan(
            graph=any_graph, device=GTX_980,
            options=GpuOptions(kernel=kernel, sanitize="strict")))
        assert run.triangles == want

    @pytest.mark.parametrize("kernel", ["binary_search", "hash",
                                        "warp_intersect"])
    def test_merge_variant_knob_is_inert(self, small_rmat, kernel):
        """merge_variant belongs to the merge strategy; the probing
        strategies must produce identical traces under either value."""
        counters = {}
        for mv in ("final", "preliminary"):
            run = launch(LaunchPlan(graph=small_rmat,
                                    options=GpuOptions(kernel=kernel,
                                                       merge_variant=mv)))
            counters[mv] = (run.triangles, run.report.counters())
        assert counters["final"] == counters["preliminary"]


class TestLowerBoundRound:
    """The shared binary-search round (also the warp_intersect inner
    loop): pure lower-bound semantics against numpy searchsorted."""

    def test_converges_to_lower_bound(self):
        rng = np.random.default_rng(11)
        hay = np.sort(rng.integers(0, 100, size=37))

        def read_adj(indices, lanes):
            return hay[indices]

        targets = rng.integers(-5, 110, size=16).astype(np.int64)
        s_lo = np.zeros(16, np.int64)
        s_hi = np.full(16, len(hay), np.int64)
        lanes = np.arange(16, dtype=np.int64)
        while len(lower_bound_round(read_adj, s_lo, s_hi, targets, lanes)):
            pass
        assert s_lo.tolist() == np.searchsorted(hay, targets).tolist()

    def test_empty_ranges_are_immediately_done(self):
        called = []

        def read_adj(indices, lanes):
            called.append(len(indices))
            return indices

        s_lo = np.array([5, 9], np.int64)
        s_hi = np.array([5, 9], np.int64)
        act = lower_bound_round(read_adj, s_lo, s_hi,
                                np.array([1, 2], np.int64),
                                np.array([0, 1], np.int64))
        assert len(act) == 0 and called == []


class TestPow2Ceil:
    def test_values(self):
        vals = np.array([0, 1, 2, 3, 4, 5, 7, 8, 9, 1023, 1024, 1025])
        want = [1, 1, 2, 4, 4, 8, 8, 8, 16, 1024, 1024, 2048]
        assert pow2_ceil(vals).tolist() == want

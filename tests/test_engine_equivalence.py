"""The engine against the scalar reference oracle.

:mod:`repro.gpusim.reference` re-executes the paper's merge kernel one
scalar thread at a time, on a per-request set-associative LRU model.
This suite holds the engine to it on *every* observable of a launch —
per-thread counts, per-vertex counts, the tick count and the full
:meth:`KernelReport.counters` dict, the result write included — across
the option matrix (merge variants, AoS/SoA, read-only cache on/off,
simulated warp sizes, per-vertex accumulation, arc ranges, launch
geometry) on three devices: GTX 980, NVS 5200M and a synthetic 2-SM
device whose caches hold a few lines (``tiny_device``), where tiny
graphs already run several grid-stride rounds and evict at both cache
levels.

The probing strategies (binary_search, hash) and the warp-intersect
comparator share the driver and the memory model with merge but have no
scalar model: their counters are pinned by the committed golden cells
and their counts must equal the CPU forward algorithm.

Every reference comparison and golden cell runs the engine twice, with
its cache model in-process and in the worker process
(:mod:`repro.gpusim.cachestream`): both must give the same counters and,
after the sync, the same L1/L2 tags, stamps and statistics.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.count_kernel import count_triangles_kernel
from repro.core.options import GpuOptions
from repro.core.preprocess import preprocess
from repro.core.warp_intersect_kernel import warp_intersect_kernel
from repro.cpu.forward import forward_count_cpu
from repro.errors import ReproError
from repro.graphs.edgearray import EdgeArray
from repro.graphs.generators import barabasi_albert, rmat
from repro.gpusim.device import GTX_980, NVS_5200M
from repro.gpusim.memory import DeviceMemory
from repro.gpusim.reference import reference_kernel
from repro.gpusim.simt import LaunchConfig, SimtEngine
from repro.gpusim.timing import Timeline
from repro.runtime import LaunchPlan, launch
from repro.types import COUNT_DTYPE
from tests.conftest import TRANSPORTS, assert_same_caches, forced_transport

#: Committed counters for the dispatcher matrix (regenerate by running
#: the loop in TestDispatcherGolden._cell over a fresh checkout).
GOLDEN_PATH = Path(__file__).parent / "golden_runtime_counters.json"


def _prepared(graph, options, device):
    memory = DeviceMemory(device)
    pre = preprocess(graph, device, memory, Timeline(), options)
    engine = SimtEngine(device, options.launch,
                        use_ro_cache=options.use_readonly_cache)
    return memory, pre, engine


def _assert_matches_reference(graph, options, device=GTX_980,
                              per_vertex=False, lo=0, hi=None):
    """Run the engine (under both cache transports) and the oracle on
    one launch; every observable must agree.  Returns the reference
    run."""
    ref = None
    engines = []
    for kind in TRANSPORTS:
        with forced_transport(kind):
            memory, pre, engine = _prepared(graph, options, device)
        result = memory.alloc_empty("result", engine.num_threads,
                                    COUNT_DTYPE)
        pv = (memory.alloc("pv", np.zeros(graph.num_nodes, np.int64))
              if per_vertex else None)
        run = count_triangles_kernel(engine, pre, options, lo=lo, hi=hi,
                                     result_buf=result, per_vertex_buf=pv,
                                     memory=memory)
        if ref is None:
            ref = reference_kernel(
                device, options.launch, node=pre.node,
                num_arcs=pre.num_forward_arcs, adj=pre.adj, keys=pre.keys,
                aos=pre.aos, variant=options.merge_variant,
                use_ro_cache=options.use_readonly_cache, lo=lo, hi=hi,
                result=result, per_vertex=pv)
        assert engine.report.counters() == ref.report.counters(), kind
        assert run.ticks == ref.ticks
        assert run.thread_counts.tolist() == ref.thread_counts.tolist()
        if per_vertex:
            assert pv.data.tolist() == ref.per_vertex.tolist()
        engines.append(engine)
    assert_same_caches(*engines)
    return ref


def _strategy_triangles(graph, options, device, lo=0, hi=None):
    memory, pre, engine = _prepared(graph, options, device)
    if options.kernel == "warp_intersect":
        return warp_intersect_kernel(engine, pre, lo=lo, hi=hi).triangles
    return count_triangles_kernel(engine, pre, options, lo=lo, hi=hi,
                                  memory=memory).triangles


@pytest.fixture
def devices(tiny_device):
    return (GTX_980, NVS_5200M, tiny_device)


class TestOptionMatrix:
    @pytest.mark.parametrize("variant", ["final", "preliminary"])
    @pytest.mark.parametrize("unzip", [True, False])
    @pytest.mark.parametrize("ro", [True, False])
    def test_variant_layout_cache_matrix(self, small_rmat, devices, variant,
                                         unzip, ro):
        for device in devices:
            _assert_matches_reference(
                small_rmat,
                GpuOptions(merge_variant=variant, unzip=unzip,
                           use_readonly_cache=ro),
                device=device)

    @pytest.mark.parametrize("wsz", [4, 8, 32])
    def test_simulated_warp_sizes(self, small_ba, devices, wsz):
        for device in devices:
            _assert_matches_reference(
                small_ba,
                GpuOptions(launch=LaunchConfig(simulated_warp_size=wsz)),
                device=device)

    def test_small_device(self, small_rmat):
        _assert_matches_reference(small_rmat, GpuOptions(),
                                  device=NVS_5200M)

    def test_per_vertex_accumulation(self, small_rmat, devices):
        for device in devices:
            _assert_matches_reference(small_rmat, GpuOptions(),
                                      device=device, per_vertex=True)

    def test_arc_subrange(self, small_ba, devices):
        m = small_ba.num_arcs // 2
        for device in devices:
            _assert_matches_reference(small_ba, GpuOptions(), device=device,
                                      lo=3, hi=m)

    def test_degenerate_graphs(self):
        for graph in (EdgeArray.empty(4),
                      EdgeArray.from_edges([(0, 1)]),
                      EdgeArray.from_edges([(0, 1), (1, 2), (0, 2)])):
            _assert_matches_reference(graph, GpuOptions(), per_vertex=True)

    def test_unusual_launch(self, small_rmat):
        _assert_matches_reference(
            small_rmat,
            GpuOptions(launch=LaunchConfig(threads_per_block=512,
                                           blocks_per_sm=4)))

    def test_tiny_device_reaches_rounds_and_evictions(self, small_rmat,
                                                      tiny_device):
        """The oracle is only as strong as the inputs: on the tiny
        device the matrix runs many grid-stride rounds per thread and
        evicts from both cache levels, with and without the L1."""
        options = GpuOptions(launch=LaunchConfig(32, 1))
        threads = options.launch.total_threads(tiny_device)
        assert small_rmat.num_arcs // 2 > 8 * threads
        for variant in ("final", "preliminary"):
            for ro in (True, False):
                ref = _assert_matches_reference(
                    small_rmat,
                    options.but(merge_variant=variant,
                                use_readonly_cache=ro),
                    device=tiny_device, per_vertex=True)
                assert ref.report.warp_steps["setup"] > 8 * (
                    threads // tiny_device.warp_size)
                assert ref.l2_evictions > 0
                assert (ref.l1_evictions > 0) == ro

    def test_warp_intersect_kernel(self, small_rmat, devices):
        want = forward_count_cpu(small_rmat).triangles
        for device in devices:
            assert _strategy_triangles(
                small_rmat, GpuOptions(kernel="warp_intersect"),
                device) == want

    @pytest.mark.parametrize("kernel", ["binary_search", "hash"])
    @pytest.mark.parametrize("unzip", [True, False])
    def test_strategy_layout_matrix(self, small_rmat, tiny_device, kernel,
                                    unzip):
        """The probing strategies are exact on both layouts, also when
        the tiny device's caches thrash."""
        assert _strategy_triangles(
            small_rmat, GpuOptions(kernel=kernel, unzip=unzip),
            tiny_device) == forward_count_cpu(small_rmat).triangles

    @pytest.mark.parametrize("kernel", ["binary_search", "hash"])
    def test_strategy_arc_subrange(self, small_ba, kernel):
        m = small_ba.num_arcs // 2
        merge = _strategy_triangles(small_ba, GpuOptions(), GTX_980,
                                    lo=3, hi=m)
        assert _strategy_triangles(small_ba, GpuOptions(kernel=kernel),
                                   GTX_980, lo=3, hi=m) == merge

    @pytest.mark.parametrize("kernel", ["binary_search", "hash"])
    def test_strategy_counts_match_merge(self, small_rmat, kernel):
        """Every strategy is exact: counts equal the merge kernel's."""
        merge = _assert_matches_reference(small_rmat, GpuOptions())
        assert _strategy_triangles(small_rmat, GpuOptions(kernel=kernel),
                                   GTX_980) == merge.triangles


#: Golden cells (kernel, layout).  Their committed keys carry a
#: trailing ``/compacted`` from when the file pinned two host engines.
_GOLDEN_CELLS = [("warp_intersect", "soa"), ("local", "soa"),
                 ("local", "aos"), ("binary_search", "soa"),
                 ("binary_search", "aos"), ("hash", "soa"), ("hash", "aos")]


class TestDispatcherGolden:
    """The runtime dispatcher (`repro.runtime.launch`) pinned to
    committed golden counters: warp-intersect, local-counts and the
    probing strategies on both layouts, on the deterministic
    ``small_rmat`` graph.

    A golden mismatch means the launch lifecycle changed what the
    simulated GPU observes (allocation order, read routing) — the exact
    regression class a refactor must not introduce silently.
    """

    @staticmethod
    def _cell(graph, kernel: str, unzip: bool) -> dict:
        field = {"warp_intersect": "warp_intersect",
                 "local": "two_pointer",
                 "merge": "two_pointer"}.get(kernel, kernel)
        opts = GpuOptions(unzip=unzip, kernel=field)
        run = launch(LaunchPlan(kernel=kernel, graph=graph,
                                device=GTX_980, options=opts))
        cell = {
            "triangles": run.triangles,
            "counters": json.loads(json.dumps(run.report.counters(),
                                              default=list)),
        }
        if run.per_vertex is not None:
            cell["per_vertex_sum"] = int(run.per_vertex.sum())
        return cell

    @pytest.mark.parametrize(
        "key", [f"{k}/{layout}/compacted" for k, layout in _GOLDEN_CELLS],
        ids=lambda key: key.replace("/", "-"))
    def test_pinned_counters(self, small_rmat, key):
        golden = json.loads(GOLDEN_PATH.read_text())
        kernel, layout, _ = key.split("/")
        for kind in TRANSPORTS:
            with forced_transport(kind):
                cell = self._cell(small_rmat, kernel, layout == "soa")
            assert cell == golden[key], (key, kind)

    def test_local_counts_sum_rule(self, small_rmat):
        golden = json.loads(GOLDEN_PATH.read_text())
        for layout in ("soa", "aos"):
            cell = golden[f"local/{layout}/compacted"]
            assert cell["per_vertex_sum"] == 3 * cell["triangles"]

    def test_warp_intersect_rejects_aos(self, small_rmat):
        opts = GpuOptions(unzip=False)
        with pytest.raises(ReproError, match="SoA"):
            launch(LaunchPlan(kernel="warp_intersect", graph=small_rmat,
                              device=GTX_980, options=opts))


_DEVICE_KEYS = st.sampled_from(["gtx980", "nvs5200m", "tiny"])


def _device(key, tiny):
    return {"gtx980": GTX_980, "nvs5200m": NVS_5200M, "tiny": tiny}[key]


class TestHypothesis:
    @settings(max_examples=25, deadline=None)
    @given(nodes=st.integers(6, 60),
           attach=st.integers(1, 5),
           seed=st.integers(0, 2**16),
           variant=st.sampled_from(["final", "preliminary"]),
           unzip=st.booleans(),
           ro=st.booleans(),
           wsz=st.sampled_from([4, 8, 32]),
           device=_DEVICE_KEYS)
    def test_random_ba_graphs(self, tiny_device, nodes, attach, seed,
                              variant, unzip, ro, wsz, device):
        graph = barabasi_albert(nodes, min(attach, nodes - 1), seed=seed)
        _assert_matches_reference(
            graph,
            GpuOptions(merge_variant=variant, unzip=unzip,
                       use_readonly_cache=ro,
                       launch=LaunchConfig(32, 1, simulated_warp_size=wsz)),
            device=_device(device, tiny_device))

    @settings(max_examples=15, deadline=None)
    @given(scale=st.integers(4, 7),
           seed=st.integers(0, 2**16),
           tpb=st.sampled_from([32, 64, 128]),
           bps=st.integers(1, 4),
           wsz=st.sampled_from([None, 4, 8]),
           device=_DEVICE_KEYS)
    def test_random_launch_geometry(self, tiny_device, scale, seed, tpb, bps,
                                    wsz, device):
        graph = rmat(scale, edge_factor=6, seed=seed)
        geometry = LaunchConfig(threads_per_block=tpb, blocks_per_sm=bps,
                                simulated_warp_size=wsz)
        _assert_matches_reference(graph, GpuOptions(launch=geometry),
                                  device=_device(device, tiny_device))

    @settings(max_examples=20, deadline=None)
    @given(nodes=st.integers(6, 50),
           attach=st.integers(1, 5),
           seed=st.integers(0, 2**16),
           kernel=st.sampled_from(["binary_search", "hash",
                                   "warp_intersect"]),
           unzip=st.booleans())
    def test_random_graphs_probing_strategies(self, tiny_device, nodes,
                                              attach, seed, kernel, unzip):
        """The probing strategies and the warp comparator across random
        graphs x layouts on the tiny device: counts equal the CPU
        forward algorithm."""
        graph = barabasi_albert(nodes, min(attach, nodes - 1), seed=seed)
        unzip = unzip or kernel == "warp_intersect"
        options = GpuOptions(kernel=kernel, unzip=unzip,
                             launch=LaunchConfig(32, 1))
        assert (_strategy_triangles(graph, options, tiny_device)
                == forward_count_cpu(graph).triangles)

    @settings(max_examples=10, deadline=None)
    @given(edges=st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 12)),
        min_size=1, max_size=40),
        device=_DEVICE_KEYS)
    def test_arbitrary_edge_lists(self, tiny_device, edges, device):
        simple = {(min(u, v), max(u, v)) for u, v in edges if u != v}
        if not simple:
            return
        graph = EdgeArray.from_edges(sorted(simple))
        _assert_matches_reference(graph, GpuOptions(),
                                  device=_device(device, tiny_device),
                                  per_vertex=True)

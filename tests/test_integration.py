"""Integration tests: the paper's qualitative claims, end-to-end.

Each test corresponds to a claim in the paper that must hold
*directionally* at test scale (the benches measure the magnitudes):

* every backend returns the same count on real workload recipes;
* each Section III-D optimization moves time the right way;
* the Section III-C launch optimum beats degenerate configurations;
* the Section III-A input-format argument;
* multi-GPU speedup tracks the preprocessing fraction (Section III-E).
"""

import pytest

import repro
from repro.core.options import GpuOptions
from repro.gpusim.simt import LaunchConfig


@pytest.fixture(scope="module")
def workload_graph():
    """A Table-I workload at very small scale (kron ~ the paper's
    flagship family)."""
    return repro.datasets.get("kron18").build(scale=1 / 512, seed=5)


@pytest.fixture(scope="module")
def workload_cpu(workload_graph):
    return repro.forward_count_cpu(workload_graph)


@pytest.fixture(scope="module")
def workload_gpu(workload_graph):
    return repro.gpu_count_triangles(workload_graph)


class TestBackendAgreement:
    @pytest.mark.parametrize("name", ["internet", "citeseer", "kron17", "ws"])
    def test_all_backends_same_count(self, name):
        g = repro.datasets.get(name).build(
            scale=repro.datasets.get(name).default_scale / 16, seed=2)
        expected = repro.matmul_count(g).triangles
        assert repro.forward_count_cpu(g).triangles == expected
        assert repro.gpu_count_triangles(g).triangles == expected
        assert repro.multi_gpu_count_triangles(g, num_gpus=2).triangles == expected

    def test_gpu_equals_cpu_on_workload(self, workload_cpu, workload_gpu):
        assert workload_gpu.triangles == workload_cpu.triangles


class TestOptimizationDirections:
    """Section III-D: every optimization must help (time-wise) at the
    kernel level on a realistic workload."""

    def _kernel_ms(self, graph, options):
        res = repro.gpu_count_triangles(graph, options=options)
        return res.kernel_timing.kernel_ms, res.triangles

    def test_unzip_helps(self, workload_graph, workload_cpu):
        fast, t1 = self._kernel_ms(workload_graph, GpuOptions())
        slow, t2 = self._kernel_ms(workload_graph, GpuOptions(unzip=False))
        assert t1 == t2 == workload_cpu.triangles
        assert slow > fast

    def test_final_merge_variant_helps(self, workload_graph):
        fast, _ = self._kernel_ms(workload_graph, GpuOptions())
        slow, _ = self._kernel_ms(workload_graph,
                                  GpuOptions(merge_variant="preliminary"))
        assert slow > fast

    def test_readonly_cache_helps(self, workload_graph):
        fast, _ = self._kernel_ms(workload_graph, GpuOptions())
        slow, _ = self._kernel_ms(workload_graph,
                                  GpuOptions(use_readonly_cache=False))
        assert slow > fast

    def test_sort_u64_helps_total_time(self, workload_graph):
        fast = repro.gpu_count_triangles(workload_graph).total_ms
        slow = repro.gpu_count_triangles(
            workload_graph, options=GpuOptions(sort_as_u64=False)).total_ms
        assert slow > fast


class TestLaunchTuning:
    def test_paper_config_beats_single_block(self, workload_graph):
        """Section III-C: 64 threads × 8 blocks/SM ≫ one 32-thread block
        per SM (too few resident warps to hide latency)."""
        good = repro.gpu_count_triangles(workload_graph).kernel_timing
        bad = repro.gpu_count_triangles(
            workload_graph,
            options=GpuOptions(launch=LaunchConfig(32, 1))).kernel_timing
        assert bad.kernel_ms > good.kernel_ms

    def test_warp_reduction_tradeoff_reported(self, workload_graph):
        """Section III-D5: halving the warp size must reduce divergence
        waste (higher SIMD efficiency of executed steps)."""
        full = repro.gpu_count_triangles(workload_graph)
        half = repro.gpu_count_triangles(
            workload_graph,
            options=GpuOptions(launch=LaunchConfig(64, 8,
                                                   simulated_warp_size=16)))
        assert half.triangles == full.triangles
        assert (half.kernel_report.simd_efficiency
                > full.kernel_report.simd_efficiency)


class TestInputFormatArgument:
    def test_csr_to_edges_cheap_other_way_expensive(self, workload_graph):
        """Section III-A: the conversion asymmetry that justifies the
        edge-array input format."""
        from repro.graphs.csr import csr_to_edge_array, edge_array_to_csr
        csr, to_csr = edge_array_to_csr(workload_graph)
        _, to_edges = csr_to_edge_array(csr)
        assert to_csr.sorted_elements > 0
        assert to_edges.sorted_elements == 0


class TestMultiGpuAmdahl:
    def test_triangle_rich_graphs_scale_better(self):
        """Section III-E: 'The biggest speedups are obtained for
        Kronecker graphs, which have large triangles to edges ratios' —
        counting dominates, so splitting it helps more."""
        kron = repro.datasets.get("kron17").build(scale=1 / 128, seed=7)
        ws = repro.datasets.get("ws").build(scale=1 / 1024, seed=7)

        def quad_speedup(g):
            one = repro.gpu_count_triangles(g, device=repro.TESLA_C2050)
            four = repro.multi_gpu_count_triangles(g, num_gpus=4)
            return one.total_ms / four.total_ms

        assert quad_speedup(kron) > quad_speedup(ws)


class TestClusteringApplication:
    def test_gpu_backed_clustering_report(self, workload_graph):
        rep = repro.clustering_report(
            workload_graph,
            counter=lambda g: repro.gpu_count_triangles(g).triangles)
        assert rep.triangles > 0
        assert 0 < rep.transitivity < 1

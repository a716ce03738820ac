"""Unit tests for the future-work extensions (paper Section VI)."""

import pytest

from repro.core.partitioned import partitioned_count_triangles
from repro.errors import ReproError
from repro.graphs.generators import star_graph


class TestPartitioned:
    def test_exact_on_all_graphs(self, any_graph, oracle):
        res = partitioned_count_triangles(any_graph, num_parts=3, seed=1)
        assert res.triangles == oracle(any_graph)

    def test_various_part_counts(self, small_ws, oracle):
        for p in (1, 2, 4, 6):
            res = partitioned_count_triangles(small_ws, num_parts=p, seed=2)
            assert res.triangles == oracle(small_ws), p

    def test_subgraphs_are_smaller(self, small_ba):
        """The whole point: every counting call sees less than the full
        graph, so a memory-capped device can process each piece."""
        res = partitioned_count_triangles(small_ba, num_parts=4, seed=3)
        assert res.largest_subgraph_arcs < small_ba.num_arcs

    def test_redundancy_is_the_overhead(self, small_ba):
        """Splitting re-processes arcs across subsets — the overhead the
        paper is unsure about (Section VI)."""
        res = partitioned_count_triangles(small_ba, num_parts=4, seed=3)
        assert res.redundant_arc_work > small_ba.num_arcs

    def test_custom_counter_backend(self, k12):
        from repro.cpu.matmul import matmul_count
        res = partitioned_count_triangles(
            k12, num_parts=3, counter=lambda g: matmul_count(g).triangles)
        assert res.triangles == 220

    def test_gpu_backend_with_memory_too_small_for_whole_graph(self,
                                                               medium_rmat,
                                                               oracle):
        """The paper's motivating scenario: the full graph overflows even
        the † path (needs > 2× capacity), but the partitioned scheme
        finishes on the same simulated card."""
        import pytest as _pytest
        from repro.core.forward_gpu import gpu_count_triangles
        from repro.core.options import GpuOptions
        from repro.errors import OutOfDeviceMemoryError
        from repro.gpusim.device import GTX_980
        from repro.gpusim.memory import DeviceMemory

        device = GTX_980.with_memory(medium_rmat.num_arcs * 8 // 2)
        with _pytest.raises(OutOfDeviceMemoryError):
            gpu_count_triangles(medium_rmat, device=device,
                                memory=DeviceMemory(device),
                                options=GpuOptions(cpu_preprocess="never"))

        def gpu_counter(g):
            return gpu_count_triangles(g, device=device,
                                       memory=DeviceMemory(device)).triangles

        res = partitioned_count_triangles(medium_rmat, num_parts=8,
                                          counter=gpu_counter, seed=4)
        assert res.triangles == oracle(medium_rmat)

    def test_invalid_parts(self, k5):
        with pytest.raises(ReproError):
            partitioned_count_triangles(k5, num_parts=0)

    def test_star_graph(self):
        res = partitioned_count_triangles(star_graph(30), num_parts=3)
        assert res.triangles == 0

    @pytest.mark.parametrize("num_parts", [2, 3])
    def test_zero_weight_subsets_are_not_counted(self, small_ws, oracle,
                                                 num_parts):
        """With at most three parts every subset but the whole vertex
        set has inclusion-exclusion weight 0: one counting call."""
        res = partitioned_count_triangles(small_ws, num_parts=num_parts,
                                          seed=2)
        assert res.subgraph_counts == 1
        assert res.largest_subgraph_arcs == small_ws.num_arcs
        assert res.triangles == oracle(small_ws)

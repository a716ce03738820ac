"""Unit tests for distributed partitioned counting (Section VI combined)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.distributed import distributed_count_triangles, lpt_assign
from repro.core.partitioned import subset_weight
from repro.cpu.matmul import matmul_count
from repro.errors import OutOfDeviceMemoryError, ReproError
from repro.graphs.edgearray import EdgeArray
from repro.gpusim.device import TESLA_C2050
from repro.gpusim.memory import DeviceMemory


class TestSubsetWeight:
    def test_classic_inclusion_exclusion(self):
        """p=4: triples +1, pairs −1, singles +1."""
        assert subset_weight(3, 4) == 1
        assert subset_weight(2, 4) == -1
        assert subset_weight(1, 4) == 1

    def test_two_parts(self):
        """p=2: the pair covers everything, singles weigh 0."""
        assert subset_weight(2, 2) == 1
        assert subset_weight(1, 2) == 0

    def test_one_part(self):
        assert subset_weight(1, 1) == 1

    def test_weights_cover_each_support_once(self):
        """Σ_{Q ⊇ S, |Q| ≤ 3} w(|Q|) = 1 for every support size |S| ≤ 3."""
        from math import comb
        for p in (3, 4, 5, 8):
            for s_size in (1, 2, 3):
                total = sum(comb(p - s_size, q_size - s_size)
                            * subset_weight(q_size, p)
                            for q_size in range(s_size, min(3, p) + 1))
                assert total == 1, (p, s_size)


class TestDistributed:
    def test_exact_on_all_graphs(self, any_graph, oracle):
        res = distributed_count_triangles(any_graph, num_gpus=2, num_parts=4)
        assert res.triangles == oracle(any_graph)

    def test_various_configurations(self, small_rmat, oracle):
        for gpus, parts in ((1, 1), (1, 4), (3, 5), (4, 2)):
            res = distributed_count_triangles(small_rmat, num_gpus=gpus,
                                              num_parts=parts)
            assert res.triangles == oracle(small_rmat), (gpus, parts)

    def test_invalid_args(self, k5):
        with pytest.raises(ReproError):
            distributed_count_triangles(k5, num_gpus=0)
        with pytest.raises(ReproError):
            distributed_count_triangles(k5, num_parts=0)

    def test_no_serial_bottleneck(self, medium_rmat):
        """More GPUs shrink the makespan — there is no Amdahl cap
        because every job preprocesses on its own device."""
        one = distributed_count_triangles(medium_rmat, num_gpus=1,
                                          num_parts=6)
        four = distributed_count_triangles(medium_rmat, num_gpus=4,
                                           num_parts=6)
        assert four.triangles == one.triangles
        assert four.makespan_ms < one.makespan_ms
        speedup = one.total_ms / four.total_ms
        assert speedup > 1.5

    def test_load_balance_reported(self, small_ba):
        res = distributed_count_triangles(small_ba, num_gpus=3, num_parts=6)
        assert 0.0 < res.load_balance <= 1.0

    def test_fits_memory_capped_devices(self, medium_rmat, oracle):
        """The headline capability: a graph that overflows one device
        (even via the † path) is counted by splitting it."""
        from repro.core.forward_gpu import gpu_count_triangles
        device = TESLA_C2050.with_memory(medium_rmat.num_arcs * 8 // 2)
        with pytest.raises(OutOfDeviceMemoryError):
            gpu_count_triangles(medium_rmat, device=device,
                                memory=DeviceMemory(device))
        res = distributed_count_triangles(medium_rmat, device=device,
                                          num_gpus=4, num_parts=8)
        assert res.triangles == oracle(medium_rmat)
        assert res.largest_subgraph_arcs < medium_rmat.num_arcs

    def test_redundancy_reported(self, small_ws):
        res = distributed_count_triangles(small_ws, num_gpus=2, num_parts=4)
        assert res.redundant_arc_work > small_ws.num_arcs


class TestLptAssign:
    def test_balances_loads(self):
        costs = [10, 9, 8, 1, 1, 1]
        assignment = lpt_assign(costs, 2)
        loads = [0, 0]
        for cost, dev in zip(costs, assignment):
            loads[dev] += cost
        # greedy LPT: 10 | 9, 8 — the three units then level the gap
        assert sorted(loads) == [13, 17]

    def test_invalid_args(self):
        with pytest.raises(ReproError):
            lpt_assign([1], 0)
        with pytest.raises(ReproError):
            lpt_assign([1, 2], 2, sizes=[1])
        with pytest.raises(ReproError):
            lpt_assign([1], 2, capacities=[10])

    def test_memory_aware_placement(self):
        # Job 0 only fits device 1; job 1 fits both; job 2 fits nowhere.
        assignment = lpt_assign([5, 3, 4], 2,
                                sizes=[100, 10, 900],
                                capacities=[50, 200])
        assert assignment[0] == 1
        assert assignment[1] in (0, 1)
        assert assignment[2] == -1

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_property_never_exceeds_per_device_memory(self, data):
        """LPT placement never puts a job on a device that cannot hold
        its working set, and any job that fits somewhere is placed."""
        num_jobs = data.draw(st.integers(1, 12))
        num_devs = data.draw(st.integers(1, 5))
        costs = data.draw(st.lists(st.integers(1, 1000),
                                   min_size=num_jobs, max_size=num_jobs))
        sizes = data.draw(st.lists(st.integers(1, 1000),
                                   min_size=num_jobs, max_size=num_jobs))
        caps = data.draw(st.lists(st.integers(1, 1000),
                                  min_size=num_devs, max_size=num_devs))
        assignment = lpt_assign(costs, num_devs, sizes=sizes, capacities=caps)
        for size, dev in zip(sizes, assignment):
            if dev == -1:
                assert all(size > c for c in caps)
            else:
                assert size <= caps[dev]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_property_lpt_makespan_bound(self, data):
        """Without capacities every job is placed and the greedy makespan
        satisfies the classic list-scheduling bound (mean + max cost)."""
        costs = data.draw(st.lists(st.integers(1, 500), min_size=1,
                                   max_size=20))
        num_devs = data.draw(st.integers(1, 6))
        assignment = lpt_assign(costs, num_devs)
        assert all(0 <= d < num_devs for d in assignment)
        loads = [0.0] * num_devs
        for cost, dev in zip(costs, assignment):
            loads[dev] += cost
        assert max(loads) <= sum(costs) / num_devs + max(costs) + 1e-9


@st.composite
def random_graphs(draw, max_nodes=16, max_edges=32):
    n = draw(st.integers(min_value=3, max_value=max_nodes))
    k = draw(st.integers(min_value=0, max_value=max_edges))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=k, max_size=k))
    u = np.array([p[0] for p in pairs], dtype=np.int32)
    v = np.array([p[1] for p in pairs], dtype=np.int32)
    return EdgeArray.from_undirected(u, v, num_nodes=n)


class TestInclusionExclusionProperty:
    @settings(max_examples=8, deadline=None)
    @given(graph=random_graphs(), num_parts=st.integers(1, 5),
           seed=st.integers(0, 3))
    def test_weights_sum_to_exact_count(self, graph, num_parts, seed):
        """Σ w(Q)·count(Q) over the ≤3-subsets equals the exact triangle
        count on arbitrary random graphs and partition seeds."""
        res = distributed_count_triangles(graph, num_gpus=2,
                                          num_parts=num_parts, seed=seed)
        assert res.triangles == matmul_count(graph).triangles

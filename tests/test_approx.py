"""Unit tests for the approximate counters (Section V related work)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.cpu.approx import birthday_paradox_count, doulion_count
from repro.cpu.approx.doulion import sparsify
from repro.cpu.forward import forward_count_cpu
from repro.cpu.matmul import matmul_count
from repro.errors import ReproError
from repro.graphs.edgearray import EdgeArray
from repro.graphs.generators import clique_cover, complete_graph, star_graph
from repro.serve import TraceConfig, build_graph_pool


@pytest.fixture(scope="module")
def dense_graph():
    """Triangle-rich graph where relative estimation error is small."""
    return clique_cover(400, 120, mean_group_size=14, seed=3)


class TestDoulion:
    def test_p_one_is_exact(self, small_ba, oracle):
        res = doulion_count(small_ba, p=1.0, seed=1)
        assert res.estimated_triangles == oracle(small_ba)

    def test_unbiased_ballpark(self, dense_graph):
        truth = matmul_count(dense_graph).triangles
        estimates = [doulion_count(dense_graph, p=0.5, seed=s).estimate
                     for s in range(5)]
        mean = sum(estimates) / len(estimates)
        assert mean == pytest.approx(truth, rel=0.25)

    def test_sparsification_reduces_edges(self, small_ba):
        res = doulion_count(small_ba, p=0.3, seed=2)
        assert res.kept_edges < small_ba.num_edges * 0.45
        assert res.kept_edges > small_ba.num_edges * 0.15

    def test_invalid_p(self, k5):
        with pytest.raises(ReproError):
            doulion_count(k5, p=0.0)
        with pytest.raises(ReproError):
            doulion_count(k5, p=1.5)

    def test_scaling_factor(self, k5):
        res = doulion_count(k5, p=0.5, seed=4)
        assert res.estimate == pytest.approx(res.sparsified_triangles / 0.125)

    def test_error_bound_is_zero_for_exact_runs(self, small_ba):
        res = doulion_count(small_ba, p=1.0, seed=1)
        assert res.error_bound == 0.0
        assert res.relative_error_bound == 0.0

    def test_error_bound_brackets_truth(self, dense_graph):
        # A 2-sigma plug-in bound: allow the occasional 3-sigma escape
        # but demand the bracket holds for the large majority of seeds.
        truth = matmul_count(dense_graph).triangles
        hits = sum(
            abs(doulion_count(dense_graph, p=0.5, seed=s).estimate - truth)
            <= doulion_count(dense_graph, p=0.5, seed=s).error_bound
            for s in range(10))
        assert hits >= 8

    def test_error_bound_shrinks_with_p(self, dense_graph):
        loose = doulion_count(dense_graph, p=0.25, seed=1)
        tight = doulion_count(dense_graph, p=0.75, seed=1)
        assert tight.relative_error_bound < loose.relative_error_bound


def _edge_pair_oracle(graph: EdgeArray) -> int:
    """Σ_e C(t_e, 2) with t_e read off ``(A @ A) ∘ A`` (each edge twice)."""
    n = graph.num_nodes
    a = sp.csr_matrix((np.ones(graph.num_arcs, np.int64),
                       (graph.first, graph.second)), shape=(n, n))
    t_e = (a @ a).multiply(a).tocoo().data
    return int((t_e * (t_e - 1) // 2).sum()) // 2


def _check_against_oracles(graph: EdgeArray, p: float, seed: int) -> None:
    res = doulion_count(graph, p=p, seed=seed)
    sparse = sparsify(graph, p, seed)
    assert res.kept_edges == sparse.num_edges
    assert res.sparsified_triangles == forward_count_cpu(sparse).triangles
    assert res.edge_pair_triangles == _edge_pair_oracle(sparse)


def _wheel(rim: int) -> EdgeArray:
    """Hub 0 joined to every vertex of a ``rim``-cycle: ``rim`` triangles
    around one hub of degree ``rim``."""
    ring = np.arange(1, rim + 1)
    return EdgeArray.from_undirected(
        np.concatenate([np.zeros(rim, np.int64), ring]),
        np.concatenate([ring, np.roll(ring, 1)]), num_nodes=rim + 1)


@st.composite
def _graphs(draw, max_nodes=24, max_edges=80):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          max_size=max_edges))
    u = np.array([a for a, _ in pairs], dtype=np.int64)
    v = np.array([b for _, b in pairs], dtype=np.int64)
    return EdgeArray.from_undirected(u, v, num_nodes=n)


class TestDoulionDifferential:
    """The listing pass against independent oracles of the same
    sparsified graph: forward counting for S, ``(A @ A) ∘ A`` for R_s."""

    @settings(max_examples=60, deadline=None)
    @given(_graphs(), st.sampled_from([0.1, 0.5, 0.9, 1.0]),
           st.integers(0, 2**16))
    def test_hypothesis_graphs(self, graph, p, seed):
        _check_against_oracles(graph, p, seed)

    @pytest.mark.parametrize("graph", [
        complete_graph(30),
        star_graph(300),                  # hub degree >> 32, no triangles
        _wheel(200),                      # hub degree >> 32, triangles
        EdgeArray.from_undirected([0, 1, 0], [1, 2, 2], num_nodes=50),
        EdgeArray.empty(7),
        EdgeArray.empty(0),
    ], ids=["k30", "star", "wheel", "isolated", "empty", "no-nodes"])
    @pytest.mark.parametrize("p", [0.25, 0.9, 1.0])
    def test_adversarial_graphs(self, graph, p):
        _check_against_oracles(graph, p, seed=3)

    def test_covariance_term_beyond_4096_nodes(self):
        # A clique among thousands of isolated vertices: the pair count
        # must not fall back to 0 on large graphs.
        k = complete_graph(40)
        graph = EdgeArray.from_undirected(k.first + 5000, k.second + 5000,
                                          num_nodes=6000)
        res = doulion_count(graph, p=0.5, seed=1)
        assert res.edge_pair_triangles > 0
        assert res.edge_pair_triangles == _edge_pair_oracle(
            sparsify(graph, 0.5, 1))


#: (sparsified_triangles, edge_pair_triangles, error_bound) of
#: doulion_count(pool[i], p=0.25, seed=i) on the seed-0 serve pool
#: (whale last), as computed by the dense A² formulation.
_SERVE_POOL_PINS = [
    (38, 48, 1338.8472653742099),
    (46, 77, 1623.0341955732172),
    (191, 506, 3939.023229177508),
    (225, 690, 4537.206188834711),
    (503, 1835, 7294.473524525262),
    (1115, 4583, 11428.671313849218),
]


def test_serve_pool_pins():
    pool = build_graph_pool(TraceConfig(seed=0))
    got = []
    for i, graph in enumerate(pool):
        res = doulion_count(graph, p=0.25, seed=i)
        got.append((res.sparsified_triangles, res.edge_pair_triangles,
                    res.error_bound))
    assert got == _SERVE_POOL_PINS


class TestBirthdayParadox:
    def test_complete_graph_transitivity(self):
        """K_n has transitivity exactly 1; the estimator must see ~1."""
        g = complete_graph(40)
        res = birthday_paradox_count(g, edge_reservoir=300,
                                     wedge_reservoir=300, seed=1)
        assert res.transitivity_estimate == pytest.approx(1.0, abs=0.15)

    def test_triangle_estimate_ballpark(self, dense_graph):
        truth = matmul_count(dense_graph).triangles
        res = birthday_paradox_count(dense_graph, edge_reservoir=800,
                                     wedge_reservoir=800, seed=2)
        assert truth / 4 < res.triangle_estimate < truth * 4

    def test_triangle_free_graph(self, triangle_free):
        res = birthday_paradox_count(triangle_free, edge_reservoir=100,
                                     wedge_reservoir=100, seed=3)
        assert res.transitivity_estimate == 0.0
        assert res.estimated_triangles == 0

    def test_tiny_stream(self, triangle):
        res = birthday_paradox_count(triangle, seed=4)
        assert res.triangle_estimate >= 0.0

    def test_invalid_reservoirs(self, k5):
        with pytest.raises(ReproError):
            birthday_paradox_count(k5, edge_reservoir=1)

    def test_error_bound_zero_on_triangle_free(self, triangle_free):
        res = birthday_paradox_count(triangle_free, edge_reservoir=100,
                                     wedge_reservoir=100, seed=3)
        assert res.closed_wedges == 0
        assert res.relative_error_bound in (0.0,) or res.error_bound >= 0.0

    def test_error_bound_positive_when_sampling(self, dense_graph):
        res = birthday_paradox_count(dense_graph, edge_reservoir=800,
                                     wedge_reservoir=800, seed=2)
        assert 0 < res.closed_wedges <= res.wedge_reservoir_fill
        assert res.error_bound > 0.0
        assert res.relative_error_bound > 0.0

    def test_error_bound_brackets_truth_usually(self, dense_graph):
        truth = matmul_count(dense_graph).triangles
        hits = 0
        for s in range(10):
            res = birthday_paradox_count(dense_graph, edge_reservoir=800,
                                         wedge_reservoir=800, seed=s)
            hits += abs(res.triangle_estimate - truth) <= res.error_bound
        assert hits >= 7

"""Property-based tests (hypothesis) on core invariants.

Strategy: generate arbitrary small simple graphs, then assert the
invariants every layer promises — counter agreement across all exact
algorithms and backends, isomorphism/order invariance, format round
trips, preprocessing structure, and the subgraph monotonicity of the
triangle count.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.count_kernel import count_triangles_kernel
from repro.core.options import GpuOptions
from repro.core.partitioned import partitioned_count_triangles
from repro.core.preprocess import forward_mask, preprocess
from repro.cpu.compact_forward import compact_forward_count
from repro.cpu.edge_iterator import edge_iterator_count
from repro.cpu.forward import forward_count_cpu
from repro.cpu.matmul import matmul_count
from repro.cpu.node_iterator import node_iterator_count
from repro.graphs.edgearray import EdgeArray
from repro.graphs.validate import validate_edge_array
from repro.gpusim.device import GTX_980
from repro.gpusim.memory import DeviceMemory
from repro.gpusim.simt import LaunchConfig, SimtEngine
from repro.gpusim.timing import Timeline


@st.composite
def graphs(draw, max_nodes=24, max_edges=60):
    """Arbitrary simple undirected graphs as EdgeArrays."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    k = draw(st.integers(min_value=0, max_value=max_edges))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=k, max_size=k))
    u = np.array([p[0] for p in pairs], dtype=np.int64)
    v = np.array([p[1] for p in pairs], dtype=np.int64)
    return EdgeArray.from_undirected(u, v, num_nodes=n)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_all_exact_counters_agree(g):
    """forward = edge-iterator = node-iterator = compact-forward = matmul."""
    expected = matmul_count(g).triangles
    assert forward_count_cpu(g).triangles == expected
    assert edge_iterator_count(g).triangles == expected
    assert node_iterator_count(g).triangles == expected
    assert compact_forward_count(g).triangles == expected


@settings(max_examples=25, deadline=None)
@given(graphs(max_nodes=16, max_edges=40))
def test_gpu_kernel_agrees_with_cpu(g):
    expected = forward_count_cpu(g).triangles
    device = GTX_980
    memory = DeviceMemory(device)
    pre = preprocess(g, device, memory, Timeline())
    engine = SimtEngine(device, LaunchConfig(32, 1))
    assert count_triangles_kernel(engine, pre).triangles == expected


@settings(max_examples=40, deadline=None)
@given(graphs(), st.integers(min_value=0, max_value=2**31 - 1))
def test_count_is_isomorphism_invariant(g, seed):
    relabeled = g.relabeled(seed=seed)
    assert matmul_count(relabeled).triangles == matmul_count(g).triangles


@settings(max_examples=40, deadline=None)
@given(graphs(), st.integers(min_value=0, max_value=2**31 - 1))
def test_count_is_arc_order_invariant(g, seed):
    assert (forward_count_cpu(g.shuffled(seed=seed)).triangles
            == forward_count_cpu(g).triangles)


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_from_undirected_always_validates(g):
    validate_edge_array(g)


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_aos_roundtrip(g):
    assert EdgeArray.from_aos(g.as_aos(), num_nodes=g.num_nodes,
                              check=False) == g


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_forward_mask_keeps_exactly_half(g):
    keep = forward_mask(g.first, g.second, g.degrees())
    assert int(keep.sum()) == g.num_edges


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_triangle_bounds(g):
    """0 ≤ T ≤ C(n,3); T ≤ wedges/3."""
    t = matmul_count(g).triangles
    n = g.num_nodes
    deg = g.degrees()
    wedges = int((deg * (deg - 1) // 2).sum())
    assert 0 <= t <= n * (n - 1) * (n - 2) // 6
    assert 3 * t <= wedges


@settings(max_examples=25, deadline=None)
@given(graphs(max_nodes=16, max_edges=40), st.integers(0, 100))
def test_removing_an_edge_never_adds_triangles(g, pick):
    if g.num_edges == 0:
        return
    mask = g.first < g.second
    u, v = g.first[mask], g.second[mask]
    drop = pick % len(u)
    keep = np.ones(len(u), bool)
    keep[drop] = False
    sub = EdgeArray.from_undirected(u[keep], v[keep], num_nodes=g.num_nodes)
    assert matmul_count(sub).triangles <= matmul_count(g).triangles


@settings(max_examples=20, deadline=None)
@given(graphs(max_nodes=16, max_edges=40),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_partitioned_count_is_exact(g, parts, seed):
    assert (partitioned_count_triangles(g, num_parts=parts, seed=seed)
            .triangles == matmul_count(g).triangles)


@settings(max_examples=15, deadline=None)
@given(graphs(max_nodes=14, max_edges=30))
def test_kernel_variants_agree(g):
    """All four optimization corners produce the same count."""
    device = GTX_980
    expected = matmul_count(g).triangles
    for opts in (GpuOptions(),
                 GpuOptions(unzip=False),
                 GpuOptions(merge_variant="preliminary"),
                 GpuOptions(unzip=False, merge_variant="preliminary",
                            use_readonly_cache=False)):
        memory = DeviceMemory(device)
        pre = preprocess(g, device, memory, Timeline(), opts)
        engine = SimtEngine(device, LaunchConfig(32, 1),
                            use_ro_cache=opts.use_readonly_cache)
        assert count_triangles_kernel(engine, pre, opts).triangles == expected

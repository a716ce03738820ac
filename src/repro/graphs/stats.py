"""Graph statistics: degrees, wedges, per-vertex triangles, clustering.

The clustering coefficient and the transitivity ratio are the paper's
motivating applications (Section I): both reduce to triangle counts plus
wedge (two-edge path) counts, so this module is the "downstream user" of
the counting library.

Per-vertex triangle counts are computed with sparse matrix algebra
(``(A·A) ∘ A`` row sums) — an independent method from the merge-based
counters, which makes these functions double as a cross-check oracle in
the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.graphs.edgearray import EdgeArray

if TYPE_CHECKING:
    import scipy.sparse as sp


def adjacency_matrix(graph: EdgeArray) -> sp.csr_matrix:
    """The symmetric 0/1 adjacency matrix as ``scipy.sparse.csr_matrix``."""
    import scipy.sparse as sp    # only the algebraic paths need SciPy

    n = graph.num_nodes
    data = np.ones(graph.num_arcs, dtype=np.int64)
    return sp.csr_matrix((data, (graph.first, graph.second)), shape=(n, n))


def local_triangles(graph: EdgeArray) -> np.ndarray:
    """Number of triangles through each vertex (int64, length num_nodes).

    ``t(v) = ((A @ A) ∘ A) row-sum / 2`` — each triangle at ``v`` is
    counted once per ordered pair of its other two vertices.
    """
    if graph.num_nodes == 0:
        return np.zeros(0, dtype=np.int64)
    a = adjacency_matrix(graph)
    paths = (a @ a).multiply(a)
    return np.asarray(paths.sum(axis=1)).ravel().astype(np.int64) // 2


def triangle_count_matmul(graph: EdgeArray) -> int:
    """Total triangles via ``trace(A³)/6`` — the Alon–Yuster–Zwick method
    the paper cites [21]."""
    return int(local_triangles(graph).sum()) // 3


def wedge_counts(graph: EdgeArray) -> np.ndarray:
    """Number of wedges (two-edge paths) centred at each vertex: C(deg, 2)."""
    deg = graph.degrees()
    return deg * (deg - 1) // 2


def local_clustering(graph: EdgeArray) -> np.ndarray:
    """Per-vertex clustering coefficient ``t(v) / C(deg(v), 2)``.

    Vertices of degree < 2 get coefficient 0 (the usual convention).
    """
    wedges = wedge_counts(graph)
    tri = local_triangles(graph)
    out = np.zeros(graph.num_nodes, dtype=np.float64)
    mask = wedges > 0
    out[mask] = tri[mask] / wedges[mask]
    return out


def average_clustering(graph: EdgeArray) -> float:
    """Watts–Strogatz average clustering coefficient."""
    if graph.num_nodes == 0:
        return 0.0
    return float(local_clustering(graph).mean())


def transitivity(graph: EdgeArray) -> float:
    """Transitivity ratio: ``3 · triangles / wedges`` (0 if no wedges)."""
    wedges = int(wedge_counts(graph).sum())
    if wedges == 0:
        return 0.0
    return 3.0 * triangle_count_matmul(graph) / wedges


def degree_skew(graph: EdgeArray) -> float:
    """Tail heaviness of the degree distribution (Hill-style estimate).

    The mean log-ratio of the top-``k`` degrees to the largest of them,
    ``k = max(2, ⌊√(#vertices with degree > 0)⌋)`` — the (negated) Hill
    estimator's summand, used here as a cheap scale-free-ness score
    rather than a tail-index fit.  Regular graphs (complete, ring
    lattices before rewiring) score exactly ``0.0``; heavier tails score
    higher (BA/R-MAT generators land well above Watts–Strogatz or
    G(n,m) at the same size).  Degree-0 vertices are excluded so padding
    isolated vertices cannot dilute the score.

    This is one of the two coordinates of the kernel auto-pick
    (:mod:`repro.core.autopick`): skew predicts how unbalanced the
    per-edge ``|adj(u)| vs |adj(v)|`` split is, which is what separates
    the merge kernel (linear in both) from binary-search/hash probing
    (loops over the shorter side only).
    """
    deg = graph.degrees()
    deg = deg[deg > 0]
    if len(deg) == 0:
        return 0.0
    k = max(2, int(np.sqrt(len(deg))))
    k = min(k, len(deg))
    top = np.sort(deg)[-k:][::-1].astype(np.float64)
    return float(np.mean(np.log(top[0]) - np.log(top)))


def density(graph: EdgeArray) -> float:
    """Fraction of possible edges present: ``2E / (n·(n-1))``.

    ``1.0`` for complete graphs, ``0.0`` for edgeless or trivial ones.
    The second auto-pick coordinate: density bounds the expected
    adjacency overlap, which sets merge's streaming advantage against
    the probing kernels' O(short side) work.
    """
    n = graph.num_nodes
    if n < 2:
        return 0.0
    return 2.0 * graph.num_edges / (n * (n - 1))


@dataclass(frozen=True)
class GraphSummary:
    """Table-I-style one-line description of a graph.

    ``degree_skew`` and ``density`` are the auto-pick coordinates
    (cheap, degree-only); they default to ``0.0`` so summaries decoded
    from older artifacts stay constructible.
    """

    num_nodes: int
    num_edges: int
    num_arcs: int
    max_degree: int
    mean_degree: float
    triangles: int
    degree_skew: float = 0.0
    density: float = 0.0

    @classmethod
    def of(cls, graph: EdgeArray) -> "GraphSummary":
        deg = graph.degrees()
        return cls(
            num_nodes=graph.num_nodes,
            num_edges=graph.num_edges,
            num_arcs=graph.num_arcs,
            max_degree=int(deg.max()) if len(deg) else 0,
            mean_degree=float(deg.mean()) if len(deg) else 0.0,
            triangles=triangle_count_matmul(graph),
            degree_skew=degree_skew(graph),
            density=density(graph),
        )


def degree_histogram(graph: EdgeArray) -> np.ndarray:
    """``hist[d]`` = number of vertices with degree ``d``."""
    deg = graph.degrees()
    if len(deg) == 0:
        return np.zeros(1, dtype=np.int64)
    return np.bincount(deg)

"""Connected components and related preprocessing utilities.

Real-graph archives (SNAP, DIMACS10) often ship graphs whose interesting
structure lives in the giant component; extracting it — and compacting
vertex ids afterward — is the standard preprocessing step before a
counting run, so the library provides it as a first-class operation.
(Triangle counts are per-component additive, which the test suite uses
as yet another counting invariant.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.edgearray import EdgeArray
from repro.types import VERTEX_DTYPE


@dataclass(frozen=True)
class ComponentInfo:
    """Connected-component labelling of a graph."""

    num_components: int
    labels: np.ndarray          # int array, length num_nodes
    sizes: np.ndarray           # int64 array, length num_components

    @property
    def giant_label(self) -> int:
        return int(np.argmax(self.sizes)) if self.num_components else 0


def connected_components(graph: EdgeArray) -> ComponentInfo:
    """Label the connected components (isolated vertices count too)."""
    import scipy.sparse as sp    # SciPy loads on first use, not on import
    from scipy.sparse import csgraph

    n = graph.num_nodes
    if n == 0:
        return ComponentInfo(0, np.zeros(0, np.int64), np.zeros(0, np.int64))
    matrix = sp.csr_matrix(
        (np.ones(graph.num_arcs, np.int8), (graph.first, graph.second)),
        shape=(n, n))
    count, labels = csgraph.connected_components(matrix, directed=False)
    sizes = np.bincount(labels, minlength=count).astype(np.int64)
    return ComponentInfo(num_components=int(count), labels=labels,
                         sizes=sizes)


def induced_subgraph(graph: EdgeArray, vertex_mask: np.ndarray,
                     compact: bool = True) -> EdgeArray:
    """The subgraph induced by ``vertex_mask`` (boolean, length num_nodes).

    With ``compact`` (default) surviving vertices are renumbered densely
    ``0..k-1`` in ascending original-id order; otherwise original ids and
    the original ``num_nodes`` are kept.
    """
    vertex_mask = np.asarray(vertex_mask, bool)
    keep = vertex_mask[graph.first] & vertex_mask[graph.second]
    first = graph.first[keep]
    second = graph.second[keep]
    if not compact:
        return EdgeArray(first, second, num_nodes=graph.num_nodes,
                         check=False)
    new_id = np.cumsum(vertex_mask) - 1
    return EdgeArray(new_id[first].astype(VERTEX_DTYPE),
                     new_id[second].astype(VERTEX_DTYPE),
                     num_nodes=int(vertex_mask.sum()), check=False)


def giant_component(graph: EdgeArray, compact: bool = True) -> EdgeArray:
    """The largest connected component (the usual counting substrate)."""
    info = connected_components(graph)
    if info.num_components == 0:
        return graph.copy()
    return induced_subgraph(graph, info.labels == info.giant_label,
                            compact=compact)

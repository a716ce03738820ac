"""Future-work extension #2 (paper Section VI): hybrid counting.

"It might be beneficial to use a different counting algorithm for a
small subset of vertices with largest degrees.  A natural candidate …
is matrix multiplication [21]."

The exact decomposition used here relies on the forward order ≺ being
(degree, id): the ``num_hubs`` highest-*ordered* vertices H form a
suffix of ≺, so for any triangle a ≺ b ≺ c,

* if the lowest corner a ∈ H then all three corners are hubs (T_HHH);
* otherwise a ∉ H.

Therefore:

* **T_HHH** is counted algebraically — sparse matmul on the small
  induced hub subgraph (the Alon–Yuster–Zwick ingredient);
* **everything else** is counted by the forward merge with hub entries
  *filtered out of the adjacency lists*: the walk over all forward arcs
  (b, c) then finds exactly the common lower-neighbors a ∉ H.

The merge phase never scans hub entries — precisely the "different
algorithm for the largest degrees" the paper sketches — while the sum
stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.preprocess import forward_lists
from repro.cpu.forward import forward_count_cpu, merge_walk
from repro.cpu.matmul import matmul_count
from repro.errors import ReproError
from repro.graphs.csr import build_node_ptr
from repro.graphs.edgearray import EdgeArray
from repro.types import TriangleCount


@dataclass(frozen=True)
class HybridResult:
    triangles: int
    hub_triangles: int          # T_HHH, counted algebraically
    nonhub_triangles: int       # everything else, counted by merges
    num_hubs: int
    merge_steps: int            # merge work of the filtered walk
    baseline_merge_steps: int   # what plain forward would have spent

    @property
    def merge_steps_saved(self) -> int:
        return self.baseline_merge_steps - self.merge_steps

    def as_triangle_count(self) -> TriangleCount:
        return TriangleCount(self.triangles)


def hybrid_count_triangles(graph: EdgeArray,
                           hub_fraction: float = 0.01,
                           hub_counter=None) -> HybridResult:
    """Exact count via matmul-on-hubs + hub-filtered forward merges.

    Parameters
    ----------
    hub_fraction : float
        Fraction of vertices (highest degree-order first) treated as hubs.
    hub_counter : callable(EdgeArray) -> int, optional
        Exact counter for the induced hub subgraph (T_HHH).  Defaults
        to sparse matmul (the Alon–Yuster–Zwick ingredient the paper
        names).  To count that leg on a simulated GPU through the
        unified runtime instead, pass
        ``lambda g: gpu_count_triangles(g, device=…, options=…).triangles``
        (:func:`repro.core.forward_gpu.gpu_count_triangles`; a
        ``kernel="auto"`` option resolves against the induced hub graph).
    """
    if not (0.0 <= hub_fraction <= 1.0):
        raise ReproError(f"hub_fraction must be in [0, 1], got {hub_fraction}")
    n = graph.num_nodes
    num_hubs = int(round(n * hub_fraction))
    baseline = forward_count_cpu(graph)
    if num_hubs < 3 or n == 0:
        return HybridResult(triangles=baseline.triangles, hub_triangles=0,
                            nonhub_triangles=baseline.triangles, num_hubs=0,
                            merge_steps=baseline.merge_steps,
                            baseline_merge_steps=baseline.merge_steps)

    # Hubs = suffix of the forward order (degree, then id).
    deg = graph.degrees()
    order = np.lexsort((np.arange(n), deg))    # ascending ≺
    hub_ids = order[-num_hubs:]
    is_hub = np.zeros(n, bool)
    is_hub[hub_ids] = True

    # T_HHH on the induced hub subgraph.
    both_hub = is_hub[graph.first] & is_hub[graph.second]
    hub_graph = EdgeArray(graph.first[both_hub], graph.second[both_hub],
                          num_nodes=n, check=False)
    if hub_counter is None:
        t_hhh = matmul_count(hub_graph).triangles
    else:
        t_hhh = int(hub_counter(hub_graph))

    # Forward structures: walk *all* forward arcs against adjacency lists
    # containing only non-hub (lower) entries.
    walk_u, walk_v, _ = forward_lists(graph)

    content_ok = ~is_hub[walk_u]
    adj = walk_u[content_ok]
    keys = walk_v[content_ok]
    node = build_node_ptr(keys, n)

    walk = merge_walk(adj, node, walk_u, walk_v)

    return HybridResult(triangles=walk.total_matches + t_hhh,
                        hub_triangles=t_hhh,
                        nonhub_triangles=walk.total_matches,
                        num_hubs=num_hubs,
                        merge_steps=walk.total_steps,
                        baseline_merge_steps=baseline.merge_steps)

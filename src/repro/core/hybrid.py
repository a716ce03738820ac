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

from repro.core.preprocess import forward_mask
from repro.cpu.forward import forward_count_cpu, merge_walk
from repro.cpu.matmul import matmul_count
from repro.errors import ReproError
from repro.graphs.csr import build_node_ptr
from repro.graphs.edgearray import EdgeArray
from repro.types import TriangleCount, pack_edges, unpack_edges


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


def gpu_hub_counter(device=None, options=None):
    """A ``hub_counter`` backend that counts T_HHH on a simulated GPU.

    The hybrid decomposition only requires *some* exact counter for the
    induced hub subgraph; matmul (the paper's suggestion) is the
    default, and this factory routes that leg through the unified
    runtime instead — one :func:`repro.runtime.launch` of the merge
    kernel per call, so the hub leg shares engine selection and
    sanitizer wiring with every other pipeline.
    """
    from repro.core.autopick import resolve_options
    from repro.core.options import GpuOptions
    from repro.gpusim.device import GTX_980
    from repro.runtime import LaunchPlan, launch, spec_for_options

    device = GTX_980 if device is None else device
    options = GpuOptions() if options is None else options

    def counter(hub_graph: EdgeArray) -> int:
        # kernel="auto" resolves against the induced hub graph (whose
        # degree structure, not the full graph's, is what the leg runs
        # on); explicit kernels resolve to a spec exactly once.
        opts = resolve_options(hub_graph, options)
        return launch(LaunchPlan(kernel=spec_for_options(opts),
                                 graph=hub_graph, device=device,
                                 options=opts)).triangles

    return counter


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
        names); :func:`gpu_hub_counter` counts that leg on a simulated
        GPU through the unified runtime instead.
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
    keep = forward_mask(graph.first, graph.second, deg)
    packed_all = np.sort(pack_edges(graph.first[keep], graph.second[keep]))
    walk_u, walk_v = unpack_edges(packed_all)

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

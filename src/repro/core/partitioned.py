"""Future-work extension #1 (paper Section VI): partitioned counting.

"…check if methods from [5], [17] can be applied … to split the graph
into subgraphs which can be processed independently.  This … would allow
to count triangles in graphs which do not fit into the GPU memory."

Scheme (Suri–Vassilvitskii / Chu–Cheng flavored, exact): partition the
vertex set into ``num_parts`` = p hash buckets.  Any triangle's corners
span a part-set of size ≤ 3, so by inclusion–exclusion

    total = Σ_{|Q| ≤ 3} w(|Q|) · f(Q),
    w(q) = Σ_{s=q}^{3} (−1)^{s−q} · C(p−q, s−q)

where f(Q) counts the subgraph induced by the parts in Q.  Subsets whose
weight is zero are never counted (at p ≤ 3 that leaves only the whole
graph); every other call sees only an induced subgraph — each of which
can fit a memory budget the whole graph cannot.  The redundancy (an arc
counted in several overlapping subsets) is the overhead the paper is
unsure would pay off; the bench measures it.
:mod:`repro.core.distributed` runs the same jobs across several GPUs.

Each subgraph can be counted on the CPU (default, fast) or on a
simulated GPU with a *small* memory cap — the demonstration that the
scheme lifts the paper's biggest limitation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from repro.cpu.forward import forward_count_cpu
from repro.errors import ReproError
from repro.graphs.edgearray import EdgeArray
from repro.types import TriangleCount


def subset_weight(subset_size: int, num_parts: int) -> int:
    """Inclusion–exclusion weight of an induced subgraph over
    ``subset_size`` parts (see module docstring)."""
    return sum((-1) ** (s - subset_size)
               * comb(num_parts - subset_size, s - subset_size)
               for s in range(subset_size, min(3, num_parts) + 1))


def subset_jobs(graph: EdgeArray, num_parts: int, seed: int = 0,
                ) -> list[tuple[tuple[int, ...], int, np.ndarray]]:
    """The scheme's counting jobs, ``(parts, weight, arc_mask)`` for every
    part subset with non-zero weight, smallest subsets first.

    Vertices go to parts by a seeded uniform hash; ``arc_mask`` selects
    the arcs with both endpoints in ``parts``.
    """
    rng = np.random.default_rng(seed)
    part_of = rng.integers(0, num_parts, size=max(graph.num_nodes, 1))
    pf = part_of[graph.first] if graph.num_arcs else np.zeros(0, np.int64)
    ps = part_of[graph.second] if graph.num_arcs else np.zeros(0, np.int64)
    jobs = []
    for size in range(1, min(3, num_parts) + 1):
        weight = subset_weight(size, num_parts)
        if weight == 0:
            continue
        for parts in combinations(range(num_parts), size):
            jobs.append((parts, weight,
                         np.isin(pf, parts) & np.isin(ps, parts)))
    return jobs


@dataclass(frozen=True)
class PartitionedResult:
    triangles: int
    num_parts: int
    subgraph_counts: int          # how many induced counting calls ran
    largest_subgraph_arcs: int    # memory high-water mark, in arcs
    redundant_arc_work: int       # Σ subgraph arcs (the splitting overhead)

    def as_triangle_count(self) -> TriangleCount:
        return TriangleCount(self.triangles)


def partitioned_count_triangles(graph: EdgeArray,
                                num_parts: int = 4,
                                counter=None,
                                seed: int = 0) -> PartitionedResult:
    """Exact triangle count via vertex-partitioned induced subgraphs.

    Parameters
    ----------
    num_parts : int
        Number of vertex buckets p; each counting call sees at most
        3/p-ish of the graph (plus skew).
    counter : callable(EdgeArray) -> int, optional
        Counting backend per subgraph; defaults to the CPU forward
        algorithm.  For the GPU backend — counting a graph that exceeds
        a single device's memory, one full runtime launch per induced
        subgraph on a fresh device memory — pass
        ``lambda g: gpu_count_triangles(g, device=…, options=…).triangles``
        (:func:`repro.core.forward_gpu.gpu_count_triangles`; a
        ``kernel="auto"`` option resolves per induced subgraph).
    """
    if num_parts < 1:
        raise ReproError(f"num_parts must be >= 1, got {num_parts}")
    if counter is None:
        counter = lambda g: forward_count_cpu(g).triangles  # noqa: E731

    if num_parts == 1 or graph.num_nodes == 0:
        t = counter(graph)
        return PartitionedResult(t, num_parts, 1, graph.num_arcs,
                                 graph.num_arcs)

    jobs = subset_jobs(graph, num_parts, seed)
    total = largest = arc_work = 0
    for _, weight, mask in jobs:
        sub = EdgeArray(graph.first[mask], graph.second[mask],
                        num_nodes=graph.num_nodes, check=False)
        largest = max(largest, sub.num_arcs)
        arc_work += sub.num_arcs
        total += weight * counter(sub)
    return PartitionedResult(triangles=total, num_parts=num_parts,
                             subgraph_counts=len(jobs),
                             largest_subgraph_arcs=largest,
                             redundant_arc_work=arc_work)

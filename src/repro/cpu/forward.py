"""The sequential *forward* algorithm — the paper's CPU baseline.

Pipeline (Section II-B): orient every edge from its lower-ordered
endpoint to its higher-ordered endpoint (order = degree, ties by id),
sort, then for every kept arc intersect the two endpoints' oriented
adjacency lists with a two-pointer merge.  The orientation and layout
here are *identical* to the GPU pipeline's (same ``forward_mask``, same
(second, first) arc order), so CPU and GPU execute the same merges —
which is exactly the paper's measurement setup (its CPU baseline is its
own forward implementation on the same edge-array input).

The merge itself runs as a *batched walk*: all arcs advance one merge
iteration per pass, finished arcs compact away, so NumPy does
O(total merge steps) element-work while the Python loop runs only
O(longest merge) times.  The walk returns exact per-arc step counts —
the work measurement that feeds the Xeon timing model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.preprocess import forward_lists
from repro.graphs.edgearray import EdgeArray
from repro.gpusim.device import CpuSpec, XEON_X5650


@dataclass(frozen=True)
class MergeWalkResult:
    """Outcome of the batched two-pointer walk."""

    matches_per_arc: np.ndarray   # int64, one entry per walked arc
    steps_per_arc: np.ndarray     # int64, merge-loop iterations per arc

    @property
    def total_matches(self) -> int:
        return int(self.matches_per_arc.sum())

    @property
    def total_steps(self) -> int:
        return int(self.steps_per_arc.sum())


def merge_walk(adj: np.ndarray, node: np.ndarray,
               arc_u: np.ndarray, arc_v: np.ndarray) -> MergeWalkResult:
    """Two-pointer intersection of ``adj``-lists of ``(arc_u[i], arc_v[i])``.

    ``node`` bounds each vertex's sorted slice of ``adj``.  Every arc is
    walked exactly as the kernel's while loop would: one iteration
    compares the heads, advances the smaller side (both on a match), and
    stops when either list is exhausted.
    """
    n_arcs = len(arc_u)
    matches = np.zeros(n_arcs, np.int64)
    steps = np.zeros(n_arcs, np.int64)
    if n_arcs == 0:
        return MergeWalkResult(matches, steps)

    node = node.astype(np.int64)
    u_it = node[arc_u]
    u_end = node[arc_u.astype(np.int64) + 1]
    v_it = node[arc_v]
    v_end = node[arc_v.astype(np.int64) + 1]

    active = np.flatnonzero((u_it < u_end) & (v_it < v_end))
    while len(active):
        au = adj[u_it[active]]
        bv = adj[v_it[active]]
        d = au.astype(np.int64) - bv
        matches[active] += d == 0
        steps[active] += 1
        u_it[active] += d <= 0
        v_it[active] += d >= 0
        keep = (u_it[active] < u_end[active]) & (v_it[active] < v_end[active])
        active = active[keep]
    return MergeWalkResult(matches, steps)


@dataclass(frozen=True)
class ForwardCpuResult:
    """Exact count plus the measured work and its modelled Xeon time."""

    triangles: int
    num_forward_arcs: int
    merge_steps: int
    steps_per_arc: np.ndarray
    preprocess_ms: float
    count_ms: float

    @property
    def elapsed_ms(self) -> float:
        return self.preprocess_ms + self.count_ms


def forward_count_cpu(graph: EdgeArray,
                      cpu: CpuSpec = XEON_X5650) -> ForwardCpuResult:
    """Count triangles with the sequential forward algorithm.

    Returns exact results; ``elapsed_ms`` is the single-threaded Xeon
    X5650 model (measured work × the spec's throughput constants).
    """
    m = graph.num_arcs

    # --- preprocessing (modelled work: degrees, filter, sort, node) --- #
    # Arc order (second, first) — the same layout the GPU pipeline uses.
    adj, keys, node = forward_lists(graph)
    m_fwd = len(adj)

    log_m = np.log2(max(m_fwd, 2))
    preprocess_ns = (
        2 * m * cpu.ns_per_pass_element          # degrees + filter passes
        + m_fwd * log_m * cpu.ns_per_sort_compare  # sort of kept arcs
        + 2 * m_fwd * cpu.ns_per_pass_element      # node array build
    )

    # --- counting --------------------------------------------------- #
    walk = merge_walk(adj, node, adj[:m_fwd], keys)
    # (arc_u is the first column — adjacency content doubles as the arc's
    # first endpoint, exactly as the kernel reads edge[i].)
    count_ns = (walk.total_steps * cpu.ns_per_merge_step
                + m_fwd * cpu.ns_per_edge_setup)

    return ForwardCpuResult(
        triangles=walk.total_matches,
        num_forward_arcs=m_fwd,
        merge_steps=walk.total_steps,
        steps_per_arc=walk.steps_per_arc,
        preprocess_ms=preprocess_ns * 1e-6,
        count_ms=count_ns * 1e-6,
    )

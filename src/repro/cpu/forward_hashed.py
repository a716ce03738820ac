"""Schank–Wagner *forward-hashed*: hash-set intersection instead of merge.

The fourth algorithm of the paper's reference [3]: identical orientation
and edge iteration to *forward*, but each oriented adjacency list is a
hash set and the intersection probes the shorter list's entries against
the longer one's set — O(min(|A(u)|, |A(v)|)) expected per edge instead
of the merge's O(|A(u)| + |A(v)|) worst case.

Vectorized realization: "hash set membership" is a presence bitmap per
probe batch — for each arc, the shorter endpoint's entries are tested
against the longer endpoint's list through a global (vertex, list-owner)
key set.  Work accounting counts the probes, which is the quantity the
hash variant actually saves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.preprocess import forward_lists
from repro.graphs.edgearray import EdgeArray
from repro.gpusim.device import CpuSpec, XEON_X5650


@dataclass(frozen=True)
class ForwardHashedResult:
    triangles: int
    probes: int          # hash-set membership tests performed
    elapsed_ms: float


def forward_hashed_count(graph: EdgeArray,
                         cpu: CpuSpec = XEON_X5650) -> ForwardHashedResult:
    """Count triangles with forward-hashed (exact).

    The probe set is realized as sorted (owner, member) keys probed with
    ``np.isin``-style membership — semantically a perfect hash per list.
    """
    m = graph.num_arcs
    if m == 0:
        return ForwardHashedResult(0, 0, 0.0)
    n = graph.num_nodes

    adj, keys, node = forward_lists(graph)    # lists L(x) grouped by keys
    list_len = np.diff(node)

    # Membership oracle: the sorted (owner, member) key set itself.
    owner_member = (keys.astype(np.int64) * (n + 1) + adj.astype(np.int64))
    owner_member.sort()

    # For each arc (u, v): probe the shorter of L(u), L(v) against the
    # other's set.
    arc_u = adj.astype(np.int64)
    arc_v = keys.astype(np.int64)
    len_u = list_len[arc_u]
    len_v = list_len[arc_v]
    probe_from = np.where(len_u <= len_v, arc_u, arc_v)
    probe_into = np.where(len_u <= len_v, arc_v, arc_u)

    # Expand: one probe per element of the shorter list.
    probe_counts = np.minimum(len_u, len_v)
    arc_ids = np.repeat(np.arange(len(arc_u)), probe_counts)
    # element index within the probed list
    starts = node[probe_from]
    offsets = (np.arange(len(arc_ids))
               - np.repeat(np.cumsum(probe_counts) - probe_counts,
                           probe_counts))
    members = adj[(np.repeat(starts, probe_counts) + offsets)]
    into = np.repeat(probe_into, probe_counts)

    probe_keys = into * (n + 1) + members
    pos = np.searchsorted(owner_member, probe_keys)
    pos = np.minimum(pos, len(owner_member) - 1)
    hits = owner_member[pos] == probe_keys

    triangles = int(hits.sum())
    probes = len(probe_keys)
    # Cost model: probes at ~1 hash probe each plus the shared
    # preprocessing (degrees, filter, sort, node array, set build).
    m_fwd = len(arc_u)
    log_m = np.log2(max(m_fwd, 2))
    elapsed_ns = (2 * m * cpu.ns_per_pass_element
                  + 2 * m_fwd * log_m * cpu.ns_per_sort_compare
                  + 2 * m_fwd * cpu.ns_per_pass_element
                  + probes * cpu.ns_per_merge_step * 1.5  # hashing beats
                  + m_fwd * cpu.ns_per_edge_setup)        # merging per op,
    # but each probe costs more than a merge step (hash + chase).
    return ForwardHashedResult(triangles=triangles, probes=probes,
                               elapsed_ms=elapsed_ns * 1e-6)

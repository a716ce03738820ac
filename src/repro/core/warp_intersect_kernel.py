"""Warp-parallel intersection kernel — the Green et al. [15] comparator.

Section V: "The most recent work on the topic [15] proposes much more
elaborate algorithm, in which also the adjacency list intersection step
is parallelized. … Despite this, our algorithm achieves roughly two
times lower execution times" (on Citeseer and DBLP).

This module implements that *elaborate* strategy on the simulator so the
comparison can be regenerated: one **warp per edge**; the warp's lanes
split the shorter adjacency list into 32-element chunks and each lane
binary-searches its element in the longer list.  Latency per edge drops
(the intersection is parallel) but the work is
O(min(|A|,|B|) · log max(|A|,|B|)) with *scattered* reads — versus the
two-pointer merge's O(|A|+|B|) *streaming* reads.  Which one wins is a
cache question, which is exactly what the simulator measures.

Uses the same :class:`~repro.core.preprocess.PreprocessResult`
structures (same orientation, same layout), so counts are directly
comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.intersect import lower_bound_round
from repro.core.preprocess import PreprocessResult
from repro.errors import ReproError
from repro.gpusim.memory import DeviceBuffer
from repro.gpusim.simt import SimtEngine

#: Instruction estimates for this kernel's blocks.
SETUP_INSTRUCTIONS = 26      # edge + node loads + shorter-list selection
CHUNK_INSTRUCTIONS = 8       # chunk bounds + coalesced gather issue
SEARCH_INSTRUCTIONS = 7      # compare + bound update + next-probe issue

_LOAD, _CHUNK, _DONE = 0, 1, 2


@dataclass
class WarpIntersectResult:
    """Outcome of one warp-parallel intersection launch."""

    thread_counts: np.ndarray
    triangles: int
    ticks: int
    #: binary-search probes issued (the strategy's work metric).
    search_probes: int


def warp_intersect_kernel(engine: SimtEngine,
                          pre: PreprocessResult,
                          lo: int = 0,
                          hi: int | None = None,
                          result_buf: DeviceBuffer | None = None,
                          ) -> WarpIntersectResult:
    """Count triangles with warp-per-edge parallel intersections.

    Only the unzipped (SoA) layout is supported — the strategy's chunk
    gathers assume contiguous columns.
    """
    if pre.aos is not None:
        raise ReproError("warp_intersect_kernel requires the SoA layout "
                         "(GpuOptions.unzip=True)")
    adj, keys, node = pre.adj, pre.keys, pre.node
    m = pre.num_forward_arcs
    hi = m if hi is None else hi
    if not (0 <= lo <= hi <= m):
        raise ReproError(f"arc range [{lo}, {hi}) outside [0, {m})")

    read = engine.read_compacted

    T = engine.num_threads
    ws = engine.warp_size
    ws_shift = ws.bit_length() - 1    # warp sizes divide 32: always pow2
    W = engine.num_warps
    tid = np.arange(T, dtype=np.int64)
    warp_of = tid // ws

    def account(kind: str, lanes: np.ndarray, instructions: int) -> None:
        """Close a tick whose live lanes are known only lane by lane."""
        counts = np.bincount(lanes >> ws_shift, minlength=W)
        warps = np.flatnonzero(counts)
        engine.end_step_warps(kind, warps, counts[warps], instructions)

    # Per-warp state (one edge per warp).
    cur = lo + np.arange(W, dtype=np.int64)
    short_lo = np.zeros(W, np.int64)   # shorter list bounds
    short_hi = np.zeros(W, np.int64)
    long_lo = np.zeros(W, np.int64)    # longer list bounds
    long_hi = np.zeros(W, np.int64)
    chunk = np.zeros(W, np.int64)      # chunk cursor into the short list
    phase = np.full(W, _LOAD, np.int8)

    count = np.zeros(T, np.uint64)
    ticks = 0
    probes = 0

    while (phase != _DONE).any():
        ticks += 1

        # ---------------- per-edge setup (warp leader work) ----------- #
        loading = phase == _LOAD
        if loading.any():
            w_ids = np.flatnonzero(loading & (cur < hi))
            if len(w_ids):
                leaders = w_ids * ws  # lane 0 of each warp does the loads
                e = cur[w_ids]
                u = read(adj, e, leaders).astype(np.int64)
                v = read(keys, e, leaders).astype(np.int64)
                k = len(w_ids)
                nvals = read(
                    node,
                    np.concatenate([u, u + 1, v, v + 1]),
                    np.concatenate([leaders] * 4)).astype(np.int64)
                ulo, uhi_, vlo, vhi_ = (nvals[:k], nvals[k:2 * k],
                                        nvals[2 * k:3 * k], nvals[3 * k:])
                len_u = uhi_ - ulo
                len_v = vhi_ - vlo
                u_short = len_u <= len_v
                short_lo[w_ids] = np.where(u_short, ulo, vlo)
                short_hi[w_ids] = np.where(u_short, uhi_, vhi_)
                long_lo[w_ids] = np.where(u_short, vlo, ulo)
                long_hi[w_ids] = np.where(u_short, vhi_, uhi_)
                chunk[w_ids] = 0
                # One leader lane per distinct warp — counts known.
                engine.end_step_warps("setup", w_ids, np.ones(k, np.int64),
                                      SETUP_INSTRUCTIONS)
            has_edge = loading & (cur < hi)
            phase[has_edge] = _CHUNK
            phase[loading & ~has_edge] = _DONE
            # Degenerate edges (an empty side) go straight to the next.
            empty = has_edge & ((short_hi - short_lo <= 0) |
                                (long_hi - long_lo <= 0))
            if empty.any():
                cur[empty] += W
                phase[empty] = _LOAD

        # ---------------- one chunk: gather + parallel searches ------- #
        chunking = phase == _CHUNK
        if chunking.any():
            w_ids = np.flatnonzero(chunking)
            base = short_lo[w_ids] + chunk[w_ids] * ws
            # Lanes with an element in this chunk.
            lanes_2d = (w_ids[:, None] * ws + np.arange(ws)[None, :])
            elem_idx = base[:, None] + np.arange(ws)[None, :]
            valid = elem_idx < short_hi[w_ids][:, None]
            lanes = lanes_2d[valid]
            idx = elem_idx[valid]
            targets = read(adj, idx, lanes).astype(np.int64)
            # Every chunking warp has >= 1 valid lane (exhausted warps
            # left _CHUNK), so ``w_ids`` are the warps.
            engine.end_step_warps("chunk", w_ids, valid.sum(axis=1),
                                  CHUNK_INSTRUCTIONS)

            # Vectorized per-lane binary search in the longer list —
            # the same lower-bound rounds as the binary_search
            # intersection strategy (one shared kernel, one trace).
            s_lo = long_lo[warp_of[lanes]].copy()
            s_hi = long_hi[warp_of[lanes]].copy()

            def read_adj(indices: np.ndarray,
                         req_lanes: np.ndarray) -> np.ndarray:
                return read(adj, indices, req_lanes)

            while True:
                act = lower_bound_round(read_adj, s_lo, s_hi, targets,
                                        lanes)
                if not len(act):
                    break
                probes += len(act)
                account("search", lanes[act], SEARCH_INSTRUCTIONS)
            # Found iff the insertion point holds the target.
            in_range = s_lo < long_hi[warp_of[lanes]]
            found = np.zeros(len(lanes), bool)
            if in_range.any():
                probe_idx = s_lo[in_range]
                vals = read(adj, probe_idx, lanes[in_range])
                found[in_range] = vals.astype(np.int64) == targets[in_range]
                probes += int(in_range.sum())
                account("search", lanes[in_range], SEARCH_INSTRUCTIONS)
            np.add.at(count, lanes[found], np.uint64(1))

            # Advance: next chunk, or next edge when the list is done.
            chunk[w_ids] += 1
            exhausted = (short_lo[w_ids] + chunk[w_ids] * ws
                         >= short_hi[w_ids])
            done_w = w_ids[exhausted]
            cur[done_w] += W
            phase[done_w] = _LOAD

    triangles = int(count.sum())
    if result_buf is not None:
        engine.write(result_buf, tid, count, tid)
    return WarpIntersectResult(thread_counts=count, triangles=triangles,
                               ticks=ticks, search_probes=probes)

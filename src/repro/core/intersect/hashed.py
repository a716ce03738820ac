"""Hash intersection: TRUST-style per-vertex bucketed probes.

TRUST (PAPERS.md) builds its whole counter on vertex-centric hashing:
give every vertex ``w`` a power-of-two bucket array sized to its
degree, scatter ``w``'s adjacency list into buckets by low bits, then
probe each candidate neighbor with ``O(1)`` expected reads instead of
a merge walk or a ``log``-probe chain.

This strategy follows that design on the simulator:

* **Build pass** (once per launch, in :meth:`HashStrategy.prepare`):
  per-vertex bucket counts are the next power of two of the degree, so
  the hash is the identity on the low bits — no multiplies on the
  probe path, exactly TRUST's choice.  Three device tables are built:
  ``hash_vb_base`` (per-vertex bucket-array base), ``hash_bucket_ptr``
  (CSR over bucket contents) and ``hash_entries`` (bucket-sorted
  adjacency values, ascending within each bucket for early exit).
  Layout is computed host-side, thrust-style — like the preprocess
  sort — but every device byte is honest: the pass re-reads each arc
  through the engine (content + key columns) and writes every table
  slot through ``engine.write``, charged to the kernel timeline as
  ``hash_build`` warp steps, so initcheck coverage and the DRAM/cache
  traffic of the build are modeled, not waved away.
* **Probe loop** (the strategy steps): each lane walks the *shorter*
  endpoint list and probes the *longer* endpoint's buckets — fetch the
  bucket bounds (one step), then scan the bucket one entry per step
  with ascending early exit.  A concluding lane reloads its next
  target in the same step, keeping warp divergence and the per-step
  read multisets explicit.

Requires a :class:`~repro.gpusim.memory.DeviceMemory` (the launch
path passes it through ``dispatch_kernel``); the tables are freed in
reverse allocation order at ``finish`` so repeated dispatches see
identical device addresses (the allocator reclaims LIFO suffixes).
"""

from __future__ import annotations

import numpy as np

from repro.core.intersect.base import (IntersectionStrategy, MatchHook,
                                       StrategyContext)
from repro.core.options import GpuOptions
from repro.core.preprocess import PreprocessResult
from repro.errors import ReproError
from repro.gpusim.memory import DeviceMemory
from repro.gpusim.simt import SimtEngine
from repro.gpusim.timing import SETUP_INSTRUCTIONS

#: Per-step instruction estimate: bucket-bounds/entry compare + cursor
#: bump + conclude test + conditional target reload issue.
HASH_STEP_INSTRUCTIONS = 12
#: Per-build-step estimate: arc load + hash + scatter-store issue.
HASH_BUILD_INSTRUCTIONS = 10


def pow2_ceil(values: np.ndarray) -> np.ndarray:
    """Smallest power of two ``>= max(v, 1)``, elementwise and exact.

    Uses the ``frexp`` exponent of ``v - 1`` (exact for every degree a
    32-bit vertex id graph can produce), avoiding a Python-level loop.
    """
    v = np.maximum(np.asarray(values, np.int64), 1) - 1
    exp = np.frexp(v.astype(np.float64))[1].astype(np.int64)
    return np.int64(1) << exp


class HashStrategy(IntersectionStrategy):
    """Bucketed hash probes of the longer list, built per launch."""

    name = "hash"
    step_kind = "probe"
    registers = ("s_it", "s_end", "target", "vb", "nbmask",
                 "e_it", "e_end")
    setup_instructions = SETUP_INSTRUCTIONS
    step_instructions = HASH_STEP_INSTRUCTIONS

    def prepare(self, engine: SimtEngine, pre: PreprocessResult,
                options: GpuOptions,
                memory: DeviceMemory | None) -> StrategyContext:
        if memory is None:
            raise ReproError(
                "the hash kernel builds device-resident bucket tables; "
                "pass the launch's DeviceMemory through "
                "dispatch_kernel(..., memory=...)")
        ctx = StrategyContext(engine, pre, options, memory)

        # ---- host-side layout (thrust-style orchestration) ---------- #
        n_nodes = pre.num_nodes
        m = pre.num_forward_arcs
        node_host = np.asarray(pre.node.data[:n_nodes + 1], np.int64)
        deg = np.diff(node_host)
        nb = pow2_ceil(deg)
        vb_base = np.zeros(n_nodes + 1, np.int64)
        np.cumsum(nb, out=vb_base[1:])
        nbtot = int(vb_base[-1])
        if pre.aos is None:
            x = np.asarray(pre.adj.data[:m], np.int64)
            w = np.asarray(pre.keys.data[:m], np.int64)
        else:
            x = np.asarray(pre.aos.data[0:2 * m:2], np.int64)
            w = np.asarray(pre.aos.data[1:2 * m:2], np.int64)
        slot = vb_base[w] + (x & (nb[w] - 1))
        order = np.lexsort((x, slot))    # ascending within each bucket
        pos = np.empty(m, np.int64)
        pos[order] = np.arange(m)
        bucket_ptr = np.zeros(nbtot + 1, np.int64)
        np.cumsum(np.bincount(slot, minlength=nbtot), out=bucket_ptr[1:])

        # ---- device tables, written through the model --------------- #
        vb_buf = memory.alloc_empty("hash_vb_base", n_nodes + 1, np.int64)
        ptr_buf = memory.alloc_empty("hash_bucket_ptr", nbtot + 1, np.int64)
        ent_buf = memory.alloc_empty("hash_entries", max(m, 1), np.int64)
        T = engine.num_threads
        # Scatter pass: grid-stride over arcs, each step re-reads the
        # arc (content + key) and stores the content at its bucket
        # position.  Distinct targets per step: racecheck-clean.
        for c in range(0, m, T):
            idx = np.arange(c, min(c + T, m), dtype=np.int64)
            ln = idx - c
            xv = ctx.adj_load(idx, ln)
            ctx.key_load(idx, ln)        # the hash of the key column
            # ``pos`` is a permutation of [0, m): every entry slot is
            # written exactly once across all chunks — a deliberate
            # data-indexed scatter with provably distinct targets.
            engine.write(  # san-ok: SAN201
                ent_buf, pos[idx], xv.astype(np.int64), ln)
            ctx.account("hash_build", ln, HASH_BUILD_INSTRUCTIONS)
        # Table stores (the scan results): every slot covered, so both
        # pointer tables are initcheck-valid end to end.
        for table_buf, table in ((ptr_buf, bucket_ptr),
                                 (vb_buf, vb_base)):
            for c in range(0, len(table), T):
                idx = np.arange(c, min(c + T, len(table)), dtype=np.int64)
                ln = idx - c
                engine.write(table_buf, idx, table[idx], ln)
                ctx.account("hash_build", ln, HASH_BUILD_INSTRUCTIONS)
        ctx.hash_vb = vb_buf
        ctx.hash_ptr = ptr_buf
        ctx.hash_entries = ent_buf
        return ctx

    def finish(self, ctx: StrategyContext) -> None:
        # Reverse allocation order: each free reclaims the allocator's
        # top, so a re-dispatch allocates at identical addresses.
        assert ctx.memory is not None
        ctx.memory.free(ctx.hash_entries)
        ctx.memory.free(ctx.hash_ptr)
        ctx.memory.free(ctx.hash_vb)

    def begin(self, ctx: StrategyContext, lanes: np.ndarray,
              u: np.ndarray, v: np.ndarray,
              nu: np.ndarray, nu1: np.ndarray,
              nv: np.ndarray, nv1: np.ndarray,
              ) -> tuple[dict[str, np.ndarray], np.ndarray]:
        u_short = (nu1 - nu) <= (nv1 - nv)
        slo = np.where(u_short, nu, nv)
        send = np.where(u_short, nu1, nv1)
        llo = np.where(u_short, nv, nu)
        lhi = np.where(u_short, nv1, nu1)
        w_long = np.where(u_short, v, u)   # probe the longer side's table
        vb = ctx.buf_load(ctx.hash_vb, w_long, lanes).astype(np.int64)
        nbmask = pow2_ceil(lhi - llo) - 1
        # Unconditional first-target load, mirroring the merge listing's
        # unconditional head loads (pad-safe on an empty short list).
        target = ctx.adj_load(slo, lanes).astype(np.int64)
        k = len(lanes)
        cols = {"s_it": slo, "s_end": send, "target": target,
                "vb": vb, "nbmask": nbmask,
                "e_it": np.full(k, -1, np.int64),
                "e_end": np.full(k, -1, np.int64)}
        return cols, (slo < send) & (llo < lhi)

    def step(self, ctx: StrategyContext, regs: dict[str, np.ndarray],
             lanes: np.ndarray, count: np.ndarray,
             on_match: MatchHook | None) -> np.ndarray:
        sit = regs["s_it"]
        send = regs["s_end"]
        target = regs["target"]
        vb = regs["vb"]
        nbmask = regs["nbmask"]
        e_it = regs["e_it"]
        e_end = regs["e_end"]
        k = len(lanes)
        # Phase A — lanes starting a fresh target fetch their bucket
        # bounds (two pointer-table reads, batched into one call).
        fresh = e_it < 0
        if fresh.any():
            ia = np.flatnonzero(fresh)
            slot = vb[ia] + (target[ia] & nbmask[ia])
            pp = ctx.buf_load(ctx.hash_ptr,
                              np.concatenate([slot, slot + 1]),
                              np.concatenate([lanes[ia], lanes[ia]])
                              ).astype(np.int64)
            ka = len(ia)
            e_it[ia] = pp[:ka]
            e_end[ia] = pp[ka:]
        # Phase B — scan one bucket entry (ascending: early exit past
        # the target).  Fused with phase A: a fresh lane probes its
        # first entry in the same step.
        done_t = np.ones(k, bool)       # empty buckets conclude at once
        probe = e_it < e_end
        if probe.any():
            ib = np.flatnonzero(probe)
            vals = ctx.buf_load(ctx.hash_entries, e_it[ib],
                                lanes[ib]).astype(np.int64)
            hit = vals == target[ib]
            count[ib] += hit
            e_it[ib] += 1
            done_t[ib] = hit | (vals > target[ib]) | (e_it[ib] >= e_end[ib])
        # Conclusion: advance to the next short-list element; reloading
        # lanes re-enter phase A next step.
        sit += done_t
        reload = done_t & (sit < send)
        if reload.any():
            ir = np.flatnonzero(reload)
            target[ir] = ctx.adj_load(sit[ir], lanes[ir]).astype(np.int64)
            e_it[ir] = -1
            e_end[ir] = -1
        return ~done_t | reload

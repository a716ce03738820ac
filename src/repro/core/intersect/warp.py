"""Warp-per-arc chunked search — the Green et al. [15] comparator.

Section V: "The most recent work on the topic [15] proposes much more
elaborate algorithm, in which also the adjacency list intersection step
is parallelized. … Despite this, our algorithm achieves roughly two
times lower execution times" (on Citeseer and DBLP).

This strategy regenerates that comparison on the simulator: one
**warp per arc**; the warp's lanes split the shorter adjacency list
into warp-sized chunks and each lane binary-searches its element in
the longer list.  Latency per arc drops (the intersection is parallel)
but the work is O(min(|A|,|B|) · log max(|A|,|B|)) with *scattered*
reads — versus the two-pointer merge's O(|A|+|B|) *streaming* reads.
Which one wins is a cache question, which is exactly what the
simulator measures.

One driver step is one chunk: a coalesced gather of the warp's chunk,
the shared :func:`~repro.core.intersect.binary_search.lower_bound_round`
bisection rounds, and a final probe at each insertion point.  Each of
those blocks is a warp-synchronous tick of its own, so the strategy
closes them itself (``chunk`` and ``search`` warp steps).
"""

from __future__ import annotations

import numpy as np

from repro.core.intersect.base import (IntersectionStrategy, MatchHook,
                                       StrategyContext)
from repro.core.intersect.binary_search import lower_bound_round
from repro.core.options import GpuOptions
from repro.core.preprocess import PreprocessResult
from repro.errors import ReproError
from repro.gpusim.memory import DeviceMemory
from repro.gpusim.simt import SimtEngine

#: Instruction estimates for the comparator's blocks.
SETUP_INSTRUCTIONS = 26      # edge + node loads + shorter-list selection
CHUNK_INSTRUCTIONS = 8       # chunk bounds + coalesced gather issue
SEARCH_INSTRUCTIONS = 7      # compare + bound update + next-probe issue


class WarpIntersectStrategy(IntersectionStrategy):
    """Each lane of the arc's warp searches one short-list element per
    chunk in the longer list."""

    name = "warp_intersect"
    display_name = "WarpIntersect"
    step_kind = "chunk"
    registers = ("s_it", "s_end", "l_lo", "l_hi")
    setup_instructions = SETUP_INSTRUCTIONS
    step_instructions = CHUNK_INSTRUCTIONS
    warp_per_arc = True

    def prepare(self, engine: SimtEngine, pre: PreprocessResult,
                options: GpuOptions,
                memory: DeviceMemory | None) -> StrategyContext:
        # The chunk gathers assume contiguous columns.
        if pre.aos is not None:
            raise ReproError("the warp_intersect kernel requires the SoA "
                             "layout (GpuOptions.unzip=True)")
        return StrategyContext(engine, pre, options, memory)

    def begin(self, ctx: StrategyContext, lanes: np.ndarray,
              u: np.ndarray, v: np.ndarray,
              nu: np.ndarray, nu1: np.ndarray,
              nv: np.ndarray, nv1: np.ndarray,
              ) -> tuple[dict[str, np.ndarray], np.ndarray]:
        ws = ctx.engine.warp_size
        u_short = (nu1 - nu) <= (nv1 - nv)
        slo = np.where(u_short, nu, nv)
        # Spread each arc over its warp: lane j owns the short-list
        # elements slo + j, slo + j + ws, ...
        s_it = (slo[:, None] + np.arange(ws, dtype=np.int64)).ravel()
        cols = {"s_it": s_it,
                "s_end": np.repeat(np.where(u_short, nu1, nv1), ws),
                "l_lo": np.repeat(np.where(u_short, nv, nu), ws),
                "l_hi": np.repeat(np.where(u_short, nv1, nu1), ws)}
        return cols, (s_it < cols["s_end"]) & (cols["l_lo"] < cols["l_hi"])

    def step(self, ctx: StrategyContext, regs: dict[str, np.ndarray],
             lanes: np.ndarray, count: np.ndarray,
             on_match: MatchHook | None) -> np.ndarray:
        s_it = regs["s_it"]
        l_hi = regs["l_hi"]
        targets = ctx.adj_load(s_it, lanes).astype(np.int64)
        ctx.account(self.step_kind, lanes, self.step_instructions)
        s_lo = regs["l_lo"].copy()
        s_hi = l_hi.copy()
        while True:
            act = lower_bound_round(ctx.adj_load, s_lo, s_hi, targets, lanes)
            if not len(act):
                break
            ctx.account("search", lanes[act], SEARCH_INSTRUCTIONS)
        # Found iff the insertion point holds the target.
        probe = np.flatnonzero(s_lo < l_hi)
        if len(probe):
            vals = ctx.adj_load(s_lo[probe], lanes[probe]).astype(np.int64)
            count[probe] += vals == targets[probe]
            ctx.account("search", lanes[probe], SEARCH_INSTRUCTIONS)
        s_it += ctx.engine.warp_size
        return s_it < regs["s_end"]

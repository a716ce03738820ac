"""The paper's two-pointer merge intersection as a strategy.

This is Section III-C's ``CountTriangles`` inner loop: compare the heads of both sorted
adjacency lists, count on equality, advance the smaller side(s).  The
two merge variants (Section III-D3) are carried by the launch options:
``preliminary`` re-reads both heads every iteration, ``final`` reads
only the pointer(s) that advanced — landing one past the end on
exhausted lists, which the preprocess pad slot absorbs.

Bit-identity contract: the loads this strategy issues — the multiset
of (index, lane) pairs of each engine call, and how calls group into
ticks — are the ones :mod:`repro.gpusim.reference` re-derives per scalar
thread, and every cache/coalescing counter pinned in
``tests/golden_runtime_counters.json`` depends on them.  The order of
the pairs within one call does not matter: the memory model consumes
each call as a multiset.  Treat any other edit here as a
counter-breaking change.
"""

from __future__ import annotations

import numpy as np

from repro.core.intersect.base import (IntersectionStrategy, MatchHook,
                                       StrategyContext)
from repro.core.options import GpuOptions
from repro.core.preprocess import PreprocessResult
from repro.gpusim.memory import DeviceMemory
from repro.gpusim.simt import SimtEngine
from repro.gpusim.timing import MERGE_INSTRUCTIONS, SETUP_INSTRUCTIONS


class MergeStrategy(IntersectionStrategy):
    """Two-pointer merge: ``O(|A| + |B|)`` streaming reads per edge."""

    name = "two_pointer"
    display_name = "CountTriangles"
    step_kind = "merge"
    registers = ("u_it", "u_end", "v_it", "v_end", "a", "b")
    setup_instructions = SETUP_INSTRUCTIONS
    step_instructions = MERGE_INSTRUCTIONS
    supports_per_vertex = True

    def prepare(self, engine: SimtEngine, pre: PreprocessResult,
                options: GpuOptions,
                memory: DeviceMemory | None) -> StrategyContext:
        ctx = StrategyContext(engine, pre, options, memory)
        ctx.final_variant = options.merge_variant == "final"
        return ctx

    def begin(self, ctx: StrategyContext, lanes: np.ndarray,
              u: np.ndarray, v: np.ndarray,
              nu: np.ndarray, nu1: np.ndarray,
              nv: np.ndarray, nv1: np.ndarray,
              ) -> tuple[dict[str, np.ndarray], np.ndarray]:
        k = len(lanes)
        # Unconditional initial loads, as in the listing (issued even
        # when a list is empty, exactly as compiled).
        ab = ctx.adj_load(np.concatenate([nu, nv]),
                          np.concatenate([lanes, lanes]))
        cols = {"u_it": nu, "u_end": nu1, "v_it": nv, "v_end": nv1,
                "a": ab[:k], "b": ab[k:]}
        return cols, (nu < nu1) & (nv < nv1)

    def step(self, ctx: StrategyContext, regs: dict[str, np.ndarray],
             lanes: np.ndarray, count: np.ndarray,
             on_match: MatchHook | None) -> np.ndarray:
        uit = regs["u_it"]
        uend = regs["u_end"]
        vit = regs["v_it"]
        vend = regs["v_end"]
        a = regs["a"]
        b = regs["b"]
        n = len(lanes)
        if not ctx.final_variant:
            # Preliminary variant: both list heads re-read every
            # iteration (two loads per active lane).
            ab = ctx.adj_load(np.concatenate([uit, vit]),
                              np.concatenate([lanes, lanes]))
            a[:] = ab[:n]
            b[:] = ab[n:]
        le = a <= b
        ge = a >= b
        eq = le & ge
        count += eq
        if on_match is not None or ctx.final_variant:
            matched = np.flatnonzero(eq)
            if on_match is not None and len(matched):
                on_match(matched, a[matched])
        uit += le
        vit += ge
        if ctx.final_variant:
            # Final variant: read only what advanced — one load per
            # iteration (the u side where a <= b, else the v side), plus
            # the v side of each lane that found a triangle; the pad
            # slot absorbs the one-past-the-end read (Section III-D3).
            idx = np.where(le, uit, vit)
            lns = lanes
            if len(matched):
                idx = np.concatenate([idx, vit[matched]])
                lns = np.concatenate([lanes, lanes[matched]])
            vals = ctx.adj_load(idx, lns)
            head = vals[:n]
            np.copyto(a, head, where=le)
            np.copyto(b, head, where=ge)
            if len(matched):
                b[matched] = vals[n:]
        still = uit < uend
        still &= vit < vend
        return still

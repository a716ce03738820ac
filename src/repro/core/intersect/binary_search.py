"""Binary-search intersection: log-probes of the longer list.

The Wang/Owens comparative study (PAPERS.md) identifies binary-search
intersection as the merge alternative that wins when one endpoint's
list is much longer than the other's: iterate the *shorter* list and
binary-search each element in the *longer* one — ``O(min·log max)``
scattered reads instead of the merge's ``O(|A|+|B|)`` streaming reads.

Divergence is modeled faithfully: every SIMT step issues one probe per
still-searching lane, lanes whose searches converge early sit masked
until the warp's slowest search finishes a round, and a lane only
reloads its next target (restarting the search) in the step its current
search concludes — so a warp's step count is driven by its longest
``log2`` chain, exactly the behaviour the simulator's warp accounting
prices.

The searches are *monotone*: adjacency lists are sorted ascending, so
each concluded target leaves its insertion point behind as the floor of
the next search (``lo`` persists, only ``hi`` resets).  This is the
standard sorted-probe refinement and cuts deep re-searches of the same
prefix.

:func:`lower_bound_round` is the one-round kernel shared with the
warp-per-arc comparator (:mod:`repro.core.intersect.warp`), which
keeps the two binary searches in this codebase literally the same
code.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.intersect.base import (IntersectionStrategy, MatchHook,
                                       StrategyContext)
from repro.gpusim.timing import SETUP_INSTRUCTIONS

#: Per-step instruction estimate: compare + two bound updates +
#: conclude test + conditional target reload issue.
SEARCH_STEP_INSTRUCTIONS = 9


def lower_bound_round(read_adj: Callable[[np.ndarray, np.ndarray],
                                         np.ndarray],
                      s_lo: np.ndarray, s_hi: np.ndarray,
                      targets: np.ndarray, lanes: np.ndarray,
                      ) -> np.ndarray:
    """One vectorized lower-bound bisection round, in place.

    For every lane with an open interval (``s_lo < s_hi``), probes the
    midpoint through ``read_adj(indices, lanes)`` and halves the
    interval toward ``lower_bound(targets)``.  Returns the positions
    probed this round (empty once every search has converged) so the
    caller can account the step and count the probes.
    """
    act = np.flatnonzero(s_lo < s_hi)
    if not len(act):
        return act
    mid = (s_lo[act] + s_hi[act]) // 2
    vals = read_adj(mid, lanes[act]).astype(np.int64)
    below = vals < targets[act]
    s_lo[act] = np.where(below, mid + 1, s_lo[act])
    s_hi[act] = np.where(below, s_hi[act], mid)
    return act


class BinarySearchStrategy(IntersectionStrategy):
    """Probe the shorter list's elements into the longer list."""

    name = "binary_search"
    display_name = "BinarySearchIntersect"
    step_kind = "search"
    registers = ("s_it", "s_end", "lo", "hi", "target", "l_hi")
    setup_instructions = SETUP_INSTRUCTIONS
    step_instructions = SEARCH_STEP_INSTRUCTIONS

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
        # Unconditional first-target load, mirroring the merge listing's
        # unconditional head loads; an empty short list reads the pad
        # slot (slo == one past the last arc at most).
        target = ctx.adj_load(slo, lanes).astype(np.int64)
        cols = {"s_it": slo, "s_end": send, "lo": llo, "hi": lhi,
                "target": target, "l_hi": lhi}
        return cols, (slo < send) & (llo < lhi)

    def step(self, ctx: StrategyContext, regs: dict[str, np.ndarray],
             lanes: np.ndarray, count: np.ndarray,
             on_match: MatchHook | None) -> np.ndarray:
        sit = regs["s_it"]
        send = regs["s_end"]
        lo = regs["lo"]
        hi = regs["hi"]
        target = regs["target"]
        l_hi = regs["l_hi"]
        # Every live lane has an open interval (the driver only steps
        # lanes this strategy reported still-running).
        mid = (lo + hi) // 2
        vals = ctx.adj_load(mid, lanes).astype(np.int64)
        eq = vals == target
        below = vals < target
        count += eq
        lo[:] = np.where(below, mid + 1, lo)
        hi[:] = np.where(below, hi, mid)
        # Monotone floor: the next target is strictly larger, so its
        # lower bound can never fall left of this one's conclusion.
        lo[eq] = mid[eq] + 1
        done = eq | (lo >= hi)
        sit += done
        reload = done & (sit < send)
        if reload.any():
            ir = np.flatnonzero(reload)
            target[ir] = ctx.adj_load(sit[ir], lanes[ir]).astype(np.int64)
            hi[ir] = l_hi[ir]
        # A reloaded lane with a closed interval means its floor already
        # passed the list's end: every remaining target is larger than
        # the whole long list, so the lane retires immediately.
        return ~done | (reload & (lo < hi))

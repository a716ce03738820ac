"""Per-warp memory transaction coalescing.

When a warp issues a load, the hardware merges the 32 lane addresses
into the minimal set of line-sized (or sector-sized) transactions; lanes
touching the same line share one transaction.  The counting kernel's
edge reads are perfectly coalesced (consecutive lanes → consecutive
addresses) while its adjacency-walk reads are scattered — this asymmetry
is exactly why the paper's SoA "unzipping" and read-only cache matter,
so the simulator must model it rather than assume it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils import boundary_mask


@dataclass(frozen=True)
class CoalescedBatch:
    """One request batch after per-warp merging.

    Attributes
    ----------
    warp_ids : int64 array
        Issuing warp of each transaction.
    line_addrs : int64 array
        Byte address of the line's first byte (aligned).
    lane_requests : int
        Number of lane-level reads that produced these transactions.
    """

    warp_ids: np.ndarray
    line_addrs: np.ndarray
    lane_requests: int

    @property
    def transactions(self) -> int:
        return len(self.line_addrs)

    @property
    def coalescing_ratio(self) -> float:
        """Lane requests per transaction (32 = perfect, 1 = fully scattered)."""
        return self.lane_requests / self.transactions if self.transactions else 0.0


def coalesce(warp_ids: np.ndarray, byte_addrs: np.ndarray,
             granule_bytes: int) -> CoalescedBatch:
    """Merge lane reads into per-warp transactions of ``granule_bytes``.

    Parameters
    ----------
    warp_ids : array of int
        Warp of each requesting lane.
    byte_addrs : array of int
        Byte address each lane reads.
    granule_bytes : int
        Transaction granularity (a 128 B line or a 32 B sector).
    """
    if len(warp_ids) == 0:
        return CoalescedBatch(np.zeros(0, np.int64), np.zeros(0, np.int64), 0)
    granules = byte_addrs.astype(np.int64) // granule_bytes
    # One transaction per distinct (warp, granule) pair.  Packed exactly
    # — ``warp * span + granule`` with ``span > max granule`` — so no
    # two pairs can alias (a fixed-width ``<< 44`` pack would merge
    # pathological synthetic addresses 2^44 granules apart, the same
    # latent bug CacheArray.access had).  Inputs outside the provable
    # int64 packing bound take a stable lexsort with identical output.
    w = warp_ids.astype(np.int64)
    span = int(granules.max()) + 1
    if span > 0 and span < (1 << 62) // max(int(w.max()) + 1, 1):
        key = w * span + granules
        key.sort()
        uniq = key[boundary_mask(key)]
        out_warps = uniq // span
        out_lines = (uniq % span) * granule_bytes
    else:
        order = np.lexsort((granules, w))
        ws, gs = w[order], granules[order]
        first = np.empty(len(order), dtype=bool)
        first[0] = True
        first[1:] = (ws[1:] != ws[:-1]) | (gs[1:] != gs[:-1])
        out_warps = ws[first]
        out_lines = gs[first] * granule_bytes
    return CoalescedBatch(out_warps, out_lines, lane_requests=len(warp_ids))

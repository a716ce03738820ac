"""Order statistics used to summarise repeated measurements."""

from __future__ import annotations

import statistics


def median(values) -> float:
    """Median of a non-empty sequence (mean of the middle pair if even)."""
    values = list(values)
    if not values:
        raise ValueError("median of an empty sequence")
    return float(statistics.median(values))


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the
    median (``statistics.quantiles(values, n=4)``, exclusive method)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of a non-empty
    sequence: the smallest value with at least ``q`` percent of the
    values at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sequence")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    rank = -(-len(ordered) * q // 100)          # ceil(n q / 100)
    return float(ordered[int(rank) - 1])


def log2_histogram(values) -> dict[str, int]:
    """Counts of non-negative integer ``values`` in bins ``"0"``, ``"1"``,
    ``"2-3"``, ``"4-7"``, ... ; bins with no values are omitted."""
    hist: dict[int, int] = {}
    for v in values:
        b = int(v).bit_length()        # 0 -> 0, 1 -> 1, 2..3 -> 2, ...
        hist[b] = hist.get(b, 0) + 1
    out = {}
    for b in sorted(hist):
        lo, hi = (1 << b) >> 1, (1 << b) - 1
        out[str(lo) if lo == hi else f"{lo}-{hi}"] = hist[b]
    return out

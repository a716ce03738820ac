"""Small shared helpers: deterministic RNG handling and array utilities."""

from __future__ import annotations

import os

import numpy as np


def rng_from(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a seed or pass one through.

    Every stochastic entry point in the library takes ``seed`` in this
    form so experiments are reproducible by construction.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def env_scale(default: float = 1.0) -> float:
    """Read the global ``REPRO_SCALE`` workload multiplier (see DESIGN §6)."""
    raw = os.environ.get("REPRO_SCALE", "")
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"REPRO_SCALE must be a float, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"REPRO_SCALE must be positive, got {value}")
    return value


def as_int_array(a, dtype) -> np.ndarray:
    """Convert ``a`` to a contiguous 1-D array of ``dtype`` without copying
    when the input already matches (views-not-copies; see the optimization
    guide's memory advice)."""
    arr = np.ascontiguousarray(a, dtype=dtype)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D array, got shape {arr.shape}")
    return arr


def boundary_mask(sorted_arr: np.ndarray) -> np.ndarray:
    """Mask selecting the first element of each run in a sorted array
    (``np.unique`` of a sorted input, without the sort or the copy)."""
    mask = np.empty(len(sorted_arr), dtype=bool)
    mask[:1] = True
    np.not_equal(sorted_arr[1:], sorted_arr[:-1], out=mask[1:])
    return mask


def pow2_shift(x: int) -> int | None:
    """``log2(x)`` when ``x`` is a power of two, else ``None`` — lets a
    hot path turn a stride division into a shift (NumPy's floor_divide
    is several times slower per element) and keep the division for
    other geometries."""
    return x.bit_length() - 1 if x and not (x & (x - 1)) else None


def human_bytes(n: int) -> str:
    """Format a byte count for log/table output (e.g. ``1.5 GiB``)."""
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or unit == "TiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    raise AssertionError("unreachable")


def human_ms(ms: float) -> str:
    """Format simulated milliseconds compactly (``123 ms`` / ``12.3 s``)."""
    if ms >= 10_000:
        return f"{ms / 1000.0:.1f} s"
    if ms >= 100:
        return f"{ms:.0f} ms"
    if ms >= 1:
        return f"{ms:.1f} ms"
    return f"{ms:.3f} ms"

"""The edge-array graph format (paper Section III-A).

An :class:`EdgeArray` is an array of *arcs*.  The format contract is the
paper's: no self-loops, no multi-edges, and each undirected edge appears
exactly twice, once in each direction.  No particular arc order is
assumed — the counting pipeline's first real step is a device-side sort.

Two memory layouts matter to the paper:

* **AoS** (array of structures) — arcs interleaved ``u0 v0 u1 v1 …``,
  the natural on-disk / on-wire layout;
* **SoA** (structure of arrays, "unzipped", Section III-D1) — all first
  endpoints contiguous, then all second endpoints, which is what the
  counting kernel wants for coalesced reads.

This class stores SoA internally (two int32 vectors) and converts on
demand; :meth:`as_aos` / :meth:`from_aos` round-trip the interleaved
layout and :meth:`as_packed` produces the 64-bit words used by the
radix-sort optimization (Section III-D2).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import GraphFormatError
from repro.types import VERTEX_DTYPE, pack_edges, unpack_edges
from repro.utils import as_int_array, boundary_mask, rng_from


class EdgeArray:
    """An undirected graph stored as a symmetric directed arc list.

    Parameters
    ----------
    first, second : array-like of int32
        Arc endpoints; arc ``i`` goes ``first[i] -> second[i]``.
    num_nodes : int, optional
        Number of vertices.  Defaults to ``1 + max(id)`` (the paper
        computes exactly this on device with ``thrust::reduce`` /
        ``thrust::maximum`` in preprocessing step 2).
    check : bool
        If true (default), validate the format contract eagerly.
    """

    __slots__ = ("first", "second", "_num_nodes")

    def __init__(self, first, second, num_nodes: int | None = None, check: bool = True):
        self.first = as_int_array(first, VERTEX_DTYPE)
        self.second = as_int_array(second, VERTEX_DTYPE)
        if self.first.shape != self.second.shape:
            raise GraphFormatError(
                f"endpoint arrays differ in length: {len(self.first)} vs {len(self.second)}"
            )
        if num_nodes is None:
            if len(self.first) == 0:
                num_nodes = 0
            else:
                num_nodes = int(max(self.first.max(), self.second.max())) + 1
        self._num_nodes = int(num_nodes)
        if check:
            self.validate()

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_undirected(cls, u, v, num_nodes: int | None = None) -> "EdgeArray":
        """Build from undirected edges given once; both arc directions are added.

        Self-loops and duplicate edges (in either orientation) are removed,
        so any raw edge list becomes a valid edge array.
        """
        u = as_int_array(u, VERTEX_DTYPE)
        v = as_int_array(v, VERTEX_DTYPE)
        if u.shape != v.shape:
            raise GraphFormatError("endpoint arrays differ in length")
        # Canonicalize each edge as (min, max), drop loops, dedupe.
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        keep = lo != hi
        lo, hi = lo[keep], hi[keep]
        if len(lo):
            packed = pack_edges(lo, hi)
            packed.sort()
            packed = packed[boundary_mask(packed)]
            lo, hi = unpack_edges(packed)
        first = np.concatenate([lo, hi])
        second = np.concatenate([hi, lo])
        return cls(first, second, num_nodes=num_nodes, check=False)

    @classmethod
    def from_aos(cls, interleaved, num_nodes: int | None = None, check: bool = True) -> "EdgeArray":
        """Build from the interleaved AoS layout ``[u0, v0, u1, v1, ...]``."""
        flat = as_int_array(interleaved, VERTEX_DTYPE)
        if len(flat) % 2:
            raise GraphFormatError("AoS edge buffer has odd length")
        return cls(flat[0::2].copy(), flat[1::2].copy(), num_nodes=num_nodes, check=check)

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]], num_nodes: int | None = None) -> "EdgeArray":
        """Build from an iterable of undirected ``(u, v)`` pairs (convenience)."""
        pairs = np.asarray(list(edges), dtype=VERTEX_DTYPE)
        if pairs.size == 0:
            return cls(np.empty(0, VERTEX_DTYPE), np.empty(0, VERTEX_DTYPE),
                       num_nodes=num_nodes or 0, check=False)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise GraphFormatError(f"expected (k, 2) pairs, got shape {pairs.shape}")
        return cls.from_undirected(pairs[:, 0], pairs[:, 1], num_nodes=num_nodes)

    @classmethod
    def empty(cls, num_nodes: int = 0) -> "EdgeArray":
        """An edge array with ``num_nodes`` isolated vertices."""
        z = np.empty(0, VERTEX_DTYPE)
        return cls(z, z.copy(), num_nodes=num_nodes, check=False)

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        """Number of vertices (ids run ``0 .. num_nodes-1``)."""
        return self._num_nodes

    @property
    def num_arcs(self) -> int:
        """Number of directed arcs — the paper's *m* (twice the edge count)."""
        return len(self.first)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (``num_arcs / 2``)."""
        return self.num_arcs // 2

    @property
    def nbytes(self) -> int:
        """Host memory footprint of the arc arrays in bytes."""
        return self.first.nbytes + self.second.nbytes

    def degrees(self) -> np.ndarray:
        """Per-vertex degree (int64 array of length ``num_nodes``)."""
        return np.bincount(self.first, minlength=self.num_nodes).astype(np.int64)

    # ------------------------------------------------------------------ #
    # layout conversions
    # ------------------------------------------------------------------ #

    def as_aos(self) -> np.ndarray:
        """Interleaved AoS buffer ``[u0, v0, u1, v1, ...]`` (copies)."""
        out = np.empty(2 * self.num_arcs, VERTEX_DTYPE)
        out[0::2] = self.first
        out[1::2] = self.second
        return out

    def as_packed(self) -> np.ndarray:
        """Arcs as uint64 words, low 32 bits = first endpoint (Section III-D2)."""
        return pack_edges(self.first, self.second)

    def copy(self) -> "EdgeArray":
        return EdgeArray(self.first.copy(), self.second.copy(),
                         num_nodes=self._num_nodes, check=False)

    def shuffled(self, seed=None) -> "EdgeArray":
        """Return a copy with arcs in random order.

        The format makes no ordering promise, so tests and benches use
        this to prove order independence of the pipeline.
        """
        rng = rng_from(seed)
        perm = rng.permutation(self.num_arcs)
        return EdgeArray(self.first[perm], self.second[perm],
                         num_nodes=self._num_nodes, check=False)

    def relabeled(self, seed=None) -> "EdgeArray":
        """Return a copy with vertex ids permuted uniformly at random.

        Triangle counts are isomorphism invariants; property tests use
        this to check the counters are too.
        """
        rng = rng_from(seed)
        perm = rng.permutation(self._num_nodes).astype(VERTEX_DTYPE)
        return EdgeArray(perm[self.first], perm[self.second],
                         num_nodes=self._num_nodes, check=False)

    # ------------------------------------------------------------------ #
    # contract
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        """Raise :class:`GraphFormatError` unless the format contract holds."""
        from repro.graphs.validate import validate_edge_array

        validate_edge_array(self)

    # ------------------------------------------------------------------ #
    # dunder
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:
        return (f"EdgeArray(num_nodes={self.num_nodes}, "
                f"num_edges={self.num_edges}, num_arcs={self.num_arcs})")

    def __eq__(self, other) -> bool:
        """Structural equality: same vertex set and same *edge set*.

        Arc order is irrelevant (the format makes no ordering promise), so
        equality compares the sorted packed-arc sets.
        """
        if not isinstance(other, EdgeArray):
            return NotImplemented
        if self._num_nodes != other._num_nodes or self.num_arcs != other.num_arcs:
            return False
        return bool(np.array_equal(np.sort(self.as_packed()), np.sort(other.as_packed())))

    def __hash__(self):  # mutable arrays → unhashable, like ndarray
        raise TypeError("EdgeArray is unhashable; compare with == instead")

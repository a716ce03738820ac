"""DOULION: triangle counting with a coin (Tsourakakis et al., KDD'09).

Keep each undirected edge independently with probability ``p``, count
triangles exactly on the sparsified graph, scale by ``1/p³``.  Unbiased;
variance shrinks as the true count grows.  Work drops by roughly ``p``
in the edge passes and much faster in the merge phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, sqrt

import numpy as np

from repro.cpu.listing import list_triangles
from repro.errors import ReproError
from repro.graphs.edgearray import EdgeArray
from repro.utils import boundary_mask, rng_from


@dataclass(frozen=True)
class DoulionResult:
    """Estimate plus the exact count of the sparsified graph it came from."""

    estimate: float
    sparsified_triangles: int
    kept_edges: int
    p: float
    #: Σ_e C(t_e, 2) over the sparsified graph — the edge-sharing
    #: triangle-pair count the variance's covariance term needs.
    edge_pair_triangles: int = 0

    @property
    def estimated_triangles(self) -> int:
        return int(round(self.estimate))

    @property
    def error_bound(self) -> float:
        """2σ plug-in bound on the absolute estimation error.

        The exact DOULION variance has two terms: each triangle survives
        sparsification iff all three of its edges do (the Binomial(T, p³)
        term), and two triangles *sharing an edge* survive jointly with
        p⁵, not p⁶, adding ``2·R·(p⁵−p⁶)`` where R counts edge-sharing
        triangle pairs (Σ_e C(t_e, 2)).  Plugging the observed sparsified
        count S for ``T·p³`` and the sparsified pair count R_s for
        ``R·p⁵`` gives ``Var(S) ≈ S·(1−p³) + 2·R_s·(1−p)`` and
        ``std(T̂) = sqrt(Var(S)) / p³``; the bound is two of those.
        Exact runs (``p == 1``) report a bound of 0.  R_s comes from the
        same listing pass as S, so it is exact at every graph size.
        """
        p3 = self.p ** 3
        if p3 >= 1.0:
            return 0.0
        var_s = (max(self.sparsified_triangles, 1) * (1.0 - p3)
                 + 2.0 * self.edge_pair_triangles * (1.0 - self.p))
        return 2.0 * sqrt(var_s) / p3

    @property
    def relative_error_bound(self) -> float:
        """:attr:`error_bound` as a fraction of the estimate (``inf``
        when the estimate itself is 0 but the bound is not)."""
        if self.estimate > 0:
            return self.error_bound / self.estimate
        return 0.0 if self.error_bound == 0.0 else inf


def _edge_pair_triangles(triangles: np.ndarray, num_nodes: int) -> int:
    """Σ_e C(t_e, 2): pairs of triangles sharing an edge, exactly.

    Every listed triangle ``(w, u, v)`` contributes one to ``t_e`` of
    each of its three edges; keying those edges canonically and sorting
    once makes each ``t_e`` a run length.
    """
    w, u, v = triangles.T
    a = np.concatenate([w, w, u])
    b = np.concatenate([u, v, v])
    keys = np.minimum(a, b) * num_nodes + np.maximum(a, b)
    keys.sort()
    starts = np.flatnonzero(boundary_mask(keys))
    t_e = np.diff(starts, append=len(keys))
    return int((t_e * (t_e - 1) // 2).sum())


def sparsify(graph: EdgeArray, p: float, seed=None) -> EdgeArray:
    """Keep each undirected edge of ``graph`` independently with
    probability ``p`` (one coin per edge, consistent across both arcs)."""
    rng = rng_from(seed)
    mask = graph.first < graph.second
    u = graph.first[mask]
    v = graph.second[mask]
    keep = rng.random(len(u)) < p
    return EdgeArray.from_undirected(u[keep], v[keep],
                                     num_nodes=graph.num_nodes)


def doulion_count(graph: EdgeArray, p: float, seed=None) -> DoulionResult:
    """Estimate the triangle count by counting on a ``p``-sparsified graph.

    Parameters
    ----------
    p : float
        Edge-keeping probability in (0, 1].
    """
    if not (0.0 < p <= 1.0):
        raise ReproError(f"keep probability must be in (0, 1], got {p}")
    sparse = sparsify(graph, p, seed)

    # One listing pass yields both the sparsified count and, from the
    # listed triangles' edges, the covariance term of the error bound.
    triangles = list_triangles(sparse).triangles
    return DoulionResult(estimate=len(triangles) / p**3,
                         sparsified_triangles=len(triangles),
                         kept_edges=sparse.num_edges, p=p,
                         edge_pair_triangles=_edge_pair_triangles(
                             triangles, graph.num_nodes))

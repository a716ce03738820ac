"""Matrix-multiplication triangle counting (Alon–Yuster–Zwick [21]).

``trace(A³) / 6`` via sparse matrix products — the method the paper
names as its future-work ingredient for very-high-degree vertices
(Section VI) and the third independent exact counter in the test
suite's cross-validation triangle (merge-based, wedge-based, algebraic).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graphs.edgearray import EdgeArray
from repro.graphs.stats import adjacency_matrix


@dataclass(frozen=True)
class MatmulResult:
    triangles: int
    #: nnz of A² actually materialized (the method's working-set cost).
    intermediate_nnz: int


def matmul_count(graph: EdgeArray) -> MatmulResult:
    """Count triangles as ``trace(A³)/6``.

    Computes ``(A @ A) ∘ A`` rather than the full cube — only entries
    that can close a triangle are kept, which is the standard practical
    form of the algebraic method.
    """
    if graph.num_arcs == 0:
        return MatmulResult(0, 0)
    a = adjacency_matrix(graph)
    a2 = a @ a
    closed = a2.multiply(a)
    total = int(closed.sum())  # counts each triangle 6× (ordered pairs ×2)
    if total % 6:
        raise AssertionError(f"trace accumulation {total} not divisible by 6")
    return MatmulResult(triangles=total // 6, intermediate_nnz=a2.nnz)

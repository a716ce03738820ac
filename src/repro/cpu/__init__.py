"""Sequential CPU triangle-counting algorithms.

:mod:`~repro.cpu.forward` is the paper's baseline (its own tuned
implementation of the Schank–Wagner *forward* algorithm, Section IV);
the others are the classical alternatives it is compared against in
Sections II-A and V:

* :mod:`~repro.cpu.node_iterator` — check every wedge at every vertex;
* :mod:`~repro.cpu.edge_iterator` — intersect full neighborhoods per edge;
* :mod:`~repro.cpu.compact_forward` — Latapy's refinement;
* :mod:`~repro.cpu.matmul` — ``trace(A³)/6`` (Alon–Yuster–Zwick);
* :mod:`~repro.cpu.approx` — DOULION and the birthday-paradox stream.

All exact counters return identical triangle totals (property-tested);
they differ in the *work* they do, which is what the baseline timing
model measures.
"""

from repro.cpu.forward import forward_count_cpu, ForwardCpuResult, merge_walk
from repro.cpu.edge_iterator import edge_iterator_count
from repro.cpu.node_iterator import node_iterator_count
from repro.cpu.compact_forward import compact_forward_count
from repro.cpu.listing import list_triangles, TriangleListing
from repro.cpu.matmul import matmul_count
from repro.cpu import approx

__all__ = [
    "forward_count_cpu",
    "ForwardCpuResult",
    "merge_walk",
    "edge_iterator_count",
    "node_iterator_count",
    "compact_forward_count",
    "list_triangles",
    "TriangleListing",
    "matmul_count",
    "approx",
]

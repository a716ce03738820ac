"""The clean-kernel sanitize matrix (``repro-bench sanitize``).

Runs every kernel configuration — both merge variants of the
two-pointer kernel, the binary-search and hash intersection strategies
and the warp-intersect comparator, plus the atomicAdd-heavy
local-counts pipeline — on small skewed graphs with all three checkers
armed, and asserts two things per cell:

* **zero findings** — the shipped kernels are memcheck/initcheck/
  racecheck-clean (any finding is a kernel bug or a checker false
  positive; either fails the matrix);
* **identity** — triangles and every :class:`KernelReport` counter are
  bit-identical to a sanitize-off run of the same cell (the sanitizer
  observes, never perturbs).

Across cells the matrix also asserts **cross-kernel agreement**: every
counting configuration of a graph reports the same triangle total
(every registered intersection strategy is exact; a disagreement is a
kernel bug even if each cell is individually clean).

``--strict`` runs the sanitized leg in strict mode, so a finding
surfaces as the typed :mod:`repro.errors` exception path (the mode CI
exercises) rather than a recorded report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.forward_gpu import gpu_count_triangles
from repro.core.local_counts import gpu_local_counts
from repro.core.options import GpuOptions
from repro.errors import SanitizerError
from repro.gpusim.device import GTX_980
from repro.graphs.generators import barabasi_albert, rmat
from repro.sanitize.sanitizer import CHECKERS

#: (label, graph builder) pairs — one heavy-tailed, one Kronecker-like,
#: both small enough for the full matrix to run in seconds.
_GRAPHS = (
    ("ba300", lambda seed: barabasi_albert(300, 8, seed=seed)),
    ("rmat8", lambda seed: rmat(8, 10.0, seed=seed)),
)

#: (kernel, merge_variant) cells.  merge_variant only applies to the
#: two-pointer merge strategy; the probing strategies (binary_search,
#: hash) and the warp comparator keep "final".
_CONFIGS = (("two_pointer", "final"), ("two_pointer", "preliminary"),
            ("binary_search", "final"), ("hash", "final"),
            ("warp_intersect", "final"))


@dataclass
class SanitizeCell:
    """One (graph, config) cell of the matrix."""

    graph: str
    kernel: str
    merge_variant: str
    pipeline: str                    # "count" or "local"
    triangles: int
    findings: int
    counts: dict = field(default_factory=dict)
    identical: bool = True           # counters + triangles vs sanitize-off
    error: str = ""                  # strict-mode exception, if any

    @property
    def ok(self) -> bool:
        return self.findings == 0 and self.identical and not self.error

    def summary(self) -> str:
        cfg = f"{self.kernel}/{self.merge_variant}"
        status = "clean" if self.ok else "FAIL"
        text = (f"{self.graph:<7} {self.pipeline:<6} {cfg:<34} "
                f"findings={self.findings} identical={self.identical} "
                f"[{status}]")
        if self.error:
            text += f" error={self.error}"
        return text


@dataclass
class SanitizeMatrixReport:
    """All cells plus the aggregate verdict."""

    cells: list
    mode: str
    seed: int

    @property
    def ok(self) -> bool:
        return (all(c.ok for c in self.cells)
                and not self.cross_kernel_disagreements)

    @property
    def findings(self) -> int:
        return sum(c.findings for c in self.cells)

    @property
    def cross_kernel_disagreements(self) -> list:
        """Graphs where the counting cells did not all report the same
        triangle count — every registered strategy is exact, so any
        disagreement is a kernel bug the matrix must surface even when
        each cell is individually sanitizer-clean."""
        by_graph: dict[str, set] = {}
        for c in self.cells:
            if c.pipeline == "count":
                by_graph.setdefault(c.graph, set()).add(c.triangles)
        return [f"{g}: kernels disagree on triangles {sorted(seen)}"
                for g, seen in sorted(by_graph.items()) if len(seen) > 1]

    def format_report(self) -> str:
        lines = [f"==SANITIZE== kernel matrix mode={self.mode} "
                 f"cells={len(self.cells)} findings={self.findings} "
                 f"ok={self.ok}"]
        for cell in self.cells:
            lines.append("  " + cell.summary())
        for problem in self.cross_kernel_disagreements:
            lines.append("  cross-kernel: " + problem)
        return "\n".join(lines) + "\n"


def _run_cell(graph, label: str, options: GpuOptions, mode: str,
              pipeline: str = "count") -> SanitizeCell:
    run_of = gpu_local_counts if pipeline == "local" else gpu_count_triangles
    base = run_of(graph, device=GTX_980, options=options)
    base_counters = None
    if pipeline == "count":
        base_counters = base.kernel_report.counters()

    cell = SanitizeCell(graph=label, kernel=options.kernel,
                        merge_variant=options.merge_variant,
                        pipeline=pipeline,
                        triangles=base.triangles, findings=0)
    try:
        san = run_of(graph, device=GTX_980,
                     options=options.but(sanitize=mode))
    except SanitizerError as exc:
        cell.error = type(exc).__name__
        cell.findings = 1
        cell.counts = ({exc.report.checker: 1}
                       if exc.report is not None else {})
        return cell
    reports = san.sanitizer_reports
    cell.findings = sum(rep.occurrences for rep in reports)
    cell.counts = {c: sum(r.occurrences for r in reports if r.checker == c)
                   for c in CHECKERS}
    cell.identical = san.triangles == base.triangles
    if pipeline == "count":
        cell.identical = (cell.identical
                          and san.kernel_report.counters() == base_counters)
    else:
        cell.identical = (cell.identical
                          and (san.local_triangles
                               == base.local_triangles).all())
    return cell


def run_sanitize_matrix(strict: bool = False, seed: int = 0,
                        progress=None) -> SanitizeMatrixReport:
    """Run the full clean-kernel matrix; see the module docstring."""
    mode = "strict" if strict else "report"
    cells: list[SanitizeCell] = []
    for label, build in _GRAPHS:
        graph = build(seed)
        for kernel, mv in _CONFIGS:
            options = GpuOptions(kernel=kernel, merge_variant=mv)
            cell = _run_cell(graph, label, options, mode)
            if progress is not None:
                progress(cell)
            cells.append(cell)
    # atomic_add coverage: the local-counts pipeline on the BA graph
    # (per-vertex accumulator hammered by every match).
    cell = _run_cell(_GRAPHS[0][1](seed), _GRAPHS[0][0], GpuOptions(), mode,
                     pipeline="local")
    if progress is not None:
        progress(cell)
    cells.append(cell)
    return SanitizeMatrixReport(cells=cells, mode=mode, seed=seed)

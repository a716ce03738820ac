"""Single-GPU end-to-end triangle counting (the paper's main pipeline).

Timing follows the paper's measurement protocol (Section IV): the window
opens just before the edge array is copied host→device and closes after
the final count is copied back and device memory is freed — context
initialization excluded (the paper pre-initializes with
``cudaFree(NULL)``; the simulator has no lazy context to begin with).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.autopick import resolve_options
from repro.core.options import GpuOptions
from repro.graphs.edgearray import EdgeArray
from repro.gpusim.device import DeviceSpec, GTX_980
from repro.gpusim.memory import DeviceMemory
from repro.gpusim.simt import KernelReport
from repro.gpusim.timing import (KernelTiming, Timeline,
                                 achieved_bandwidth_gbs)
from repro.runtime import LaunchPlan, launch
from repro.types import TriangleCount


@dataclass
class GpuRunResult:
    """Full record of one simulated GPU counting run.

    The fields line up with what the paper reports: ``total_ms`` is a
    Table I cell, ``cache_hit_rate``/``bandwidth_gbs`` a Table II row,
    ``used_cpu_fallback`` the ``†`` marker, and
    ``timeline.preprocessing_fraction`` the Section III-E Amdahl input.
    """

    triangles: int
    device: DeviceSpec
    options: GpuOptions
    timeline: Timeline
    kernel_report: KernelReport
    kernel_timing: KernelTiming
    used_cpu_fallback: bool
    num_forward_arcs: int
    #: Populated by the multi-GPU pipeline: one (report, timing) per card.
    per_device: list = field(default_factory=list)
    #: Structured sanitizer findings when ``options.sanitize != "off"``
    #: (empty for a clean run — the expected state).
    sanitizer_reports: list = field(default_factory=list)

    @property
    def total_ms(self) -> float:
        return self.timeline.total_ms

    @property
    def count_ms(self) -> float:
        return self.timeline.phase_ms("count")

    @property
    def cache_hit_rate(self) -> float:
        """Read-only-cache hit fraction during the counting kernel."""
        return self.kernel_report.l1_hit_rate

    @property
    def bandwidth_gbs(self) -> float:
        """DRAM throughput the counting kernel sustained (Table II)."""
        return achieved_bandwidth_gbs(self.kernel_report,
                                      self.kernel_timing.kernel_ms)

    def profile(self) -> str:
        """nvprof-style report of this run (timeline + kernel metrics)."""
        from repro.gpusim.profiler import format_run_profile

        return format_run_profile(self)

    def as_triangle_count(self) -> TriangleCount:
        return TriangleCount(triangles=self.triangles,
                             elapsed_ms=self.total_ms,
                             breakdown=self.timeline.breakdown())


def gpu_count_triangles(graph: EdgeArray,
                        device: DeviceSpec = GTX_980,
                        options: GpuOptions = GpuOptions(),
                        memory: DeviceMemory | None = None,
                        pipeline_chunks: int | None = None,
                        ) -> GpuRunResult:
    """Count triangles in ``graph`` on one simulated ``device``.

    Parameters
    ----------
    graph : EdgeArray
        Input in the paper's format (each edge as two arcs).
    device : DeviceSpec
        Simulated card (default: the GTX 980, the paper's fastest).
    options : GpuOptions
        Optimization toggles; defaults are the paper's final settings.
    memory : DeviceMemory, optional
        Pre-built device memory — the bench harness passes one with
        scaled capacity to reproduce the ``†`` memory-pressure behaviour
        at reduced workload scale.
    pipeline_chunks : int, optional
        ``None`` (default) runs the paper's serial measurement protocol —
        the fidelity mode every reported number uses.  An integer
        executes the ``†`` leg as that many double-buffered chunks (see
        :attr:`repro.runtime.LaunchPlan.pipeline_chunks`): results and
        kernel counters identical, ``timeline.makespan_ms`` now a
        measured quantity (``repro-bench overlap`` gates it against the
        modeled ``pipelined_ms``).
    """
    options = resolve_options(graph, options)
    run = launch(LaunchPlan(graph=graph, device=device, options=options,
                            memory=memory, pipeline_chunks=pipeline_chunks))
    return GpuRunResult(triangles=run.triangles, device=device,
                        options=run.options, timeline=run.timeline,
                        kernel_report=run.report, kernel_timing=run.timing,
                        used_cpu_fallback=run.pre.used_cpu_fallback,
                        num_forward_arcs=run.pre.num_forward_arcs,
                        sanitizer_reports=run.sanitizer_reports)

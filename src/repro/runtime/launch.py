"""``LaunchPlan`` / ``launch()`` — the one kernel-launch lifecycle.

Every counting pipeline used to hand-roll the same dozen steps; they
now live here, written once, in the order that keeps results and every
:class:`~repro.gpusim.simt.KernelReport` counter bit-identical to the
historical pipelines (device addresses feed the cache model, so even
*allocation order* is part of the contract):

1. validate the plan (memory/device match, layout, per-vertex support
   — eagerly, with typed errors);
2. attach the sanitizer to :class:`~repro.gpusim.memory.DeviceMemory`
   *before* the first allocation (initcheck must see every buffer);
3. construct the :class:`~repro.gpusim.simt.SimtEngine` from
   :class:`~repro.core.options.GpuOptions` (the only construction site
   outside ``gpusim`` — enforced by repro-analyze SAN104);
4. allocate the per-thread result buffer (before preprocessing, so the
   Section III-D6 fallback logic sees the full footprint), then the
   per-vertex accumulator for ``per_vertex`` plans;
5. run preprocessing (H2D copy events land on the stream timeline)
   unless the plan supplies device-resident structures — optionally as
   the chunked, double-buffered ``†`` schedule (``pipeline_chunks``);
6. dispatch the counting kernel (the ``GpuOptions.kernel`` strategy on
   the one driver), time it with the roofline model, and record the
   kernel event under the strategy's ``display_name``;
7. device-reduce the result buffer, cross-check against the kernel's
   own count, and record the D2H readback event(s);
8. free device memory and detach the sanitizer (always, via finally).

A plan with ``preprocessed`` structures is a *slice launch* (the
multi-GPU driver runs one per card against broadcast copies).  Its
driver owns what spans the slices — the sanitizer, the
max-over-devices kernel event, the overlapped reduce and readback
events, and teardown — so steps 2, 6's event, 7's events and 8's free
are skipped for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.count_kernel import CountKernelResult, count_triangles_kernel
from repro.core.intersect import check_per_vertex, get_strategy
from repro.core.options import GpuOptions
from repro.core.preprocess import PreprocessResult, preprocess
from repro.errors import ReproError
from repro.graphs.edgearray import EdgeArray
from repro.gpusim import thrustlike
from repro.gpusim.device import DeviceSpec, GTX_980
from repro.gpusim.memory import DeviceBuffer, DeviceMemory
from repro.gpusim.simt import KernelReport, SimtEngine
from repro.gpusim.timing import (DEFAULT_STREAM, KernelTiming, Timeline,
                                 time_kernel)
from repro.types import COUNT_DTYPE

if TYPE_CHECKING:
    from repro.sanitize import Sanitizer

#: Stream of the result readback in a pipelined launch (stream 0 is host
#: order / compute, :data:`repro.core.preprocess.COPY_STREAM` the H2D
#: double buffer).
D2H_STREAM = 2


def build_engine(device: DeviceSpec, options: GpuOptions,
                 sanitizer: "Sanitizer | None" = None) -> SimtEngine:
    """The one :class:`SimtEngine` construction point outside gpusim.

    Centralizing it keeps launch-config validation, read-only-cache
    wiring and sanitizer attachment uniform (repro-analyze SAN104 flags
    direct constructions elsewhere).
    """
    return SimtEngine(device, options.launch,
                      use_ro_cache=options.use_readonly_cache,
                      sanitizer=sanitizer)


def dispatch_kernel(engine: SimtEngine, pre: PreprocessResult,
                    options: GpuOptions = GpuOptions(), *,
                    lo: int = 0, hi: int | None = None,
                    result_buf: DeviceBuffer | None = None,
                    per_vertex_buf: DeviceBuffer | None = None,
                    memory: DeviceMemory | None = None) -> CountKernelResult:
    """Run the ``options.kernel`` counting kernel on an already-built
    engine (the inner step of :func:`launch`).

    ``memory`` is the launch's allocator, forwarded to strategies that
    build device-resident tables (the ``hash`` kernel); those raise a
    typed error without it.
    """
    return count_triangles_kernel(engine, pre, options, lo=lo, hi=hi,
                                  result_buf=result_buf,
                                  per_vertex_buf=per_vertex_buf,
                                  memory=memory)


@dataclass
class LaunchPlan:
    """Declarative request for one kernel launch.

    The defaults describe the full single-GPU pipeline; the counting
    kernel is ``options.kernel``.  Passing ``preprocessed`` makes it a
    slice launch (see the module docstring).
    """

    graph: EdgeArray | None = None
    device: DeviceSpec = GTX_980
    options: GpuOptions = field(default_factory=GpuOptions)
    #: Accumulate per-vertex corner counts (one ``atomicAdd`` per
    #: triangle corner, the local-triangle extension): allocates the
    #: ``num_nodes``-long accumulator before preprocessing and reads it
    #: back after the reduce.  Only the merge strategy supports it.
    per_vertex: bool = False
    #: Pre-built device memory (bench passes a capacity-scaled one).
    memory: DeviceMemory | None = None
    #: Timeline to append to; a fresh :class:`Timeline` if None.
    timeline: Timeline | None = None
    #: Device-resident structures; skips preprocessing when given
    #: (multi-GPU slices run against broadcast copies).
    preprocessed: PreprocessResult | None = None
    lo: int = 0
    hi: int | None = None
    result_name: str = "result"
    #: Execute the ``†`` preprocessing pass as this many double-buffered
    #: chunks (host pass overlapping the forward-arc H2D on a copy
    #: stream) and read the result back on :data:`D2H_STREAM`.  Forces
    #: ``cpu_preprocess="always"``; ``None`` is the serial protocol.
    #: Counts, counters and serial totals are identical either way —
    #: only the stream schedule (``timeline.makespan_ms``) changes.
    pipeline_chunks: int | None = None


@dataclass
class KernelLaunch:
    """Everything one launch produced."""

    device: DeviceSpec
    options: GpuOptions
    engine: SimtEngine
    pre: PreprocessResult
    result: CountKernelResult
    timing: KernelTiming
    timeline: Timeline
    triangles: int                  # device-reduced total
    per_vertex: np.ndarray | None   # host copy, ``per_vertex`` plans only
    sanitizer: "Sanitizer | None"

    @property
    def report(self) -> KernelReport:
        return self.engine.report

    @property
    def sanitizer_reports(self) -> list:
        return self.sanitizer.reports if self.sanitizer is not None else []


def launch(plan: LaunchPlan) -> KernelLaunch:
    """Execute one kernel launch end to end (see module docstring for
    the lifecycle and its ordering constraints)."""
    options = plan.options
    strategy = get_strategy(options.kernel)
    check_per_vertex(strategy, plan.per_vertex)
    device = plan.device
    memory = plan.memory if plan.memory is not None else DeviceMemory(device)
    if memory.spec.name != device.name:
        raise ReproError(
            f"memory belongs to {memory.spec.name!r}, not {device.name!r}")
    pre = plan.preprocessed
    whole = pre is None            # False: a multi-GPU slice launch
    if whole and plan.graph is None:
        raise ReproError("LaunchPlan needs a graph or a preprocessed result")
    chunks = plan.pipeline_chunks
    if chunks is not None:
        if not whole:
            raise ReproError("pipeline_chunks schedules the † preprocessing "
                             "pass; a plan with preprocessed structures "
                             "has none")
        if chunks < 1:
            raise ReproError(f"pipeline_chunks must be >= 1, got {chunks}")
        if options.cpu_preprocess == "never":
            raise ReproError(
                "pipelined execution schedules the † host preprocessing "
                "pass; options.cpu_preprocess must be 'auto' or 'always', "
                "not 'never'")
        options = options.but(cpu_preprocess="always")
    timeline = plan.timeline if plan.timeline is not None else Timeline()

    sanitizer: "Sanitizer | None" = None
    if whole and options.sanitize != "off":
        from repro.sanitize import Sanitizer

        sanitizer = Sanitizer(mode=options.sanitize)
        # Attach before the first allocation so initcheck sees the
        # result buffer below and every preprocessing buffer.
        memory.sanitizer = sanitizer
    try:
        engine = build_engine(device, options, sanitizer)
        # The per-thread result array lives for the whole run;
        # allocating it up front makes it part of the footprint the
        # Section III-D6 fallback logic sees (otherwise preprocessing
        # could "fit" and the run still die at the kernel launch).
        result_buf = memory.alloc_empty(plan.result_name, engine.num_threads,
                                        COUNT_DTYPE)
        per_vertex_buf = None
        num_vertices = 0
        if plan.per_vertex:
            if plan.graph is not None:
                num_vertices = plan.graph.num_nodes
            else:
                num_vertices = pre.num_nodes if pre is not None else 0
            per_vertex_buf = memory.alloc(
                "per_vertex", np.zeros(max(num_vertices, 1), np.int64))
        if pre is None:
            assert plan.graph is not None
            pre = preprocess(plan.graph, device, memory, timeline, options,
                             chunks=chunks)

        kres = dispatch_kernel(engine, pre, options,
                               lo=plan.lo, hi=plan.hi,
                               result_buf=result_buf,
                               per_vertex_buf=per_vertex_buf,
                               memory=memory)
        timing = time_kernel(engine.report)
        if whole:
            label = strategy.display_name + ("+local" if plan.per_vertex
                                             else "")
            timeline.add(label, timing.kernel_ms, phase="count")

        total = thrustlike.reduce_sum(device, result_buf,
                                      timeline if whole else None,
                                      phase="reduce")
        if total != kres.triangles:
            raise ReproError("device reduce disagrees with kernel counts "
                             f"({total} vs {kres.triangles})")

        def record_d2h(name: str, ms: float) -> None:
            # Same event name/phase either way — serial totals stay the
            # paper's protocol; only the stream placement differs.
            if chunks is None:
                timeline.add(name, ms, phase="reduce")
                return
            # The readback depends on the reduce that just landed on
            # the default stream; the join edge records it.
            timeline.wait_for(D2H_STREAM, DEFAULT_STREAM)
            timeline.add_on(name, ms, phase="reduce", stream=D2H_STREAM)

        per_vertex_host = None
        if per_vertex_buf is not None:
            # d2h readback of the accumulator (host phase, not kernel code).
            per_vertex_host = per_vertex_buf.data[:num_vertices].copy()  # san-ok: SAN101
        if whole:
            if per_vertex_host is not None:
                record_d2h("d2h per-vertex counts",
                           memory.d2h_ms(per_vertex_host.nbytes))
            else:
                record_d2h("d2h result",
                           memory.d2h_ms(np.dtype(COUNT_DTYPE).itemsize))
            memory.free_all()
    finally:
        if sanitizer is not None:
            memory.sanitizer = None

    return KernelLaunch(device=device, options=options,
                        engine=engine, pre=pre, result=kres, timing=timing,
                        timeline=timeline, triangles=total,
                        per_vertex=per_vertex_host, sanitizer=sanitizer)

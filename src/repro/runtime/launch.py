"""``LaunchPlan`` / ``launch()`` — the one kernel-launch lifecycle.

Every counting pipeline used to hand-roll the same dozen steps; they
now live here, written once, in the order that keeps results and every
:class:`~repro.gpusim.simt.KernelReport` counter bit-identical to the
historical pipelines (device addresses feed the cache model, so even
*allocation order* is part of the contract):

1. validate the plan (memory/device match, layout — eagerly, with
   typed errors);
2. attach the sanitizer to :class:`~repro.gpusim.memory.DeviceMemory`
   *before* the first allocation (initcheck must see every buffer);
3. construct the :class:`~repro.gpusim.simt.SimtEngine` from
   :class:`~repro.core.options.GpuOptions` (the only construction site
   outside ``gpusim`` — enforced by repro-lint SAN104);
4. allocate the per-thread result buffer (before preprocessing, so the
   Section III-D6 fallback logic sees the full footprint), then the
   per-vertex accumulator for ``per_vertex`` specs;
5. run preprocessing (H2D copy events land on the stream timeline)
   unless the plan supplies device-resident structures;
6. dispatch the kernel body, time it with the roofline model, and
   record the kernel event;
7. device-reduce the result buffer, cross-check against the kernel's
   own count, and record the D2H readback event(s);
8. free device memory and detach the sanitizer (always, via finally).

Host-side wall-clock is attributed to the unified hostprof phases
``h2d`` / ``kernel`` / ``d2h`` / ``free`` whenever a
:class:`~repro.gpusim.hostprof.HostProfiler` is installed, so
``==SERVE==`` sheets and bench phase totals are comparable across
kernels and pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.core.options import GpuOptions
from repro.core.preprocess import PreprocessResult, preprocess
from repro.errors import ReproError
from repro.graphs.edgearray import EdgeArray
from repro.gpusim import thrustlike
from repro.gpusim.device import DeviceSpec, GTX_980
from repro.gpusim.hostprof import current_host_profiler
from repro.gpusim.memory import DeviceBuffer, DeviceMemory
from repro.gpusim.simt import KernelReport, SimtEngine
from repro.gpusim.timing import KernelTiming, Timeline, time_kernel
from repro.runtime.spec import KernelResult, KernelSpec, resolve_kernel
from repro.runtime.stream import DEFAULT_STREAM, StreamTimeline
from repro.types import COUNT_DTYPE

if TYPE_CHECKING:
    from repro.sanitize import Sanitizer

#: The unified hostprof phase vocabulary (see module docstring).  The
#: kernel-tick sections (``setup`` and each strategy's ``step_kind``)
#: and the engine subsets (``cache-model``/``accounting``) nest inside
#: ``kernel``.
PHASE_H2D = "h2d"
PHASE_KERNEL = "kernel"
PHASE_D2H = "d2h"
PHASE_FREE = "free"


def build_engine(device: DeviceSpec, options: GpuOptions,
                 sanitizer: "Sanitizer | None" = None) -> SimtEngine:
    """The one :class:`SimtEngine` construction point outside gpusim.

    Centralizing it keeps launch-config validation, read-only-cache
    wiring and sanitizer attachment uniform (repro-lint SAN104 flags
    direct constructions elsewhere).
    """
    return SimtEngine(device, options.launch,
                      use_ro_cache=options.use_readonly_cache,
                      sanitizer=sanitizer)


def dispatch_kernel(kernel: KernelSpec | str, engine: SimtEngine,
                    pre: PreprocessResult,
                    options: GpuOptions = GpuOptions(), *,
                    lo: int = 0, hi: int | None = None,
                    result_buf: DeviceBuffer | None = None,
                    per_vertex_buf: DeviceBuffer | None = None,
                    memory: DeviceMemory | None = None) -> KernelResult:
    """Run one kernel body on an already-built engine (the inner step of
    :func:`launch`).

    ``memory`` is the launch's allocator, forwarded to bodies whose
    strategy builds device-resident tables (the ``hash`` kernel); those
    bodies raise a typed error without it.
    """
    spec = resolve_kernel(kernel)
    prof = current_host_profiler()
    t0 = perf_counter() if prof is not None else 0.0
    result: KernelResult = spec.body(engine, pre, options, lo=lo, hi=hi,
                                     result_buf=result_buf,
                                     per_vertex_buf=per_vertex_buf,
                                     memory=memory)
    if prof is not None:
        prof.add(PHASE_KERNEL, perf_counter() - t0)
    return result


@dataclass
class LaunchPlan:
    """Declarative request for one kernel launch.

    The defaults describe the full single-GPU pipeline; the multi-GPU
    driver turns off the pieces its own aggregation owns (sanitizer,
    per-slice timeline events, teardown).
    """

    kernel: KernelSpec | str
    graph: EdgeArray | None = None
    device: DeviceSpec = GTX_980
    options: GpuOptions = field(default_factory=GpuOptions)
    #: Pre-built device memory (bench passes a capacity-scaled one).
    memory: DeviceMemory | None = None
    #: Timeline to append to; a fresh :class:`StreamTimeline` if None.
    timeline: Timeline | None = None
    #: Device-resident structures; skips preprocessing when given
    #: (multi-GPU slices run against broadcast copies).
    preprocessed: PreprocessResult | None = None
    lo: int = 0
    hi: int | None = None
    #: Length of the per-vertex accumulator (default: the graph's /
    #: preprocessed result's node count).
    num_vertices: int | None = None
    result_name: str = "result"
    attach_sanitizer: bool = True
    record_kernel_event: bool = True
    #: Record the device reduce on the timeline (the multi-GPU driver
    #: aggregates its own overlapped reduce event instead).
    reduce_timeline: bool = True
    d2h_events: bool = True
    free_all: bool = True
    #: Alternative preprocessing entry point with the same signature as
    #: :func:`repro.core.preprocess.preprocess` (graph, device, memory,
    #: timeline, options).  The executed pipeline
    #: (:mod:`repro.runtime.pipeline`) swaps in its chunked ``†``
    #: scheduler here; allocation order — result buffer first, then the
    #: preprocessing buffers — is preserved either way, which is what
    #: keeps device addresses (and cache counters) bit-identical.
    preprocess_fn: Callable[..., PreprocessResult] | None = None
    #: Stamp the result readback on this stream (after a ``wait_for``
    #: join edge on the default stream) instead of inline on stream 0.
    #: Needs a :class:`StreamTimeline`; ``None`` keeps the serial
    #: protocol's placement.
    d2h_stream: int | None = None


@dataclass
class KernelLaunch:
    """Everything one launch produced."""

    spec: KernelSpec
    device: DeviceSpec
    options: GpuOptions
    engine: SimtEngine
    pre: PreprocessResult
    result: Any                     # the body's result object
    timing: KernelTiming
    timeline: Timeline
    triangles: int                  # device-reduced total
    per_vertex: np.ndarray | None   # host copy, ``per_vertex`` specs only
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
    spec = resolve_kernel(plan.kernel)
    options = plan.options
    device = plan.device
    memory = plan.memory if plan.memory is not None else DeviceMemory(device)
    if memory.spec.name != device.name:
        raise ReproError(
            f"memory belongs to {memory.spec.name!r}, not {device.name!r}")
    pre = plan.preprocessed
    if pre is None and plan.graph is None:
        raise ReproError("LaunchPlan needs a graph or a preprocessed result")
    if spec.requires_soa and pre is None and not options.unzip:
        raise ReproError(f"kernel {spec.name!r} requires the SoA layout "
                         "(GpuOptions.unzip=True)")
    timeline = plan.timeline if plan.timeline is not None else StreamTimeline()

    sanitizer: "Sanitizer | None" = None
    if plan.attach_sanitizer and options.sanitize != "off":
        from repro.sanitize import Sanitizer

        sanitizer = Sanitizer(mode=options.sanitize)
        # Attach before the first allocation so initcheck sees the
        # result buffer below and every preprocessing buffer.
        memory.sanitizer = sanitizer
    prof = current_host_profiler()
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
        if spec.per_vertex:
            if plan.num_vertices is not None:
                num_vertices = plan.num_vertices
            elif plan.graph is not None:
                num_vertices = plan.graph.num_nodes
            else:
                num_vertices = pre.num_nodes if pre is not None else 0
            per_vertex_buf = memory.alloc(
                "per_vertex", np.zeros(max(num_vertices, 1), np.int64))
        if pre is None:
            t0 = perf_counter() if prof is not None else 0.0
            assert plan.graph is not None
            pre_fn = plan.preprocess_fn if plan.preprocess_fn is not None \
                else preprocess
            pre = pre_fn(plan.graph, device, memory, timeline, options)
            if prof is not None:
                prof.add(PHASE_H2D, perf_counter() - t0)

        kres = dispatch_kernel(spec, engine, pre, options,
                               lo=plan.lo, hi=plan.hi,
                               result_buf=result_buf,
                               per_vertex_buf=per_vertex_buf,
                               memory=memory)
        timing = time_kernel(engine.report)
        if plan.record_kernel_event:
            timeline.add(spec.display_name, timing.kernel_ms, phase="count")

        t0 = perf_counter() if prof is not None else 0.0
        total = thrustlike.reduce_sum(
            device, result_buf,
            timeline if plan.reduce_timeline else None, phase="reduce")
        if total != kres.triangles:
            raise ReproError("device reduce disagrees with kernel counts "
                             f"({total} vs {kres.triangles})")
        d2h_stream = plan.d2h_stream
        if d2h_stream is not None and not isinstance(timeline,
                                                     StreamTimeline):
            raise ReproError("LaunchPlan.d2h_stream needs a StreamTimeline "
                             f"(got {type(timeline).__name__})")

        def record_d2h(name: str, ms: float) -> None:
            # Same event name/phase either way — serial totals stay the
            # paper's protocol; only the stream placement differs.
            if d2h_stream is None:
                timeline.add(name, ms, phase="reduce")
                return
            assert isinstance(timeline, StreamTimeline)
            # The readback depends on the reduce that just landed on
            # the default stream; the join edge records it.
            timeline.wait_for(d2h_stream, DEFAULT_STREAM)
            timeline.add_on(name, ms, phase="reduce", stream=d2h_stream)

        per_vertex_host = None
        if per_vertex_buf is not None:
            # d2h readback of the accumulator (host phase, not kernel code).
            per_vertex_host = per_vertex_buf.data[:num_vertices].copy()  # san-ok: SAN101
            if plan.d2h_events:
                record_d2h("d2h per-vertex counts",
                           memory.d2h_ms(per_vertex_host.nbytes))
        elif plan.d2h_events:
            record_d2h("d2h result",
                       memory.d2h_ms(np.dtype(COUNT_DTYPE).itemsize))
        if prof is not None:
            prof.add(PHASE_D2H, perf_counter() - t0)
        if plan.free_all:
            t0 = perf_counter() if prof is not None else 0.0
            memory.free_all()
            if prof is not None:
                prof.add(PHASE_FREE, perf_counter() - t0)
    finally:
        if sanitizer is not None:
            memory.sanitizer = None

    return KernelLaunch(spec=spec, device=device, options=options,
                        engine=engine, pre=pre, result=kres, timing=timing,
                        timeline=timeline, triangles=total,
                        per_vertex=per_vertex_host, sanitizer=sanitizer)

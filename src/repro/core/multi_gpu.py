"""Multi-GPU counting (paper Section III-E).

The paper's scheme verbatim: run the whole preprocessing phase on one
device, copy the (forward, compacted) edge columns and the node array to
the remaining devices, and let device *d* count its contiguous slice of
the arcs.  Counting time is the slowest device's kernel; the serial
preprocessing bounds the speedup by Amdahl's law — the paper reports
preprocessing fractions of 0.08–0.76, hence 4-GPU speedups between 3.23
and 1.22.
"""

from __future__ import annotations

import numpy as np

from repro.core.forward_gpu import GpuRunResult
from repro.core.intersect import get_strategy
from repro.core.options import GpuOptions
from repro.core.preprocess import PreprocessResult, preprocess
from repro.errors import ContextMismatchError, ReproError
from repro.graphs.edgearray import EdgeArray
from repro.gpusim import thrustlike
from repro.gpusim.device import DeviceSpec, TESLA_C2050
from repro.gpusim.multigpu import MultiGpuContext
from repro.gpusim.timing import Timeline
from repro.runtime import LaunchPlan, launch
from repro.types import COUNT_DTYPE

#: Valid multi-GPU exchange schedules (see :mod:`repro.gpusim.multigpu`).
EXCHANGE_MODES = ("broadcast", "ring")


def multi_gpu_count_triangles(graph: EdgeArray,
                              device: DeviceSpec = TESLA_C2050,
                              num_gpus: int = 4,
                              options: GpuOptions = GpuOptions(),
                              context: MultiGpuContext | None = None,
                              exchange: str = "broadcast",
                              ) -> GpuRunResult:
    """Count triangles on ``num_gpus`` identical simulated devices.

    ``exchange`` selects the copy schedule: ``"broadcast"`` (default) is
    the paper's one-source scheme and keeps the reported serial totals
    the paper's protocol; ``"ring"`` is the chunked store-and-forward
    exchange whose per-link pipelining shows up in the timeline's
    measured ``makespan_ms``.  Triangle counts and kernel counters are
    identical between the two (the exchange only moves bytes).

    Returns a :class:`GpuRunResult` whose ``kernel_report``/``timing``
    are the *slowest* device's (it decides the counting phase) and whose
    ``per_device`` list carries every card's (report, timing) pair.

    The sanitizer is not wired into this pipeline: a run with
    ``options.sanitize`` other than ``"off"`` is a typed error rather
    than a silently unchecked run — sanitize on the single-GPU pipeline
    (:func:`repro.core.forward_gpu.gpu_count_triangles`), which runs the
    same kernels.
    """
    if options.sanitize != "off":
        raise ReproError(
            f"multi_gpu_count_triangles runs no sanitizer (options.sanitize="
            f"{options.sanitize!r}); sanitize the kernel on the single-GPU "
            "pipeline, gpu_count_triangles, instead")
    if exchange not in EXCHANGE_MODES:
        raise ReproError(f"exchange must be one of {EXCHANGE_MODES}, "
                         f"got {exchange!r}")
    if context is None:
        context = MultiGpuContext(device, num_gpus)
    elif context.count != num_gpus or context.device.name != device.name:
        raise ContextMismatchError(actual_device=context.device.name,
                                   expected_device=device.name,
                                   actual_count=context.count,
                                   expected_count=num_gpus)

    from repro.core.autopick import resolve_options
    options = resolve_options(graph, options)

    timeline = Timeline()
    pre = preprocess(graph, device, context.primary, timeline, options)

    # Exchange the preprocessed structures (device 0 already holds
    # them).  In broadcast mode each destination card has its own PCIe
    # lane in the model, so the context places device d's copies on
    # stream 1+d — reported totals stay the paper's serial protocol, and
    # the stream schedule (timeline.overlap_savings_ms) says what
    # concurrent copies buy.  Ring mode forwards chunks card-to-card on
    # per-link streams with wait_for dependency edges instead.
    copy = (context.ring_broadcast if exchange == "ring"
            else context.broadcast)
    if pre.aos is None:
        adj_all = copy(pre.adj, timeline)
        keys_all = copy(pre.keys, timeline)
        aos_all = [None] * num_gpus
    else:
        aos_all = copy(pre.aos, timeline)
        adj_all = keys_all = [None] * num_gpus
    node_all = copy(pre.node, timeline)
    timeline.barrier()   # kernels wait for their card's copies

    ranges = context.partition_ranges(pre.num_forward_arcs)
    strategy = get_strategy(options.kernel)
    triangles = 0
    per_device = []
    count_ms = 0.0
    slowest = None

    for d, (lo, hi) in enumerate(ranges):
        pre_d = PreprocessResult(adj=adj_all[d], keys=keys_all[d],
                                 aos=aos_all[d], node=node_all[d],
                                 num_nodes=pre.num_nodes,
                                 num_forward_arcs=pre.num_forward_arcs,
                                 used_cpu_fallback=pre.used_cpu_fallback)
        # A slice launch (it gets preprocessed structures): this driver
        # owns the aggregated timeline events (max-over-devices count,
        # overlapped reduces) and the context owns teardown.
        run = launch(LaunchPlan(device=device, options=options,
                                memory=context.memories[d],
                                preprocessed=pre_d, lo=lo, hi=hi,
                                result_name=f"result@dev{d}"))
        triangles += run.triangles
        per_device.append((run.report, run.timing))
        if run.timing.kernel_ms >= count_ms:
            count_ms = run.timing.kernel_ms
            slowest = (run.report, run.timing)

    # Devices count concurrently: the phase costs the slowest kernel,
    # then each device reduces its own result array (overlapped too) and
    # ships 8 bytes back.
    timeline.add(f"{strategy.display_name} × {num_gpus} (max over devices)",
                 count_ms, phase="count")
    result_bytes = per_device[0][0].launch.total_threads(device) * \
        np.dtype(COUNT_DTYPE).itemsize
    timeline.add("reduce partial sums",
                 thrustlike.stream_ms(device, result_bytes, 1.0), phase="reduce")
    timeline.add("d2h results",
                 num_gpus * context.primary.d2h_ms(8), phase="reduce")
    context.free_all()

    report, timing = slowest
    return GpuRunResult(triangles=triangles, device=device, options=options,
                        timeline=timeline, kernel_report=report,
                        kernel_timing=timing,
                        used_cpu_fallback=pre.used_cpu_fallback,
                        num_forward_arcs=pre.num_forward_arcs,
                        per_device=per_device)

"""repro.runtime — the unified kernel runtime.

One launch protocol for every counting kernel: the kernel is the
:mod:`repro.core.intersect` strategy named by ``GpuOptions.kernel``,
run on the one driver (:mod:`repro.core.count_kernel`), and every
pipeline goes through :func:`launch`, which owns device
allocation, H2D/D2H transfer events on the stream schedule of a
:class:`~repro.gpusim.timing.Timeline` (serial, or with the ``†`` pass
double-buffered via ``LaunchPlan.pipeline_chunks``), engine
construction from :class:`~repro.core.options.GpuOptions`, sanitizer
attachment, and report/timeline assembly.

Layering (see docs/architecture.md)::

    graphs -> preprocess -> runtime -> gpusim
                               |
                    core pipelines / serve / bench
"""

from repro.runtime.launch import (D2H_STREAM, KernelLaunch, LaunchPlan,
                                  build_engine, dispatch_kernel, launch)

__all__ = [
    "LaunchPlan", "KernelLaunch", "launch", "dispatch_kernel",
    "build_engine", "D2H_STREAM",
]

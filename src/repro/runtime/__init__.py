"""repro.runtime — the unified kernel runtime.

One launch protocol for every counting kernel: kernels are registered
as :class:`KernelSpec`\\ s (name, host body, buffer facts) and
every pipeline goes through :func:`launch`, which owns device
allocation, H2D/D2H transfer events on a :class:`StreamTimeline`,
engine construction from :class:`~repro.core.options.GpuOptions`,
sanitizer attachment, hostprof phases, and report/timeline assembly.

Layering (see docs/architecture.md)::

    graphs -> preprocess -> runtime -> gpusim
                               |
                    core pipelines / serve / bench
"""

from repro.runtime.launch import (PHASE_D2H, PHASE_FREE, PHASE_H2D,
                                  PHASE_KERNEL, KernelLaunch, LaunchPlan,
                                  build_engine, dispatch_kernel, launch)
from repro.runtime.pipeline import (PipelinedPlan, pipelined_cpu_preprocess,
                                    pipelined_launch)
from repro.runtime.spec import (BINARY_SEARCH, HASH, LOCAL, MERGE,
                                WARP_INTERSECT, KernelSpec, get_kernel,
                                kernel_names, kernel_option_field,
                                kernel_option_fields, register,
                                resolve_kernel, spec_for_options)
from repro.runtime.stream import (DEFAULT_STREAM, StreamDep, StreamEvent,
                                  StreamTimeline)

__all__ = [
    "KernelSpec", "register", "get_kernel", "kernel_names",
    "resolve_kernel", "spec_for_options", "kernel_option_field",
    "kernel_option_fields",
    "MERGE", "WARP_INTERSECT", "BINARY_SEARCH", "HASH", "LOCAL",
    "LaunchPlan", "KernelLaunch", "launch", "dispatch_kernel",
    "build_engine",
    "PipelinedPlan", "pipelined_launch", "pipelined_cpu_preprocess",
    "PHASE_H2D", "PHASE_KERNEL", "PHASE_D2H", "PHASE_FREE",
    "StreamTimeline", "StreamEvent", "StreamDep", "DEFAULT_STREAM",
]

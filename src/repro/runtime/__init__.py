"""repro.runtime — the unified kernel runtime.

One launch protocol for every counting kernel: kernels are registered
as :class:`KernelSpec`\\ s (name, host body, buffer facts) and
every pipeline goes through :func:`launch`, which owns device
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
from repro.runtime.spec import (BINARY_SEARCH, HASH, LOCAL, MERGE,
                                WARP_INTERSECT, KernelSpec, get_kernel,
                                kernel_names, kernel_option_fields, register,
                                resolve_kernel, spec_for_options)

__all__ = [
    "KernelSpec", "register", "get_kernel", "kernel_names",
    "resolve_kernel", "spec_for_options", "kernel_option_fields",
    "MERGE", "WARP_INTERSECT", "BINARY_SEARCH", "HASH", "LOCAL",
    "LaunchPlan", "KernelLaunch", "launch", "dispatch_kernel",
    "build_engine", "D2H_STREAM",
]

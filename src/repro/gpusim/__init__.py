"""A CUDA-like GPU substrate, simulated.

The paper runs on real Nvidia hardware; this package replaces that
hardware with a warp-lockstep SIMT simulator (see DESIGN.md §2):

* :mod:`~repro.gpusim.device` — the device catalog (Tesla C2050,
  GTX 980, NVS 5200M) with the cards' published specifications, plus the
  Xeon X5650 model for the CPU baseline;
* :mod:`~repro.gpusim.memory` — global-memory allocator with capacity
  accounting and host↔device transfer timing;
* :mod:`~repro.gpusim.cache` — per-SM read-only cache and device L2
  (set-associative LRU), which with the engine's per-warp transaction
  coalescing produce the Table II counters;
* :mod:`~repro.gpusim.cachestream` — runs each engine's cache model
  in-process or in a worker process on another core;
* :mod:`~repro.gpusim.simt` — the lockstep execution engine kernels run
  on, with divergence and instruction accounting;
* :mod:`~repro.gpusim.reference` — a scalar, one-thread-at-a-time
  re-execution of the merge kernel and its memory model: the oracle the
  tests hold the engine's counters to;
* :mod:`~repro.gpusim.thrustlike` — functional equivalents of the Thrust
  primitives the preprocessing phase uses, with pass-based cost models;
* :mod:`~repro.gpusim.timing` — conversion of measured work into
  simulated milliseconds;
* :mod:`~repro.gpusim.multigpu` — multi-device contexts (Section III-E).

Counts are measured by execution; only the conversion constants come
from the device specs.
"""

from repro.gpusim.device import (DeviceSpec, CpuSpec, TESLA_C2050, GTX_980,
                                 NVS_5200M, XEON_X5650, DEVICES)
from repro.gpusim.memory import DeviceMemory, DeviceBuffer
from repro.gpusim.cache import CacheArray, CacheStats
from repro.gpusim.simt import SimtEngine, LaunchConfig, KernelReport
from repro.gpusim.timing import KernelTiming, TimelineEvent, Timeline
from repro.gpusim.multigpu import MultiGpuContext
from repro.gpusim.profiler import format_kernel_profile, format_run_profile

__all__ = [
    "DeviceSpec", "CpuSpec",
    "TESLA_C2050", "GTX_980", "NVS_5200M", "XEON_X5650", "DEVICES",
    "DeviceMemory", "DeviceBuffer",
    "CacheArray", "CacheStats",
    "SimtEngine", "LaunchConfig", "KernelReport",
    "KernelTiming", "TimelineEvent", "Timeline",
    "MultiGpuContext",
    "format_kernel_profile", "format_run_profile",
]

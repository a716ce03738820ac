"""Section V related-work comparisons (E14).

Three comparison points from the paper's Section V, regenerated as far
as the substitution honestly allows:

* **Green et al. [15]** (warp-parallel intersections): we implement the
  core strategy as the ``warp_intersect`` kernel
  (:mod:`repro.core.intersect.warp`) and compare full pipelines.  The
  comparator's real system also paid binning/multi-launch overheads,
  charged here as an extra classification pass, a length-class sort
  and per-class launches.
  NOTE the honest finding recorded in EXPERIMENTS.md: the *idealized*
  strategy is faster than the paper's kernel in our simulator — the
  warp-per-edge layout coalesces where thread-per-edge scatters — so
  the paper's measured 2× advantage must come from implementation
  overheads beyond the strategy itself.
* **Leist et al. [13]** (thread-per-vertex clustering coefficients):
  modelled analytically — its work is the full wedge count with
  scattered closure checks, which at any scale dwarfs the forward
  merge work on skewed graphs.  Simulating it in lockstep is
  deliberately avoided (a single hub vertex serializes hundreds of
  thousands of steps onto one lane — the very reason the approach
  lost).
* **Chatterjee [14]** (reported ~20 s for 2 000-node graphs): orders of
  magnitude off any of the above; noted, not implemented.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.options import GpuOptions
from repro.core.preprocess import preprocess
from repro.errors import ReproError
from repro.graphs.edgearray import EdgeArray
from repro.gpusim import thrustlike
from repro.gpusim.device import DeviceSpec, GTX_980
from repro.gpusim.memory import DeviceMemory
from repro.gpusim.timing import LAUNCH_OVERHEAD_MS, Timeline, time_kernel
from repro.runtime import build_engine, dispatch_kernel

#: Length classes the comparator bins edges into (one launch each).
GREEN_BIN_CLASSES = 8


@dataclass(frozen=True)
class GreenComparison:
    """Pipeline-level comparison against the warp-parallel strategy."""

    triangles: int
    polak_total_ms: float
    green_total_ms: float
    polak_kernel_ms: float
    green_kernel_ms: float

    @property
    def pipeline_ratio(self) -> float:
        """green / polak total time (the paper reports ≈2)."""
        return self.green_total_ms / self.polak_total_ms

    @property
    def kernel_ratio(self) -> float:
        return self.green_kernel_ms / self.polak_kernel_ms

    def summary(self) -> str:
        return (f"Polak pipeline {self.polak_total_ms:.3f} ms vs "
                f"Green-style {self.green_total_ms:.3f} ms "
                f"(ratio {self.pipeline_ratio:.2f}, kernel-only "
                f"{self.kernel_ratio:.2f}; paper reports ≈2)")


def compare_with_green(graph: EdgeArray,
                       device: DeviceSpec = GTX_980) -> GreenComparison:
    """Run both pipelines on the same preprocessed structures."""
    # --- Polak pipeline ------------------------------------------------ #
    opts = GpuOptions()
    mem = DeviceMemory(device)
    tl_polak = Timeline()
    pre = preprocess(graph, device, mem, tl_polak)
    engine = build_engine(device, opts)
    res_polak = dispatch_kernel(engine, pre, opts)
    t_polak = time_kernel(engine.report)
    tl_polak.add("CountTriangles", t_polak.kernel_ms, phase="count")
    mem.free_all()

    # --- Green-style pipeline ------------------------------------------ #
    mem = DeviceMemory(device)
    tl_green = Timeline()
    pre = preprocess(graph, device, mem, tl_green)
    # Binning: classify each edge by ceil(log2 |shorter list|) (one pass
    # + node gathers), stable-sort edges by class, then launch once per
    # non-empty class.
    m_fwd = pre.num_forward_arcs
    tl_green.add("bin classify",
                 thrustlike.stream_ms(device, 8 * m_fwd, 3.0))
    tl_green.add("bin sort",
                 thrustlike.stream_ms(device, 8 * m_fwd,
                                      2.0 * np.log2(max(GREEN_BIN_CLASSES, 2))))
    tl_green.add("per-bin launches",
                 GREEN_BIN_CLASSES * LAUNCH_OVERHEAD_MS)
    green_opts = opts.but(kernel="warp_intersect")
    engine_g = build_engine(device, green_opts)
    res_green = dispatch_kernel(engine_g, pre, green_opts)
    t_green = time_kernel(engine_g.report)
    tl_green.add("WarpIntersect", t_green.kernel_ms, phase="count")
    mem.free_all()

    if res_polak.triangles != res_green.triangles:
        raise ReproError("the two kernels disagree on the count")
    return GreenComparison(
        triangles=res_polak.triangles,
        polak_total_ms=tl_polak.total_ms,
        green_total_ms=tl_green.total_ms,
        polak_kernel_ms=t_polak.kernel_ms,
        green_kernel_ms=t_green.kernel_ms)


@dataclass(frozen=True)
class LeistComparison:
    """Analytic comparison against thread-per-vertex wedge checking."""

    forward_kernel_ms: float
    leist_model_ms: float
    wedges: int
    merge_steps: int

    @property
    def advantage(self) -> float:
        """forward-over-Leist speedup (paper: ~45× on BA, ~7× on WS,
        already divided by 2 for the clustering-coefficient extras)."""
        return self.leist_model_ms / self.forward_kernel_ms

    def summary(self) -> str:
        return (f"forward kernel {self.forward_kernel_ms:.3f} ms vs "
                f"Leist-style model {self.leist_model_ms:.3f} ms "
                f"({self.advantage:.0f}x advantage; wedges/merge-steps = "
                f"{self.wedges / max(self.merge_steps, 1):.1f})")


def compare_with_leist(graph: EdgeArray,
                       device: DeviceSpec = GTX_980) -> LeistComparison:
    """Analytic model of the [13] approach vs. our measured kernel.

    The thread-per-vertex kernel performs one closure check per wedge
    (two scattered reads plus a ~log(deg) binary search).  Work is
    bounded below by the wedge count; we charge only the reads at the
    device's scattered-access throughput and give the comparator perfect
    occupancy — a lower bound that still loses by a wide margin on
    skewed graphs, which is the paper's point.
    """
    from repro.cpu.forward import forward_count_cpu
    from repro.graphs.stats import wedge_counts

    opts = GpuOptions()
    mem = DeviceMemory(device)
    tl = Timeline()
    pre = preprocess(graph, device, mem, tl)
    engine = build_engine(device, opts)
    dispatch_kernel(engine, pre, opts)
    t_forward = time_kernel(engine.report)
    mem.free_all()

    wedges = int(wedge_counts(graph).sum())
    deg_max = int(graph.degrees().max()) if graph.num_nodes else 1
    reads_per_wedge = 2 + np.log2(max(deg_max, 2))
    # One 32 B sector per scattered read, at effective DRAM bandwidth.
    bytes_total = wedges * reads_per_wedge * device.sector_bytes
    eff_bw = device.peak_bandwidth_gbs * device.dram_efficiency * 1e9
    leist_ms = bytes_total / eff_bw * 1e3

    merge_steps = forward_count_cpu(graph).merge_steps
    return LeistComparison(forward_kernel_ms=t_forward.kernel_ms,
                           leist_model_ms=leist_ms,
                           wedges=wedges, merge_steps=merge_steps)

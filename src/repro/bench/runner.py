"""Experiment runner: one Table I row = CPU + C2050 + 4×C2050 + GTX 980.

Scaling policy (DESIGN.md §6 and EXPERIMENTS.md): workloads run at their
mini ``scale``; each simulated device's *capacity-bound* resources
(global memory, L2) shrink by the **measured arc ratio**
``arcs(mini) / arcs(paper)`` so footprint/capacity matches the full-size
experiment — this is what re-triggers the paper's ``†`` fallback on the
3 GB C2050 for the Orkut and Kronecker-21 rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.forward_gpu import GpuRunResult, gpu_count_triangles
from repro.core.multi_gpu import multi_gpu_count_triangles
from repro.core.options import GpuOptions
from repro.cpu.forward import ForwardCpuResult, forward_count_cpu
from repro.errors import ReproError
from repro.graphs.datasets import WORKLOADS, Workload, get
from repro.graphs.edgearray import EdgeArray
from repro.gpusim.device import GTX_980, TESLA_C2050, DeviceSpec
from repro.gpusim.memory import DeviceMemory
from repro.gpusim.multigpu import MultiGpuContext
from repro.utils import env_scale


@dataclass
class RowResult:
    """Measured Table I row (plus its Table II columns), with the
    published numbers alongside."""

    workload: Workload
    scale: float
    num_nodes: int
    num_arcs: int
    triangles: int
    cpu: ForwardCpuResult
    c2050: GpuRunResult | None = None
    quad: GpuRunResult | None = None
    gtx980: GpuRunResult | None = None

    # ------------------------------------------------------------------ #
    # Table I cells
    # ------------------------------------------------------------------ #

    @property
    def cpu_ms(self) -> float:
        return self.cpu.elapsed_ms

    @property
    def c2050_speedup(self) -> float:
        return self.cpu_ms / self.c2050.total_ms if self.c2050 else 0.0

    @property
    def quad_speedup(self) -> float:
        """4-GPU over 1-GPU speedup (the paper's second speedup column)."""
        if not (self.c2050 and self.quad):
            return 0.0
        return self.c2050.total_ms / self.quad.total_ms

    @property
    def gtx980_speedup(self) -> float:
        return self.cpu_ms / self.gtx980.total_ms if self.gtx980 else 0.0

    # ------------------------------------------------------------------ #
    # Table II cells
    # ------------------------------------------------------------------ #

    @property
    def cache_hit_pct(self) -> float:
        return 100.0 * self.gtx980.cache_hit_rate if self.gtx980 else 0.0

    @property
    def bandwidth_gbs(self) -> float:
        return self.gtx980.bandwidth_gbs if self.gtx980 else 0.0

    @property
    def dagger_c2050(self) -> bool:
        return bool(self.c2050 and self.c2050.used_cpu_fallback)

    @property
    def dagger_quad(self) -> bool:
        return bool(self.quad and self.quad.used_cpu_fallback)


def scaled_device(device: DeviceSpec, graph: EdgeArray,
                  workload: Workload) -> DeviceSpec:
    """Shrink capacity-bound resources by the measured arc ratio."""
    ratio = graph.num_arcs / workload.paper.arcs
    if not (0 < ratio <= 1):
        raise ReproError(
            f"workload {workload.name} built larger than the paper's graph "
            f"({graph.num_arcs} vs {workload.paper.arcs} arcs)")
    return device.scaled(ratio)


def scaled_setup(name: str, device: DeviceSpec,
                 seed: int = 0) -> tuple[EdgeArray, DeviceSpec]:
    """Build workload ``name`` at its default scale and capacity-scale
    ``device`` to it, the way Table I scales its devices."""
    w = get(name)
    graph = w.build(seed=seed)
    return graph, scaled_device(device, graph, w)


def run_workload(name: str,
                 scale: float | None = None,
                 seed: int = 0,
                 configs: tuple[str, ...] = ("c2050", "quad", "gtx980"),
                 options: GpuOptions = GpuOptions()) -> RowResult:
    """Measure one Table I row.

    Parameters
    ----------
    name : str
        Workload registry name.
    scale : float, optional
        Override the workload's mini scale (default:
        ``default_scale × REPRO_SCALE``).
    configs : tuple of str
        Which device configurations to run, among {"c2050", "quad",
        "gtx980"}; the CPU baseline always runs (it's the denominator).
    """
    w = get(name)
    if scale is None:
        scale = w.default_scale * env_scale()
    graph = w.build(scale=scale, seed=seed)

    cpu = forward_count_cpu(graph)
    row = RowResult(workload=w, scale=scale, num_nodes=graph.num_nodes,
                    num_arcs=graph.num_arcs, triangles=cpu.triangles,
                    cpu=cpu)

    if "c2050" in configs:
        dev = scaled_device(TESLA_C2050, graph, w)
        row.c2050 = gpu_count_triangles(graph, device=dev,
                                        memory=DeviceMemory(dev),
                                        options=options)
        _check(row.c2050.triangles, cpu.triangles, name, "c2050")
    if "quad" in configs:
        dev = scaled_device(TESLA_C2050, graph, w)
        row.quad = multi_gpu_count_triangles(
            graph, device=dev, num_gpus=4, options=options,
            context=MultiGpuContext(dev, 4))
        _check(row.quad.triangles, cpu.triangles, name, "quad")
    if "gtx980" in configs:
        dev = scaled_device(GTX_980, graph, w)
        row.gtx980 = gpu_count_triangles(graph, device=dev,
                                         memory=DeviceMemory(dev),
                                         options=options)
        _check(row.gtx980.triangles, cpu.triangles, name, "gtx980")
    return row


def _check(got: int, want: int, name: str, config: str) -> None:
    if got != want:
        raise ReproError(
            f"{name}/{config} counted {got} triangles, CPU says {want}")


def run_table1(names: list[str] | None = None,
               seed: int = 0,
               configs: tuple[str, ...] = ("c2050", "quad", "gtx980"),
               verbose: bool = True) -> list[RowResult]:
    """Measure every requested Table I row (all 13 by default)."""
    rows = []
    for name in names or list(WORKLOADS):
        if verbose:
            print(f"[table1] running {name} ...", flush=True)
        rows.append(run_workload(name, seed=seed, configs=configs))
    return rows

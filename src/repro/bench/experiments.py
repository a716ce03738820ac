"""Section III experiments: ablations, grid search, format and baselines.

Shared between the ``repro-bench`` subcommands and the reproduction
bundle's ``claims`` section (:mod:`repro.bench.reproduce`).  Each
function returns a small result object carrying measured numbers next to
the paper's quoted range, so callers can both print and check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.forward_gpu import gpu_count_triangles
from repro.core.multi_gpu import multi_gpu_count_triangles
from repro.core.options import GpuOptions
from repro.cpu.compact_forward import compact_forward_count
from repro.cpu.edge_iterator import edge_iterator_count
from repro.cpu.forward import forward_count_cpu
from repro.cpu.node_iterator import node_iterator_count
from repro.cpu.approx import birthday_paradox_count, doulion_count
from repro.cpu.matmul import matmul_count
from repro.errors import InvalidLaunchError, ReproError
from repro.graphs.edgearray import EdgeArray
from repro.gpusim.device import GTX_980, TESLA_C2050, XEON_X5650, DeviceSpec
from repro.gpusim.memory import DeviceMemory
from repro.gpusim.simt import LaunchConfig
from repro.utils import env_scale


@dataclass(frozen=True)
class AblationResult:
    """One optimization's measured effect vs. the paper's quoted range."""

    name: str
    paper_section: str
    baseline_ms: float        # with the optimization ON (the fast side)
    ablated_ms: float         # with it OFF
    paper_speedup_lo: float   # the paper's quoted improvement range
    paper_speedup_hi: float
    note: str = ""

    @property
    def measured_speedup(self) -> float:
        """How much the optimization helps (ablated / baseline)."""
        return self.ablated_ms / self.baseline_ms if self.baseline_ms else 0.0

    def summary(self) -> str:
        return (f"{self.name:<22} ({self.paper_section}): "
                f"{self.measured_speedup:5.2f}x measured, paper "
                f"{self.paper_speedup_lo:.2f}-{self.paper_speedup_hi:.2f}x"
                + (f"  [{self.note}]" if self.note else ""))


def _kernel_ms(graph, device, options):
    return gpu_count_triangles(graph, device=device,
                               memory=DeviceMemory(device),
                               options=options).kernel_timing.kernel_ms


def ablation_unzip(graph: EdgeArray,
                   device: DeviceSpec = GTX_980) -> AblationResult:
    """E4 / Section III-D1: SoA vs AoS edge array (paper: 13–32%)."""
    fast = _kernel_ms(graph, device, GpuOptions())
    slow = _kernel_ms(graph, device, GpuOptions(unzip=False))
    return AblationResult("unzipping edges", "III-D1", fast, slow, 1.13, 1.32)


def ablation_sort_u64(graph: EdgeArray,
                      device: DeviceSpec = GTX_980) -> AblationResult:
    """E5 / Section III-D2: u64 radix sort vs pair comparison sort
    (paper: ≈5× on the sort step)."""
    def sort_ms(options):
        res = gpu_count_triangles(graph, device=device,
                                  memory=DeviceMemory(device),
                                  options=options)
        return sum(e.ms for e in res.timeline.events if "sort" in e.name)

    fast = sort_ms(GpuOptions())
    slow = sort_ms(GpuOptions(sort_as_u64=False))
    return AblationResult("64-bit radix sort", "III-D2", fast, slow, 4.0, 6.0,
                          note="sort step only")


def ablation_merge_variant(graph: EdgeArray,
                           device: DeviceSpec = GTX_980) -> AblationResult:
    """E6 / Section III-D3: one-read merge loop (paper: 36–48%)."""
    fast = _kernel_ms(graph, device, GpuOptions())
    slow = _kernel_ms(graph, device, GpuOptions(merge_variant="preliminary"))
    return AblationResult("avoiding extra reads", "III-D3", fast, slow,
                          1.36, 1.48)


def ablation_readonly_cache(graph: EdgeArray,
                            device: DeviceSpec = GTX_980) -> AblationResult:
    """E7 / Section III-D4: read-only cache (paper: 17–66% on
    Kepler/Maxwell; no effect on Fermi)."""
    if device.caches_global_loads_by_default:
        raise ReproError("read-only-cache ablation needs a Kepler/Maxwell part")
    fast = _kernel_ms(graph, device, GpuOptions())
    slow = _kernel_ms(graph, device, GpuOptions(use_readonly_cache=False))
    return AblationResult("read-only data cache", "III-D4", fast, slow,
                          1.17, 1.66)


def ablation_warp_reduction(graph: EdgeArray,
                            device: DeviceSpec = GTX_980) -> AblationResult:
    """E8 / Section III-D5: simulated half warps on the *preliminary*
    kernel (paper: helped ~30% at earlier development stages; the final
    kernel does not benefit)."""
    prelim = GpuOptions(merge_variant="preliminary")
    full = _kernel_ms(graph, device, prelim)
    half = _kernel_ms(graph, device, prelim.but(
        launch=LaunchConfig(64, 8, simulated_warp_size=16)))
    return AblationResult("warp-size reduction", "III-D5", half, full,
                          1.0, 1.3, note="on the preliminary kernel")


def ablation_cpu_preprocess(graph: EdgeArray,
                            device: DeviceSpec = GTX_980) -> AblationResult:
    """E12 / Section III-D6: forced CPU preprocessing vs all-GPU.

    (Here the 'optimization' is running everything on the GPU; the paper
    uses the CPU path only under memory pressure, trading speed for 2×
    capacity.)"""
    def total_ms(options):
        return gpu_count_triangles(graph, device=device,
                                   memory=DeviceMemory(device),
                                   options=options).total_ms

    fast = total_ms(GpuOptions())
    slow = total_ms(GpuOptions(cpu_preprocess="always"))
    return AblationResult("GPU preprocessing", "III-D6", fast, slow,
                          1.0, 3.0, note="† path is the slow side")


#: Designated workload per ablation: the paper quotes ranges across
#: graphs; at mini scale each effect is cleanest on the workload whose
#: memory regime matches its mechanism (EXPERIMENTS.md, "scale
#: distortions").
ABLATION_WORKLOADS = {
    ablation_unzip: "ba",
    ablation_sort_u64: "ba",
    ablation_merge_variant: "ws",
    ablation_readonly_cache: "livejournal",
    ablation_warp_reduction: "ba",
    ablation_cpu_preprocess: "ba",
}


def run_all_ablations(seed: int = 0) -> list[AblationResult]:
    """Every Section III-D ablation, each on its designated workload and
    a Table-I-style capacity-scaled GTX 980."""
    from repro.bench.runner import scaled_setup

    results = []
    graphs: dict[str, tuple] = {}
    for fn, name in ABLATION_WORKLOADS.items():
        if name not in graphs:
            graphs[name] = scaled_setup(name, GTX_980, seed)
        g, dev = graphs[name]
        results.append(fn(g, dev))
    return results


# ---------------------------------------------------------------------- #
# E9: launch grid search (Section III-C)
# ---------------------------------------------------------------------- #

#: The E9 graph, swept by ``repro-bench gridsearch`` and the claims.
GRID_WORKLOAD = "kron18"


@dataclass
class GridSearchResult:
    """Kernel time per (threads_per_block, blocks_per_sm) point."""

    device: DeviceSpec
    points: dict = field(default_factory=dict)   # (tpb, bps) -> kernel ms

    @property
    def best(self) -> tuple[tuple[int, int], float]:
        key = min(self.points, key=self.points.get)
        return key, self.points[key]

    def paper_config_ms(self) -> float:
        return self.points[(64, 8)]

    def summary(self) -> str:
        lines = [f"launch grid search on {self.device.name}:"]
        for (tpb, bps), ms in sorted(self.points.items()):
            star = " <= paper's choice" if (tpb, bps) == (64, 8) else ""
            lines.append(f"  {tpb:>5} thr/blk x {bps:>2} blk/SM "
                         f"({tpb * bps:>5} thr/SM): {ms:9.4f} ms{star}")
        (tpb, bps), ms = self.best
        lines.append(f"  best: {tpb} x {bps} at {ms:.4f} ms")
        return "\n".join(lines)


def grid_search(graph: EdgeArray,
                device: DeviceSpec = GTX_980,
                tpb_values: tuple[int, ...] = (32, 64, 256, 1024),
                bps_values: tuple[int, ...] = (1, 2, 8, 16),
                ) -> GridSearchResult:
    """E9: sweep the launch configuration (paper sweeps 32–1024 × 1–16
    and lands on 64 × 8 ⇒ 512 threads/SM on every device).

    Each point is one full pipeline run of the default (merge) kernel on
    a fresh memory; launches the device cannot run
    (:meth:`LaunchConfig.validate` fails) are skipped, not measured.
    """
    result = GridSearchResult(device=device)
    for tpb in tpb_values:
        for bps in bps_values:
            launch = LaunchConfig(tpb, bps)
            try:
                launch.validate(device)
            except InvalidLaunchError:
                continue
            result.points[(tpb, bps)] = _kernel_ms(
                graph, device, GpuOptions(launch=launch))
    return result


# ---------------------------------------------------------------------- #
# E10: input format (Section III-A)
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class InputFormatResult:
    """The 12 s / 14 s / 7 s trade-off shape on the LiveJournal stand-in."""

    adjacency_input_ms: float   # count, input already CSR
    edge_array_input_ms: float  # count, input an edge array (paper's choice)
    conversion_ms: float        # edge array -> CSR conversion alone

    def summary(self) -> str:
        return (f"input format (III-A): adjacency-input count "
                f"{self.adjacency_input_ms:.1f} ms, edge-array-input count "
                f"{self.edge_array_input_ms:.1f} ms, edges->CSR conversion "
                f"{self.conversion_ms:.1f} ms (paper shape: 12 s / 14 s / 7 s)")


def input_format_experiment(graph: EdgeArray,
                            cpu=XEON_X5650) -> InputFormatResult:
    """E10: the edge-array-input penalty is small; the conversion a CSR
    consumer would force on edge-array data is not."""
    edge_run = forward_count_cpu(graph, cpu=cpu)
    # Adjacency-optimized variant: lists arrive sorted, so the per-arc
    # radix sort drops out of preprocessing; the counting phase is
    # identical.
    m_fwd = edge_run.num_forward_arcs
    sort_ms = (m_fwd * np.log2(max(m_fwd, 2)) * cpu.ns_per_sort_compare) * 1e-6
    adjacency_ms = edge_run.elapsed_ms - sort_ms
    # Conversion: full edge array -> CSR = sort all m arcs + two passes.
    m = graph.num_arcs
    conversion_ms = (m * np.log2(max(m, 2)) * cpu.ns_per_sort_compare
                     + 2 * m * cpu.ns_per_pass_element) * 1e-6
    return InputFormatResult(adjacency_input_ms=adjacency_ms,
                             edge_array_input_ms=edge_run.elapsed_ms,
                             conversion_ms=conversion_ms)


# ---------------------------------------------------------------------- #
# E11: multi-GPU Amdahl check (Section III-E)
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class AmdahlPoint:
    workload_name: str
    num_arcs: int
    preprocessing_fraction: float
    amdahl_limit: float          # 1 / (f + (1-f)/4)
    measured_quad_speedup: float

    def summary(self) -> str:
        return (f"{self.workload_name:<12} {self.num_arcs:>8,} arcs, "
                f"preprocess fraction "
                f"{self.preprocessing_fraction:.2f} -> Amdahl limit "
                f"{self.amdahl_limit:.2f}x, measured "
                f"{self.measured_quad_speedup:.2f}x")


def amdahl_experiment(graph: EdgeArray, name: str = "",
                      device: DeviceSpec = TESLA_C2050,
                      num_gpus: int = 4) -> AmdahlPoint:
    """E11: measured 4-GPU speedup vs. the bound the preprocessing
    fraction implies (paper: fractions 0.08–0.76 ⇒ limits 3.23–1.22)."""
    one = gpu_count_triangles(graph, device=device,
                              memory=DeviceMemory(device))
    four = multi_gpu_count_triangles(graph, device=device, num_gpus=num_gpus)
    f = one.timeline.preprocessing_fraction
    return AmdahlPoint(
        workload_name=name or f"{graph.num_arcs}-arc graph",
        num_arcs=graph.num_arcs,
        preprocessing_fraction=f,
        amdahl_limit=1.0 / (f + (1.0 - f) / num_gpus),
        measured_quad_speedup=one.total_ms / four.total_ms)


#: E11 workload -> scale multiplier over its mini default (times
#: ``REPRO_SCALE``).  The Kronecker row gets 4x so it escapes the
#: fixed-overhead regime: at 20k arcs its preprocessing fraction is
#: launch-overhead-inflated, which would mask the triangle-density effect
#: this experiment is about.
AMDAHL_WORKLOADS = {"internet": 1.0, "kron18": 4.0, "ba": 1.0, "ws": 1.0}


def amdahl_sweep(seed: int = 0) -> list[AmdahlPoint]:
    """E11 on every :data:`AMDAHL_WORKLOADS` row, in table order."""
    from repro.graphs.datasets import get

    points = []
    for name, factor in AMDAHL_WORKLOADS.items():
        w = get(name)
        g = w.build(scale=w.default_scale * env_scale() * factor, seed=seed)
        points.append(amdahl_experiment(g, name=name))
    return points


# ---------------------------------------------------------------------- #
# E13: baseline and approximation comparison (Sections II-A, V)
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class BaselineComparison:
    triangles: int
    forward_ms: float
    compact_forward_ms: float
    edge_iterator_ms: float
    node_iterator_ms: float
    doulion_error_pct: float
    #: DOULION's own 2-sigma plug-in error bound, as % of its estimate.
    doulion_bound_pct: float
    birthday_error_pct: float

    def summary(self) -> str:
        return ("exact baselines [modelled ms]: "
                f"forward {self.forward_ms:.1f}, compact-forward "
                f"{self.compact_forward_ms:.1f}, edge-iterator "
                f"{self.edge_iterator_ms:.1f}, node-iterator "
                f"{self.node_iterator_ms:.1f}; approx errors: DOULION "
                f"{self.doulion_error_pct:.1f}%, birthday "
                f"{self.birthday_error_pct:.1f}%")


def baseline_experiment(graph: EdgeArray, seed: int = 0) -> BaselineComparison:
    truth = matmul_count(graph).triangles
    fwd = forward_count_cpu(graph)
    if fwd.triangles != truth:
        raise ReproError("forward disagrees with the algebraic oracle")
    cf = compact_forward_count(graph)
    ei = edge_iterator_count(graph)
    ni = node_iterator_count(graph)
    dl = doulion_count(graph, p=0.5, seed=seed)
    bd = birthday_paradox_count(graph, edge_reservoir=1000,
                                wedge_reservoir=1000, seed=seed)

    def err(estimate):
        return abs(estimate - truth) / truth * 100.0 if truth else 0.0

    return BaselineComparison(
        triangles=truth,
        forward_ms=fwd.elapsed_ms,
        compact_forward_ms=cf.elapsed_ms,
        edge_iterator_ms=ei.elapsed_ms,
        node_iterator_ms=ni.elapsed_ms,
        doulion_error_pct=err(dl.estimate),
        doulion_bound_pct=dl.relative_error_bound * 100.0,
        birthday_error_pct=err(bd.triangle_estimate))


# ---------------------------------------------------------------------- #
# serving-mode trace replay (repro-bench serve)
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class ServeExperiment:
    """Cache-on vs cache-off replays of one deterministic trace.

    ``report`` is the primary (cache-enabled) replay with one injected
    device failure; ``report_nocache`` replays the identical trace on a
    fresh fleet with caching disabled, isolating the preprocessing
    cache's effect on total device service time.
    """

    report: object                # ServeReport, cache on + injected fault
    report_nocache: object       # ServeReport, cache off, no fault
    fault_device: int
    fault_at_ms: float

    @property
    def cache_service_win(self) -> float:
        on = self.report.total_service_ms
        return self.report_nocache.total_service_ms / on if on else 0.0

    def summary(self) -> str:
        r = self.report
        return (f"serve: {r.summary()}; cache cuts device service time "
                f"{self.cache_service_win:.2f}x "
                f"(fault injected on device #{self.fault_device} "
                f"@ {self.fault_at_ms:.1f} ms)")


def serve_experiment(fleet_spec: str = "gtx980x4",
                     duration_ms: float = 60_000.0,
                     rate_per_s: float = 2.0,
                     seed: int = 0,
                     rate_multiplier: float = 1.0,
                     burst: float = 1.0) -> ServeExperiment:
    """Replay a deterministic trace against a simulated fleet.

    Runs three replays of the *same* trace: a fault-free pass to locate
    a job execution window to aim the injected failure at, the primary
    cache-enabled pass with that failure (the faulted job retries on
    another device with an identical count), and a cache-disabled pass
    for the service-time comparison.
    """
    from repro.serve import (Fleet, TraceConfig, build_graph_pool,
                             generate_trace, serve_trace, size_fleet_memory)

    config = TraceConfig(seed=seed, duration_ms=duration_ms,
                         rate_per_s=rate_per_s,
                         rate_multiplier=rate_multiplier, burst=burst)
    pool = build_graph_pool(config)
    # Size capacity against the weakest card so the whale overflows all.
    probe = Fleet.parse(fleet_spec)
    weakest = min(probe, key=lambda d: d.spec.memory_bytes)
    memory = size_fleet_memory(pool, config, weakest.spec)

    def replay(inject=None, cache=True):
        fleet = Fleet.parse(fleet_spec, memory_bytes=memory)
        if inject is not None:
            fleet.inject_failure(*inject)
        return serve_trace(fleet, generate_trace(config, pool),
                           cache_enabled=cache)

    # Fault-free scout pass: aim the failure mid-window of a fast-path
    # job so the retry machinery provably engages.
    scout = replay()
    victim = next(j for j in scout.done
                  if j.device_index >= 0 and j.finish_ms > j.start_ms)
    fault_at = (victim.start_ms + victim.finish_ms) / 2
    report = replay(inject=(victim.device_index, fault_at))
    # Same injected fault on the cache-off pass: the comparison must
    # isolate the cache, not the fleet-shrinking effect of the failure.
    nocache = replay(inject=(victim.device_index, fault_at), cache=False)

    mismatched = [a.job_id for a, b in zip(report.jobs, scout.jobs)
                  if a.status == "done" and b.status == "done"
                  and a.triangles != b.triangles]
    if mismatched:
        raise ReproError(
            f"fault retry changed triangle counts for jobs {mismatched}")
    return ServeExperiment(report=report, report_nocache=nocache,
                           fault_device=victim.device_index,
                           fault_at_ms=fault_at)

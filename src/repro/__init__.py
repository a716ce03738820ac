"""repro — reproduction of *Counting Triangles in Large Graphs on GPU*
(Adam Polak, IPDPSW 2016) on a simulated CUDA substrate.

Quickstart::

    import repro

    g = repro.generators.rmat(scale=10, edge_factor=16, seed=7)
    cpu = repro.forward_count_cpu(g)           # the paper's CPU baseline
    gpu = repro.gpu_count_triangles(g)         # simulated GTX 980
    assert gpu.triangles == cpu.triangles
    print(gpu.triangles, gpu.total_ms, "ms simulated,",
          f"{cpu.elapsed_ms / gpu.total_ms:.1f}x speedup")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.types import TriangleCount
from repro.errors import (ReproError, GraphFormatError, DeviceError,
                          OutOfDeviceMemoryError, InvalidLaunchError,
                          WorkloadError, KernelFault)
from repro.graphs import EdgeArray, CSRGraph, datasets, generators, io, stats
from repro.gpusim import (DeviceSpec, CpuSpec, TESLA_C2050, GTX_980,
                          NVS_5200M, XEON_X5650, DEVICES, LaunchConfig)
from repro.core import (GpuOptions, gpu_count_triangles, GpuRunResult,
                        multi_gpu_count_triangles, clustering_report,
                        ClusteringReport, partitioned_count_triangles,
                        distributed_count_triangles,
                        gpu_local_counts, LocalCountResult)
from repro.cpu import (forward_count_cpu, edge_iterator_count,
                       node_iterator_count, compact_forward_count,
                       matmul_count, approx,
                       list_triangles, TriangleListing)
from repro.serve import (Fleet, FleetDevice, FleetScheduler, JobQueue,
                         PreprocessCache, ServeJob, ServeReport,
                         TraceConfig, generate_trace, serve_trace)

__version__ = "1.0.0"

__all__ = [
    "TriangleCount",
    # errors
    "ReproError", "GraphFormatError", "DeviceError",
    "OutOfDeviceMemoryError", "InvalidLaunchError", "WorkloadError",
    "KernelFault",
    # graphs
    "EdgeArray", "CSRGraph", "datasets", "generators", "io", "stats",
    # devices
    "DeviceSpec", "CpuSpec", "TESLA_C2050", "GTX_980", "NVS_5200M",
    "XEON_X5650", "DEVICES", "LaunchConfig",
    # core
    "GpuOptions", "gpu_count_triangles", "GpuRunResult",
    "multi_gpu_count_triangles", "clustering_report", "ClusteringReport",
    "partitioned_count_triangles",
    "distributed_count_triangles", "gpu_local_counts",
    "LocalCountResult",
    # cpu
    "forward_count_cpu", "edge_iterator_count", "node_iterator_count",
    "compact_forward_count",
    "matmul_count", "approx", "list_triangles", "TriangleListing",
    # serve
    "Fleet", "FleetDevice", "FleetScheduler", "JobQueue",
    "PreprocessCache", "ServeJob", "ServeReport", "TraceConfig",
    "generate_trace", "serve_trace",
    "__version__",
]

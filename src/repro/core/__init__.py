"""The paper's contribution: the parallel forward algorithm for (simulated) GPU.

* :mod:`~repro.core.options` — every Section III-D optimization as a toggle;
* :mod:`~repro.core.preprocess` — the 8-step preprocessing phase (III-B),
  with the CPU fallback for memory-pressured graphs (III-D6);
* :mod:`~repro.core.count_kernel` — the one SIMT kernel driver: the
  ``CountTriangles`` kernel (III-C) with both loop variants (III-D3),
  and every other :mod:`~repro.core.intersect` strategy, thread-per-arc
  or, for the Section V comparator, warp-per-arc;
* :mod:`~repro.core.forward_gpu` — the single-GPU end-to-end pipeline
  with the paper's measurement protocol;
* :mod:`~repro.core.multi_gpu` — the Section III-E multi-GPU extension;
* :mod:`~repro.core.partitioned` / :mod:`~repro.core.distributed` — the
  Section VI future-work splitting direction, implemented (the second
  combines splitting with multi-GPU);
* :mod:`~repro.core.clustering` — clustering coefficient / transitivity
  on top of the counters (the motivating application).
"""

from repro.core.options import GpuOptions
from repro.core.forward_gpu import gpu_count_triangles, GpuRunResult
from repro.core.multi_gpu import multi_gpu_count_triangles
from repro.core.preprocess import preprocess, PreprocessResult
from repro.core.clustering import clustering_report, ClusteringReport
from repro.core.partitioned import partitioned_count_triangles
from repro.core.distributed import distributed_count_triangles
from repro.core.local_counts import gpu_local_counts, LocalCountResult

__all__ = [
    "GpuOptions",
    "gpu_count_triangles",
    "GpuRunResult",
    "multi_gpu_count_triangles",
    "preprocess",
    "PreprocessResult",
    "clustering_report",
    "ClusteringReport",
    "partitioned_count_triangles",
    "distributed_count_triangles",
    "gpu_local_counts",
    "LocalCountResult",
]

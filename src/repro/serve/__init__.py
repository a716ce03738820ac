"""repro.serve — a multi-tenant triangle-counting service over a
simulated GPU fleet.

The one-shot pipeline (:func:`repro.core.forward_gpu.gpu_count_triangles`)
answers a single query; this package turns it into a *service*: a job
queue with priorities, deadlines and memory-aware admission control, a
load-aware scheduler with fault retry, a byte-budgeted cache of
preprocessed graphs (the 70–90% of run time the paper's Section III-E
measures), and a deterministic trace generator + metrics sheet for the
``repro-bench serve`` subcommand.
"""

from repro.serve.cache import (CacheEntry, CacheStats, PreprocessCache,
                               graph_fingerprint, preprocessed_nbytes)
from repro.serve.fleet import DEFAULT_CACHE_FRACTION, Fleet, FleetDevice
from repro.serve.metrics import ServeReport
from repro.serve.plane import (ApproxAnswer, ControlPlane, DegradedTier,
                               PlaneConfig, ReplicaManager)
from repro.serve.queue import (DONE, LOST, PATH_APPROX, PATH_DISTRIBUTED,
                               PATH_GPU, PENDING, SHED, SHED_DEADLINE,
                               SHED_FLEET_DEAD, SHED_NO_CAPACITY,
                               TIER_APPROX, TIER_EXACT, JobQueue, ServeJob,
                               ShedResponse, estimate_working_set_bytes,
                               fits_device)
from repro.serve.scheduler import FleetScheduler, serve_trace
from repro.serve.workload import (TraceConfig, build_graph_pool,
                                  generate_trace, size_fleet_memory)

__all__ = [
    "CacheEntry", "CacheStats", "PreprocessCache", "graph_fingerprint",
    "preprocessed_nbytes",
    "DEFAULT_CACHE_FRACTION", "Fleet", "FleetDevice",
    "ServeReport",
    "ApproxAnswer", "ControlPlane", "DegradedTier",
    "PlaneConfig", "ReplicaManager",
    "PENDING", "DONE", "LOST", "SHED",
    "PATH_GPU", "PATH_DISTRIBUTED", "PATH_APPROX",
    "TIER_EXACT", "TIER_APPROX",
    "SHED_DEADLINE", "SHED_FLEET_DEAD", "SHED_NO_CAPACITY",
    "JobQueue", "ServeJob", "ShedResponse",
    "estimate_working_set_bytes", "fits_device",
    "FleetScheduler", "serve_trace",
    "TraceConfig", "build_graph_pool", "generate_trace",
    "size_fleet_memory",
]

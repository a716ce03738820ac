"""Job queue with priorities, deadlines and admission control.

Ordering
--------
The queue pops jobs by ``(priority desc, deadline asc, estimated arcs
desc, arrival asc)``: strict priority tiers, earliest-deadline-first
inside a tier, and longest-job-first among equals — the last key is what
makes a burst dispatch follow the LPT discipline the distributed layer
already uses (:func:`repro.core.distributed.lpt_assign`).

Admission
---------
A job's *working set* is the peak device allocation its pipeline will
make; :func:`estimate_working_set_bytes` mirrors the allocation sequence
of :mod:`repro.core.preprocess` exactly (including the radix sort's
double buffer and the Section III-D6 CPU-fallback halving).  Admission
probes the target device with the non-raising
:meth:`DeviceMemory.try_alloc` reservation — no exception-driven control
flow — and a job that fits *no* device in the fleet is not failed but
routed to the partitioned/distributed path, which splits the graph into
subgraphs that do fit (the paper's Section VI direction).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from math import inf

import numpy as np

from repro.core.options import GpuOptions
from repro.core.preprocess import SORT_TEMP_FACTOR
from repro.graphs.edgearray import EdgeArray
from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import aligned_nbytes
from repro.serve.cache import graph_fingerprint
from repro.serve.fleet import FleetDevice
from repro.types import COUNT_DTYPE, INDEX_DTYPE, PACKED_DTYPE, VERTEX_DTYPE

_PACKED = np.dtype(PACKED_DTYPE).itemsize
_VERTEX = np.dtype(VERTEX_DTYPE).itemsize
_INDEX = np.dtype(INDEX_DTYPE).itemsize
_COUNT = np.dtype(COUNT_DTYPE).itemsize


def _sort_temp_nbytes(packed_nbytes: int) -> int:
    """Radix scratch exactly as ``preprocess`` allocates it."""
    return aligned_nbytes(_PACKED * (int(packed_nbytes * SORT_TEMP_FACTOR)
                                     // _PACKED + 1))


def _finalize_nbytes(num_nodes: int, m_fwd: int, options: GpuOptions) -> int:
    """Peak of steps 7–8 (node array + output layout)."""
    total = aligned_nbytes(_INDEX * (num_nodes + 1))
    if options.unzip:
        total += aligned_nbytes(_VERTEX * (m_fwd + 1))
        total += aligned_nbytes(_VERTEX * max(m_fwd, 1))
    else:
        total += aligned_nbytes(_VERTEX * (2 * m_fwd + 2))
    return total


def estimate_working_set_bytes(graph: EdgeArray,
                               options: GpuOptions,
                               device: DeviceSpec) -> int:
    """Upper bound on the peak device allocation of one counting job.

    Follows the pipeline's allocation order: the per-thread result
    buffer lives for the whole run; during preprocessing the peak is the
    packed edge array plus the larger of (sort scratch, full node array,
    final layout).  With ``cpu_preprocess`` in (``"auto"``, ``"always"``)
    the bound is the Section III-D6 fallback path's — the direct path may
    OOM and the pipeline degrades to the halved working set instead of
    failing, so admission only has to guarantee *that* path fits.
    """
    m = graph.num_arcs
    n = graph.num_nodes
    m_fwd = m // 2
    result = aligned_nbytes(_COUNT * options.launch.total_threads(device))
    if options.cpu_preprocess == "never":
        packed = aligned_nbytes(_PACKED * max(m, 1))
        node_full = aligned_nbytes(_INDEX * (n + 1))
        peak = packed + max(_sort_temp_nbytes(packed), node_full,
                            _finalize_nbytes(n, m_fwd, options))
    else:
        packed = aligned_nbytes(_PACKED * max(m_fwd, 1))
        peak = packed + max(_sort_temp_nbytes(packed),
                            _finalize_nbytes(n, m_fwd, options))
    return result + peak


# ---------------------------------------------------------------------- #
# jobs
# ---------------------------------------------------------------------- #

#: Job lifecycle states.  Every job ends in exactly one of
#: {DONE, SHED, LOST}: DONE carries an answer (exact or approximate),
#: SHED carries a typed :class:`ShedResponse`, and LOST is reserved for
#: jobs whose retry budget was exhausted by device faults.
PENDING, DONE, LOST, SHED = "pending", "done", "lost", "shed"

#: Execution paths.
PATH_GPU, PATH_DISTRIBUTED, PATH_APPROX = "gpu", "distributed", "approx"

#: Answer tiers: exact GPU counts vs the degraded approximate tier.
TIER_EXACT, TIER_APPROX = "exact", "approx"

#: Typed shed reasons (:attr:`ShedResponse.reason`).
SHED_DEADLINE = "deadline-unmeetable"   # wait model predicts an SLO miss
SHED_NO_CAPACITY = "no-capacity"        # fits no device, even split 16 ways
SHED_FLEET_DEAD = "fleet-dead"          # no healthy device can ever serve it


@dataclass(frozen=True)
class ShedResponse:
    """Typed record of why a job was shed (or downgraded) — the answer a
    tenant gets instead of a silent loss.

    When the degraded tier answers the job, ``degraded`` is True and the
    job itself still ends :data:`DONE` (``tier="approx"``) with the
    estimate payload on the job record; the response then documents the
    admission decision that rerouted it.
    """

    job_id: int
    reason: str                            # one of the SHED_* constants
    at_ms: float                           # simulated decision time
    #: effective deadline the admission controller enforced (the job's
    #: own, or the plane's default SLO for deadline-less jobs).
    slo_ms: float | None = None
    predicted_start_ms: float | None = None
    predicted_finish_ms: float | None = None
    #: True when the approximate tier answered instead of dropping.
    degraded: bool = False


@dataclass
class ServeJob:
    """One tenant query: count the triangles of ``graph``.

    ``priority`` is a strict tier (higher preempts lower in the queue —
    running jobs are never preempted); ``deadline_ms`` is advisory and
    only drives EDF ordering + the deadline-miss metric.
    """

    job_id: int
    graph: EdgeArray
    options: GpuOptions = field(default_factory=GpuOptions)
    priority: int = 0
    arrival_ms: float = 0.0
    deadline_ms: float | None = None

    # derived at submit time
    fingerprint: str = ""
    est_arcs: int = 0

    # runtime state
    attempts: int = 0
    not_before_ms: float = 0.0     # earliest restart after a fault (backoff)
    status: str = PENDING
    path: str = PATH_GPU
    cache_hit: bool = False
    device_index: int = -1
    start_ms: float = -1.0
    finish_ms: float = -1.0
    triangles: int = -1
    #: answer tier: exact GPU count vs degraded approximate estimate.
    tier: str = TIER_EXACT
    #: the typed admission record for shed / degraded jobs.
    shed: ShedResponse | None = None
    # approximate-tier payload (``tier == TIER_APPROX`` only)
    estimate: float | None = None
    error_bound: float | None = None
    approx_method: str = ""

    def __post_init__(self):
        if not self.fingerprint:
            self.fingerprint = graph_fingerprint(self.graph)
        if not self.est_arcs:
            # The distributed layer's cost estimator: subgraph arc count.
            self.est_arcs = self.graph.num_arcs

    # ------------------------------------------------------------------ #

    @property
    def latency_ms(self) -> float:
        """Arrival → completion (simulated)."""
        return self.finish_ms - self.arrival_ms if self.status == DONE else inf

    @property
    def wait_ms(self) -> float:
        """Arrival → start of the successful attempt."""
        return self.start_ms - self.arrival_ms if self.status == DONE else inf

    @property
    def met_deadline(self) -> bool:
        return (self.deadline_ms is None
                or (self.status == DONE and self.finish_ms <= self.deadline_ms))

    def sort_key(self) -> tuple:
        return (-self.priority,
                self.deadline_ms if self.deadline_ms is not None else inf,
                -self.est_arcs,
                self.arrival_ms)

    def cache_key(self) -> tuple:
        """The preprocessed-cache identity this job hits — two jobs with
        equal keys are answered by the same device-resident structures."""
        return (self.fingerprint, self.options.cache_key())


# ---------------------------------------------------------------------- #
# admission control
# ---------------------------------------------------------------------- #

def fits_device(job: ServeJob, device: FleetDevice) -> bool:
    """Probe whether the job's working set fits the device *right now*
    (cache residents already charged) — no exceptions on the OOM path."""
    est = estimate_working_set_bytes(job.graph, job.options, device.spec)
    memory = device.job_memory()
    probe = memory.try_alloc("admission probe", est)
    if probe is None:
        return False
    memory.free(probe)
    return True


# ---------------------------------------------------------------------- #
# the queue
# ---------------------------------------------------------------------- #

class JobQueue:
    """Priority queue with deadline/LPT ordering and fault backoff holds.

    Jobs re-queued after a device fault carry ``not_before_ms``; they are
    held off the ready heap until the backoff expires.
    """

    def __init__(self):
        self._ready: list[tuple] = []      # (sort_key, seq, job)
        self._delayed: list[tuple] = []    # (not_before_ms, seq, job)
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._ready) + len(self._delayed)

    def push(self, job: ServeJob) -> None:
        seq = next(self._seq)
        if job.not_before_ms > 0:
            heapq.heappush(self._delayed, (job.not_before_ms, seq, job))
        else:
            heapq.heappush(self._ready, (job.sort_key(), seq, job))

    def _promote(self, t_ms: float) -> None:
        while self._delayed and self._delayed[0][0] <= t_ms:
            _, seq, job = heapq.heappop(self._delayed)
            heapq.heappush(self._ready, (job.sort_key(), seq, job))

    def pop(self, t_ms: float) -> ServeJob | None:
        """Highest-priority job startable at ``t_ms`` (None if all held)."""
        self._promote(t_ms)
        if not self._ready:
            return None
        _, _, job = heapq.heappop(self._ready)
        return job

    def peek_ready(self, t_ms: float) -> ServeJob | None:
        self._promote(t_ms)
        return self._ready[0][2] if self._ready else None

    def next_release_ms(self, t_ms: float) -> float | None:
        """Earliest future time a held job becomes ready (backoff expiry)."""
        self._promote(t_ms)
        return self._delayed[0][0] if self._delayed else None

    def ready_in_order(self, t_ms: float) -> list[ServeJob]:
        """Non-destructive snapshot of the ready jobs in pop order (the
        admission controller's forecast walks this)."""
        self._promote(t_ms)
        return [job for _, _, job in sorted(self._ready)]

    def take_where(self, t_ms: float, pred) -> list[ServeJob]:
        """Remove and return the ready jobs matching ``pred`` (pop
        order).  Held (backoff) jobs are never taken.

        The admission controller uses this to pull doomed jobs out of
        the queue."""
        self._promote(t_ms)
        taken: list[ServeJob] = []
        taken_ids: set[int] = set()
        for _, _, job in sorted(self._ready):
            if pred(job):
                taken.append(job)
                taken_ids.add(id(job))
        if taken:
            self._ready = [item for item in self._ready
                           if id(item[2]) not in taken_ids]
            heapq.heapify(self._ready)
        return taken

    def drain(self) -> list[ServeJob]:
        """Remove and return everything (end-of-run accounting)."""
        jobs = [j for _, _, j in self._ready] + [j for _, _, j in self._delayed]
        self._ready.clear()
        self._delayed.clear()
        return jobs

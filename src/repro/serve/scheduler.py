"""Memory- and load-aware placement with fault retry.

A discrete-event loop over simulated time: jobs arrive open-loop from a
trace, wait in the :class:`~repro.serve.queue.JobQueue`, and dispatch
whenever a device is idle.  Placement follows the distributed layer's
LPT discipline — the queue orders same-priority jobs longest-first (by
estimated arc count, the :mod:`repro.core.distributed` cost estimator)
and each dispatch picks the least-loaded device that can hold the job's
working set.

Three paths out of the queue:

* **fast path** — the job fits a healthy device: one
  :func:`gpu_count_triangles` run, preceded by a preprocessed-graph
  cache lookup (a hit skips the copy + preprocessing phases entirely);
* **distributed fallback** — the working set fits *no* device: the
  partitioned/distributed pipeline splits the graph across the healthy
  fleet instead of failing the job (Section VI);
* **fault retry** — an injected device failure inside the job's
  execution window aborts the attempt; the job re-queues with
  exponential backoff and runs on another device, producing an identical
  count (the counting pipeline is exact on every device).

Wall-clock note: the simulator is deterministic, so re-running an
identical (graph, options, device, path) job must produce identical
results — the scheduler memoizes those runs and replays the *simulated*
cost without repeating the *host* work.  This is a pure wall-time
optimization; every simulated number is what a fresh run would report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.distributed import distributed_count_triangles
from repro.core.forward_gpu import gpu_count_triangles
from repro.errors import OutOfDeviceMemoryError, ReproError
from repro.serve.cache import preprocessed_nbytes
from repro.serve.fleet import Fleet, FleetDevice
from repro.serve.metrics import ServeReport
from repro.serve.plane.replicas import ResidentEntry
from repro.serve.queue import (DONE, LOST, PATH_DISTRIBUTED, PATH_GPU, SHED,
                               SHED_FLEET_DEAD, SHED_NO_CAPACITY, JobQueue,
                               ServeJob, ShedResponse,
                               estimate_working_set_bytes, fits_device)

if TYPE_CHECKING:
    from repro.serve.plane import ControlPlane

#: Escalation ladder for the fallback path: smallest part count whose
#: subgraphs fit the device wins (more parts = more redundant work).
FALLBACK_PART_LADDER = (4, 6, 8, 12, 16)


@dataclass
class _GpuRunMemo:
    """Memoized outcome of one (graph, options, device, path) pipeline run."""

    triangles: int
    total_ms: float
    hit_service_ms: float        # count + reduce phases (a cache hit's cost)
    resident_nbytes: int         # what a cache entry of it occupies
    used_cpu_fallback: bool
    sanitizer_findings: int = 0  # nonzero only with options.sanitize on


class FleetScheduler:
    """Replays a job trace against a fleet.

    Parameters
    ----------
    fleet : Fleet
        The device pool (failure injections already configured).
    cache_enabled : bool
        Toggle the per-device preprocessed-graph caches (the serving
        bench replays the same trace both ways to measure the win).
    max_attempts : int
        Attempts per job before it is declared lost.
    backoff_ms : float
        Base of the exponential retry backoff: attempt *k* waits
        ``backoff_ms · 2^(k-1)`` simulated milliseconds after the fault.
    plane : ControlPlane, optional
        The serving control plane (:mod:`repro.serve.plane`).  When
        installed it adds SLO-aware admission, replica groups and the
        approximate degraded tier; ``None`` (default) reproduces the
        seed scheduler exactly.
    """

    def __init__(self, fleet: Fleet, cache_enabled: bool = True,
                 max_attempts: int = 4, backoff_ms: float = 25.0,
                 plane: "ControlPlane | None" = None):
        if max_attempts < 1:
            raise ReproError(f"need >= 1 attempt, got {max_attempts}")
        if backoff_ms < 0:
            raise ReproError(f"backoff must be >= 0, got {backoff_ms}")
        self.fleet = fleet
        self.cache_enabled = cache_enabled
        self.max_attempts = max_attempts
        self.backoff_ms = backoff_ms
        self.plane = plane
        self._gpu_memo: dict[tuple, _GpuRunMemo] = {}
        self._dist_memo: dict[tuple, object] = {}

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #

    def run(self, jobs: list[ServeJob]) -> ServeReport:
        """Replay ``jobs`` (an arrival-stamped trace) to completion."""
        report = ServeReport(fleet=self.fleet, jobs=list(jobs),
                             cache_enabled=self.cache_enabled)
        arrivals = sorted(jobs, key=lambda j: (j.arrival_ms, j.job_id))
        queue = JobQueue()
        ai = 0
        t = arrivals[0].arrival_ms if arrivals else 0.0

        while ai < len(arrivals) or len(queue):
            while ai < len(arrivals) and arrivals[ai].arrival_ms <= t:
                queue.push(arrivals[ai])
                ai += 1

            if self.plane is not None:
                # SLO-aware admission: shed (→ degraded tier) every
                # ready job the wait model predicts will miss its
                # effective deadline, before capacity is spent on it.
                self.plane.admission_pass(t, queue, self.fleet)

            self._dispatch_at(t, queue, report)

            if len(queue) and not self.fleet.healthy(t):
                # Failures are permanent, so an empty healthy set can
                # never recover: shed queued jobs now (typed response;
                # degraded-tier answer when a plane provides one) rather
                # than letting them age to the end of the trace.
                for job in queue.drain():
                    self._shed(job, SHED_FLEET_DEAD, t)

            # Advance to the next event: an arrival, a device completion
            # (something is waiting for capacity), or a backoff expiry.
            candidates = []
            if ai < len(arrivals):
                candidates.append(arrivals[ai].arrival_ms)
            if len(queue):
                busy = [d.busy_until_ms for d in self.fleet.healthy(t)
                        if d.busy_until_ms > t]
                if busy:
                    candidates.append(min(busy))
                release = queue.next_release_ms(t)
                if release is not None and release > t:
                    candidates.append(release)
            if candidates:
                t = min(candidates)
            elif len(queue):
                # No future event can free capacity — every queued job
                # is unservable (e.g. the whole fleet failed).  Route
                # them through the shed path: a typed ShedResponse (and
                # a degraded-tier answer when a plane provides one)
                # instead of a silent loss.
                for job in queue.drain():
                    self._shed(job, SHED_FLEET_DEAD, t)
            # else: loop condition drains naturally

        if self.plane is not None:
            report.plane_enabled = True
            report.replications = self.plane.replicas.replications
        return report

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #

    def _dispatch_at(self, t: float, queue: JobQueue,
                     report: ServeReport) -> None:
        """Start every job that can start at simulated time ``t``."""
        while True:
            idle = [d for d in self.fleet.healthy(t) if d.busy_until_ms <= t]
            if not idle:
                return
            job = queue.pop(t)
            if job is None:
                return
            eligible = [d for d in idle if fits_device(job, d)]
            if eligible:
                dev = (self.plane.pick_device(job, eligible, t)
                       if self.plane is not None
                       else self._pick_device(eligible))
                self._attempt_gpu(job, dev, t, queue, report)
                continue
            if any(fits_device(job, d) for d in self.fleet.healthy(t)):
                # Fits a busy device — hold the queue head until it frees
                # (strict priority: no backfill past a blocked head).
                queue.push(job)
                return
            # Fits no healthy device at any time: split it instead.
            self._attempt_distributed(job, t, queue, report)

    @staticmethod
    def _pick_device(eligible: list[FleetDevice]) -> FleetDevice:
        """Least-loaded first (all idle here, so load ties); prefer the
        faster card, then the one with most free memory (heterogeneous
        fleets), then stable index order."""
        return min(eligible, key=lambda d: (d.busy_until_ms,
                                            -d.throughput_proxy,
                                            -d.free_bytes, d.index))

    # ------------------------------------------------------------------ #
    # fast path
    # ------------------------------------------------------------------ #

    def _attempt_gpu(self, job: ServeJob, dev: FleetDevice, start: float,
                     queue: JobQueue, report: ServeReport) -> None:
        cache_key = job.cache_key()
        entry = (dev.cache.lookup(cache_key, start)
                 if self.cache_enabled else None)
        if entry is not None:
            service, triangles, hit = entry.hit_service_ms, entry.triangles, True
            memo = None
        else:
            memo = self._run_gpu(job, dev)
            service, triangles, hit = memo.total_ms, memo.triangles, False

        end = start + service
        if dev.fails_within(start, end):
            self._fault(job, dev, start, queue, report)
            return

        dev.busy_until_ms = end
        dev.busy_ms += service
        dev.jobs_completed += 1
        if memo is not None:
            report.sanitizer_findings += memo.sanitizer_findings
        if self.cache_enabled and memo is not None:
            dev.cache.insert(cache_key, memo.resident_nbytes,
                             triangles=memo.triangles,
                             hit_service_ms=memo.hit_service_ms,
                             now_ms=start)
        report.launches += 1
        job.status = DONE
        job.path = PATH_GPU
        job.cache_hit = hit
        job.device_index = dev.index
        job.start_ms = start
        job.finish_ms = end
        job.triangles = triangles
        if self.plane is not None:
            resident = None
            if self.cache_enabled:
                resident = (ResidentEntry(memo.resident_nbytes,
                                          memo.triangles,
                                          memo.hit_service_ms)
                            if memo is not None else
                            ResidentEntry(entry.nbytes, entry.triangles,
                                          entry.hit_service_ms))
            self.plane.on_gpu_complete(cache_key, self.fleet, service, hit,
                                       resident, end)

    def _run_gpu(self, job: ServeJob, dev: FleetDevice) -> _GpuRunMemo:
        """Run (or replay) the single-device pipeline for this job.

        The memo key includes which preprocessing path capacity forces:
        the same graph on the same card yields a different timeline when
        the direct path no longer fits (Section III-D6), so that bit is
        part of the run's identity.
        """
        direct = estimate_working_set_bytes(
            job.graph, job.options.but(cpu_preprocess="never"), dev.spec)
        key = (job.fingerprint, job.options.cache_key(), dev.spec.name,
               direct <= dev.free_bytes)
        memo = self._gpu_memo.get(key)
        if memo is None:
            run = gpu_count_triangles(job.graph, device=dev.spec,
                                      options=job.options,
                                      memory=dev.job_memory())
            memo = _GpuRunMemo(
                triangles=run.triangles,
                total_ms=run.total_ms,
                hit_service_ms=(run.timeline.phase_ms("count")
                                + run.timeline.phase_ms("reduce")),
                resident_nbytes=preprocessed_nbytes(
                    job.graph.num_nodes, run.num_forward_arcs, job.options),
                used_cpu_fallback=run.used_cpu_fallback,
                sanitizer_findings=sum(r.occurrences
                                       for r in run.sanitizer_reports))
            self._gpu_memo[key] = memo
        return memo

    # ------------------------------------------------------------------ #
    # distributed fallback
    # ------------------------------------------------------------------ #

    def _attempt_distributed(self, job: ServeJob, t: float,
                             queue: JobQueue, report: ServeReport) -> None:
        # Gang-schedule over the healthy fleet: the run starts when every
        # participant is free (dead devices drop out of the wait).
        start = t
        while True:
            participants = [d for d in self.fleet.healthy(start)]
            if not participants:
                self._shed(job, SHED_FLEET_DEAD, start)
                return
            new_start = max([t] + [d.busy_until_ms for d in participants])
            if new_start == start:
                break
            start = new_start

        # A gang job needs every byte: evict the participants' cache
        # residents so the subgraphs split against full device capacity —
        # otherwise a fuller cache forces a higher partition count and the
        # cache *costs* service time on whale-heavy traces.
        for d in participants:
            d.cache.clear()

        # A homogeneous-gang approximation: time the run on the weakest
        # participant with the least memory (conservative on both).
        weakest = min(participants, key=lambda d: d.throughput_proxy)
        capacity = min(d.spec.memory_bytes for d in participants)
        result = self._run_distributed(job, weakest.spec.with_memory(capacity),
                                       len(participants))
        if result is None:
            # Cannot fit even split 16 ways: shed with a typed reason
            # (the degraded tier still answers it when a plane is on).
            self._shed(job, SHED_NO_CAPACITY, start)
            return

        finish = start + result.total_ms
        faulted = [d for d in participants if d.fails_within(start, finish)]
        if faulted:
            fault_ms = min(d.fail_at_ms for d in faulted)
            for d in participants:
                d.busy_until_ms = max(d.busy_until_ms, fault_ms)
                d.busy_ms += fault_ms - start
            for d in faulted:
                d.faults += 1
            self._requeue_or_lose(job, fault_ms, queue, report)
            return

        for i, d in enumerate(participants):
            busy = result.partition_ms + (result.per_device_ms[i]
                                          if i < len(result.per_device_ms)
                                          else 0.0)
            d.busy_until_ms = start + busy
            d.busy_ms += busy
            d.jobs_completed += 1
        job.status = DONE
        job.path = PATH_DISTRIBUTED
        job.device_index = -1
        job.start_ms = start
        job.finish_ms = finish
        job.triangles = result.triangles
        report.fallbacks += 1
        if self.plane is not None:
            self.plane.on_distributed_complete(job, job.cache_key(),
                                               result.total_ms)

    def _run_distributed(self, job: ServeJob, spec, num_gpus: int):
        """Partitioned/distributed run with part-count escalation."""
        key = (job.fingerprint, job.options.cache_key(), spec.name,
               spec.memory_bytes, num_gpus)
        if key in self._dist_memo:
            return self._dist_memo[key]
        result = None
        for parts in FALLBACK_PART_LADDER:
            try:
                result = distributed_count_triangles(
                    job.graph, device=spec, num_gpus=num_gpus,
                    num_parts=parts, options=job.options)
                break
            except OutOfDeviceMemoryError:
                continue
        self._dist_memo[key] = result
        return result

    # ------------------------------------------------------------------ #
    # faults
    # ------------------------------------------------------------------ #

    def _fault(self, job: ServeJob, dev: FleetDevice, start: float,
               queue: JobQueue, report: ServeReport) -> None:
        fault_ms = dev.fail_at_ms
        dev.busy_until_ms = max(dev.busy_until_ms, fault_ms)
        dev.busy_ms += fault_ms - start
        dev.faults += 1
        self._requeue_or_lose(job, fault_ms, queue, report)

    def _shed(self, job: ServeJob, reason: str, t_ms: float) -> None:
        """Terminal no-capacity exit: a typed :class:`ShedResponse`
        (status :data:`SHED`), or a degraded-tier answer when the plane
        provides one — never a bare ``lost``."""
        resp = ShedResponse(job_id=job.job_id, reason=reason, at_ms=t_ms)
        if self.plane is not None:
            self.plane.resolve_shed(job, resp)
            return
        job.status = SHED
        job.shed = resp

    def _requeue_or_lose(self, job: ServeJob, fault_ms: float,
                         queue: JobQueue, report: ServeReport) -> None:
        report.faults += 1
        job.attempts += 1
        if job.attempts >= self.max_attempts:
            if self.plane is not None:
                # The degraded tier is the backstop: a retry-exhausted
                # job gets an approximate answer instead of a drop.
                self._shed(job, SHED_NO_CAPACITY, fault_ms)
            else:
                job.status = LOST
            return
        job.not_before_ms = (fault_ms
                             + self.backoff_ms * 2 ** (job.attempts - 1))
        queue.push(job)


def serve_trace(fleet: Fleet, jobs: list[ServeJob],
                cache_enabled: bool = True, **kwargs) -> ServeReport:
    """One-call trace replay (the ``repro-bench serve`` entry point)."""
    return FleetScheduler(fleet, cache_enabled=cache_enabled,
                          **kwargs).run(jobs)

"""Per-job and fleet-level serving metrics.

Every number here is *simulated* time, produced by the same timing model
the one-shot benches use — the serving layer just aggregates it the way
a production dashboard would: tail latency percentiles over the job
population, queue wait, preprocessing-cache hit rate, per-device
utilization, fault/retry/fallback counters.

The report renders through the :mod:`repro.gpusim.profiler` idiom — a
``==SERVE==`` metric sheet that sits next to the ``==PROF==`` kernel
sheets in CLI output.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from repro.serve.fleet import Fleet
from repro.serve.queue import (DONE, LOST, PATH_DISTRIBUTED, SHED, TIER_APPROX,
                               ServeJob)
from repro.utils import human_bytes, human_ms


@dataclass
class ServeReport:
    """Outcome of one trace replay.

    ``jobs`` carry their full per-job record (arrival/start/finish,
    device, path, attempts, cache_hit); the properties aggregate them.
    """

    fleet: Fleet
    jobs: list[ServeJob] = field(default_factory=list)
    cache_enabled: bool = True
    #: device-fault events observed (each costs one attempt + backoff).
    faults: int = 0
    #: jobs that ran the partitioned/distributed path.
    fallbacks: int = 0
    #: total sanitizer findings across all pipeline runs (only nonzero
    #: when jobs carry ``options.sanitize != "off"``; a clean fleet
    #: serves every trace at 0).
    sanitizer_findings: int = 0
    #: a :class:`~repro.serve.plane.ControlPlane` drove this replay.
    plane_enabled: bool = False
    #: device launches that served jobs.
    launches: int = 0
    #: pinned replica copies the plane installed.
    replications: int = 0

    # ------------------------------------------------------------------ #
    # job populations
    # ------------------------------------------------------------------ #

    @property
    def done(self) -> list[ServeJob]:
        return [j for j in self.jobs if j.status == DONE]

    @property
    def lost(self) -> list[ServeJob]:
        return [j for j in self.jobs if j.status == LOST]

    @property
    def retried(self) -> list[ServeJob]:
        return [j for j in self.jobs if j.attempts > 0]

    @property
    def shed(self) -> list[ServeJob]:
        """Jobs shed without an answer (typed ShedResponse attached)."""
        return [j for j in self.jobs if j.status == SHED]

    @property
    def degraded(self) -> list[ServeJob]:
        """Jobs answered on the approximate tier (done, tier="approx")."""
        return [j for j in self.jobs if j.status == DONE
                and j.tier == TIER_APPROX]

    @property
    def approx_mean_rel_error(self) -> float | None:
        """Mean relative error of degraded answers against the exact
        count, over degraded jobs whose graph also completed exactly in
        this replay (``None`` when no pair exists)."""
        truth = {j.fingerprint: j.triangles for j in self.done
                 if j.tier != TIER_APPROX and j.triangles > 0}
        errs = [abs(j.estimate - truth[j.fingerprint]) / truth[j.fingerprint]
                for j in self.degraded
                if j.fingerprint in truth and j.estimate is not None]
        return float(np.mean(errs)) if errs else None

    # ------------------------------------------------------------------ #
    # latency / throughput
    # ------------------------------------------------------------------ #

    @property
    def makespan_ms(self) -> float:
        """First arrival → last completion (the replay's wall window)."""
        if not self.jobs:
            return 0.0
        start = min(j.arrival_ms for j in self.jobs)
        end = max((j.finish_ms for j in self.done), default=start)
        end = max(end, max(j.arrival_ms for j in self.jobs))
        return end - start

    @property
    def throughput_jobs_per_s(self) -> float:
        span = self.makespan_ms
        return len(self.done) / (span * 1e-3) if span > 0 else 0.0

    def latency_percentile(self, q: float) -> float:
        lat = [j.latency_ms for j in self.done]
        return float(np.percentile(lat, q)) if lat else 0.0

    @property
    def p50_ms(self) -> float:
        return self.latency_percentile(50)

    @property
    def p95_ms(self) -> float:
        return self.latency_percentile(95)

    @property
    def p99_ms(self) -> float:
        return self.latency_percentile(99)

    @property
    def mean_wait_ms(self) -> float:
        waits = [j.wait_ms for j in self.done]
        return float(np.mean(waits)) if waits else 0.0

    @property
    def total_service_ms(self) -> float:
        """Simulated device time spent serving completed jobs — the
        quantity the preprocessing cache shrinks (queue wait excluded)."""
        return sum(j.finish_ms - j.start_ms for j in self.done)

    @property
    def fast_path_service_ms(self) -> float:
        """Service time of single-device jobs only — the population the
        preprocessing cache can actually help (distributed fallback runs
        re-partition every time and never hit the cache)."""
        return sum(j.finish_ms - j.start_ms for j in self.done
                   if j.path != PATH_DISTRIBUTED)

    # ------------------------------------------------------------------ #
    # cache / deadlines
    # ------------------------------------------------------------------ #

    @property
    def cache_hit_rate(self) -> float:
        """Preprocessing-cache hit fraction over completed fast-path jobs."""
        gpu_jobs = [j for j in self.done if j.path != PATH_DISTRIBUTED]
        if not gpu_jobs:
            return 0.0
        return sum(j.cache_hit for j in gpu_jobs) / len(gpu_jobs)

    @property
    def deadline_misses(self) -> int:
        return sum(not j.met_deadline for j in self.jobs)

    # ------------------------------------------------------------------ #
    # report
    # ------------------------------------------------------------------ #

    def summary(self) -> str:
        return (f"{len(self.done)}/{len(self.jobs)} jobs, "
                f"{self.throughput_jobs_per_s:.1f} jobs/s, "
                f"p50/p95/p99 {human_ms(self.p50_ms)} / "
                f"{human_ms(self.p95_ms)} / {human_ms(self.p99_ms)}, "
                f"cache hits {self.cache_hit_rate:.0%}, "
                f"{self.fallbacks} fallback, {self.faults} faults, "
                f"{len(self.shed)} shed, {len(self.lost)} lost")

    def jobs_csv(self) -> str:
        """Per-job records, machine-readable (the ``--csv`` dump)."""
        lines = ["job_id,arrival_ms,start_ms,finish_ms,priority,status,"
                 "path,device,cache_hit,attempts,triangles,tier,shed_reason"]
        for j in sorted(self.jobs, key=lambda j: j.job_id):
            reason = j.shed.reason if j.shed is not None else ""
            lines.append(
                f"{j.job_id},{j.arrival_ms:.3f},{j.start_ms:.3f},"
                f"{j.finish_ms:.3f},{j.priority},{j.status},{j.path},"
                f"{j.device_index},{int(j.cache_hit)},{j.attempts},"
                f"{j.triangles},{j.tier},{reason}")
        return "\n".join(lines) + "\n"

    def format_report(self) -> str:
        """The ``==SERVE==`` metric sheet (profiler idiom)."""
        out = io.StringIO()
        out.write(f"==SERVE== fleet of {len(self.fleet)} "
                  f"({self.fleet.describe()}): "
                  f"{len(self.done)}/{len(self.jobs)} jobs over "
                  f"{human_ms(self.makespan_ms)} simulated"
                  f"{'' if self.cache_enabled else '  [cache disabled]'}\n")

        def metric(label, value):
            out.write(f"  {label:<38} {value}\n")

        metric("throughput", f"{self.throughput_jobs_per_s:.2f} jobs/s")
        metric("latency p50 / p95 / p99",
               f"{human_ms(self.p50_ms)} / {human_ms(self.p95_ms)} / "
               f"{human_ms(self.p99_ms)}")
        metric("mean queue wait", human_ms(self.mean_wait_ms))
        metric("total device service time", human_ms(self.total_service_ms))
        gpu_done = [j for j in self.done if j.path != PATH_DISTRIBUTED]
        hits = sum(j.cache_hit for j in gpu_done)
        metric("preprocessing cache hit rate",
               f"{self.cache_hit_rate:.1%} ({hits} / {len(gpu_done)})")
        stats = self.fleet.cache_stats
        metric("cache insert / evict / reject",
               f"{stats.insertions} / {stats.evictions} / {stats.rejected}")
        metric("fast path / distributed fallback",
               f"{len(gpu_done)} / {self.fallbacks}")
        metric("device faults (jobs retried)",
               f"{self.faults} ({len(self.retried)})")
        metric("deadline misses", f"{self.deadline_misses}")
        metric("lost jobs", f"{len(self.lost)}")
        metric("sanitizer findings", f"{self.sanitizer_findings}")
        if self.plane_enabled:
            metric("replica copies pinned", f"{self.replications}")
            err = self.approx_mean_rel_error
            metric("shed / degraded-tier answers",
                   f"{len(self.shed)} / {len(self.degraded)}"
                   + (f" (mean rel err {err:.1%})" if err is not None
                      else ""))
        span = self.makespan_ms
        for dev in self.fleet:
            state = ("FAILED @ " + human_ms(dev.fail_at_ms)
                     if dev.fail_at_ms is not None else "ok")
            metric(f"device #{dev.index} {dev.spec.name} [{state}]",
                   f"{dev.utilization(span):.1%} util, "
                   f"{dev.jobs_completed} jobs, cache "
                   f"{human_bytes(dev.cache.bytes_used)} in "
                   f"{len(dev.cache)} entries")
        return out.getvalue()

"""``repro-bench serve-scale`` — the control-plane overload bench.

Replays one deterministic overload trace twice against the same fleet
and the same failure schedule:

* **seed replay** — the plain :class:`~repro.serve.scheduler.FleetScheduler`
  (``plane=None``), exactly the pre-plane serving stack;
* **plane replay** — the same scheduler with a
  :class:`~repro.serve.plane.ControlPlane` installed (admission,
  replica groups, degraded tier).

Overload here is *capacity collapse*: the trace runs at
``rate_multiplier`` × the baseline zipf rate (10× by default, bursty)
while the failure schedule kills every device partway through the
window.  Once the fleet is dead the seed scheduler can only strand the
remaining jobs — they end shed-without-an-answer (previously ``lost``).
The plane answers every one of them on the approximate degraded tier
with an explicit error bound, so the plane replay finishes with **zero
lost and zero unanswered jobs** and a bounded p99, while its exact
answers stay bit-identical to the seed replay's.

:meth:`ServeScaleResult.checks` gates those three properties for both
``repro-bench serve-scale`` and the reproduction bundle.  The committed
``BENCH_serve.json`` pins the whole document: the tier-1 tests
regenerate it and hold it to the committed file with
:func:`repro.bench.reproduce.committed_drift`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.serve import (ControlPlane, Fleet, PlaneConfig, ServeReport,
                         TraceConfig, build_graph_pool, generate_trace,
                         serve_trace, size_fleet_memory)
from repro.serve.queue import TIER_APPROX
from repro.utils import human_ms

#: Failure schedule: device ``i`` of ``n`` dies at
#: ``duration × (FAIL_FIRST + i · (FAIL_LAST − FAIL_FIRST)/(n−1))``,
#: so the whole fleet is dead with a third of the trace still arriving.
FAIL_FIRST = 0.20
FAIL_LAST = 0.65


def report_doc(rep: ServeReport) -> dict:
    """JSON-ready metrics of one :class:`ServeReport` (simulated numbers
    only — deterministic for a fixed trace; shared with the
    reproduction bundle's summary)."""
    return {
        "jobs": len(rep.jobs),
        "done": len(rep.done),
        "done_exact": len([j for j in rep.done
                           if j.tier != TIER_APPROX]),
        "degraded": len(rep.degraded),
        "shed_unanswered": len(rep.shed),
        "lost": len(rep.lost),
        "unanswered": len(rep.shed) + len(rep.lost),
        "faults": rep.faults,
        "fallbacks": rep.fallbacks,
        "deadline_misses": rep.deadline_misses,
        "p50_ms": rep.p50_ms,
        "p95_ms": rep.p95_ms,
        "p99_ms": rep.p99_ms,
        "cache_hit_rate": rep.cache_hit_rate,
        "launches": rep.launches,
        "replications": rep.replications,
        "approx_mean_rel_error": rep.approx_mean_rel_error,
    }


def failure_schedule(num_devices: int,
                     duration_ms: float) -> list[tuple[int, float]]:
    """Staggered whole-fleet failure times, ``(device_index, at_ms)``."""
    if num_devices == 1:
        return [(0, duration_ms * FAIL_FIRST)]
    step = (FAIL_LAST - FAIL_FIRST) / (num_devices - 1)
    return [(i, duration_ms * (FAIL_FIRST + i * step))
            for i in range(num_devices)]


@dataclass
class ServeScaleResult:
    """Both replays of the overload trace plus the identity verdict."""

    fleet_spec: str
    duration_ms: float
    rate_per_s: float
    rate_multiplier: float
    burst: float
    seed: int
    schedule: list[tuple[int, float]]
    seed_report: ServeReport
    plane_report: ServeReport
    #: exact answers bit-identical across replays (shared job ids).
    identical: bool = True
    mismatched_ids: list[int] = field(default_factory=list)

    # ------------------------------------------------------------------ #

    @staticmethod
    def _report_doc(rep: ServeReport) -> dict:
        return report_doc(rep)

    def doc(self) -> dict:
        """JSON-ready document (the committed ``BENCH_serve.json``)."""
        return {
            "bench": "serve-scale",
            "config": {
                "fleet": self.fleet_spec,
                "duration_ms": self.duration_ms,
                "rate_per_s": self.rate_per_s,
                "rate_multiplier": self.rate_multiplier,
                "burst": self.burst,
                "seed": self.seed,
                "failure_schedule": [[i, ms] for i, ms in self.schedule],
            },
            "seed_replay": self._report_doc(self.seed_report),
            "plane_replay": self._report_doc(self.plane_report),
            "exact_identical": self.identical,
            "mismatched_ids": self.mismatched_ids,
        }

    def json_str(self) -> str:
        return json.dumps(self.doc(), indent=2, sort_keys=True) + "\n"

    def checks(self) -> list[dict]:
        """The contract gates: no plane job lost, every plane job
        answered, exact answers identical to the seed replay's."""
        plane = report_doc(self.plane_report)
        lost, unanswered = plane["lost"], plane["unanswered"]
        return [
            {"name": "plane_no_lost_jobs", "passed": lost == 0,
             "detail": f"plane replay lost {lost} job(s)"},
            {"name": "plane_all_answered", "passed": unanswered == 0,
             "detail": f"plane replay left {unanswered} job(s) "
                       "unanswered"},
            {"name": "exact_identical", "passed": self.identical,
             "detail": "plane exact answers must match the seed replay "
                       "bit for bit"},
        ]

    def summary(self) -> str:
        s, p = self.seed_report, self.plane_report
        return (f"{len(s.jobs)} jobs @ {self.rate_multiplier:g}x: "
                f"seed leaves {len(s.shed) + len(s.lost)} unanswered "
                f"(p99 {human_ms(s.p99_ms)}); plane answers all "
                f"({len(p.degraded)} approx, {len(p.lost)} lost, "
                f"p99 {human_ms(p.p99_ms)}), exact answers "
                f"{'identical' if self.identical else 'MISMATCHED'}")


def run_serve_scale(fleet_spec: str = "gtx980x4",
                    duration_ms: float = 30_000.0,
                    rate_per_s: float = 2.0,
                    rate_multiplier: float = 10.0,
                    burst: float = 4.0,
                    seed: int = 0,
                    plane_config: PlaneConfig | None = None
                    ) -> ServeScaleResult:
    """Run the overload bench (both replays share trace + failures)."""
    if rate_multiplier < 1.0:
        raise ReproError(
            f"serve-scale is an overload bench; rate_multiplier must be "
            f">= 1, got {rate_multiplier}")
    config = TraceConfig(seed=seed, duration_ms=duration_ms,
                         rate_per_s=rate_per_s,
                         rate_multiplier=rate_multiplier, burst=burst)
    pool = build_graph_pool(config)
    probe = Fleet.parse(fleet_spec)
    weakest = min(probe, key=lambda d: d.spec.memory_bytes)
    memory = size_fleet_memory(pool, config, weakest.spec)
    schedule = failure_schedule(len(probe), duration_ms)

    def replay(plane: ControlPlane | None) -> ServeReport:
        fleet = Fleet.parse(fleet_spec, memory_bytes=memory)
        for index, at_ms in schedule:
            fleet.inject_failure(index, at_ms)
        return serve_trace(fleet, generate_trace(config, pool),
                           plane=plane)

    seed_report = replay(None)
    plane_report = replay(ControlPlane(plane_config or PlaneConfig()))

    truth = {j.job_id: j.triangles for j in seed_report.done}
    mismatched = [j.job_id for j in plane_report.done
                  if j.tier != TIER_APPROX and j.job_id in truth
                  and j.triangles != truth[j.job_id]]
    return ServeScaleResult(
        fleet_spec=fleet_spec, duration_ms=duration_ms,
        rate_per_s=rate_per_s, rate_multiplier=rate_multiplier,
        burst=burst, seed=seed, schedule=schedule,
        seed_report=seed_report, plane_report=plane_report,
        identical=not mismatched, mismatched_ids=mismatched)

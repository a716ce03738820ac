"""``ControlPlane`` — the layer between :class:`JobQueue` and
:class:`FleetScheduler`.

The scheduler stays the discrete-event engine it was; the plane is a set
of policy hooks it consults when one is installed (``plane=None``
reproduces the seed scheduler exactly):

* **admission** — at every event time, forecast the ready queue with the
  wait model and shed jobs that cannot meet their effective deadline
  (:mod:`~repro.serve.plane.admission`);
* **replica groups** — after completions, pin hot graphs on k devices
  and steer placement toward replica holders
  (:mod:`~repro.serve.plane.replicas`);
* **degraded tier** — shed jobs are answered approximately with an
  explicit error bound instead of dropped
  (:mod:`~repro.serve.plane.degraded`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ReproError
from repro.serve.fleet import Fleet, FleetDevice
from repro.serve.plane.admission import AdmissionController, ServiceEstimator
from repro.serve.plane.degraded import APPROX_METHODS, DegradedTier
from repro.serve.plane.replicas import ReplicaManager, ResidentEntry
from repro.serve.queue import (DONE, PATH_APPROX, SHED, TIER_APPROX,
                               JobQueue, ServeJob, ShedResponse)


@dataclass(frozen=True)
class PlaneConfig:
    """Policy knobs of one control plane."""

    #: replica-group size for hot graphs (1 disables replication).
    replicas: int = 2
    #: queries of a key before it counts as hot.
    hot_threshold: int = 3
    #: replica-copy schedule: ``"broadcast"`` sources every copy from
    #: the one holder; ``"ring"`` forwards holder-to-holder (each new
    #: replica sources from the previous one as soon as it has the
    #: bytes — the store-and-forward exchange of
    #: :mod:`repro.gpusim.multigpu`, applied to the fleet timing model).
    exchange: str = "broadcast"
    #: SLO-aware admission (shed/downgrade predicted deadline misses).
    admission: bool = True
    #: implicit deadline slack for deadline-less jobs; None exempts them.
    default_slo_ms: float | None = 8_000.0
    #: answer shed jobs on the approximate CPU sidecar.
    degraded: bool = True
    approx_method: str = "doulion"
    approx_p: float = 0.25
    approx_seed: int = 0

    def __post_init__(self):
        if self.replicas < 1:
            raise ReproError(f"replicas must be >= 1, got {self.replicas}")
        if self.approx_method not in APPROX_METHODS:
            raise ReproError(
                f"approx_method must be one of {APPROX_METHODS}, "
                f"got {self.approx_method!r}")
        if self.exchange not in ReplicaManager.EXCHANGE_MODES:
            raise ReproError(
                f"exchange must be one of {ReplicaManager.EXCHANGE_MODES}, "
                f"got {self.exchange!r}")


class ControlPlane:
    """One instance per trace replay (it accumulates counters)."""

    def __init__(self, config: PlaneConfig = PlaneConfig()):
        self.config = config
        self.estimator = ServiceEstimator()
        self.admission = (AdmissionController(self.estimator,
                                              config.default_slo_ms)
                          if config.admission else None)
        self.replicas = ReplicaManager(config.replicas, config.hot_threshold,
                                       exchange=config.exchange)
        self.degraded = (DegradedTier(method=config.approx_method,
                                      p=config.approx_p,
                                      seed=config.approx_seed)
                         if config.degraded else None)

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #

    def admission_pass(self, t_ms: float, queue: JobQueue,
                       fleet: Fleet) -> list[ServeJob]:
        """Shed every ready job the wait model predicts will miss its
        effective deadline; returns the jobs it resolved."""
        if self.admission is None:
            return []
        doomed = self.admission.doomed(t_ms, queue, fleet)
        if not doomed:
            return []
        responses = {j.job_id: resp for j, resp in doomed}
        taken = queue.take_where(t_ms, lambda j: j.job_id in responses)
        for job in taken:
            self.resolve_shed(job, responses[job.job_id])
        return taken

    # ------------------------------------------------------------------ #
    # shed / degraded resolution
    # ------------------------------------------------------------------ #

    def resolve_shed(self, job: ServeJob, resp: ShedResponse) -> None:
        """Answer a shed job on the degraded tier when one is
        configured; otherwise mark it :data:`SHED` with the typed
        response attached."""
        if self.degraded is None:
            job.status = SHED
            job.shed = resp
            return
        answer = self.degraded.answer(job)
        job.status = DONE
        job.tier = TIER_APPROX
        job.path = PATH_APPROX
        job.device_index = -1
        job.start_ms = resp.at_ms
        job.finish_ms = resp.at_ms + answer.service_ms
        job.triangles = answer.estimated_triangles
        job.estimate = answer.estimate
        job.error_bound = answer.error_bound
        job.approx_method = answer.method
        job.shed = replace(resp, degraded=True)

    # ------------------------------------------------------------------ #
    # dispatch-time hooks
    # ------------------------------------------------------------------ #

    def pick_device(self, job: ServeJob, eligible: list[FleetDevice],
                    t_ms: float) -> FleetDevice:
        return self.replicas.pick_device(job.cache_key(), eligible, t_ms)

    # ------------------------------------------------------------------ #
    # completion hooks
    # ------------------------------------------------------------------ #

    def on_gpu_complete(self, key: tuple, fleet: Fleet, service_ms: float,
                        hit: bool, resident: ResidentEntry | None,
                        end_ms: float) -> None:
        """Observe service, heat the key, and replicate when hot.

        ``resident`` is None when the scheduler runs cache-disabled —
        replication is then off too (there is nothing to pin).
        """
        if hit:
            self.estimator.observe_hit(key, service_ms)
        else:
            self.estimator.observe_full(key, service_ms)
        self.replicas.note_requests(key)
        if resident is not None:
            self.replicas.maybe_replicate(key, resident, fleet, end_ms)

    def on_distributed_complete(self, job: ServeJob, key: tuple,
                                total_ms: float) -> None:
        self.estimator.observe_full(key, total_ms)

"""repro.serve.plane — the serving control plane.

Sits between the :class:`~repro.serve.queue.JobQueue` and the
:class:`~repro.serve.scheduler.FleetScheduler`:

``queue → plane (admission / replicas) → scheduler → runtime``

Three cooperating components: replica groups pin hot preprocessed graphs
on k devices, SLO-aware admission sheds jobs the wait model proves doomed
(with a typed :class:`~repro.serve.queue.ShedResponse`), and the
degraded tier answers shed jobs approximately — ``(estimate,
error_bound, tier="approx")`` — via the existing DOULION / birthday
estimators.  Install with ``serve_trace(..., plane=ControlPlane())``;
``plane=None`` reproduces the seed scheduler exactly.
"""

from repro.serve.plane.admission import (COLD_MODEL_PASSES,
                                         AdmissionController,
                                         ServiceEstimator)
from repro.serve.plane.control import ControlPlane, PlaneConfig
from repro.serve.plane.degraded import (APPROX_METHODS, ApproxAnswer,
                                        DegradedTier)
from repro.serve.plane.replicas import ReplicaManager, ResidentEntry

__all__ = [
    "AdmissionController", "ServiceEstimator", "COLD_MODEL_PASSES",
    "ControlPlane", "PlaneConfig",
    "APPROX_METHODS", "ApproxAnswer", "DegradedTier",
    "ReplicaManager", "ResidentEntry",
]

"""The approximate degraded tier — a CPU sidecar for shed jobs.

When SLO-aware admission decides a job cannot meet its deadline on the
exact GPU tier (or no GPU can ever serve it), the control plane reroutes
it here instead of dropping it.  The sidecar answers with one of the
existing :mod:`repro.cpu.approx` estimators and an **explicit error
bound** — the response payload is ``(estimate, error_bound,
tier="approx")``, never a silently wrong exact-looking number.

Two models, both deterministic per graph fingerprint:

* ``"doulion"`` — Tsourakakis' coin-flip sparsifier; error bound from
  the two-term plug-in variance, binomial plus edge-sharing covariance
  (:attr:`DoulionResult.error_bound`);
* ``"birthday"`` — the Jha–Seshadhri–Pinar streaming estimator; bound
  from the closed-wedge binomial term.

Simulated cost: the sidecar is host CPU work outside the device fleet,
modeled as a streaming pass over the arc array at a fixed per-arc cost
plus the estimator's own work term.  Answers are memoized per graph
fingerprint — the estimator is seeded from the fingerprint, so every
query of the same graph receives the identical estimate (replay
determinism is an acceptance criterion, not an aspiration).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.approx import birthday_paradox_count, doulion_count
from repro.errors import ReproError
from repro.serve.queue import TIER_APPROX, ServeJob

#: Valid estimator choices.
APPROX_METHODS = ("doulion", "birthday")

#: Simulated sidecar cost model: one streaming pass over the arc array…
SIDECAR_NS_PER_ARC = 25.0
#: …plus the estimator's own work per retained element (kept edges for
#: DOULION's exact sub-count, reservoir slots for the birthday pass).
SIDECAR_NS_PER_WORK_ITEM = 200.0


@dataclass(frozen=True)
class ApproxAnswer:
    """The degraded tier's response for one graph."""

    estimate: float
    error_bound: float
    method: str
    #: simulated sidecar milliseconds to produce the answer.
    service_ms: float
    tier: str = TIER_APPROX

    @property
    def estimated_triangles(self) -> int:
        return int(round(self.estimate))

    @property
    def relative_error_bound(self) -> float:
        return self.error_bound / self.estimate if self.estimate > 0 else 0.0

    def payload(self) -> dict:
        """The wire-format response a tenant receives."""
        return {"estimate": self.estimate,
                "error_bound": self.error_bound,
                "tier": self.tier,
                "method": self.method}


class DegradedTier:
    """Answers shed jobs approximately, with a bound, off the GPU fleet.

    Parameters
    ----------
    method : str
        ``"doulion"`` (default) or ``"birthday"``.
    p : float
        DOULION edge-keeping probability.
    edge_reservoir, wedge_reservoir : int
        Birthday-paradox reservoir sizes.
    seed : int
        Mixed into the per-fingerprint estimator seed.
    """

    def __init__(self, method: str = "doulion", p: float = 0.25,
                 edge_reservoir: int = 2000, wedge_reservoir: int = 2000,
                 seed: int = 0):
        if method not in APPROX_METHODS:
            raise ReproError(
                f"approx method must be one of {APPROX_METHODS}, "
                f"got {method!r}")
        if not (0.0 < p <= 1.0):
            raise ReproError(f"keep probability must be in (0, 1], got {p}")
        self.method = method
        self.p = p
        self.edge_reservoir = edge_reservoir
        self.wedge_reservoir = wedge_reservoir
        self.seed = seed
        self.answers_served = 0
        self._memo: dict[str, ApproxAnswer] = {}

    # ------------------------------------------------------------------ #

    def _fingerprint_seed(self, fingerprint: str) -> int:
        """Deterministic per-graph seed: same graph → same estimate on
        every query, any replay."""
        return (int(fingerprint[:12], 16) ^ self.seed) & 0x7FFFFFFF

    def answer(self, job: ServeJob) -> ApproxAnswer:
        """Estimate the job's triangle count on the CPU sidecar."""
        self.answers_served += 1
        memo = self._memo.get(job.fingerprint)
        if memo is not None:
            return memo
        sub_seed = self._fingerprint_seed(job.fingerprint)
        m = job.graph.num_arcs
        if self.method == "doulion":
            res = doulion_count(job.graph, p=self.p, seed=sub_seed)
            work_items = res.kept_edges
            answer = ApproxAnswer(estimate=res.estimate,
                                  error_bound=res.error_bound,
                                  method="doulion",
                                  service_ms=self._service_ms(m, work_items))
        else:
            res = birthday_paradox_count(job.graph,
                                         edge_reservoir=self.edge_reservoir,
                                         wedge_reservoir=self.wedge_reservoir,
                                         seed=sub_seed)
            work_items = self.edge_reservoir + self.wedge_reservoir
            answer = ApproxAnswer(estimate=res.triangle_estimate,
                                  error_bound=res.error_bound,
                                  method="birthday",
                                  service_ms=self._service_ms(m, work_items))
        self._memo[job.fingerprint] = answer
        return answer

    @staticmethod
    def _service_ms(num_arcs: int, work_items: int) -> float:
        return (num_arcs * SIDECAR_NS_PER_ARC
                + work_items * SIDECAR_NS_PER_WORK_ITEM) * 1e-6

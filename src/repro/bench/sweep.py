"""Scale-convergence sweep (E16): does mini scale approach the paper?

The whole reproduction rests on the claim that the mini-scale
distortions (EXPERIMENTS.md) shrink as `scale` grows.  This experiment
*tests the methodology itself*: run one workload at a ladder of scales
and check that the dimensionless observables — GPU speedup, cache hit
rate, preprocessing fraction — move monotonically toward the paper's
full-scale values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.runner import run_workload
from repro.errors import WorkloadError
from repro.graphs.datasets import get
from repro.utils import env_scale


@dataclass(frozen=True)
class SweepPoint:
    scale: float
    num_arcs: int
    gtx980_speedup: float
    cache_hit_pct: float
    preprocessing_fraction: float


@dataclass
class SweepResult:
    workload_name: str
    points: list[SweepPoint] = field(default_factory=list)

    @property
    def paper(self):
        return get(self.workload_name).paper

    def deltas(self, attr: str, target: float) -> list[float]:
        """|measured − paper| per point, ascending scale."""
        return [abs(getattr(p, attr) - target) for p in self.points]

    def converges(self, attr: str, target: float,
                  tolerance: float = 0.15) -> bool:
        """Does the distance to the paper's value shrink overall?

        Compares first vs last point with a tolerance for one-step
        noise (generator variance across scales).
        """
        d = self.deltas(attr, target)
        if len(d) < 2:
            return True
        return d[-1] <= d[0] * (1.0 + tolerance)

    def summary(self) -> str:
        paper = self.paper
        lines = [f"scale sweep — {self.workload_name} "
                 f"(paper: GTX {paper.gtx980_speedup}x, "
                 f"hit {paper.cache_hit_pct}%)"]
        for p in self.points:
            lines.append(
                f"  scale {p.scale:<10.6f} arcs {p.num_arcs:>8,} : "
                f"GTX {p.gtx980_speedup:6.1f}x, hit {p.cache_hit_pct:5.1f}%, "
                f"preproc {p.preprocessing_fraction:.2f}")
        return "\n".join(lines)


def scale_sweep(name: str,
                scales: tuple[float, ...] | None = None,
                seed: int = 0) -> SweepResult:
    """Measure one workload's GTX 980 row at a ladder of scales (by
    default a 4x ladder topped by the workload's ``REPRO_SCALE``-scaled
    default)."""
    w = get(name)
    if scales is None:
        base = w.default_scale * env_scale()
        scales = (base / 4, base / 2, base)
    if any(s <= 0 or s > 1 for s in scales):
        raise WorkloadError(f"scales must lie in (0, 1], got {scales}")

    result = SweepResult(workload_name=name)
    for scale in sorted(scales):
        row = run_workload(name, scale=scale, seed=seed,
                           configs=("gtx980",))
        result.points.append(SweepPoint(
            scale=scale,
            num_arcs=row.num_arcs,
            gtx980_speedup=row.gtx980_speedup,
            cache_hit_pct=row.cache_hit_pct,
            preprocessing_fraction=row.gtx980.timeline.preprocessing_fraction,
        ))
    return result

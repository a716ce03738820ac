"""repro.core.intersect — pluggable set-intersection strategies.

Every counting kernel factors into one **driver** (the host loop in
:mod:`repro.core.count_kernel`) and a **strategy** — the intersection
algorithm.  This package owns the strategies, keyed by their
``GpuOptions.kernel`` value:

===================  ==============================================
``two_pointer``      the paper's two-pointer merge (Section III-C)
``binary_search``    log-probes of the longer list (Wang/Owens)
``hash``             TRUST-style per-vertex bucketed probes
``warp_intersect``   Green et al.'s warp-per-arc chunked search
===================  ==============================================

The first three map one thread to an arc; ``warp_intersect`` spreads
each arc over a whole warp (``warp_per_arc``).  The driver owns the
memory-trace grouping; the strategy owns the per-step request
multisets.  Every pipeline, the kernel zoo, the sanitizer matrix and
serve launch a strategy by its ``GpuOptions.kernel`` value.

See docs/simulator.md ("Intersection strategies") for the contract and
how to add one.
"""

from __future__ import annotations

from repro.core.intersect.base import (IntersectionStrategy, MatchHook,
                                       StrategyContext, check_per_vertex)
from repro.core.intersect.binary_search import (BinarySearchStrategy,
                                                lower_bound_round)
from repro.core.intersect.hashed import HashStrategy
from repro.core.intersect.merge import MergeStrategy
from repro.core.intersect.warp import WarpIntersectStrategy
from repro.errors import ReproError

#: ``GpuOptions.kernel`` value -> strategy instance.
STRATEGIES: dict[str, IntersectionStrategy] = {
    s.name: s for s in (MergeStrategy(), BinarySearchStrategy(),
                        HashStrategy(), WarpIntersectStrategy())}


def get_strategy(name: str) -> IntersectionStrategy:
    """The strategy run by ``GpuOptions(kernel=name)`` (typed error on
    a miss, including an unresolved ``"auto"``)."""
    try:
        return STRATEGIES[name]
    except KeyError:
        if name == "auto":
            raise ReproError(
                "GpuOptions.kernel='auto' must be resolved against a "
                "graph before launch (repro.core.autopick.resolve_options); "
                "graph-level pipelines do this automatically") from None
        raise ReproError(
            f"unknown intersection strategy {name!r} "
            f"(registered: {', '.join(strategy_names())})") from None


def strategy_names() -> tuple[str, ...]:
    """Registered strategy names, sorted."""
    return tuple(sorted(STRATEGIES))


__all__ = [
    "IntersectionStrategy", "StrategyContext", "MatchHook",
    "MergeStrategy", "BinarySearchStrategy", "HashStrategy",
    "WarpIntersectStrategy", "STRATEGIES", "get_strategy",
    "strategy_names", "check_per_vertex", "lower_bound_round",
]

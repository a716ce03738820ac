"""repro.core.intersect — pluggable set-intersection strategies.

The thread-per-edge counting kernels factor into a **driver** (the
host loop in :mod:`repro.core.count_kernel`) and a **strategy** — the
per-lane intersection algorithm.  This package owns the strategies:

========================  ============================================
``merge``                 the paper's two-pointer merge (Section III-C)
``binary_search``         log-probes of the longer list (Wang/Owens)
``hash``                  TRUST-style per-vertex bucketed probes
========================  ============================================

The driver owns the memory-trace grouping; the strategy owns the
per-step request multisets.  Every strategy is registered as a
:class:`~repro.runtime.spec.KernelSpec` so it is launchable through
every pipeline, the kernel zoo, the sanitizer matrix, and serve.

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
from repro.errors import ReproError

#: Registry: strategy name -> singleton instance.
STRATEGIES: dict[str, IntersectionStrategy] = {}


def register_strategy(strategy: IntersectionStrategy,
                      ) -> IntersectionStrategy:
    """Register a strategy instance under its ``name``."""
    if not strategy.name:
        raise ReproError("strategy must carry a non-empty name")
    if strategy.name in STRATEGIES:
        raise ReproError(f"strategy {strategy.name!r} already registered")
    STRATEGIES[strategy.name] = strategy
    return strategy


def get_strategy(name: str) -> IntersectionStrategy:
    """Look up a registered strategy by name (typed error on miss)."""
    try:
        return STRATEGIES[name]
    except KeyError:
        raise ReproError(
            f"unknown intersection strategy {name!r} "
            f"(registered: {', '.join(strategy_names())})") from None


def strategy_names() -> tuple[str, ...]:
    """Registered strategy names, sorted."""
    return tuple(sorted(STRATEGIES))


def strategy_for_options(options) -> IntersectionStrategy:
    """The strategy selected by ``GpuOptions.kernel``.

    ``warp_intersect`` is not a thread-per-edge strategy (it is its own
    warp-per-edge kernel body) and ``auto`` must be resolved against a
    graph first (:mod:`repro.core.autopick`); both get typed errors.
    """
    name = "merge" if options.kernel == "two_pointer" else options.kernel
    strategy = STRATEGIES.get(name)
    if strategy is None:
        raise ReproError(
            f"GpuOptions.kernel={options.kernel!r} does not select a "
            f"thread-per-edge intersection strategy (strategies: "
            f"two_pointer, {', '.join(n for n in strategy_names() if n != 'merge')}"
            "); warp_intersect dispatches through the runtime registry "
            "and 'auto' must be resolved against a graph first "
            "(repro.core.autopick.resolve_options)")
    return strategy


MERGE = register_strategy(MergeStrategy())
BINARY_SEARCH = register_strategy(BinarySearchStrategy())
HASH = register_strategy(HashStrategy())

__all__ = [
    "IntersectionStrategy", "StrategyContext", "MatchHook",
    "MergeStrategy", "BinarySearchStrategy", "HashStrategy",
    "STRATEGIES", "register_strategy", "get_strategy", "strategy_names",
    "strategy_for_options", "check_per_vertex", "lower_bound_round",
    "MERGE", "BINARY_SEARCH", "HASH",
]

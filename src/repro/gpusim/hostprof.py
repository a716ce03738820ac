"""Host-side wall-clock attribution for the simulator itself.

The simulated timing model answers "how long would the *GPU* take";
this module answers "where does the *simulator's host CPU time* go" —
the quantity the perf PRs optimize.  A :class:`HostProfiler` accumulates
per-phase wall-clock in the unified vocabulary every pipeline shares
(the launches all go through :func:`repro.runtime.launch`):

* ``h2d`` / ``kernel`` / ``d2h`` / ``free`` — the top-level lifecycle
  phases of a kernel launch: building + copying the device-resident
  structures, the kernel body, the reduce + result readback, and the
  teardown sweep.  These are the comparable numbers — ``==SERVE==``
  sheets and bench phase totals mean the same thing for every kernel;
* ``setup`` and each intersection strategy's ``step_kind`` (``merge``,
  ``search``, ``probe``) — the kernel tick sections, subsets of
  ``kernel``;
* ``cache-model`` — :meth:`SimtEngine.read_compacted`/``write``/
  ``atomic_add`` in the caller (address math, coalescing, and the cache
  probes when they run in-process), a subset of the above;
* ``cache-worker`` — seconds the cache-model worker process
  (:mod:`repro.gpusim.cachestream`) spent applying this run's reads,
  reported at each sync; it runs beside the caller, so it is a subset
  that never adds to the total;
* ``accounting`` — :meth:`SimtEngine.end_step_warps` bookkeeping, also
  a subset of the kernel sections.

Profiling is opt-in and ambient: ``install_host_profiler`` (or the
``host_profiling()`` context manager) makes every subsequently
constructed :class:`~repro.gpusim.simt.SimtEngine` record into the
installed profiler, so whole-replay aggregation (``repro-bench serve``)
needs no plumbing through the call stack.  When
nothing is installed the hot paths pay a single ``None`` check.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class HostPhase:
    """Accumulated wall-clock of one named phase."""

    seconds: float = 0.0
    calls: int = 0


@dataclass
class HostProfiler:
    """Named wall-clock accumulators (see module docstring for phases)."""

    phases: dict = field(default_factory=dict)

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        phase = self.phases.get(name)
        if phase is None:
            phase = self.phases[name] = HostPhase()
        phase.seconds += seconds
        phase.calls += calls

    @contextmanager
    def phase(self, name: str):
        t0 = perf_counter()
        try:
            yield
        finally:
            self.add(name, perf_counter() - t0)

    def merge(self, other: "HostProfiler") -> None:
        for name, phase in other.phases.items():
            self.add(name, phase.seconds, phase.calls)

    @property
    def total_seconds(self) -> float:
        """Top-level phase seconds (excludes the overlapping subsets)."""
        return sum(p.seconds for n, p in self.phases.items()
                   if n not in _SUBSET_PHASES)

    def breakdown(self) -> dict:
        """JSON-friendly ``{phase: {"seconds": s, "calls": c}}``."""
        return {name: {"seconds": phase.seconds, "calls": phase.calls}
                for name, phase in sorted(self.phases.items())}


#: Phases measured *inside* another phase (double counted by a naive
#: sum, hence excluded from :attr:`HostProfiler.total_seconds`): the
#: kernel tick sections nest inside the runtime's ``kernel`` phase, the
#: engine subsets nest inside the tick sections, and ``cache-worker``
#: is another process's time overlapping them.  The step sections
#: are named by the intersection strategies, which register them here
#: (:func:`register_subset_phase`) when they register themselves.
_SUBSET_PHASES = {"setup", "cache-model", "cache-worker", "accounting"}


def register_subset_phase(name: str) -> None:
    """Mark phase ``name`` as nested inside another phase."""
    _SUBSET_PHASES.add(name)


_installed: HostProfiler | None = None


def install_host_profiler(profiler: HostProfiler | None) -> None:
    """Set (or clear, with ``None``) the ambient profiler new engines use."""
    global _installed
    _installed = profiler


def current_host_profiler() -> HostProfiler | None:
    return _installed


@contextmanager
def host_profiling(profiler: HostProfiler | None = None):
    """Install ``profiler`` (default: a fresh one) for the duration,
    restoring whatever was installed before; yields the profiler."""
    prof = HostProfiler() if profiler is None else profiler
    previous = current_host_profiler()
    install_host_profiler(prof)
    try:
        yield prof
    finally:
        install_host_profiler(previous)


def format_host_profile(profiler: HostProfiler,
                        header: str = "==HOST== simulator wall-clock") -> str:
    """Profiler-idiom sheet of where the host CPU time went."""
    lines = [header]
    total = profiler.total_seconds
    for name, phase in sorted(profiler.phases.items(),
                              key=lambda kv: -kv[1].seconds):
        share = (f" {phase.seconds / total:>6.1%}"
                 if total > 0 and name not in _SUBSET_PHASES else "       ")
        note = "  (subset)" if name in _SUBSET_PHASES else ""
        lines.append(f"  {name:<38} {phase.seconds * 1e3:>10.1f} ms "
                     f"{share}  {phase.calls:>9,} calls{note}")
    lines.append(f"  {'total (top-level phases)':<38} "
                 f"{total * 1e3:>10.1f} ms")
    return "\n".join(lines) + "\n"

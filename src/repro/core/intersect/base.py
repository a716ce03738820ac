"""The IntersectionStrategy contract and its per-launch context.

The per-edge work of every thread-per-edge counting kernel factors into
two pieces:

* a **driver** (:mod:`repro.core.count_kernel`) that owns the
  grid-stride arc cursor, the warp phase machine, divergence masking,
  retirement/reconvergence, and — crucially — **all step accounting**
  (``end_step_warps`` closes every tick the driver runs);
* a **strategy** that owns the set-intersection itself: which per-lane
  registers exist, what the initial loads are, and what one SIMT step
  of the intersection does to them.

A strategy never talks to the engine directly — every device access
goes through :class:`StrategyContext`, which binds the engine's read
path and hides the AoS/SoA column stride.  Because the driver closes
each tick with its own accounting call, strategy loads are always
covered: the simulator invariant "reads are followed by an
``end_step_warps``" holds by construction of the driver loop, not per
call site.

Strategies operate on **dense** register vectors: the driver hands
over views of its live-lane pool, calls
:meth:`IntersectionStrategy.step`, and the step mutates the vectors in
place and returns the lanes still mid-intersection.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.options import GpuOptions
from repro.core.preprocess import PreprocessResult
from repro.errors import ReproError
from repro.gpusim.memory import DeviceBuffer, DeviceMemory
from repro.gpusim.simt import SimtEngine


class StrategyContext:
    """Per-launch strategy state: bound read path + layout facts.

    Built once per kernel launch by
    :meth:`IntersectionStrategy.prepare`; carries the engine handle,
    the preprocess buffers and the engine's read function.
    """

    def __init__(self, engine: SimtEngine, pre: PreprocessResult,
                 options: GpuOptions, memory: DeviceMemory | None) -> None:
        self.engine = engine
        self.pre = pre
        self.options = options
        self.memory = memory
        self.unzipped = pre.aos is None
        if self.unzipped:
            self.adj: DeviceBuffer = pre.adj
            self.keys: DeviceBuffer = pre.keys
        else:
            self.adj = self.keys = pre.aos
        self.node = pre.node
        self._read: Callable[..., np.ndarray] = engine.read_compacted
        self._ws_shift = engine.warp_size.bit_length() - 1
        self._num_warps = engine.num_warps

    # -------------------------- device loads -------------------------- #

    def adj_load(self, indices: np.ndarray,
                 lanes: np.ndarray) -> np.ndarray:
        """Adjacency-content read ``edge[idx]`` (stride-2 under AoS).

        Accounting is the calling driver's: the tick this load issues
        in is closed by the driver's ``end_step_warps``.
        """
        if self.unzipped:
            return self._read(self.adj, indices, lanes)
        return self._read(self.adj, 2 * indices, lanes)

    def key_load(self, indices: np.ndarray,
                 lanes: np.ndarray) -> np.ndarray:
        """Edge-key read ``edge[m + idx]`` (stride-2, offset 1 in AoS)."""
        if self.unzipped:
            return self._read(self.keys, indices, lanes)
        return self._read(self.keys, 2 * indices + 1, lanes)

    def buf_load(self, buf: DeviceBuffer, indices: np.ndarray,
                 lanes: np.ndarray) -> np.ndarray:
        """Read from a strategy-owned buffer (e.g. hash tables)."""
        return self._read(buf, indices, lanes)

    # -------------------------- accounting ---------------------------- #

    def account(self, kind: str, lanes: np.ndarray,
                instructions: int) -> None:
        """Close a strategy-issued tick (build passes, not step loops).

        Driver ticks are closed by the driver; a strategy only calls
        this for work it runs *outside* the driver loop — the hash
        build pass — where it must do its own warp accounting.
        """
        counts = np.bincount(np.asarray(lanes) >> self._ws_shift,
                             minlength=self._num_warps)
        warps = np.flatnonzero(counts)
        self.engine.end_step_warps(kind, warps, counts[warps], instructions)


#: Callback the merge strategy uses for local-triangle accumulation:
#: ``on_match(matched_positions, matched_values)`` where positions
#: index into the dense step vectors.
MatchHook = Callable[[np.ndarray, np.ndarray], None]


class IntersectionStrategy:
    """One set-intersection algorithm, pluggable into the driver.

    Class attributes describe the register file and the timing model;
    the three methods are the lifecycle: ``prepare`` once per launch,
    ``begin`` once per arc batch (inside the driver's setup tick),
    ``step`` once per merge-loop tick, ``finish`` at teardown.
    """

    #: registry key (also the ``GpuOptions.kernel`` value).
    name: str = ""
    #: warp-step kind recorded for each intersection step
    #: (``KernelReport.warp_steps`` key and hostprof section).
    step_kind: str = ""
    #: per-lane register names; the driver allocates one int64 pool
    #: column per name.
    registers: tuple[str, ...] = ()
    #: instruction estimate charged per setup tick / per step tick.
    setup_instructions: int = 0
    step_instructions: int = 0
    #: whether the strategy can report matched corners for the
    #: local-triangle (per-vertex) extension.
    supports_per_vertex: bool = False

    def prepare(self, engine: SimtEngine, pre: PreprocessResult,
                options: GpuOptions,
                memory: DeviceMemory | None) -> StrategyContext:
        """Build the launch context (and any device-resident tables)."""
        return StrategyContext(engine, pre, options, memory)

    def begin(self, ctx: StrategyContext, lanes: np.ndarray,
              u: np.ndarray, v: np.ndarray,
              nu: np.ndarray, nu1: np.ndarray,
              nv: np.ndarray, nv1: np.ndarray,
              ) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """Initial loads + register init for arcs ``(u, v)`` on ``lanes``.

        ``nu:nu1`` and ``nv:nv1`` bound the two adjacency lists.
        Returns ``(columns, active)``: one length-``k`` vector per
        register name, and the lanes whose intersection has work to do.
        """
        raise NotImplementedError

    def step(self, ctx: StrategyContext, regs: dict[str, np.ndarray],
             lanes: np.ndarray, count: np.ndarray,
             on_match: MatchHook | None) -> np.ndarray:
        """One SIMT intersection step over the dense live-lane vectors.

        Mutates ``regs``/``count`` in place; returns the boolean mask
        of lanes still running.  ``on_match`` is only passed when
        ``supports_per_vertex`` (the local-triangle corner hook).
        """
        raise NotImplementedError

    def finish(self, ctx: StrategyContext) -> None:
        """Release strategy-owned device buffers (reverse alloc order)."""


def check_per_vertex(strategy: IntersectionStrategy,
                     per_vertex_buf: DeviceBuffer | None) -> bool:
    """Validate the local-triangle hook against the strategy."""
    if per_vertex_buf is None:
        return False
    if not strategy.supports_per_vertex:
        raise ReproError(
            f"kernel {strategy.name!r} does not support per-vertex "
            "(local triangle) accumulation; use the merge strategy "
            "(GpuOptions.kernel='two_pointer')")
    return True

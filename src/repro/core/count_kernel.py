"""The ``CountTriangles`` kernel (paper Section III-C) as a SIMT kernel.

Execution is warp-synchronous, mirroring the hardware semantics of the
paper's CUDA listing:

* each lane owns the arcs ``i ≡ lane (mod total_threads)`` (the
  grid-stride loop);
* one *setup* block per arc loads the arc's endpoints and four
  node-array entries, then hands the lane to the launch's
  :class:`~repro.core.intersect.IntersectionStrategy` — the pluggable
  set-intersection algorithm (merge / binary_search / hash) that owns
  the per-lane registers and the initial loads (for the paper's merge,
  the kernel's unconditional ``int a = edge[u_it], b = edge[v_it];``);
* then *intersection steps* run until **every** lane of the warp has
  exhausted its work — lanes that finish early sit masked-out (that is
  the divergence the Section III-D5 warp-size trick reduces);
* the merge strategy's loop body comes in the paper's two variants
  (Section III-D3): ``final`` re-reads only the pointer(s) that
  advanced, ``preliminary`` reads both list heads every iteration.

This module is the **driver**: it owns the grid-stride cursor, warp
phase machine, divergence masking and all step accounting, while the
strategy owns what one step does.  All adjacency walks read through the
engine's cache hierarchy; the merge strategy here is the entire source
of the Table II counters.

The host data layout is *active-set compacted*, so per-tick host work
scales with the live lanes, not the grid:

* a **worklist of live warps** — tiny ``W``-sized ``phase`` /
  ``rounds`` / ``remaining`` arrays plus an ``alive`` counter; a warp
  in ``_DONE`` costs nothing ever again;
* a **compact lane pool** — the registers of exactly the lanes whose
  intersection is still running (one pool column per strategy
  register, plus the lane id and count), packed dense in preallocated
  backing arrays.  Lanes are appended when their warp's setup block
  runs and filtered out (with their ``count`` scattered back to the
  full per-thread array) the iteration they exhaust;
* a **fused stepper** — whenever no live warp is in ``_LOAD`` (the
  dominant regime: one setup tick per arc batch, then many step
  ticks), the inner loop runs intersection steps back to back,
  returning to the setup path only when a warp reconverges.

The memory model runs through the engine's fused path
(:meth:`~repro.gpusim.simt.SimtEngine.read_compacted` /
:meth:`~repro.gpusim.simt.SimtEngine.end_step_warps`): coalescing and
both cache levels are order-independent over the request *multiset* of
one call, so the pool never has to keep lanes sorted.  What each tick
issues — which calls, in which order, with which (index, lane)
multisets — is the simulated contract; :mod:`repro.gpusim.reference`
re-derives it one scalar thread at a time and
``tests/test_engine_equivalence.py`` holds the two equal on every
:class:`~repro.gpusim.simt.KernelReport` counter.

The kernel is held sanitizer-clean — no out-of-bounds index (the
Section III-D3 pad slot absorbs the one-past-the-end reads of the
``final`` merge variant), no uninitialized read, and no same-step
cross-warp hazard (per-thread result slots; corner accumulation only
via ``atomic_add``) — enforced across the configuration matrix by
``repro-bench sanitize --strict``.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.core.intersect import check_per_vertex, strategy_for_options
from repro.core.options import GpuOptions
from repro.core.preprocess import PreprocessResult
from repro.errors import ReproError
from repro.gpusim.memory import DeviceBuffer, DeviceMemory
from repro.gpusim.simt import SimtEngine

_LOAD, _MERGE, _DONE = 0, 1, 2


@dataclass
class CountKernelResult:
    """Outcome of one kernel launch.

    ``thread_counts`` is the per-thread ``result`` array the paper
    reduces with ``thrust::reduce``; ``triangles`` its sum.
    """

    thread_counts: np.ndarray
    triangles: int
    ticks: int

    @property
    def num_threads(self) -> int:
        return len(self.thread_counts)


def count_triangles_kernel(engine: SimtEngine,
                           pre: PreprocessResult,
                           options: GpuOptions = GpuOptions(),
                           lo: int = 0,
                           hi: int | None = None,
                           result_buf: DeviceBuffer | None = None,
                           per_vertex_buf: DeviceBuffer | None = None,
                           memory: DeviceMemory | None = None,
                           ) -> CountKernelResult:
    """Execute ``CountTriangles`` over arcs ``[lo, hi)`` on ``engine``.

    The intersection algorithm is selected by ``options.kernel``
    (``two_pointer`` → merge, ``binary_search``, ``hash``).

    ``result_buf``, when given, receives the per-thread counts through a
    modelled device write (length must be ``engine.num_threads``).

    ``per_vertex_buf``, when given (length ``num_nodes``), receives one
    ``atomicAdd`` per triangle corner — the local-triangle extension the
    clustering-coefficient application needs (every match at edge
    ``(u, v)`` with common neighbor ``w`` increments all three).  Only
    the merge strategy supports it.

    ``memory`` is required by strategies that build device-resident
    tables (``hash``); the launch path passes it automatically.
    """
    m = pre.num_forward_arcs
    hi = m if hi is None else hi
    if not (0 <= lo <= hi <= m):
        raise ReproError(f"arc range [{lo}, {hi}) outside [0, {m})")

    strategy = strategy_for_options(options)
    track_corners = check_per_vertex(strategy, per_vertex_buf)
    ctx = strategy.prepare(engine, pre, options, memory)

    unzipped = pre.aos is None
    if unzipped:
        adj, keys = pre.adj, pre.keys
    else:
        adj = keys = pre.aos
    node = pre.node
    reg_names = strategy.registers

    T = engine.num_threads
    ws = engine.warp_size
    ws_shift = ws.bit_length() - 1    # warp sizes divide 32: always pow2
    W = engine.num_warps
    prof = engine.host_profiler
    read = engine.read_compacted

    # Worklist of live warps.  A lane's arc cursor is derived, never
    # stored: ``cur = lo + lane + rounds[warp] * T`` (the grid-stride
    # loop), so reconvergence is a counter bump, not a register sweep.
    phase = np.full(W, _LOAD, np.int8)
    rounds = np.zeros(W, np.int64)
    remaining = np.zeros(W, np.int64)   # pool lanes per warp
    alive = W
    load_pending = True

    # Compact lane pool: registers of the lanes mid-intersection, packed
    # dense in [0, n).  Capacity T is the hard bound (every lane of
    # every warp intersecting at once).
    p_lane = np.empty(T, np.int64)
    p_regs = {name: np.empty(T, np.int64) for name in reg_names}
    p_cnt = np.empty(T, np.uint64)
    if track_corners:
        p_lu = np.empty(T, np.int64)
        p_lv = np.empty(T, np.int64)
    pool = [p_lane] + [p_regs[name] for name in reg_names] + [p_cnt]
    if track_corners:
        pool += [p_lu, p_lv]
    n = 0
    # The live-warp list only changes when lanes retire or a setup tick
    # runs; cache it between those events.
    mw_cache: list = [None, None]

    count_full = np.zeros(T, np.uint64)
    lane_off = np.arange(ws, dtype=np.int64)
    ticks = 0

    def _setup_tick() -> int:
        """Setup blocks of every ``_LOAD`` warp; appends the lanes that
        enter the intersection loop to the pool.  Returns the new pool
        size."""
        nonlocal alive, n
        load_w = np.flatnonzero(phase == _LOAD)
        lanes2d = load_w[:, None] * ws + lane_off[None, :]
        cur2d = lo + lanes2d + (rounds[load_w] * T)[:, None]
        has = cur2d < hi
        had = has.any(axis=1)
        if had.any():
            lanes = lanes2d[has]
            e = cur2d[has]
            if unzipped:
                u = read(adj, e, lanes)           # edge[i]
                v = read(keys, e, lanes)          # edge[m + i]
            else:
                u = read(adj, 2 * e, lanes)
                v = read(keys, 2 * e + 1, lanes)
            u = u.astype(np.int64, copy=False)
            v = v.astype(np.int64, copy=False)
            # The four node-array loads issue back to back; batching
            # them into one engine call keeps the same cache behaviour
            # (same-line repeats are hits either way).
            k = len(lanes)
            node_idx = np.empty(4 * k, np.int64)
            node_idx[:k] = u
            np.add(u, 1, out=node_idx[k:2 * k])
            node_idx[2 * k:3 * k] = v
            np.add(v, 1, out=node_idx[3 * k:])
            node_lanes = np.empty(4 * k, np.int64)
            for j in range(4):
                node_lanes[j * k:(j + 1) * k] = lanes
            nvals = read(node, node_idx, node_lanes).astype(np.int64,
                                                           copy=False)
            nu, nu1, nv, nv1 = (nvals[:k], nvals[k:2 * k],
                                nvals[2 * k:3 * k], nvals[3 * k:])
            cols, mact = strategy.begin(ctx, lanes, u, v, nu, nu1, nv, nv1)
            engine.end_step_warps("setup", load_w[had],
                                  has.sum(axis=1)[had],
                                  strategy.setup_instructions)
            # Pool append: only lanes with a non-empty intersection to
            # run (the rest keep their counts in ``count_full``).
            k2 = int(mact.sum())
            if k2:
                sel_lanes = lanes[mact]
                p_lane[n:n + k2] = sel_lanes
                for name in reg_names:
                    p_regs[name][n:n + k2] = cols[name][mact]
                p_cnt[n:n + k2] = count_full[sel_lanes]
                if track_corners:
                    p_lu[n:n + k2] = u[mact]
                    p_lv[n:n + k2] = v[mact]
                n += k2
                np.add(remaining, np.bincount(sel_lanes >> ws_shift,
                                              minlength=W), out=remaining)
                mw_cache[0] = None
        # Warp transitions.  ``had`` warps enter the intersection loop —
        # except those contributing zero active lanes, which reconverge
        # within this same tick (no step runs for them) and so simply
        # advance to their next grid-stride arc.
        w_had = load_w[had]
        entered = remaining[w_had] > 0
        phase[w_had[entered]] = _MERGE
        rounds[w_had[~entered]] += 1
        retired = load_w[~had]
        if len(retired):
            phase[retired] = _DONE
            alive -= len(retired)
        return n

    def _merge_tick() -> None:
        """One intersection step over the whole pool."""
        nonlocal n, load_pending
        lanes = p_lane[:n]
        regs = {name: p_regs[name][:n] for name in reg_names}
        if track_corners:
            def on_match(idx: np.ndarray, values: np.ndarray) -> None:
                mlanes = lanes[idx]
                # Three atomicAdds per triangle: u, v, and the common
                # neighbor (the matched value).  Deliberate data-indexed
                # atomics (one per corner), well-defined by atomicAdd
                # semantics.
                corners = np.concatenate([p_lu[:n][idx], p_lv[:n][idx],
                                          values])
                engine.atomic_add(  # san-ok: SAN201
                    per_vertex_buf, corners,
                    np.ones(len(corners), np.int64),
                    np.concatenate([mlanes, mlanes, mlanes]))
        else:
            on_match = None
        still = strategy.step(ctx, regs, lanes, p_cnt[:n], on_match)
        mw = mw_cache[0]
        if mw is None:
            mw = np.flatnonzero(remaining)
            mw_cache[0] = mw
            mw_cache[1] = remaining[mw]
        engine.end_step_warps(strategy.step_kind, mw, mw_cache[1],
                              strategy.step_instructions)
        new_n = int(np.count_nonzero(still))
        if new_n == n:
            return
        # Retirement: scatter counts back and close the pool's holes by
        # moving *tail survivors* into them — O(retired) work, not
        # O(pool); the pool is unordered by contract (the memory model
        # is order-independent over each tick's request multiset).
        fin_idx = np.flatnonzero(~still)
        exit_lanes = p_lane[fin_idx]
        count_full[exit_lanes] = p_cnt[fin_idx]
        np.subtract(remaining, np.bincount(exit_lanes >> ws_shift,
                                           minlength=W), out=remaining)
        mw_cache[0] = None
        holes = fin_idx[fin_idx < new_n]
        if len(holes):
            src = np.flatnonzero(still[new_n:n]) + new_n
            for arr in pool:
                arr[holes] = arr[src]
        n = new_n
        reconv = np.flatnonzero((remaining == 0) & (phase == _MERGE))
        if len(reconv):
            # Reconverged warps advance to the next grid-stride arc; the
            # next tick runs their setup block.
            rounds[reconv] += 1
            phase[reconv] = _LOAD
            load_pending = True

    try:
        while alive:
            if load_pending:
                ticks += 1
                t0 = perf_counter() if prof is not None else 0.0
                _setup_tick()
                load_pending = bool((phase == _LOAD).any())
                if prof is not None:
                    prof.add("setup", perf_counter() - t0)
                if n:
                    t0 = perf_counter() if prof is not None else 0.0
                    _merge_tick()
                    if prof is not None:
                        prof.add(strategy.step_kind, perf_counter() - t0)
                continue
            if not n:
                break  # unreachable: alive warps are _LOAD or mid-step
            # Fused stepping: no warp needs a setup block until one
            # reconverges, so iterate the pool back to back.
            t0 = perf_counter() if prof is not None else 0.0
            fused = 0
            while n and not load_pending:
                ticks += 1
                fused += 1
                _merge_tick()
            if prof is not None:
                prof.add(strategy.step_kind, perf_counter() - t0,
                         calls=fused)
    finally:
        strategy.finish(ctx)

    triangles = int(count_full.sum())
    if result_buf is not None:
        tid = np.arange(T, dtype=np.int64)
        engine.write(result_buf, tid, count_full, tid)
    return CountKernelResult(thread_counts=count_full, triangles=triangles,
                             ticks=ticks)

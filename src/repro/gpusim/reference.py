"""Scalar reference executor for the counting kernel — the oracle.

:mod:`repro.core.count_kernel` is heavily vectorized (a compact lane
pool, a packed-key memory model fused into sorts and boundary passes);
this module re-executes the paper's ``CountTriangles`` merge kernel as
the *literal* CUDA listing — one plain-Python loop per thread, both
loop variants, both layouts — on a scalar memory model, so that tests
can hold the engine's **whole** observable output to an implementation
simple enough to audit by eye: per-thread and per-vertex counts, the
tick count, and every :meth:`KernelReport.counters` entry.  It is
orders of magnitude slower and is only ever run on tiny inputs.

Execution is tick-major.  In each tick every warp in its load phase
runs its setup block, then every warp with a lane mid-merge runs one
merge iteration; a warp moves on to its next grid-stride arc only when
all its lanes have left the loop.  The device sees one memory call per
load site of the listing, in this order:

1. setup: ``edge[i]``, ``edge[m + i]``, the four node loads
   ``node[u], node[u+1], node[v], node[v+1]``, and the initial
   ``a = edge[u_it], b = edge[v_it]``;
2. step: ``preliminary`` re-reads both heads; every match issues three
   ``atomicAdd``\\ s (``u``, ``v`` and the common neighbour) when
   per-vertex counts are requested; ``final`` reads only the pointers
   that advanced;
3. after the last tick, the per-thread ``result`` write.

Each call is one batch for the memory model (:class:`_ScalarMemory`):
distinct (warp, line) pairs are the transactions; distinct (SM, line)
pairs probe the SM's L1, duplicates counting as hits; the lines that
missed are deduplicated across SMs and probe L2.  Each cache level
(:class:`_ScalarLRU`) resolves a batch's hits against its state before
the batch, then inserts the missing lines set by set in ascending line
order, each into the least recently used way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import KernelFault, ReproError
from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import DeviceBuffer
from repro.gpusim.simt import KernelReport, LaunchConfig
from repro.gpusim.timing import MERGE_INSTRUCTIONS, SETUP_INSTRUCTIONS

_LOAD, _MERGE, _DONE = 0, 1, 2


class _ScalarLRU:
    """``instances`` independent set-associative LRU caches, in lists."""

    def __init__(self, instances: int, capacity: int, line_bytes: int,
                 ways: int) -> None:
        self.sets = capacity // (line_bytes * ways)
        self.tags = [[-1] * ways for _ in range(instances * self.sets)]
        self.stamps = [[0] * ways for _ in range(instances * self.sets)]
        self.clock = 1
        #: lines a fill pushed out of the cache (evictions observed).
        self.evictions = 0

    def probe(self, pairs: set[tuple[int, int]]) -> list[tuple[int, int]]:
        """Probe distinct (instance, line) ``pairs`` as one batch and
        return the pairs that missed (all now resident)."""
        now = self.clock
        self.clock += len(pairs) + 1
        missed: list[tuple[int, int]] = []
        for inst, line in pairs:
            s = inst * self.sets + line % self.sets
            if line in self.tags[s]:
                self.stamps[s][self.tags[s].index(line)] = now
            else:
                missed.append((inst, line))
        missed.sort()
        rank: dict[int, int] = {}
        for inst, line in missed:
            s = inst * self.sets + line % self.sets
            r = rank[s] = rank.get(s, -1) + 1
            stamps = self.stamps[s]
            way = stamps.index(min(stamps))     # LRU, lowest way on ties
            self.evictions += self.tags[s][way] >= 0
            self.tags[s][way] = line
            stamps[way] = now + 1 + r
        return missed


class _ScalarMemory:
    """The engine's memory and accounting model, one request at a time."""

    def __init__(self, device: DeviceSpec, launch: LaunchConfig,
                 use_ro_cache: bool, report: KernelReport) -> None:
        self.device = device
        self.report = report
        self.warp_size = launch.simulated_warp_size or device.warp_size
        self.warps_per_block = launch.threads_per_block // self.warp_size
        self.l1 = (_ScalarLRU(device.num_sms, device.l1_bytes,
                              device.line_bytes, device.l1_ways)
                   if use_ro_cache or device.caches_global_loads_by_default
                   else None)
        self.l2 = _ScalarLRU(1, device.l2_bytes, device.line_bytes,
                             device.l2_ways)

    def sm_of(self, warp: int) -> int:
        return warp // self.warps_per_block % self.device.num_sms

    def _requests(self, buf: DeviceBuffer,
                  reqs: list[tuple[int, int]]) -> list[tuple[int, int]]:
        """``(warp, byte address)`` of each ``(index, thread)`` request."""
        out: list[tuple[int, int]] = []
        for index, thread in reqs:
            if not 0 <= index < len(buf.data):
                raise KernelFault(f"out-of-bounds access to {buf.name!r} "
                                  f"at index {index}")
            out.append((thread // self.warp_size,
                        buf.device_addr + index * buf.itemsize))
        return out

    def read(self, buf: DeviceBuffer,
             reqs: list[tuple[int, int]]) -> list[int]:
        """One engine read call: ``reqs`` is a list of (index, thread);
        returns the values in request order."""
        if not reqs:
            return []
        rep, dev = self.report, self.device
        rep.lane_reads += len(reqs)
        addrs = self._requests(buf, reqs)
        lb, sb = dev.line_bytes, dev.sector_bytes
        if self.l1 is not None:
            trans = {(w, a // lb) for w, a in addrs}
            rep.transactions += len(trans)
            missed = self.l1.probe({(self.sm_of(w), ln) for w, ln in trans})
            rep.l1_hits += len(trans) - len(missed)
            rep.l1_misses += len(missed)
            missed2 = self.l2.probe({(0, ln) for _, ln in missed})
            rep.l2_hits += len(missed) - len(missed2)
            rep.l2_misses += len(missed2)
            rep.l2_bytes += len(missed) * lb
            rep.dram_bytes += len(missed2) * lb
        else:
            # Uncached loads: sector transactions, straight to L2.
            sectors = {(w, a // sb) for w, a in addrs}
            rep.transactions += len(sectors)
            missed2 = self.l2.probe({(0, s * sb // lb) for _, s in sectors})
            rep.l2_hits += len(sectors) - len(missed2)
            rep.l2_misses += len(missed2)
            rep.l2_bytes += len(sectors) * sb
            rep.dram_bytes += len(missed2) * sb
        return [int(buf.data[index]) for index, _ in reqs]

    def write(self, buf: DeviceBuffer,
              reqs: list[tuple[int, int]]) -> None:
        """Write-through stores: sector transactions to DRAM."""
        sb = self.device.sector_bytes
        sectors = {(w, a // sb) for w, a in self._requests(buf, reqs)}
        self.report.transactions += len(sectors)
        self.report.dram_bytes += len(sectors) * sb

    def atomic_add(self, buf: DeviceBuffer,
                   reqs: list[tuple[int, int]]) -> None:
        """Atomics: one transaction per distinct (warp, address), and a
        read-modify-write of each distinct (warp, sector) through L2."""
        sb = self.device.sector_bytes
        addrs = self._requests(buf, reqs)
        sectors = {(w, a // sb) for w, a in addrs}
        self.report.transactions += len(set(addrs))
        self.report.l2_bytes += 2 * len(sectors) * sb
        self.report.dram_bytes += len(sectors) * sb

    def account(self, kind: str, threads: list[int],
                instructions: int) -> None:
        """One instruction block executed by the warps owning
        ``threads`` (the lanes live in the block)."""
        if not threads:
            return
        lanes: dict[int, int] = {}
        for t in threads:
            w = t // self.warp_size
            lanes[w] = lanes.get(w, 0) + 1
        rep = self.report
        rep.warp_steps[kind] = rep.warp_steps.get(kind, 0) + len(lanes)
        rep.instruction_slots += len(lanes) * instructions
        rep.total_warp_steps += len(lanes)
        rep.active_lane_sum += len(threads)
        assert rep.sm_instruction_slots is not None
        for w in lanes:
            rep.sm_instruction_slots[self.sm_of(w)] += instructions


@dataclass(frozen=True)
class ReferenceRun:
    """Everything one reference execution observed."""

    thread_counts: np.ndarray          # uint64, one per thread
    per_vertex: np.ndarray | None      # int64 corner counts, if requested
    ticks: int
    report: KernelReport
    #: lines evicted from (any) L1 / from L2 — evidence a test input
    #: actually exercised replacement.
    l1_evictions: int
    l2_evictions: int

    @property
    def triangles(self) -> int:
        return int(self.thread_counts.sum())


def reference_kernel(device: DeviceSpec, launch: LaunchConfig, *,
                     node: DeviceBuffer, num_arcs: int,
                     adj: DeviceBuffer | None = None,
                     keys: DeviceBuffer | None = None,
                     aos: DeviceBuffer | None = None,
                     variant: str = "final",
                     use_ro_cache: bool = True,
                     lo: int = 0, hi: int | None = None,
                     result: DeviceBuffer | None = None,
                     per_vertex: DeviceBuffer | None = None,
                     ) -> ReferenceRun:
    """Run the merge ``CountTriangles`` over arcs ``[lo, hi)``.

    The buffers are the preprocessed device structures, exactly as
    :class:`repro.core.preprocess.PreprocessResult` holds them: either
    the ``adj``/``keys`` columns (SoA) or the interleaved ``aos``
    buffer.  They are only read; ``result`` and ``per_vertex`` supply
    the addresses of the modelled result write and corner atomics.
    """
    hi = num_arcs if hi is None else hi
    if not 0 <= lo <= hi <= num_arcs:
        raise ReproError(f"arc range [{lo}, {hi}) outside [0, {num_arcs})")
    # edge[i] is content[stride * i]; edge[m + i] is key[stride * i + off].
    if aos is not None:
        content = key = aos
        stride, off = 2, 1
    else:
        assert adj is not None and keys is not None
        content, key = adj, keys
        stride, off = 1, 0

    report = KernelReport(device=device, launch=launch)
    report.sm_instruction_slots = np.zeros(device.num_sms, np.int64)
    mem = _ScalarMemory(device, launch, use_ro_cache, report)
    ws = mem.warp_size
    T = launch.total_threads(device)
    W = T // ws
    phase = [_LOAD] * W
    rounds = [0] * W
    counts = [0] * T
    corners = [0] * (len(per_vertex.data) if per_vertex is not None else 0)
    # Registers of the lanes mid-merge:
    # thread -> [u_it, u_end, v_it, v_end, a, b, u, v].
    regs: dict[int, list[int]] = {}
    ticks = 0

    while any(p != _DONE for p in phase):
        ticks += 1
        # -------- setup blocks of the warps between arcs -------------- #
        arcs: list[tuple[int, int]] = []            # (thread, arc)
        loading = [w for w in range(W) if phase[w] == _LOAD]
        for w in loading:
            for t in range(w * ws, (w + 1) * ws):
                i = lo + t + rounds[w] * T
                if i < hi:
                    arcs.append((t, i))
        us = mem.read(content, [(stride * i, t) for t, i in arcs])
        vs = mem.read(key, [(stride * i + off, t) for t, i in arcs])
        nodes = mem.read(node, [(x, t) for (t, _), u, v in zip(arcs, us, vs)
                                for x in (u, u + 1, v, v + 1)])
        heads = mem.read(content, [(stride * nodes[4 * j + h], t)
                                   for j, (t, _) in enumerate(arcs)
                                   for h in (0, 2)])
        for j, (t, _) in enumerate(arcs):
            nu, nu1, nv, nv1 = nodes[4 * j:4 * j + 4]
            if nu < nu1 and nv < nv1:
                regs[t] = [nu, nu1, nv, nv1, heads[2 * j], heads[2 * j + 1],
                           us[j], vs[j]]
        mem.account("setup", [t for t, _ in arcs], SETUP_INSTRUCTIONS)
        with_arc = {t // ws for t, _ in arcs}
        merging = {t // ws for t in regs}
        for w in loading:
            if w not in with_arc:
                phase[w] = _DONE
            elif w in merging:
                phase[w] = _MERGE
            else:
                rounds[w] += 1      # nothing to merge: next arc at once

        # -------- one merge iteration of every merging lane ----------- #
        live = sorted(regs)
        if not live:
            continue
        if variant == "preliminary":
            ab = mem.read(content, [(stride * regs[t][p], t)
                                    for t in live for p in (0, 2)])
            for j, t in enumerate(live):
                regs[t][4], regs[t][5] = ab[2 * j], ab[2 * j + 1]
        reloads: list[tuple[int, int]] = []         # (thread, register)
        matches: list[tuple[int, int]] = []         # (vertex, thread)
        for t in live:
            r = regs[t]
            if r[4] <= r[5]:
                r[0] += 1
                reloads.append((t, 0))
            if r[4] >= r[5]:
                r[2] += 1
                reloads.append((t, 2))
            if r[4] == r[5]:
                counts[t] += 1
                matches += [(r[6], t), (r[7], t), (r[4], t)]
        if per_vertex is not None and matches:
            mem.atomic_add(per_vertex, matches)
            for vertex, _ in matches:
                corners[vertex] += 1
        if variant == "final":
            vals = mem.read(content, [(stride * regs[t][p], t)
                                      for t, p in reloads])
            for (t, p), val in zip(reloads, vals):
                regs[t][4 + p // 2] = val
        mem.account("merge", live, MERGE_INSTRUCTIONS)
        for t in live:
            r = regs[t]
            if not (r[0] < r[1] and r[2] < r[3]):
                del regs[t]
        merging = {t // ws for t in regs}
        for w in {t // ws for t in live} - merging:
            phase[w] = _LOAD
            rounds[w] += 1

    if result is not None:
        mem.write(result, [(t, t) for t in range(T)])
    return ReferenceRun(
        thread_counts=np.array(counts, np.uint64),
        per_vertex=(np.array(corners, np.int64)
                    if per_vertex is not None else None),
        ticks=ticks, report=report,
        l1_evictions=mem.l1.evictions if mem.l1 is not None else 0,
        l2_evictions=mem.l2.evictions)

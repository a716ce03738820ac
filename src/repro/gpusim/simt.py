"""Warp-lockstep SIMT execution engine.

The engine executes kernels the way the hardware does at warp
granularity: all 32 lanes of a warp move through the instruction stream
together under an active mask; a warp leaves a divergent loop only when
*every* lane has left it (reconvergence), which is exactly the
effect the paper's Section III-D5 warp-size experiment manipulates.

Kernels are written *vectorized over warps*: per-lane state lives in
NumPy arrays, and one engine "tick" advances every live warp by one
warp-instruction-block (a merge-loop iteration, an edge-setup block,
...).  The engine is responsible for

* memory: index → device byte address → per-warp coalescing →
  per-SM read-only cache → device L2 → DRAM byte counting,
* occupancy bookkeeping (which SM owns which warp),
* instruction/step accounting per SM (feeds the timing model),
* divergence accounting (active lanes per executed warp-step).

The functional results are exact — the engine *computes* with the real
data while it counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import InvalidLaunchError, KernelFault
from repro.gpusim.cache import COUNTER_NAMES, CacheArray
from repro.gpusim.cachestream import open_cache_model
from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import DeviceBuffer
from repro.utils import boundary_mask, pow2_shift


_INT32_MAX = int(np.iinfo(np.int32).max)


@dataclass(frozen=True)
class LaunchConfig:
    """Kernel launch geometry — the paper's tuning knobs (Section III-C).

    The paper's grid search concludes 64 threads/block × 8 blocks/SM is
    (near-)optimal on all three devices; those are the defaults.

    ``simulated_warp_size`` implements the Section III-D5 trick: running
    with logically smaller warps (extra threads idle) so a cache miss
    stalls fewer lanes.  It must divide the hardware warp size.
    """

    threads_per_block: int = 64
    blocks_per_sm: int = 8
    simulated_warp_size: int | None = None

    def validate(self, device: DeviceSpec) -> None:
        """Check the geometry against ``device``'s limits.

        Every message names the device and the violated limit value, so
        fleet-level failures (many devices, one bad config) attribute
        without a debugger.
        """
        tpb, bps = self.threads_per_block, self.blocks_per_sm
        if tpb < 1 or tpb > device.max_threads_per_block:
            raise InvalidLaunchError(
                f"threads_per_block={tpb} outside "
                f"[1, {device.max_threads_per_block}] "
                f"(max_threads_per_block on {device.name})")
        if tpb % device.warp_size:
            raise InvalidLaunchError(
                f"threads_per_block={tpb} not a multiple of warp size "
                f"{device.warp_size} on {device.name}")
        if bps < 1 or bps > device.max_blocks_per_sm:
            raise InvalidLaunchError(
                f"blocks_per_sm={bps} outside [1, {device.max_blocks_per_sm}] "
                f"(max_blocks_per_sm on {device.name})")
        if tpb * bps > device.max_threads_per_sm:
            raise InvalidLaunchError(
                f"{tpb} threads/block × {bps} blocks/SM exceeds "
                f"{device.max_threads_per_sm} resident threads per SM "
                f"on {device.name}")
        if self.simulated_warp_size is not None:
            sws = self.simulated_warp_size
            if sws < 1 or device.warp_size % sws:
                raise InvalidLaunchError(
                    f"simulated_warp_size={sws} must divide warp size "
                    f"{device.warp_size} on {device.name}")

    def grid_blocks(self, device: DeviceSpec) -> int:
        return self.blocks_per_sm * device.num_sms

    def total_threads(self, device: DeviceSpec) -> int:
        return self.grid_blocks(device) * self.threads_per_block

    def resident_warps_per_sm(self, device: DeviceSpec) -> int:
        return self.threads_per_block * self.blocks_per_sm // device.warp_size


@dataclass
class KernelReport:
    """Everything the engine measured during one kernel execution.

    This is pure *work*; :mod:`repro.gpusim.timing` converts it to
    simulated time using the device constants.
    """

    device: DeviceSpec | None = None
    launch: LaunchConfig | None = None
    #: warp-steps executed, per instruction-block kind (e.g. "merge", "setup").
    warp_steps: dict = field(default_factory=dict)
    #: warp-instruction slots issued (warp-steps × instructions of the block).
    instruction_slots: int = 0
    #: per-SM instruction slots (imbalance shows up here).
    sm_instruction_slots: np.ndarray | None = None
    #: lane-level reads before coalescing.
    lane_reads: int = 0
    #: memory transactions after per-warp coalescing.
    transactions: int = 0
    #: L1 (read-only cache) hits/misses — Table II's "cache hit rate".
    l1_hits: int = 0
    l1_misses: int = 0
    #: L2 hits/misses (L2 probed on L1 misses, or directly if L1 bypassed).
    l2_hits: int = 0
    l2_misses: int = 0
    #: bytes served by L2 (hits and miss fills — the L2 bandwidth load).
    l2_bytes: int = 0
    #: bytes actually fetched from DRAM (L2 miss fills + uncached writes).
    dram_bytes: int = 0
    #: sum over executed warp-steps of active lanes (divergence numerator).
    active_lane_sum: int = 0
    #: executed warp-steps total (divergence denominator, × warp size).
    total_warp_steps: int = 0

    @property
    def l1_hit_rate(self) -> float:
        total = self.l1_hits + self.l1_misses
        return self.l1_hits / total if total else 0.0

    @property
    def simd_efficiency(self) -> float:
        """Mean fraction of lanes active per executed warp-step."""
        if not self.total_warp_steps:
            return 0.0
        return self.active_lane_sum / (self.total_warp_steps *
                                       self.launch_warp_size)

    @property
    def launch_warp_size(self) -> int:
        if self.launch is not None and self.launch.simulated_warp_size:
            return self.launch.simulated_warp_size
        return self.device.warp_size if self.device is not None else 32

    def counters(self) -> dict:
        """Every modeled counter as plain comparable values.

        This is the byte-identity surface the engine is held to against
        the scalar reference executor (:mod:`repro.gpusim.reference`)
        and the committed golden cells: two executions are equivalent
        iff their ``counters()`` dicts are equal.
        """
        sm_slots = (tuple(int(s) for s in self.sm_instruction_slots)
                    if self.sm_instruction_slots is not None else None)
        return {
            "warp_steps": dict(sorted(self.warp_steps.items())),
            "instruction_slots": int(self.instruction_slots),
            "sm_instruction_slots": sm_slots,
            "lane_reads": int(self.lane_reads),
            "transactions": int(self.transactions),
            "l1_hits": int(self.l1_hits),
            "l1_misses": int(self.l1_misses),
            "l2_hits": int(self.l2_hits),
            "l2_misses": int(self.l2_misses),
            "l2_bytes": int(self.l2_bytes),
            "dram_bytes": int(self.dram_bytes),
            "active_lane_sum": int(self.active_lane_sum),
            "total_warp_steps": int(self.total_warp_steps),
        }


class SimtEngine:
    """Executes one kernel launch on one simulated device.

    Parameters
    ----------
    device : DeviceSpec
    launch : LaunchConfig
    use_ro_cache : bool
        Section III-D4: when False (no ``const __restrict__`` on a
        Kepler/Maxwell part), global loads bypass the per-SM cache and go
        to L2 at sector granularity.  Fermi parts cache global loads in
        L1 regardless (`device.caches_global_loads_by_default`).
    sanitizer : repro.sanitize.Sanitizer, optional
        Dynamic checker layer (memcheck / initcheck / racecheck).  The
        hooks are pure observers — :class:`KernelReport` counters are
        bit-identical with or without one attached — and cost a single
        ``None`` check per access when absent.
    """

    def __init__(self, device: DeviceSpec, launch: LaunchConfig,
                 use_ro_cache: bool = True, sanitizer=None):
        launch.validate(device)
        self.device = device
        self.launch = launch
        self.sanitizer = sanitizer

        warp = launch.simulated_warp_size or device.warp_size
        self.warp_size = warp
        self.num_threads = launch.total_threads(device)
        self.num_warps = self.num_threads // warp
        if sanitizer is not None:
            sanitizer.bind_engine(self)

        # Warp → SM ownership: blocks are distributed round-robin over SMs
        # (how the hardware distributes a grid sized blocks_per_sm × SMs).
        tpb = launch.threads_per_block
        warps_per_block = tpb // warp
        block_of_warp = np.arange(self.num_warps) // warps_per_block
        self.warp_sm = (block_of_warp % device.num_sms).astype(np.int64)

        # The cache model (L1 → L2 → DRAM counters) runs in-process or
        # in a worker (:mod:`repro.gpusim.cachestream`); ``report``,
        # ``l1`` and ``l2`` are its sync points.
        self._cached = use_ro_cache or device.caches_global_loads_by_default
        self._model = open_cache_model(device, self._cached)
        self._apply = self._model.apply
        self._report = KernelReport(device=device, launch=launch)
        self._report.sm_instruction_slots = np.zeros(device.num_sms,
                                                     dtype=np.int64)
        # Packed-key geometry for the memory methods: one sorted int64
        # key (line, sm, warp) yields a read's transactions, and the
        # keys with the warp bits shifted out — (line, sm) — are what
        # the cache model dedupes per level.  ``_smw[w]`` packs a
        # warp's (sm, warp) low bits so key construction is one
        # gather + add.
        self._warp_bits = max(1, (self.num_warps - 1).bit_length())
        self._sm_bits = max(1, (device.num_sms - 1).bit_length())
        self._key_shift = self._warp_bits + self._sm_bits
        self._smw = ((self.warp_sm << self._warp_bits)
                     | np.arange(self.num_warps, dtype=np.int64))
        # Power-of-two strides become shifts in the fast path.
        self._ws_shift = pow2_shift(warp)
        self._line_shift = pow2_shift(device.line_bytes)
        self._sector_shift = pow2_shift(device.sector_bytes)
        # Largest possible packed key per buffer end address decides
        # whether the coalescing sort may run on int32 (half the
        # bandwidth of the int64 build; NumPy sorts scale with width).
        self._smw_max = int(self._smw.max()) if self.num_warps else 0

    # ------------------------------------------------------------------ #
    # sync points
    # ------------------------------------------------------------------ #

    def _sync(self, caches: bool = False) -> None:
        deltas = self._model.sync(caches)
        rep = self._report
        for name, delta in zip(COUNTER_NAMES, deltas):
            if delta:
                setattr(rep, name, getattr(rep, name) + delta)

    @property
    def report(self) -> KernelReport:
        """The counters of every call so far (waits for the cache model)."""
        self._sync()
        return self._report

    @property
    def l1(self) -> CacheArray | None:
        """The per-SM read-only caches as of the last call, or ``None``
        when loads bypass them.  A worker-side model is copied back, so
        the object is a snapshot."""
        if not self._cached:
            return None
        self._sync(caches=True)
        return self._model.l1

    @property
    def l2(self) -> CacheArray:
        """The device L2 as of the last call (a snapshot, like ``l1``)."""
        self._sync(caches=True)
        l2 = self._model.l2
        assert l2 is not None        # fetched by the sync
        return l2

    # ------------------------------------------------------------------ #
    # memory
    # ------------------------------------------------------------------ #

    def read_compacted(self, buf: DeviceBuffer, indices: np.ndarray,
                       thread_ids: np.ndarray) -> np.ndarray:
        """Lane-level gather ``buf.data[indices]`` with full memory modelling.

        ``thread_ids`` are the global lane ids issuing each read (same
        length as ``indices``).  Returns the gathered values.

        One call is one batch of concurrent requests: distinct
        (warp, line) pairs are the transactions; distinct (SM, line)
        pairs probe the per-SM cache, and duplicates across warps of
        one SM count as hits (MSHR merging); L1 misses are deduplicated
        across SMs before they probe L2.  Uncached loads (no L1) go to
        L2 at sector granularity.  Here one packed-key sort plus a
        boundary pass gives the transactions; their sorted keys go to
        the cache model (:meth:`CacheModel.apply
        <repro.gpusim.cache.CacheModel.apply>`), which may run in
        another process.  Every stage is order-independent over the
        request multiset, so the caller may present lanes in any
        order — which is what lets the driver keep its registers in
        worklist order.
        """
        indices = np.asarray(indices)
        n = len(indices)
        if n == 0:
            return buf.data[indices]
        if indices.dtype != np.int64:
            indices = indices.astype(np.int64)
        if self.sanitizer is not None:
            indices = self.sanitizer.on_access(buf, indices, thread_ids,
                                               "read")
        else:
            lo = int(indices.min())
            hi = int(indices.max())
            if lo < 0 or hi >= len(buf.data):
                raise KernelFault(
                    f"out-of-bounds read from {buf.name!r}: index range "
                    f"[{lo}, {hi}] outside [0, {len(buf.data)})")
        values = buf.data[indices]
        rep = self._report
        rep.lane_reads += n

        if n == 1:
            # Scalar fast path — skewed tails issue thousands of 1-lane
            # reads where the vector key build is pure dispatch overhead.
            rep.transactions += 1
            addr = buf.device_addr + int(indices[0]) * buf.itemsize
            if self._cached:
                tid = int(thread_ids[0])
                sm = int(self.warp_sm[tid // self.warp_size])
                key = (addr // self.device.line_bytes) << self._sm_bits | sm
            else:
                key = addr // self.device.sector_bytes
            self._apply(np.array([key], dtype=np.int64))
            return values

        warp_ids = self._warp_ids(thread_ids)
        # Packed (line, sm, warp) keys with the L1 on, (sector, warp)
        # keys without.
        if self._cached:
            gran, shift = self.device.line_bytes, self._line_shift
            low_bits, low, low_max = self._key_shift, self._smw[warp_ids], \
                self._smw_max
        else:
            gran, shift = self.device.sector_bytes, self._sector_shift
            low_bits, low, low_max = self._warp_bits, warp_ids, \
                self.num_warps
        key = self._granule_keys(buf, indices, gran, shift, low, low_bits)
        if n >= 1024 and ((((buf.device_addr + buf.nbytes) // gran)
                           << low_bits) + low_max < _INT32_MAX):
            # Bulk reads: the sort dominates, and it scales with key
            # width — one downcast pass buys int32 sorting.
            key = key.astype(np.int32)
        key.sort()
        # Unique keys are the transactions; without the warp bits they
        # are the sorted (line, sm) pairs / sectors the caches consume.
        trans = key[boundary_mask(key)]
        trans >>= self._warp_bits
        rep.transactions += len(trans)
        self._apply(trans)
        return values

    def write(self, buf: DeviceBuffer, indices: np.ndarray,
              values: np.ndarray, thread_ids: np.ndarray) -> None:
        """Lane-level scatter; write traffic counts as DRAM bytes
        (write-through, no write-allocate — adequate for the kernels here,
        which write each output cell once)."""
        indices = np.asarray(indices)
        if len(indices) == 0:
            return
        if self.sanitizer is not None:
            indices = self.sanitizer.on_access(buf, indices, thread_ids,
                                               "write")
        else:
            lo = int(indices.min())
            hi = int(indices.max())
            if lo < 0 or hi >= len(buf.data):
                raise KernelFault(
                    f"out-of-bounds write to {buf.name!r}: index range "
                    f"[{lo}, {hi}] outside [0, {len(buf.data)})")
        buf.data[indices] = values
        sectors = self._pair_count(buf, indices, self._warp_ids(thread_ids),
                                   self.device.sector_bytes)
        self._report.transactions += sectors
        self._report.dram_bytes += sectors * self.device.sector_bytes

    def atomic_add(self, buf: DeviceBuffer, indices: np.ndarray,
                   values: np.ndarray, thread_ids: np.ndarray) -> None:
        """Lane-level ``atomicAdd``.

        Functionally an unordered scatter-add; traffic-wise each touched
        sector is a read-modify-write through L2 (atomics resolve there
        on Fermi/Maxwell), so it costs two sector transfers per
        transaction plus serialization pressure that shows up as extra
        transactions when lanes collide on an address.
        """
        indices = np.asarray(indices)
        if len(indices) == 0:
            return
        if self.sanitizer is not None:
            indices = self.sanitizer.on_access(buf, indices, thread_ids,
                                               "atomic")
        else:
            lo = int(indices.min())
            hi = int(indices.max())
            if lo < 0 or hi >= len(buf.data):
                raise KernelFault(
                    f"out-of-bounds atomic on {buf.name!r}: index range "
                    f"[{lo}, {hi}] outside [0, {len(buf.data)})")
        np.add.at(buf.data, indices, values)
        # Colliding lanes serialize: transactions at address (not line)
        # granularity within the warp, sectors toward L2.
        warp_ids = self._warp_ids(thread_ids)
        words = self._pair_count(buf, indices, warp_ids, buf.itemsize)
        sectors = self._pair_count(buf, indices, warp_ids,
                                   self.device.sector_bytes)
        rep = self._report
        rep.transactions += words
        rep.l2_bytes += 2 * sectors * self.device.sector_bytes
        rep.dram_bytes += sectors * self.device.sector_bytes

    def _warp_ids(self, thread_ids: np.ndarray) -> np.ndarray:
        """Issuing warp of each lane."""
        warp_ids = np.asarray(thread_ids)
        if self._ws_shift is not None:
            return warp_ids >> self._ws_shift
        return warp_ids // self.warp_size

    @staticmethod
    def _granule_keys(buf: DeviceBuffer, indices: np.ndarray, gran: int,
                      shift: int | None, low: np.ndarray,
                      low_bits: int) -> np.ndarray:
        """Packed ``(addr // gran) << low_bits | low`` keys of one call's
        lanes, built in place (``shift`` is ``log2(gran)`` or ``None``).
        Addresses come from the device's bump allocator, so they stay
        below ``DeviceSpec.memory_bytes`` and the packing cannot
        overflow int64."""
        key = indices * buf.itemsize
        key += buf.device_addr
        if shift is not None:
            key >>= shift
        else:
            key //= gran
        key <<= low_bits
        key += low
        return key

    def _pair_count(self, buf: DeviceBuffer, indices: np.ndarray,
                    warp_ids: np.ndarray, gran: int) -> int:
        """Distinct (warp, address // gran) pairs of one call's lanes —
        its transactions at that granularity."""
        key = self._granule_keys(buf, indices.astype(np.int64, copy=False),
                                 gran, pow2_shift(gran), warp_ids,
                                 self._warp_bits)
        key.sort()
        return int(np.count_nonzero(boundary_mask(key)))

    # ------------------------------------------------------------------ #
    # execution accounting
    # ------------------------------------------------------------------ #

    def end_step_warps(self, kind: str, warp_ids: np.ndarray,
                       lane_counts: np.ndarray, instructions: int) -> None:
        """Account one instruction-block executed by ``warp_ids``.

        ``warp_ids`` must be *distinct* warps; ``lane_counts`` their
        active-lane counts (the lanes that were live in the block).
        ``instructions`` is the warp-instruction count of the block —
        every listed warp issues that many instructions regardless of
        how many of its lanes are active (that's SIMT divergence).
        Callers that only know the live lanes derive both with
        ``np.bincount(lanes >> warp_shift)``.
        """
        n_warps = len(warp_ids)
        if n_warps == 0:
            return
        rep = self._report
        rep.warp_steps[kind] = rep.warp_steps.get(kind, 0) + n_warps
        rep.instruction_slots += n_warps * instructions
        rep.total_warp_steps += n_warps
        rep.active_lane_sum += int(lane_counts.sum())
        np.add.at(rep.sm_instruction_slots, self.warp_sm[warp_ids], instructions)
        if self.sanitizer is not None:
            self.sanitizer.on_step_end(kind)

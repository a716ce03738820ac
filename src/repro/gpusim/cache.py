"""Vectorized set-associative LRU cache model.

One :class:`CacheArray` holds *many independent cache instances* in a
single set of NumPy arrays — e.g. the per-SM read-only caches of a whole
GPU (16 instances on the GTX 980), or a single device-wide L2.  The SIMT
engine probes it once per memory request batch (one
:meth:`~repro.gpusim.simt.SimtEngine.read_compacted` call) with the
batch's distinct (set, line) pairs; probe and LRU update are fully
vectorized.

Semantics within one batch:

* duplicate (instance, line) requests collapse to one probe; the engine
  counts the extras as hits — this mirrors MSHR merging on real
  hardware, where concurrent misses to one line produce a single fill;
* every hit is resolved against the state *before* the batch and
  becomes most recently used;
* distinct missing lines that collide in one set are all inserted, in
  ascending line order, each taking the set's least recently used way
  (ties to the lowest way); if more collide than there are ways, the
  earliest inserted are immediately evicted — exactly what a sequential
  processing order would do.

:mod:`repro.gpusim.reference` restates these rules as a scalar
per-request model; the tests hold the two equal.

The hit/miss counters here are the source of the Table II "cache hit
rate" column; the miss count × line size is the DRAM traffic behind the
"bandwidth" column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ReproError
from repro.utils import boundary_mask, pow2_shift

if TYPE_CHECKING:
    from repro.gpusim.device import DeviceSpec


@dataclass
class CacheStats:
    """Running hit/miss counters (requests, after coalescing)."""

    hits: int = 0
    misses: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hit fraction in [0, 1]; 0 when no requests were made."""
        total = self.requests
        return self.hits / total if total else 0.0

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses


def _num_sets(capacity_bytes: int, line_bytes: int, ways: int) -> int:
    sets = capacity_bytes // (line_bytes * ways)
    if sets < 1:
        raise ReproError(
            f"cache too small: {capacity_bytes} B with {ways}-way × "
            f"{line_bytes} B lines leaves no sets")
    return sets


class CacheArray:
    """``num_instances`` independent set-associative LRU caches.

    Parameters
    ----------
    num_instances : int
        How many physical caches share this state (per-SM caches fold
        into one object; the instance id is part of the set index).
    capacity_bytes : int
        Capacity of *each* instance.
    line_bytes : int
        Cache line (fill granularity).
    ways : int
        Associativity.  ``capacity = sets × ways × line``.
    """

    def __init__(self, num_instances: int, capacity_bytes: int,
                 line_bytes: int, ways: int):
        if num_instances < 1:
            raise ReproError(f"need >= 1 cache instance, got {num_instances}")
        sets = _num_sets(capacity_bytes, line_bytes, ways)
        self.num_instances = num_instances
        self.line_bytes = line_bytes
        self.ways = ways
        self.sets = sets
        total_sets = num_instances * sets
        # tags[s, w] = line id resident in way w of (flattened) set s.
        # Stored narrow (int32) until a line id above 2^31-1 shows up —
        # real devices top out around 2^27 lines, so in practice the
        # probes' dominant (U, ways) tag gather moves half the bytes;
        # :meth:`_widen` upgrades to int64 on demand (synthetic
        # addresses in adversarial tests) and every insertion site
        # checks its batch maximum first, so no value is ever truncated.
        self._tags = np.full((total_sets, ways), -1, dtype=np.int32)
        # stamp[s, w] = last-touch timestamp (monotone counter) for LRU.
        self._stamp = np.zeros((total_sets, ways), dtype=np.int64)
        self._clock = 1
        # NumPy's stable sort is radix only for <= 16-bit integers (it
        # falls back to timsort above that, ~10x slower on random keys);
        # every real device geometry fits, so the fast probe narrows its
        # grouping keys when it can.
        self._narrow_sets = total_sets <= np.iinfo(np.uint16).max
        # Lazily grown ``arange(n) * ways`` base for flat (row, way)
        # indexing in the fast probe (saves an alloc + multiply per call).
        self._rowbase = np.arange(64, dtype=np.int64) * ways
        self.stats = CacheStats()

    def _flat_base(self, n: int) -> np.ndarray:
        if len(self._rowbase) < n:
            size = max(n, 2 * len(self._rowbase))
            self._rowbase = np.arange(size, dtype=np.int64) * self.ways
        return self._rowbase[:n]

    _INT32_MAX = int(np.iinfo(np.int32).max)

    def _widen(self) -> None:
        """Switch tag storage to int64 (a line id exceeded int32)."""
        self._tags = self._tags.astype(np.int64)

    def _ensure_tag_range(self, max_line: int) -> None:
        if self._tags.dtype == np.int32 and max_line > self._INT32_MAX:
            self._widen()

    # ------------------------------------------------------------------ #

    def reset(self) -> None:
        """Invalidate all lines and zero the counters."""
        self._tags.fill(-1)
        self._stamp.fill(0)
        self._clock = 1
        self.stats = CacheStats()

    def probe_unique(self, u_set: np.ndarray, u_line: np.ndarray,
                     extra_hits: int = 0) -> np.ndarray:
        """Probe/update for a batch already deduplicated to distinct
        (set, line) pairs; returns the per-pair hit mask.

        ``u_set`` is the flattened set index (``instance * sets + line %
        sets``).  Semantics are those of the module docstring, and are
        *order-independent* as long as, within each set, distinct lines
        appear in ascending order (a sort by line satisfies this) —
        victim choice and stamps depend only on that within-set order.
        The implementation is tiered by batch size:

        * a one-pair probe (ubiquitous in skewed tails) runs on Python
          lists of ``ways`` elements;
        * up to six pairs run the same phases on Python scalars;
        * larger batches find the hit way with one ``argmax`` + flat
          gather, and compute the LRU ordering of the miss path once per
          *affected set* — bounded by cache geometry — instead of once
          per missing request; the set-grouping sort runs on ``uint16``
          keys (NumPy's stable sort is a radix sort only at <= 16 bits).

        ``extra_hits`` is the number of duplicate requests that were
        collapsed away (MSHR merges); they count as hits in the stats.
        """
        n_uniq = len(u_set)
        if n_uniq == 1:
            # Scalar path: a one-pair probe (ubiquitous in skewed tails)
            # runs on Python lists of ``ways`` elements — identical
            # semantics, a fraction of the vector-dispatch cost.
            s = int(u_set[0])
            line = int(u_line[0])
            self._ensure_tag_range(line)
            now = self._clock
            self._clock += 2
            row = self._tags[s].tolist()
            try:
                w = row.index(line)
            except ValueError:
                stamps = self._stamp[s].tolist()
                w = stamps.index(min(stamps))     # first LRU way = argmin
                self._tags[s, w] = line
                self._stamp[s, w] = now + 1
                self.stats.hits += extra_hits
                self.stats.misses += 1
                return np.zeros(1, dtype=bool)
            self._stamp[s, w] = now
            self.stats.hits += 1 + extra_hits
            return np.ones(1, dtype=bool)
        if n_uniq <= 6:
            # Small-batch path: same phase structure as the vector code
            # below (all hits resolved against the pre-probe state, then
            # misses filled in stable set order), but on Python scalars —
            # a handful of list ops beats ~25 vector dispatches.
            if not n_uniq:
                self.stats.hits += extra_hits
                return np.zeros(0, dtype=bool)
            self._ensure_tag_range(int(u_line.max()))
            now = self._clock
            self._clock += n_uniq + 1
            sets = u_set.tolist()
            lines = u_line.tolist()
            hits = []
            for s, ln in zip(sets, lines):
                row = self._tags[s].tolist()
                try:
                    w = row.index(ln)
                except ValueError:
                    hits.append(False)
                    continue
                hits.append(True)
                self._stamp[s, w] = now
            n_hit = 0
            if True in hits:
                n_hit = hits.count(True)
            if n_hit < n_uniq:
                miss = [(s, ln) for s, h, ln in zip(sets, hits, lines)
                        if not h]
                miss.sort(key=lambda p: p[0])     # stable, like the vector
                ways = self.ways
                i, k = 0, len(miss)
                while i < k:
                    s = miss[i][0]
                    j = i + 1
                    while j < k and miss[j][0] == s:
                        j += 1
                    stamps = self._stamp[s].tolist()
                    lru = sorted(range(ways), key=stamps.__getitem__)
                    for r in range(j - i):
                        w = lru[r % ways]
                        self._tags[s, w] = miss[i + r][1]
                        self._stamp[s, w] = now + 1 + r
                    i = j
            self.stats.hits += n_hit + extra_hits
            self.stats.misses += n_uniq - n_hit
            return np.array(hits, dtype=bool)
        self._ensure_tag_range(int(u_line.max()))
        gathered = self._tags[u_set]                       # (U, ways)
        if gathered.dtype == np.int32 and u_line.dtype != np.int32:
            match = gathered == u_line.astype(np.int32)[:, None]
        else:
            match = gathered == u_line[:, None]
        way = match.argmax(axis=1)                # first matching way (or 0)
        hit = match.reshape(-1)[self._flat_base(n_uniq) + way]
        n_hit = int(np.count_nonzero(hit))

        now = self._clock
        self._clock += n_uniq + 1

        if n_hit:
            self._stamp[u_set[hit], way[hit]] = now

        if n_hit < n_uniq:
            if n_hit:
                miss = ~hit
                miss_sets = u_set[miss]
                miss_lines = u_line[miss]
            else:
                miss_sets = u_set
                miss_lines = u_line
            # Group same-set misses: within one batch each gets its own
            # victim way, chosen in LRU order.
            if self._narrow_sets:
                order = np.argsort(miss_sets.astype(np.uint16),
                                   kind="stable")
            else:
                order = np.argsort(miss_sets, kind="stable")
            ms = miss_sets[order]
            ml = miss_lines[order]
            k = len(ms)
            group_start = boundary_mask(ms)
            n_groups = int(np.count_nonzero(group_start))
            if n_groups == k:
                # Every miss in its own set (the common case outside a
                # thrash storm): every rank is 0, victim = plain LRU way.
                victim_way = np.argmin(self._stamp[ms], axis=1)
                flat = ms * self.ways + victim_way
                self._tags.reshape(-1)[flat] = ml
                self._stamp.reshape(-1)[flat] = now + 1
            else:
                starts = np.flatnonzero(group_start)
                gid = np.cumsum(group_start)
                gid -= 1
                # rank of each miss within its set group (0, 1, 2, ...)
                rank = np.arange(k)
                rank -= starts[gid]
                # LRU order per *affected set* (hits above already
                # stamped ``now``, so they rank most recent).
                lru = np.argsort(self._stamp[ms[starts]], axis=1,
                                 kind="stable")           # (G, ways)
                wrapped = (rank & (self.ways - 1) if not (self.ways &
                           (self.ways - 1)) else rank % self.ways)
                victim_way = lru.reshape(-1)[gid * self.ways + wrapped]
                flat = ms * self.ways + victim_way
                self._tags.reshape(-1)[flat] = ml
                rank += now + 1
                self._stamp.reshape(-1)[flat] = rank

        self.stats.hits += n_hit + extra_hits
        self.stats.misses += n_uniq - n_hit
        return hit

    # ------------------------------------------------------------------ #

    def resident_lines(self) -> int:
        """Number of valid lines currently cached (all instances)."""
        return int((self._tags >= 0).sum())

    def __repr__(self) -> str:
        return (f"CacheArray(instances={self.num_instances}, sets={self.sets}, "
                f"ways={self.ways}, line={self.line_bytes}B)")


#: The six counters :meth:`CacheModel.apply` advances, in the order
#: :meth:`CacheModel.sync` returns them (``KernelReport`` field names).
COUNTER_NAMES = ("l1_hits", "l1_misses", "l2_hits", "l2_misses",
                 "l2_bytes", "dram_bytes")


def cache_geometry(device: DeviceSpec, use_l1: bool) -> tuple[int, ...]:
    """:class:`CacheModel` arguments for ``device`` (a
    :class:`~repro.gpusim.device.DeviceSpec`), as plain ints; raises
    :class:`ReproError` here, not where the model is built, if a cache
    level has no sets."""
    if use_l1:
        _num_sets(device.l1_bytes, device.line_bytes, device.l1_ways)
    _num_sets(device.l2_bytes, device.line_bytes, device.l2_ways)
    return (device.num_sms, device.l1_bytes, device.l1_ways,
            device.l2_bytes, device.l2_ways, device.line_bytes,
            device.sector_bytes, int(use_l1))


class CacheModel:
    """One engine's cache timing model: per-SM L1 → device L2 → DRAM.

    The engine reduces every read call to its *transaction keys* and
    hands them to :meth:`apply`; everything after coalescing happens
    here.  With the L1 on, a key is ``line << sm_bits | sm``, one per
    (warp, line) transaction, sorted: distinct (SM, line) pairs probe
    the L1, duplicates across warps of one SM count as hits (MSHR
    merging), and the lines that missed are deduplicated across SMs
    before they probe the L2.  Without an L1 a key is a sector id, one
    per (warp, sector) transaction, sorted: sectors of one line collapse
    to one L2 probe.  The model feeds only counters, never the kernel's
    values, so it may run in another process
    (:mod:`repro.gpusim.cachestream`), built there from the plain ints
    of :func:`cache_geometry`.

    Counters accumulate until :meth:`sync` hands them over (as deltas,
    in :data:`COUNTER_NAMES` order) and zeroes them.
    """

    def __init__(self, num_sms: int, l1_bytes: int, l1_ways: int,
                 l2_bytes: int, l2_ways: int, line_bytes: int,
                 sector_bytes: int, use_l1: bool):
        self.l1 = (CacheArray(num_sms, l1_bytes, line_bytes, l1_ways)
                   if use_l1 else None)
        self.l2 = CacheArray(1, l2_bytes, line_bytes, l2_ways)
        self.line_bytes = line_bytes
        self.sector_bytes = sector_bytes
        self._sm_bits = max(1, (num_sms - 1).bit_length())
        self._sm_mask = (1 << self._sm_bits) - 1
        self._l1_set_shift = (pow2_shift(self.l1.sets)
                              if self.l1 is not None else None)
        self._l2_set_shift = pow2_shift(self.l2.sets)
        line_shift = pow2_shift(line_bytes)
        sector_shift = pow2_shift(sector_bytes)
        self._sector_to_line = (line_shift - sector_shift
                                if line_shift is not None
                                and sector_shift is not None else None)
        self._counts = [0] * len(COUNTER_NAMES)

    def _l2_probe(self, lines: np.ndarray, requests: int) -> int:
        """Probe the L2 with ``requests`` line requests whose line ids,
        sorted, are ``lines``; returns the hit count."""
        uniq = lines[boundary_mask(lines)] if len(lines) > 1 else lines
        l2 = self.l2
        l2_set = (uniq & (l2.sets - 1) if self._l2_set_shift is not None
                  else uniq % l2.sets)
        extra = requests - len(uniq)
        hit = l2.probe_unique(l2_set, uniq, extra_hits=extra)
        return extra + int(np.count_nonzero(hit))

    def apply(self, keys: np.ndarray) -> None:
        """Run one read call's sorted transaction keys through the caches."""
        n_trans = len(keys)
        if not n_trans:
            return
        c = self._counts
        l1 = self.l1
        if l1 is not None:
            lb = self.line_bytes
            upair = keys[boundary_mask(keys)] if n_trans > 1 else keys
            u_line = upair >> self._sm_bits
            if self._l1_set_shift is not None:
                l1_set = ((u_line & (l1.sets - 1))
                          + ((upair & self._sm_mask) << self._l1_set_shift))
            else:
                l1_set = u_line % l1.sets + (upair & self._sm_mask) * l1.sets
            extra = n_trans - len(u_line)
            hit = l1.probe_unique(l1_set, u_line, extra_hits=extra)
            n_hit = extra + int(np.count_nonzero(hit))
            n_miss = n_trans - n_hit
            c[0] += n_hit
            c[1] += n_miss
            if n_miss:
                # Distinct SMs missing one line fill it once; the
                # extras count as L2 hits.  Miss lines stay line-sorted.
                hit2 = self._l2_probe(u_line[~hit], n_miss)
                c[2] += hit2
                c[3] += n_miss - hit2
                c[4] += n_miss * lb
                c[5] += (n_miss - hit2) * lb
        else:
            # Uncached global loads: sector-granular, straight to L2;
            # sector → line keeps the keys sorted.
            sb = self.sector_bytes
            if self._sector_to_line is not None:
                lines = keys >> self._sector_to_line
            else:
                lines = keys * sb // self.line_bytes
            hit2 = self._l2_probe(lines, n_trans)
            c[2] += hit2
            c[3] += n_trans - hit2
            c[4] += n_trans * sb
            c[5] += (n_trans - hit2) * sb

    def sync(self, caches: bool = False) -> tuple[tuple[int, ...], float, int]:
        """Hand over the counter deltas since the last sync.

        Returns ``(deltas, busy_seconds, calls)``; in-process there is
        no separate busy time to report, and :attr:`l1`/:attr:`l2` are
        always current, so ``caches`` has nothing to fetch.
        """
        deltas = tuple(self._counts)
        self._counts = [0] * len(COUNTER_NAMES)
        return deltas, 0.0, 0

"""Replica groups: pin hot preprocessed graphs on k devices.

TRUST-style scaling ("Triangle Counting Reloaded on GPUs", PAPERS.md)
comes from replicated/partitioned placement, not from one fast card.
The serving analogue: a graph that is *hot* — queried at least
``hot_threshold`` times — gets its preprocessed cache entry copied to
up to ``k`` devices and **pinned** there (exempt from LRU eviction), so
load balancing can spread its queries across replicas instead of
funnelling every hit to the one device that happens to hold the entry.

Replication is charged honestly: each copy occupies cache budget on the
destination (and therefore shrinks the capacity its jobs may use), and
the destination device is busy for the peer-copy window (entry bytes
over the PCIe link, the same transfer model
:meth:`~repro.gpusim.memory.DeviceMemory.h2d_ms` uses).

Holder state lives in the caches themselves (an entry is a replica iff
it is resident and pinned), so a gang-scheduled distributed job that
clears a device's cache cannot desynchronize the manager — heat
tracking survives and the entry is re-replicated on the next completion.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serve.fleet import Fleet, FleetDevice


@dataclass(frozen=True)
class ResidentEntry:
    """What a replica copy needs to materialize a cache entry."""

    nbytes: int
    triangles: int
    hit_service_ms: float


class ReplicaManager:
    """Tracks per-key heat and maintains the pinned replica set."""

    #: Copy schedules (mirrors :data:`repro.core.multi_gpu.EXCHANGE_MODES`).
    EXCHANGE_MODES = ("broadcast", "ring")

    def __init__(self, k: int = 2, hot_threshold: int = 3,
                 exchange: str = "broadcast"):
        if exchange not in self.EXCHANGE_MODES:
            from repro.errors import ReproError

            raise ReproError(f"exchange must be one of "
                             f"{self.EXCHANGE_MODES}, got {exchange!r}")
        self.k = max(int(k), 1)
        self.hot_threshold = max(int(hot_threshold), 1)
        self.exchange = exchange
        self._requests: dict[tuple, int] = {}
        #: replica copies installed (the ``==SERVE==`` sheet reports it).
        self.replications = 0

    # ------------------------------------------------------------------ #

    def note_requests(self, key: tuple) -> None:
        self._requests[key] = self._requests.get(key, 0) + 1

    def heat(self, key: tuple) -> int:
        return self._requests.get(key, 0)

    def is_hot(self, key: tuple) -> bool:
        return self.heat(key) >= self.hot_threshold

    @staticmethod
    def holders(key: tuple, fleet: Fleet) -> list[FleetDevice]:
        return [d for d in fleet if key in d.cache]

    # ------------------------------------------------------------------ #

    def maybe_replicate(self, key: tuple, entry: ResidentEntry,
                        fleet: Fleet, t_ms: float) -> int:
        """Bring a hot key up to ``k`` pinned replicas.

        Called after a completed exact run at simulated time ``t_ms``.
        Destinations are the healthy devices with the least outstanding
        work; each pays the peer-copy busy window and charges the entry
        against its cache budget (a budget rejection skips that device).
        Returns the number of copies installed.

        In ``"broadcast"`` mode (default) every copy sources from the
        one holder and may start at ``t_ms`` — the one-source scheme.
        In ``"ring"`` mode each new replica sources from the *previous*
        one (store-and-forward): copy ``i+1`` cannot start before copy
        ``i``'s bytes have arrived, but the source link is never asked
        to feed two destinations at once — the fleet analogue of
        :meth:`repro.gpusim.multigpu.MultiGpuContext.ring_broadcast`.
        """
        if self.k <= 1 or not self.is_hot(key):
            return 0
        holders = self.holders(key, fleet)
        for d in holders:                     # heat reached: pin residents
            d.cache.pin(key)
        have = {d.index for d in holders}
        need = self.k - len(holders)
        if need <= 0:
            return 0
        candidates = sorted(
            (d for d in fleet.healthy(t_ms) if d.index not in have),
            key=lambda d: (d.outstanding_ms(t_ms), d.index))
        installed = 0
        prev_arrival = t_ms        # ring mode: when the upstream copy lands
        for dev in candidates[:need]:
            dev.cache.insert(key, entry.nbytes, triangles=entry.triangles,
                             hit_service_ms=entry.hit_service_ms,
                             now_ms=t_ms)
            if key not in dev.cache:          # budget rejected the copy
                continue
            dev.cache.pin(key)
            copy_ms = entry.nbytes / (dev.spec.pcie_gbs * 1e9) * 1e3
            earliest = prev_arrival if self.exchange == "ring" else t_ms
            start = max(dev.busy_until_ms, earliest)
            dev.busy_until_ms = start + copy_ms
            dev.busy_ms += copy_ms
            prev_arrival = start + copy_ms
            installed += 1
            self.replications += 1
        return installed

    # ------------------------------------------------------------------ #

    def pick_device(self, key: tuple, eligible: list[FleetDevice],
                    t_ms: float) -> FleetDevice:
        """Least-outstanding-work balancing with replica affinity:
        prefer devices already holding the key's entry (a cache hit),
        then the seed scheduler's ordering (fastest card, most free
        memory, stable index)."""
        holders = [d for d in eligible if key in d.cache]
        pool = holders or eligible
        return min(pool, key=lambda d: (d.outstanding_ms(t_ms),
                                        -d.throughput_proxy,
                                        -d.free_bytes, d.index))

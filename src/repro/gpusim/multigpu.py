"""Multi-device contexts (paper Section III-E).

The paper's multi-GPU scheme is deliberately simple: preprocess on one
device, copy the preprocessed arrays to the others, and let each device
count its slice of the edges.  This module supplies the device-set
bookkeeping: one :class:`~repro.gpusim.memory.DeviceMemory` per card and
host-mediated broadcast copies with PCIe timing.  The counting logic
itself lives in :mod:`repro.core.multi_gpu`.

Two exchange schedules are modeled:

* :meth:`MultiGpuContext.broadcast` — the paper's one-source scheme:
  device 0 pushes every destination its own host-mediated copy (two
  PCIe traversals per destination).  This is the default and the one
  the reported serial totals describe.
* :meth:`MultiGpuContext.ring_broadcast` — a chunked store-and-forward
  ring: card ``d`` receives from card ``d-1`` over a dedicated link
  stream as a direct peer copy (one PCIe traversal) and forwards each
  chunk as soon as it has arrived.  With ``N`` chunks the last of ``k``
  cards holds the data after ``(N + k - 2)`` chunk-hops — a makespan of
  ``B * (N + k - 2) / N`` against the broadcast's ``2B``, so the ring
  wins whenever ``N >= k - 1``.  Buffers are allocated in the same
  per-device order as ``broadcast``, so device addresses (and hence
  kernel cache counters) are identical between the two schedules.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DeviceError
from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import DeviceBuffer, DeviceMemory
from repro.gpusim.timing import Timeline


class MultiGpuContext:
    """A set of identical simulated devices.

    Parameters
    ----------
    device : DeviceSpec
        Card model (the paper uses four Tesla C2050s).
    count : int
        Number of cards.
    """

    def __init__(self, device: DeviceSpec, count: int):
        if count < 1:
            raise DeviceError(f"need at least one device, got {count}")
        self.device = device
        self.count = count
        self.memories = [DeviceMemory(device) for _ in range(count)]

    @property
    def primary(self) -> DeviceMemory:
        """The device that runs the preprocessing phase."""
        return self.memories[0]

    def broadcast(self, buf: DeviceBuffer, timeline: Timeline | None = None
                  ) -> list[DeviceBuffer]:
        """Copy a primary-device buffer to every other device.

        Returns the per-device buffer list (index 0 is the original).
        Transfers are host-mediated (device → host → each device), the
        conservative path the paper's simple scheme implies; both hops
        ride the PCIe link, serialized per destination.

        Device ``i``'s copy is stamped on stream ``i`` of ``timeline``:
        each destination has its own PCIe lane in the model, so the
        copies may overlap there while the reported serial totals stay
        unchanged.
        """
        out = [buf]
        per_copy_ms = 2.0 * buf.nbytes / (self.device.pcie_gbs * 1e9) * 1e3
        for i, mem in enumerate(self.memories[1:], start=1):
            out.append(mem.alloc(f"{buf.name}@dev{i}", buf.data))
            if timeline is not None:
                timeline.add_on(f"broadcast {buf.name} -> dev{i}",
                                per_copy_ms, phase="copy", stream=i)
        return out

    def ring_broadcast(self, buf: DeviceBuffer,
                       timeline: Timeline | None = None,
                       chunks: int = 4) -> list[DeviceBuffer]:
        """Copy a primary-device buffer to every other device over a
        store-and-forward ring (see the module docstring).

        The buffer is split into ``chunks`` near-equal slices; the link
        into device ``d`` lives on stream ``d``, and chunk ``c`` on link
        ``d`` waits (a :meth:`~repro.gpusim.timing.Timeline.wait_for`
        edge) for chunk ``c`` to arrive at device ``d-1`` — each card
        forwards as soon as it holds the data.  Each hop is a direct
        peer copy: one PCIe traversal, against the host-mediated
        broadcast's two.  Serial totals therefore record
        ``(k-1) * nbytes`` worth of link time instead of the broadcast
        protocol's ``2 * (k-1) * nbytes`` — callers wanting the paper's
        reported numbers keep :meth:`broadcast`.

        Returns the per-device buffer list (index 0 is the original).
        """
        if chunks < 1:
            raise DeviceError(f"ring exchange needs >= 1 chunk, got {chunks}")
        # Same allocation order as broadcast(): destination buffers
        # device-by-device, before any transfer is stamped.
        out = [buf]
        for i, mem in enumerate(self.memories[1:], start=1):
            out.append(mem.alloc(f"{buf.name}@dev{i}", buf.data))
        if timeline is None or self.count == 1:
            return out
        bounds = np.linspace(0, buf.nbytes, chunks + 1).astype(np.int64)
        for c in range(chunks):
            chunk_bytes = int(bounds[c + 1] - bounds[c])
            if chunk_bytes == 0:
                continue
            hop_ms = chunk_bytes / (self.device.pcie_gbs * 1e9) * 1e3
            for d in range(1, self.count):
                name = (f"ring {buf.name} chunk {c + 1}/{chunks} "
                        f"dev{d - 1}->dev{d}")
                if d > 1:
                    # Chunk c cannot leave card d-1 before it arrived
                    # there — the event just issued on link d-1.
                    timeline.wait_for(d, d - 1)
                timeline.add_on(name, hop_ms, phase="copy", stream=d)
        return out

    def partition_ranges(self, num_items: int) -> list[tuple[int, int]]:
        """Contiguous near-equal ``[lo, hi)`` item ranges, one per device."""
        bounds = np.linspace(0, num_items, self.count + 1).astype(np.int64)
        return [(int(bounds[i]), int(bounds[i + 1])) for i in range(self.count)]

    def free_all(self) -> None:
        for mem in self.memories:
            mem.free_all()

"""Simulated device global memory: allocation, capacity, transfers.

The allocator gives every buffer a *device address* in a flat address
space — the SIMT engine turns array indices into byte addresses with
these bases, so cache sets and coalescing behave as they would on real
hardware (two arrays never alias, allocations are 256-byte aligned like
``cudaMalloc``'s).

Capacity accounting is what drives the paper's Section III-D6 behaviour:
when the preprocessing working set exceeds ``DeviceSpec.memory_bytes``
the pipeline catches :class:`OutOfDeviceMemoryError` and falls back to
CPU preprocessing (the ``†`` rows of Table I).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import (DoubleFreeError, ForeignFreeError,
                          OutOfDeviceMemoryError)
from repro.gpusim.device import DeviceSpec

#: cudaMalloc alignment.
_ALIGN = 256


def aligned_nbytes(nbytes: int) -> int:
    """Bytes an allocation of ``nbytes`` occupies after ``cudaMalloc``-style
    alignment (minimum one aligned unit, like a zero-byte ``cudaMalloc``)."""
    return -(-max(int(nbytes), 1) // _ALIGN) * _ALIGN


@dataclass
class DeviceBuffer:
    """A device allocation: host-side backing array + device address.

    The backing ndarray holds the *functional* contents (the simulator
    computes real results); ``device_addr`` is the simulated placement
    used for cache/coalescing address math.  ``alloc_bytes`` is the
    aligned size the allocator charged (0 for raw views built outside the
    allocator, e.g. reinterpretations of an existing allocation); a
    *reservation* (see :meth:`DeviceMemory.try_alloc`) has a zero-length
    backing array but a non-zero ``alloc_bytes``.
    """

    name: str
    data: np.ndarray
    device_addr: int
    freed: bool = False
    alloc_bytes: int = 0

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    @property
    def itemsize(self) -> int:
        return self.data.itemsize


class DeviceMemory:
    """Bump allocator with explicit free and peak tracking.

    A bump allocator (freed space is only reclaimed when the *top*
    allocation is freed) matches how the pipeline uses memory — strictly
    phase-ordered allocate/free — while keeping peak accounting exact.
    """

    def __init__(self, spec: DeviceSpec):
        self.spec = spec
        self._top = 0
        self._live: dict[int, DeviceBuffer] = {}
        self.peak_bytes = 0
        self.total_allocated_bytes = 0
        #: Optional :class:`repro.sanitize.Sanitizer` observing
        #: allocation events; ``None`` keeps the paths hook-free.
        self.sanitizer = None

    # ------------------------------------------------------------------ #

    @property
    def used_bytes(self) -> int:
        return self._top

    @property
    def free_bytes(self) -> int:
        return self.spec.memory_bytes - self._top

    def alloc(self, name: str, data: np.ndarray) -> DeviceBuffer:
        """Place a copy of ``data`` on the device.

        Raises
        ------
        OutOfDeviceMemoryError
            If the aligned size does not fit in the remaining capacity.
        """
        data = np.ascontiguousarray(data)
        size = aligned_nbytes(data.nbytes)
        if size > self.free_bytes:
            raise OutOfDeviceMemoryError(requested=size, available=self.free_bytes)
        return self._place(name, data.copy(), size)

    def try_alloc(self, name: str, data) -> DeviceBuffer | None:
        """Non-raising :meth:`alloc`: ``None`` when the request does not fit.

        ``data`` may be an ndarray (placed exactly like :meth:`alloc`) or
        an ``int`` byte count — a pure capacity *reservation* with an
        empty backing array.  The reservation form is what admission
        control uses to probe whether a job's working set fits without
        exception-driven control flow and without materializing the
        working set on the host; free the returned buffer to release it.
        """
        if isinstance(data, (int, np.integer)):
            size = aligned_nbytes(data)
            if size > self.free_bytes:
                return None
            return self._place(name, np.empty(0, np.uint8), size)
        data = np.ascontiguousarray(data)
        size = aligned_nbytes(data.nbytes)
        if size > self.free_bytes:
            return None
        return self._place(name, data.copy(), size)

    def _place(self, name: str, payload: np.ndarray, size: int,
               initialized: bool = True) -> DeviceBuffer:
        buf = DeviceBuffer(name=name, data=payload, device_addr=self._top,
                           alloc_bytes=size)
        self._top += size
        self._live[buf.device_addr] = buf
        self.total_allocated_bytes += size
        self.peak_bytes = max(self.peak_bytes, self._top)
        if self.sanitizer is not None:
            self.sanitizer.on_alloc(buf, initialized=initialized)
        return buf

    def alloc_empty(self, name: str, shape, dtype) -> DeviceBuffer:
        """Allocate an uninitialized buffer (``cudaMalloc`` without copy).

        The sanitizer's initcheck treats the whole region as invalid
        until a device ``write``/``atomic_add`` covers it.
        """
        data = np.empty(shape, dtype=dtype)
        size = aligned_nbytes(data.nbytes)
        if size > self.free_bytes:
            raise OutOfDeviceMemoryError(requested=size,
                                         available=self.free_bytes)
        return self._place(name, data, size, initialized=False)

    def free(self, buf: DeviceBuffer) -> None:
        """Release a buffer; space is reclaimed once the top buffer frees.

        Raises
        ------
        DoubleFreeError
            If ``buf`` was already freed.
        ForeignFreeError
            If ``buf`` was never allocated by this :class:`DeviceMemory`
            (raw view, reservation of another device, stale handle whose
            address was reused).
        """
        if buf.freed:
            raise DoubleFreeError(buf.name)
        if self._live.get(buf.device_addr) is not buf:
            raise ForeignFreeError(buf.name, self.spec.name)
        buf.freed = True
        if self.sanitizer is not None:
            self.sanitizer.on_free(buf)
        del self._live[buf.device_addr]
        # Reclaim the now-free suffix of the heap.
        if self._live:
            top_buf = self._live[max(self._live)]
            self._top = top_buf.device_addr + (top_buf.alloc_bytes
                                               or aligned_nbytes(top_buf.nbytes))
        else:
            self._top = 0

    def free_all(self) -> None:
        """Release everything (end-of-run ``cudaFree`` sweep)."""
        for buf in list(self._live.values()):
            buf.freed = True
            if self.sanitizer is not None:
                self.sanitizer.on_free(buf)
        self._live.clear()
        self._top = 0

    def snapshot(self) -> frozenset:
        """Opaque marker of the currently live allocations."""
        return frozenset(self._live)

    def release_new(self, snap: frozenset) -> None:
        """Free every allocation made since ``snapshot()`` (OOM rollback:
        a failed phase cleans up after itself without touching buffers
        the caller already held)."""
        for addr in sorted((a for a in self._live if a not in snap),
                           reverse=True):
            self.free(self._live[addr])

    # ------------------------------------------------------------------ #
    # transfer timing
    # ------------------------------------------------------------------ #

    def h2d_ms(self, nbytes: int) -> float:
        """Milliseconds to copy ``nbytes`` host → device over PCIe."""
        return nbytes / (self.spec.pcie_gbs * 1e9) * 1e3

    d2h_ms = h2d_ms  # symmetric link

    def __repr__(self) -> str:
        return (f"DeviceMemory({self.spec.name!r}, used={self.used_bytes}, "
                f"capacity={self.spec.memory_bytes})")

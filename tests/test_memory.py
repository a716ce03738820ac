"""Unit tests for the device memory allocator."""

import numpy as np
import pytest

from repro.errors import (DoubleFreeError, ForeignFreeError,
                          InvalidFreeError, OutOfDeviceMemoryError)
from repro.gpusim.device import GTX_980, TESLA_C2050
from repro.gpusim.memory import DeviceMemory


def _mem(capacity=1 << 20):
    return DeviceMemory(GTX_980.with_memory(capacity))


class TestAlloc:
    def test_basic_alloc(self):
        mem = _mem()
        buf = mem.alloc("x", np.arange(100, dtype=np.int32))
        assert buf.nbytes == 400
        assert np.array_equal(buf.data, np.arange(100))
        assert mem.used_bytes >= 400

    def test_alignment(self):
        mem = _mem()
        a = mem.alloc("a", np.zeros(1, np.int32))
        b = mem.alloc("b", np.zeros(1, np.int32))
        assert a.device_addr % 256 == 0
        assert b.device_addr % 256 == 0
        assert b.device_addr > a.device_addr

    def test_alloc_copies_data(self):
        mem = _mem()
        src = np.arange(4, dtype=np.int32)
        buf = mem.alloc("x", src)
        src[0] = 99
        assert buf.data[0] == 0

    def test_oom(self):
        mem = _mem(1024)
        with pytest.raises(OutOfDeviceMemoryError) as exc:
            mem.alloc("big", np.zeros(10_000, np.int64))
        assert exc.value.requested > exc.value.available

    def test_alloc_empty(self):
        mem = _mem()
        buf = mem.alloc_empty("e", 16, np.uint64)
        assert buf.data.shape == (16,)
        assert buf.data.dtype == np.uint64

    def test_peak_tracking(self):
        mem = _mem()
        a = mem.alloc("a", np.zeros(100, np.int64))
        peak_after_a = mem.peak_bytes
        mem.free(a)
        mem.alloc("b", np.zeros(10, np.int64))
        assert mem.peak_bytes == peak_after_a


class TestTryAlloc:
    def test_try_alloc_success(self):
        mem = _mem()
        buf = mem.try_alloc("x", np.arange(10, dtype=np.int32))
        assert buf is not None
        assert np.array_equal(buf.data, np.arange(10))
        assert mem.used_bytes >= 40

    def test_try_alloc_oom_returns_none(self):
        """The OOM path never raises — admission control's contract."""
        mem = _mem(1024)
        before = mem.used_bytes
        assert mem.try_alloc("big", np.zeros(10_000, np.int64)) is None
        assert mem.used_bytes == before  # nothing charged on failure

    def test_try_alloc_reservation_probe(self):
        """An int byte count reserves capacity without a host payload."""
        mem = _mem(4096)
        probe = mem.try_alloc("probe", 3000)
        assert probe is not None
        assert probe.data.nbytes == 0
        assert mem.used_bytes == 3072  # aligned up to 256
        assert mem.try_alloc("second", 2048) is None
        mem.free(probe)
        assert mem.used_bytes == 0
        assert mem.try_alloc("second", 2048) is not None

    def test_reservation_oom_returns_none(self):
        mem = _mem(1024)
        assert mem.try_alloc("too big", 4096) is None
        assert mem.used_bytes == 0

    def test_reservation_interoperates_with_alloc(self):
        """A reservation charges the same capacity a real alloc would, so
        a probe-then-run sequence sees consistent arithmetic."""
        mem = _mem(8192)
        probe = mem.try_alloc("probe", 4096)
        with pytest.raises(OutOfDeviceMemoryError):
            mem.alloc("data", np.zeros(1024, np.int64))  # 8192 B > remaining
        mem.free(probe)
        mem.alloc("data", np.zeros(1024, np.int64))      # fits after release


class TestFree:
    def test_free_top_reclaims(self):
        mem = _mem()
        a = mem.alloc("a", np.zeros(100, np.int64))
        used = mem.used_bytes
        b = mem.alloc("b", np.zeros(100, np.int64))
        mem.free(b)
        assert mem.used_bytes == used
        mem.free(a)
        assert mem.used_bytes == 0

    def test_free_middle_reclaims_on_top_free(self):
        mem = _mem()
        a = mem.alloc("a", np.zeros(100, np.int64))
        b = mem.alloc("b", np.zeros(100, np.int64))
        mem.free(a)          # hole; top still live
        assert mem.used_bytes > 0
        mem.free(b)          # everything free now
        assert mem.used_bytes == 0

    def test_double_free_rejected(self):
        mem = _mem()
        a = mem.alloc("a", np.zeros(1, np.int32))
        mem.free(a)
        with pytest.raises(DoubleFreeError, match="double free") as exc:
            mem.free(a)
        assert exc.value.buffer == "a"

    def test_foreign_free_rejected(self):
        mem = _mem()
        other = _mem()
        stray = other.alloc("stray", np.zeros(4, np.int32))
        with pytest.raises(ForeignFreeError, match="not allocated") as exc:
            mem.free(stray)
        assert exc.value.buffer == "stray"
        assert mem.spec.name in str(exc.value)

    def test_stale_handle_free_rejected(self):
        # Free a buffer, allocate a new one at the same address, then
        # free through the stale handle: the address is live again but
        # the handle is not the live buffer.
        mem = _mem()
        a = mem.alloc("a", np.zeros(8, np.int32))
        mem.free(a)
        b = mem.alloc("b", np.zeros(8, np.int32))
        assert b.device_addr == a.device_addr
        a.freed = False  # simulate a caller clinging to the old handle
        with pytest.raises(ForeignFreeError):
            mem.free(a)
        mem.free(b)

    def test_invalid_free_is_typed(self):
        mem = _mem()
        a = mem.alloc("a", np.zeros(1, np.int32))
        mem.free(a)
        with pytest.raises(InvalidFreeError):
            mem.free(a)

    def test_free_all(self):
        mem = _mem()
        mem.alloc("a", np.zeros(10, np.int64))
        mem.alloc("b", np.zeros(10, np.int64))
        mem.free_all()
        assert mem.used_bytes == 0


class TestTransfers:
    def test_h2d_time_scales_with_bytes(self):
        mem = DeviceMemory(TESLA_C2050)
        assert mem.h2d_ms(2 * 10**9) == pytest.approx(
            2 * 10**9 / (6.0 * 1e9) * 1e3)
        assert mem.h2d_ms(0) == 0.0

    def test_d2h_symmetric(self):
        mem = DeviceMemory(GTX_980)
        assert mem.d2h_ms(12345) == mem.h2d_ms(12345)


class TestSnapshotRollback:
    def test_release_new_frees_only_new(self):
        mem = _mem()
        keep = mem.alloc("keep", np.zeros(64, np.int64))
        snap = mem.snapshot()
        mem.alloc("a", np.zeros(64, np.int64))
        mem.alloc("b", np.zeros(64, np.int64))
        mem.release_new(snap)
        assert not keep.freed
        assert mem.used_bytes == 512  # only `keep` remains

    def test_release_new_noop_when_nothing_new(self):
        mem = _mem()
        mem.alloc("x", np.zeros(8, np.int64))
        snap = mem.snapshot()
        mem.release_new(snap)
        assert mem.used_bytes > 0

    def test_rollback_then_reuse(self):
        """After a rollback the reclaimed space is reusable (the OOM →
        fallback sequence in preprocess)."""
        mem = _mem(8192)
        snap = mem.snapshot()
        mem.alloc("big", np.zeros(512, np.int64))  # 4096 B
        mem.release_new(snap)
        mem.alloc("big2", np.zeros(896, np.int64))  # 7168 B — needs the space back

"""Unit tests for the exception hierarchy."""

import pytest

from repro.errors import (DeviceError, DoubleFreeError, ForeignFreeError,
                          GraphFormatError, InitcheckError,
                          InvalidFreeError, InvalidLaunchError, KernelFault,
                          MemcheckError, OutOfDeviceMemoryError,
                          RacecheckError, ReproError, SanitizerError,
                          WorkloadError)


class TestHierarchy:
    def test_everything_is_a_repro_error(self):
        for exc in (GraphFormatError, DeviceError, OutOfDeviceMemoryError,
                    InvalidLaunchError, KernelFault, WorkloadError,
                    InvalidFreeError, SanitizerError):
            assert issubclass(exc, ReproError), exc

    def test_device_sub_hierarchy(self):
        assert issubclass(OutOfDeviceMemoryError, DeviceError)
        assert issubclass(InvalidLaunchError, DeviceError)
        assert issubclass(KernelFault, DeviceError)
        assert issubclass(InvalidFreeError, DeviceError)
        assert issubclass(SanitizerError, DeviceError)

    def test_free_sub_hierarchy(self):
        assert issubclass(DoubleFreeError, InvalidFreeError)
        assert issubclass(ForeignFreeError, InvalidFreeError)
        exc = DoubleFreeError("result")
        assert exc.buffer == "result"
        assert "result" in str(exc)
        exc = ForeignFreeError("stray", "GTX 980")
        assert exc.buffer == "stray"
        assert "GTX 980" in str(exc)

    def test_sanitizer_sub_hierarchy(self):
        for exc in (MemcheckError, InitcheckError, RacecheckError):
            assert issubclass(exc, SanitizerError), exc
        err = MemcheckError("oob", report=None)
        assert err.report is None

    def test_one_catch_all(self, small_rmat):
        """A caller can guard any library call with one except clause."""
        from repro.core.forward_gpu import gpu_count_triangles
        from repro.gpusim.device import GTX_980
        from repro.gpusim.memory import DeviceMemory
        from repro.core.options import GpuOptions
        device = GTX_980.with_memory(64)
        with pytest.raises(ReproError):
            gpu_count_triangles(small_rmat, device=device,
                                memory=DeviceMemory(device),
                                options=GpuOptions(cpu_preprocess="never"))


class TestOutOfMemory:
    def test_carries_accounting(self):
        exc = OutOfDeviceMemoryError(requested=1000, available=400)
        assert exc.requested == 1000
        assert exc.available == 400
        assert "1000" in str(exc) and "400" in str(exc)

    def test_custom_message(self):
        exc = OutOfDeviceMemoryError(1, 0, message="boom")
        assert str(exc) == "boom"

"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class.  Substrate-specific failures get their
own subclasses because they carry actionable context (e.g. how many bytes
a device allocation was short by, which drives the paper's Section III-D6
CPU-preprocessing fallback).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphFormatError(ReproError):
    """An edge array / CSR structure violates a format invariant.

    The paper's input contract (Section III-A): no self-loops, no
    multi-edges, every undirected edge present exactly once in each
    direction.  Raised by :func:`repro.graphs.validate.validate_edge_array`.
    """


class DeviceError(ReproError):
    """Base class for simulated-device failures."""


class OutOfDeviceMemoryError(DeviceError):
    """A device allocation exceeded the simulated card's global memory.

    Attributes
    ----------
    requested : int
        Bytes the allocation asked for.
    available : int
        Bytes that were free at the time of the request.
    """

    def __init__(self, requested: int, available: int, message: str | None = None):
        self.requested = int(requested)
        self.available = int(available)
        if message is None:
            message = (
                f"simulated device out of memory: requested {requested} B, "
                f"only {available} B free"
            )
        super().__init__(message)


class ContextMismatchError(DeviceError):
    """A supplied :class:`~repro.gpusim.multigpu.MultiGpuContext` does
    not match the requested device model / card count.

    Attributes
    ----------
    actual_device, expected_device : str
        Device-spec name the context holds vs the one requested.
    actual_count, expected_count : int
        Card count the context holds vs the one requested.
    """

    def __init__(self, actual_device: str, expected_device: str,
                 actual_count: int, expected_count: int):
        self.actual_device = actual_device
        self.expected_device = expected_device
        self.actual_count = int(actual_count)
        self.expected_count = int(expected_count)
        super().__init__(
            f"multi-GPU context mismatch: context holds "
            f"{self.actual_count}x {actual_device!r}, but the call asked "
            f"for {self.expected_count}x {expected_device!r}")


class InvalidLaunchError(DeviceError):
    """A kernel launch configuration violates device limits.

    E.g. threads-per-block not a multiple of the warp size, or more than
    ``DeviceSpec.max_threads_per_block`` threads per block.
    """


class KernelFault(DeviceError):
    """A simulated kernel accessed memory outside an allocated region."""


class InvalidFreeError(DeviceError):
    """A ``DeviceMemory.free`` call that no correct program issues.

    Base of the two concrete cases below; carries the buffer name so
    fleet-level failures can be attributed without a debugger.
    """

    def __init__(self, buffer: str, message: str):
        self.buffer = buffer
        super().__init__(message)


class DoubleFreeError(InvalidFreeError):
    """A device buffer was freed twice (``cudaErrorInvalidValue``)."""

    def __init__(self, buffer: str):
        super().__init__(buffer, f"double free of device buffer {buffer!r}")


class ForeignFreeError(InvalidFreeError):
    """A buffer was freed on a :class:`DeviceMemory` that never allocated
    it (e.g. a raw view, a reservation from another device, or a stale
    handle whose address was reused)."""

    def __init__(self, buffer: str, device: str):
        super().__init__(
            buffer,
            f"buffer {buffer!r} was not allocated by device {device!r} "
            f"(foreign or stale handle)")


class CacheWorkerError(DeviceError):
    """The process running the engine's cache model died, broke its
    stream or stopped answering; the counters of every engine it served
    are lost.  See :mod:`repro.gpusim.cachestream`."""


class SanitizerError(DeviceError):
    """Base class of strict-mode sanitizer failures.

    Attributes
    ----------
    report : repro.sanitize.SanitizerReport or None
        The structured finding that triggered the error (checker, kernel
        step, warp/lane, buffer name, address).
    """

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class MemcheckError(SanitizerError):
    """Strict-mode memcheck finding: out-of-bounds access, use after
    free, or misaligned access."""


class InitcheckError(SanitizerError):
    """Strict-mode initcheck finding: a read from device memory that was
    never written since allocation (``cudaMalloc`` without a fill)."""


class RacecheckError(SanitizerError):
    """Strict-mode racecheck finding: a same-address write/write or
    read/write hazard across warps within one step that bypassed
    ``atomic_add``."""


class AnalysisError(ReproError):
    """The static analyzer (:mod:`repro.analyze`) cannot proceed —
    unreadable input, a malformed baseline file, or a bad rule filter.
    Distinct from a *finding*: findings are data, this is a usage/parse
    failure (``repro-analyze`` exit code 2)."""


class CheckRegistrationError(AnalysisError):
    """Two analyzer checks claimed the same SAN id.

    Attributes
    ----------
    check_id : str
        The contested rule id (e.g. ``"SAN201"``).
    """

    def __init__(self, check_id: str, message: str):
        self.check_id = check_id
        super().__init__(f"{check_id}: {message}")


class WorkloadError(ReproError):
    """An unknown workload name or unsatisfiable workload parameters."""

"""``KernelSpec`` — the declarative contract every counting kernel meets.

A kernel, to the runtime, is: a registry name, a display label for the
simulated timeline, one host *body*, two buffer-shape facts (does it
need the SoA layout, does it accumulate a per-vertex array), and the
``GpuOptions.kernel`` value that selects it in the pipelines.  Everything else — device allocation, H2D/D2H
transfer events, engine construction, sanitizer wiring,
report/timeline assembly — is owned by
:func:`repro.runtime.launch` and written exactly once.

Kernel authors add a strategy by writing the body (a function of
``(engine, pre, options, *, lo, hi, result_buf, per_vertex_buf,
memory)``) and registering a spec; every pipeline (single-GPU,
local-counts, multi-GPU, serving, the kernel zoo) can then
launch it with no new harness code.  For thread-per-edge intersection
kernels there is no new body to write at all: implement one
:class:`~repro.core.intersect.IntersectionStrategy` and register a
spec over the shared driver (see the ``binary_search`` / ``hash``
registrations below and ``docs/architecture.md``).

The registry is also the **single source of truth for kernel names**:
``GpuOptions`` validates its ``kernel`` field against the registered
``option_field`` values (plus ``"auto"``), so registering a kernel is
one spec — not a spec plus an options-module edit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Protocol

import numpy as np

from repro.core.options import GpuOptions
from repro.core.preprocess import PreprocessResult
from repro.errors import ReproError
from repro.gpusim.memory import DeviceBuffer, DeviceMemory
from repro.gpusim.simt import SimtEngine


class KernelResult(Protocol):
    """What every kernel body returns (duck-typed; the concrete classes
    are :class:`~repro.core.count_kernel.CountKernelResult` and
    :class:`~repro.core.warp_intersect_kernel.WarpIntersectResult`)."""

    thread_counts: np.ndarray
    triangles: int
    ticks: int


#: A host execution body: runs the kernel over arcs ``[lo, hi)`` on an
#: already-constructed engine against already-resident structures.
KernelBody = Callable[..., Any]


@dataclass(frozen=True)
class KernelSpec:
    """Declarative description of one counting kernel.

    Attributes
    ----------
    name : str
        Registry key (``LaunchPlan(kernel=<name>)``).
    display_name : str
        Timeline event label of the launch (e.g. ``"CountTriangles"``).
    body : callable
        The host execution body (see :data:`KernelBody`).
    requires_soa : bool
        The body assumes unzipped (SoA) columns; launching against an
        AoS layout is a typed error instead of wrong counters.
    per_vertex : bool
        The body accumulates per-vertex corner counts; ``launch()``
        allocates the ``num_nodes``-long accumulator before
        preprocessing and reads it back after the reduce.
    option_field : str | None
        The ``GpuOptions.kernel`` value that selects this spec in the
        pipelines (``None`` for specs selected by an entry point
        instead, like the per-vertex ``local`` kernel).  These values —
        plus ``"auto"`` — are the legal ``GpuOptions.kernel`` choices.
    """

    name: str
    display_name: str
    body: KernelBody = field(repr=False)
    requires_soa: bool = False
    per_vertex: bool = False
    option_field: str | None = None


_REGISTRY: dict[str, KernelSpec] = {}


def register(spec: KernelSpec) -> KernelSpec:
    """Add ``spec`` to the registry (idempotent for the same object)."""
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing is not spec:
        raise ReproError(f"kernel {spec.name!r} is already registered")
    for other in _REGISTRY.values():
        if (spec.option_field is not None and other is not spec
                and other.option_field == spec.option_field):
            raise ReproError(
                f"kernel {spec.name!r} claims GpuOptions.kernel="
                f"{spec.option_field!r}, already taken by {other.name!r}")
    _REGISTRY[spec.name] = spec
    return spec


def kernel_names() -> tuple[str, ...]:
    """Registered kernel names, sorted (CLI choices)."""
    return tuple(sorted(_REGISTRY))


def kernel_option_fields() -> tuple[str, ...]:
    """Every ``GpuOptions.kernel`` value with a registered spec, sorted.

    This — plus ``"auto"`` — is what ``GpuOptions`` validates against:
    the registry is the single source of truth for kernel names.
    """
    return tuple(sorted(spec.option_field for spec in _REGISTRY.values()
                        if spec.option_field is not None))


def get_kernel(name: str) -> KernelSpec:
    """Look up a registered spec, naming the valid choices on a miss."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ReproError(
            f"unknown kernel {name!r}; registered: {kernel_names()}")
    return spec


def resolve_kernel(kernel: KernelSpec | str) -> KernelSpec:
    """Accept either a spec object or a registry name."""
    if isinstance(kernel, KernelSpec):
        return kernel
    return get_kernel(kernel)


def spec_for_options(options: GpuOptions, per_vertex: bool = False) -> KernelSpec:
    """Map ``GpuOptions.kernel`` to its registered spec.

    ``per_vertex=True`` selects the local-counts variant (the merge
    kernel with the ``atomicAdd``-per-corner extension); the other
    kernels have no such path.  ``kernel="auto"`` must be resolved
    against a graph before reaching the registry — pipelines that see
    the graph (:func:`repro.core.forward_gpu.gpu_count_triangles`) do
    this via :func:`repro.core.autopick.resolve_options`.
    """
    if per_vertex:
        return get_kernel("local")
    if options.kernel == "auto":
        raise ReproError(
            "GpuOptions.kernel='auto' must be resolved against a graph "
            "before launch (repro.core.autopick.resolve_options); "
            "graph-level pipelines do this automatically")
    for spec in _REGISTRY.values():
        if spec.option_field == options.kernel:
            return spec
    raise ReproError(
        f"no registered kernel for GpuOptions.kernel={options.kernel!r}; "
        f"valid: {kernel_option_fields() + ('auto',)}")


def _count_body(option_field: str) -> KernelBody:
    """The thread-per-edge driver body bound to one strategy.

    The driver resolves the strategy from ``options.kernel``; the bound
    check here turns a spec/options mismatch (e.g. dispatching the
    ``binary_search`` spec with merge options) into a typed error
    instead of silently running the wrong algorithm.
    """

    def body(engine: SimtEngine, pre: PreprocessResult,
             options: GpuOptions, *, lo: int = 0, hi: int | None = None,
             result_buf: DeviceBuffer | None = None,
             per_vertex_buf: DeviceBuffer | None = None,
             memory: DeviceMemory | None = None) -> KernelResult:
        if options.kernel != option_field:
            raise ReproError(
                f"this kernel spec runs GpuOptions.kernel="
                f"{option_field!r}, got {options.kernel!r} — dispatch "
                "through spec_for_options or fix the options")
        from repro.core.count_kernel import count_triangles_kernel
        return count_triangles_kernel(
            engine, pre, options, lo=lo, hi=hi, result_buf=result_buf,
            per_vertex_buf=per_vertex_buf, memory=memory)

    return body


def _warp_intersect(engine: SimtEngine, pre: PreprocessResult,
                    options: GpuOptions, *, lo: int = 0, hi: int | None = None,
                    result_buf: DeviceBuffer | None = None,
                    per_vertex_buf: DeviceBuffer | None = None,
                    memory: DeviceMemory | None = None) -> KernelResult:
    from repro.core.warp_intersect_kernel import warp_intersect_kernel

    if per_vertex_buf is not None:
        raise ReproError("the warp_intersect kernel has no per-vertex "
                         "accumulation path; use kernel 'local'")
    return warp_intersect_kernel(engine, pre, lo=lo, hi=hi,
                                 result_buf=result_buf)


#: The paper's thread-per-edge two-pointer merge (Section III-C).
MERGE = register(KernelSpec(
    name="merge", display_name="CountTriangles",
    body=_count_body("two_pointer"), option_field="two_pointer"))

#: The Green et al. warp-per-edge comparator (Section V).
WARP_INTERSECT = register(KernelSpec(
    name="warp_intersect", display_name="WarpIntersect",
    body=_warp_intersect, requires_soa=True, option_field="warp_intersect"))

#: Binary-search intersection: log-probes of the longer list
#: (Wang/Owens comparative study; shared drivers, new strategy).
BINARY_SEARCH = register(KernelSpec(
    name="binary_search", display_name="BinarySearchIntersect",
    body=_count_body("binary_search"), option_field="binary_search"))

#: Hash intersection: TRUST-style per-vertex bucket tables built on
#: device per launch, probed O(1) expected per candidate.
HASH = register(KernelSpec(
    name="hash", display_name="HashIntersect",
    body=_count_body("hash"), option_field="hash"))

#: The merge kernel with one ``atomicAdd`` per triangle corner — exact
#: local counts for the clustering-coefficient application.
LOCAL = register(KernelSpec(
    name="local", display_name="CountTriangles+local",
    body=_count_body("two_pointer"), per_vertex=True))

"""Pipeline configuration: every Section III-D optimization as a toggle.

The defaults reproduce the paper's *final* implementation; the ablation
benches flip one field at a time to regenerate the percentages of
Section III-D (E4–E8 in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ReproError
from repro.gpusim.simt import LaunchConfig

#: Valid values for :attr:`GpuOptions.cpu_preprocess`.
CPU_PREPROCESS_MODES = ("auto", "never", "always")
#: Valid values for :attr:`GpuOptions.merge_variant`.
MERGE_VARIANTS = ("final", "preliminary")
#: Valid values for :attr:`GpuOptions.sanitize`.
SANITIZE_MODES = ("off", "report", "strict")

_KERNEL_CHOICES_CACHE: tuple[str, ...] | None = None


def _kernel_choices() -> tuple[str, ...]:
    """Valid :attr:`GpuOptions.kernel` values, from the kernel registry.

    The runtime registry is the single source of truth for kernel
    names: every registered spec's ``option_field`` is a valid choice,
    plus ``"auto"`` (resolved per graph by ``repro.core.autopick``).
    Imported lazily — the registry lives above this module in the
    layering — and cached after the first successful lookup.
    """
    global _KERNEL_CHOICES_CACHE
    if _KERNEL_CHOICES_CACHE is None:
        import repro.runtime.spec as _spec
        _KERNEL_CHOICES_CACHE = _spec.kernel_option_fields() + ("auto",)
    return _KERNEL_CHOICES_CACHE


def __getattr__(name: str) -> tuple[str, ...]:
    # Module attribute ``KERNELS`` stays importable (docs, tests, CLI
    # help) but is computed from the registry, not hard-coded here.
    if name == "KERNELS":
        return _kernel_choices()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class GpuOptions:
    """Knobs of the GPU pipeline.

    Attributes
    ----------
    unzip : bool
        Section III-D1 — counting kernel reads the edge array as SoA
        (True, 13–32% faster) or interleaved AoS (False).
    sort_as_u64 : bool
        Section III-D2 — sort packed 64-bit words with a radix sort
        (True, ≈5×) or (first, second) pairs with a comparison sort.
    merge_variant : str
        Section III-D3 — ``"final"`` reads one value per iteration when
        no triangle is found; ``"preliminary"`` reads two every
        iteration (36–48% slower).
    use_readonly_cache : bool
        Section III-D4 — route global loads through the per-SM
        read-only/texture cache (``const __restrict__``).  Ignored on
        Fermi parts, which cache global loads in L1 regardless.
    launch : LaunchConfig
        Section III-C — grid geometry; default 64 threads/block ×
        8 blocks/SM, the paper's grid-search optimum.  Its
        ``simulated_warp_size`` field is the Section III-D5 experiment.
    cpu_preprocess : str
        Section III-D6 — ``"auto"`` falls back to CPU preprocessing when
        the device reports out-of-memory (the ``†`` rows), ``"never"``
        raises instead, ``"always"`` forces the fallback path.
    kernel : str
        Counting-kernel strategy, validated against the runtime kernel
        registry (the single source of truth): ``"two_pointer"`` is the
        paper's thread-per-edge merge; ``"binary_search"`` log-probes
        the longer adjacency list; ``"hash"`` probes TRUST-style
        per-vertex bucket tables; ``"warp_intersect"`` is the Section V
        comparator's warp-per-edge parallel intersection (requires the
        SoA layout); ``"auto"`` lets ``repro.core.autopick`` choose per
        graph from the committed kernelzoo calibration.  The
        ``merge_variant`` knob applies to the merge kernels only.
    sanitize : str
        Dynamic sanitizer layer (``repro.sanitize``): ``"off"``
        (default — zero overhead, a single ``None`` check per engine
        access), ``"report"`` (record structured
        :class:`~repro.sanitize.SanitizerReport` findings and keep
        running), or ``"strict"`` (raise the matching typed error from
        :mod:`repro.errors` at the first finding).  Identity-preserving
        by contract — the checkers only observe, so
        :class:`KernelReport` counters and results are bit-identical
        with sanitize on or off, which is why the field is excluded
        from :meth:`cache_key`.
    """

    unzip: bool = True
    sort_as_u64: bool = True
    merge_variant: str = "final"
    use_readonly_cache: bool = True
    launch: LaunchConfig = field(default_factory=LaunchConfig)
    cpu_preprocess: str = "auto"
    kernel: str = "two_pointer"
    sanitize: str = "off"

    def __post_init__(self):
        if self.merge_variant not in MERGE_VARIANTS:
            raise ReproError(
                f"merge_variant must be one of {MERGE_VARIANTS}, "
                f"got {self.merge_variant!r}")
        if self.cpu_preprocess not in CPU_PREPROCESS_MODES:
            raise ReproError(
                f"cpu_preprocess must be one of {CPU_PREPROCESS_MODES}, "
                f"got {self.cpu_preprocess!r}")
        if self.kernel not in _kernel_choices():
            raise ReproError(
                f"kernel must be one of {_kernel_choices()}, "
                f"got {self.kernel!r}")
        if self.sanitize not in SANITIZE_MODES:
            raise ReproError(
                f"sanitize must be one of {SANITIZE_MODES}, "
                f"got {self.sanitize!r}")
        if self.kernel == "warp_intersect" and not self.unzip:
            raise ReproError(
                "the warp_intersect kernel requires the SoA layout "
                "(unzip=True)")

    def but(self, **changes) -> "GpuOptions":
        """A copy with the given fields replaced (ablation helper)."""
        return replace(self, **changes)

    def cache_key(self) -> tuple:
        """Stable, hashable identity of this configuration.

        The serving layer keys its preprocessed-graph cache on
        ``(graph fingerprint, options.cache_key())``; two option sets with
        equal keys produce byte-identical device-resident structures and
        identical kernel behaviour.  Every field is flattened to plain
        scalars so the key survives pickling and dict/set use regardless
        of how the nested :class:`LaunchConfig` evolves.

        ``sanitize`` is deliberately absent: it changes only whether
        the *host* checks the run, never what is simulated, so runs
        with it on or off may share cached preprocessing and memoized
        results.
        """
        return ("gpuopts",
                self.unzip, self.sort_as_u64, self.merge_variant,
                self.use_readonly_cache, self.cpu_preprocess, self.kernel,
                self.launch.threads_per_block, self.launch.blocks_per_sm,
                self.launch.simulated_warp_size)

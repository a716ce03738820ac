"""``repro.sanitize`` — compute-sanitizer-style checkers for the SIMT simulator.

NVIDIA pairs every CUDA kernel with ``compute-sanitizer`` (memcheck /
racecheck / initcheck); this package grows the same safety net for the
simulated substrate:

* :class:`Sanitizer` — a dynamic layer that observes every
  :class:`~repro.gpusim.simt.SimtEngine` access and every
  :class:`~repro.gpusim.memory.DeviceMemory` allocation event, emitting
  structured :class:`SanitizerReport` records (and typed errors from
  :mod:`repro.errors` in strict mode).  Opt in with
  ``GpuOptions(sanitize="report")`` or ``"strict"``; the default
  ``"off"`` keeps the hot paths at a single ``None`` check.
* :mod:`repro.sanitize.lint` — the ``repro-lint`` static AST lint that
  enforces simulator invariants across ``src/`` (rule catalog in
  ``docs/sanitizer.md``).
* :mod:`repro.sanitize.matrix` — the ``repro-bench sanitize`` clean
  kernel matrix: every kernel × merge variant under all three checkers,
  with a sanitize-off identity comparison.

The dynamic layer is identity-preserving by contract: a clean kernel
produces bit-identical :class:`~repro.gpusim.simt.KernelReport`
counters with sanitize on or off (the checkers only observe).
"""

from repro.sanitize.sanitizer import (CHECKERS, SANITIZE_MODES, Sanitizer,
                                      SanitizerReport)

__all__ = ["CHECKERS", "SANITIZE_MODES", "Sanitizer", "SanitizerReport"]

"""Tuned per-device configs: the serve-side consumer of the autotuner.

``configs/tuned.json`` (written by ``repro-bench tune`` /
:meth:`repro.bench.autotune.SweepReport.write_tuned`) records one
winning (kernel, launch geometry) per device.  The
:class:`~repro.serve.scheduler.FleetScheduler` accepts a
:class:`TunedConfigs` and applies the matching device's entry to every
GPU run it launches there.

What a tuned entry may change — and what it may not:

* ``launch`` geometry and ``kernel`` change *simulated timing* only;
  every kernel in the registry is exact, so triangle counts are
  identical under any tuned entry (the bit-identity contract the bench
  suites pin);
* job identity — :meth:`ServeJob.cache_key`, batching, the
  preprocessed-graph cache — stays keyed on the job's *own* options:
  tuning is a per-device execution detail, not a new workload.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from repro.core.options import GpuOptions
from repro.errors import SweepConfigError
from repro.gpusim.device import DEVICES, DeviceSpec
from repro.gpusim.simt import LaunchConfig
from repro.runtime import get_kernel, kernel_names, kernel_option_field

#: Formats this loader understands (mirrors repro.bench.autotune —
#: tuned.json is the only thing that crosses the serve/bench boundary,
#: as data; serve/ never imports bench/).
_TUNED_FORMATS = ("repro-tuned/v1",)


def _tunable_kernels() -> tuple[str, ...]:
    """Kernels a tuned entry may select: every non-per-vertex registry
    name (the registry is the single source of truth — a newly
    registered kernel is tunable with no serve-side edit), plus
    ``"auto"`` (per-graph pick by :mod:`repro.core.autopick` at run
    time)."""
    names = tuple(n for n in kernel_names()
                  if get_kernel(n).option_field is not None)
    return names + ("auto",)


@dataclass(frozen=True)
class TunedEntry:
    """One device's winning configuration."""

    device: str
    kernel: str                 # registry name ("merge", ...) or "auto"
    threads_per_block: int
    blocks_per_sm: int

    def apply(self, base: GpuOptions) -> GpuOptions:
        """``base`` with this entry's launch/kernel substituted.

        ``kernel="auto"`` is an options value, not a registry name — it
        passes through directly and resolves per graph inside
        ``gpu_count_triangles`` when the scheduler launches the job.
        """
        kernel = ("auto" if self.kernel == "auto"
                  else kernel_option_field(self.kernel))
        return base.but(
            kernel=kernel,
            launch=LaunchConfig(self.threads_per_block, self.blocks_per_sm))


def _entry_from(device: str, table: dict) -> TunedEntry:
    prefix = f"devices.{device}"
    if not isinstance(table, dict):
        raise SweepConfigError(prefix, f"expected a table, got {table!r}")
    kernel = table.get("kernel", "merge")
    tunable = _tunable_kernels()
    if kernel not in tunable:
        raise SweepConfigError(
            f"{prefix}.kernel", f"unknown kernel {kernel!r} "
                                f"(valid: {', '.join(tunable)})")
    geometry = {}
    for key in ("threads_per_block", "blocks_per_sm"):
        value = table.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
            raise SweepConfigError(f"{prefix}.{key}",
                                   f"expected a positive int, got {value!r}")
        geometry[key] = value
    entry = TunedEntry(device=device, kernel=kernel, **geometry)
    # An entry the device cannot launch is a config error at load time,
    # not a mid-trace crash.
    entry.apply(GpuOptions()).launch.validate(DEVICES[device])
    return entry


class TunedConfigs:
    """The parsed ``configs/tuned.json``: per-device option overrides."""

    def __init__(self, entries: dict[str, TunedEntry],
                 sweep: dict | None = None):
        self.entries = dict(entries)
        #: echo of the sweep that produced the winners (provenance).
        self.sweep = sweep or {}
        # Device short keys and spec display names both resolve.
        self._by_spec_name = {DEVICES[k].name: e
                              for k, e in self.entries.items()}

    @classmethod
    def from_doc(cls, doc: dict, source: str = "<doc>") -> "TunedConfigs":
        if not isinstance(doc, dict):
            raise SweepConfigError(source, f"expected a table, got {doc!r}")
        fmt = doc.get("format")
        if fmt not in _TUNED_FORMATS:
            raise SweepConfigError(
                "format", f"unknown tuned-config format {fmt!r} "
                          f"(valid: {', '.join(_TUNED_FORMATS)})")
        devices = doc.get("devices", {})
        if not isinstance(devices, dict) or not devices:
            raise SweepConfigError(
                "devices", f"expected a non-empty table, got {devices!r}")
        entries = {}
        for device, table in devices.items():
            if device not in DEVICES:
                raise SweepConfigError(
                    f"devices.{device}",
                    f"unknown device (valid: {', '.join(DEVICES)})")
            entries[device] = _entry_from(device, table)
        return cls(entries, sweep=doc.get("sweep"))

    @classmethod
    def load(cls, path: str) -> "TunedConfigs":
        """Load and validate a tuned.json file (typed errors name the
        offending key)."""
        if not os.path.exists(path):
            raise SweepConfigError(path, "tuned config file does not exist")
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SweepConfigError(path, f"invalid JSON: {exc}") from exc
        return cls.from_doc(doc, source=path)

    # ------------------------------------------------------------------ #

    def entry_for(self, device: DeviceSpec | str) -> TunedEntry | None:
        """The entry for a device (short key, spec name, or spec), or
        ``None`` when the sweep never tuned that device."""
        if isinstance(device, DeviceSpec):
            return self._by_spec_name.get(device.name)
        return self.entries.get(device) or self._by_spec_name.get(device)

    def options_for(self, device: DeviceSpec | str,
                    base: GpuOptions) -> GpuOptions:
        """``base`` with the device's tuned entry applied (or unchanged
        when the device is untuned)."""
        entry = self.entry_for(device)
        return base if entry is None else entry.apply(base)

    def summary(self) -> str:
        lines = [f"tuned configs ({len(self.entries)} device(s), "
                 f"objective {self.sweep.get('objective', '?')})"]
        for device, e in sorted(self.entries.items()):
            lines.append(f"  {device:<9} {e.kernel} "
                         f"{e.threads_per_block}x{e.blocks_per_sm}")
        return "\n".join(lines)

"""The dynamic sanitizer: memcheck, initcheck and racecheck.

The :class:`Sanitizer` sits behind two hook points, both a single
``is not None`` check on the hot paths:

* :class:`~repro.gpusim.memory.DeviceMemory` reports allocation events
  (``on_alloc`` / ``on_free``), giving every buffer a *shadow*: its
  valid-bytes bitmap (initcheck) and its free status (memcheck's
  use-after-free attribution by buffer name);
* :class:`~repro.gpusim.simt.SimtEngine` reports every lane-level
  access (``on_access``) and every instruction-block boundary
  (``on_step_end``), which is the racecheck window — the simulator's
  "tick" is the unit inside which the hardware gives no ordering
  guarantee between warps.

Checker semantics (see ``docs/sanitizer.md`` for the full catalog):

* **memcheck** — out-of-bounds index (``oob-read`` / ``oob-write`` /
  ``oob-atomic``), use of a freed :class:`DeviceBuffer`
  (``use-after-free``), and misaligned base addresses
  (``misaligned``, possible only for raw views built outside the
  256-byte-aligned allocator).
* **initcheck** — a read (or atomic read-modify-write) touching
  elements of an ``alloc_empty`` region that no prior ``write`` /
  ``atomic_add`` covered, tracked via a per-buffer valid bitmap (one
  flag per element — element granularity *is* byte granularity here
  because every engine access moves whole elements).
* **racecheck** — within one step, the same element written
  non-atomically by two different warps (``write-write-race``) or
  written by one warp and read by another (``read-write-race``).
  ``atomic_add`` traffic is exempt: atomics are the sanctioned path.

Modes: ``"report"`` records findings and lets execution continue
(out-of-bounds indices are clamped so the functional gather stays
defined — the simulated analogue of reading garbage); ``"strict"``
raises the matching typed error from :mod:`repro.errors` at the first
finding.  Findings deduplicate per (checker, kind, buffer) — the first
occurrence keeps full step/warp/lane attribution, repeats bump its
``occurrences`` counter (the compute-sanitizer per-PC idiom).

Identity contract: no hook mutates the engine's
:class:`~repro.gpusim.simt.KernelReport`, so clean kernels produce
bit-identical counters with sanitize on or off — enforced by
``repro-bench sanitize`` and ``tests/test_sanitize.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import (InitcheckError, KernelFault, MemcheckError,
                          RacecheckError, ReproError, SanitizerError)
from repro.gpusim.memory import DeviceBuffer

#: Valid sanitize modes of :class:`GpuOptions.sanitize` ("off" disables
#: the layer entirely — no Sanitizer is constructed).
SANITIZE_MODES = ("off", "report", "strict")

#: The three checkers, compute-sanitizer naming.
CHECKERS = ("memcheck", "initcheck", "racecheck")

_ERROR_OF = {"memcheck": MemcheckError,
             "initcheck": InitcheckError,
             "racecheck": RacecheckError}

#: Bits reserved for the warp id when packing (element, warp) race keys.
_WARP_BITS = 22


@dataclass
class SanitizerReport:
    """One structured finding.

    Attributes
    ----------
    checker : str
        ``"memcheck"`` / ``"initcheck"`` / ``"racecheck"``.
    kind : str
        Violation class, e.g. ``"oob-read"``, ``"use-after-free"``,
        ``"uninit-read"``, ``"write-write-race"``.
    buffer : str
        Name of the :class:`DeviceBuffer` involved.
    step : int
        Kernel step index (instruction blocks completed when the access
        was issued — the engine's ``end_step_warps`` counter).
    step_kind : str or None
        Instruction-block kind of that step (``"setup"``, ``"merge"``,
        ...), stamped retroactively when the block ends.
    warp, lane : int
        The offending warp and its global lane id.
    index : int
        Element index within the buffer.
    address : int
        Simulated device byte address of the element.
    count : int
        Elements involved in this access's violation.
    occurrences : int
        Times this (checker, kind, buffer) fired in total (only the
        first occurrence is stored).
    detail : str
        Extra human-readable context (e.g. the second warp of a race).
    """

    checker: str
    kind: str
    buffer: str
    step: int
    step_kind: str | None
    warp: int
    lane: int
    index: int
    address: int
    count: int = 1
    occurrences: int = 1
    detail: str = ""

    def message(self) -> str:
        where = (f"step {self.step}"
                 + (f" ({self.step_kind})" if self.step_kind else ""))
        text = (f"{self.checker}: {self.kind} on buffer {self.buffer!r} "
                f"at {where}, warp {self.warp} lane {self.lane}, "
                f"index {self.index} (addr 0x{self.address:x})")
        if self.count > 1:
            text += f", {self.count} elements"
        if self.detail:
            text += f" — {self.detail}"
        if self.occurrences > 1:
            text += f" [x{self.occurrences}]"
        return text

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.message()


class _Shadow:
    """Sanitizer-side state of one device buffer."""

    __slots__ = ("buf", "name", "valid", "freed_at_step", "misalign_seen")

    def __init__(self, buf: DeviceBuffer, initialized: bool):
        self.buf = buf
        self.name = buf.name
        # ``None`` means "assume fully valid": buffers placed with real
        # payload (``alloc``) or adopted lazily (allocated before the
        # sanitizer attached) never false-positive.
        self.valid: np.ndarray | None
        self.valid = None if initialized else np.zeros(len(buf.data), bool)
        self.freed_at_step: int | None = None
        self.misalign_seen = False


class _RaceWindow:
    """Per-buffer access log of the current step (racecheck)."""

    __slots__ = ("writes", "reads")

    def __init__(self):
        self.writes: list[tuple[np.ndarray, np.ndarray]] = []
        self.reads: list[tuple[np.ndarray, np.ndarray]] = []


class Sanitizer:
    """Dynamic checker state for one pipeline run.

    Parameters
    ----------
    mode : str
        ``"report"`` (record and continue) or ``"strict"`` (raise the
        typed :mod:`repro.errors` exception at the first finding).
    memcheck, initcheck, racecheck : bool
        Individual checker toggles (all on by default, like running
        ``compute-sanitizer`` with every tool).
    max_reports : int
        Stored-findings cap; further findings only bump ``dropped``.
    """

    def __init__(self, mode: str = "report", *, memcheck: bool = True,
                 initcheck: bool = True, racecheck: bool = True,
                 max_reports: int = 200):
        if mode not in ("report", "strict"):
            raise ReproError(
                f"sanitizer mode must be 'report' or 'strict', got {mode!r}")
        self.mode = mode
        self.memcheck = memcheck
        self.initcheck = initcheck
        self.racecheck = racecheck
        self.max_reports = max_reports
        self.reports: list[SanitizerReport] = []
        self.dropped = 0
        self.step = 0
        self.warp_size = 32
        self._shadows: dict[int, _Shadow] = {}
        self._dedup: dict[tuple, SanitizerReport] = {}
        self._window: dict[int, _RaceWindow] = {}
        self._pending_kind: list[SanitizerReport] = []

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #

    def bind_engine(self, engine) -> None:
        """Adopt the engine's (possibly simulated) warp size for warp
        attribution; called by ``SimtEngine.__init__``."""
        self.warp_size = engine.warp_size

    def counts(self) -> dict[str, int]:
        """Findings per checker (occurrences, not just stored reports)."""
        out = {c: 0 for c in CHECKERS}
        for rep in self.reports:
            out[rep.checker] += rep.occurrences
        return out

    @property
    def findings(self) -> int:
        return sum(self.counts().values()) + self.dropped

    # ------------------------------------------------------------------ #
    # memory hooks
    # ------------------------------------------------------------------ #

    def on_alloc(self, buf: DeviceBuffer, initialized: bool) -> None:
        self._shadows[id(buf)] = _Shadow(buf, initialized)

    def on_free(self, buf: DeviceBuffer) -> None:
        shadow = self._shadows.get(id(buf))
        if shadow is None:
            shadow = self._adopt(buf)
        shadow.freed_at_step = self.step
        self._window.pop(id(buf), None)

    def _adopt(self, buf: DeviceBuffer) -> _Shadow:
        """Register a buffer first seen mid-run (allocated before the
        sanitizer attached, or a raw view): assumed initialized."""
        shadow = _Shadow(buf, initialized=True)
        self._shadows[id(buf)] = shadow
        return shadow

    # ------------------------------------------------------------------ #
    # engine hooks
    # ------------------------------------------------------------------ #

    def on_access(self, buf: DeviceBuffer, indices: np.ndarray,
                  thread_ids: np.ndarray, op: str) -> np.ndarray:
        """Check one lane-level access batch; returns the index array the
        engine should proceed with (clamped in report mode if any index
        was out of bounds, otherwise the input unchanged)."""
        shadow = self._shadows.get(id(buf))
        if shadow is None:
            shadow = self._adopt(buf)
        indices = np.asarray(indices)
        tids = np.asarray(thread_ids)
        size = len(buf.data)

        # ---- memcheck -------------------------------------------------- #
        if buf.freed or shadow.freed_at_step is not None:
            freed_at = shadow.freed_at_step
            self._emit("memcheck", "use-after-free", shadow,
                       pos=0, indices=indices, tids=tids,
                       detail=(f"freed at step {freed_at}"
                               if freed_at is not None else "freed"))
        if not shadow.misalign_seen and buf.device_addr % max(buf.itemsize, 1):
            shadow.misalign_seen = True
            self._emit("memcheck", "misaligned", shadow,
                       pos=0, indices=indices, tids=tids,
                       detail=(f"base address 0x{buf.device_addr:x} not "
                               f"aligned to itemsize {buf.itemsize}"))
        lo = int(indices.min())
        hi = int(indices.max())
        if lo < 0 or hi >= size:
            if not self.memcheck:
                # Checker disabled: behave like the bare engine.
                raise KernelFault(
                    f"out-of-bounds {op} on {buf.name!r}: index range "
                    f"[{lo}, {hi}] outside [0, {size})")
            bad = (indices < 0) | (indices >= size)
            pos = int(np.flatnonzero(bad)[0])
            self._emit("memcheck", f"oob-{op}", shadow,
                       pos=pos, indices=indices, tids=tids,
                       count=int(bad.sum()),
                       detail=f"index range [{lo}, {hi}] outside [0, {size})")
            # Report mode continues with a defined (clamped) access — the
            # simulated analogue of the hardware reading garbage.
            indices = np.clip(indices, 0, max(size - 1, 0))

        # ---- initcheck ------------------------------------------------- #
        if shadow.valid is not None:
            if self.initcheck and op in ("read", "atomic"):
                ok = shadow.valid[indices]
                if not ok.all():
                    pos = int(np.flatnonzero(~ok)[0])
                    self._emit("initcheck", "uninit-read", shadow,
                               pos=pos, indices=indices, tids=tids,
                               count=int((~ok).sum()),
                               detail="allocated with alloc_empty, never "
                                      "written")
            if op in ("write", "atomic"):
                shadow.valid[indices] = True

        # ---- racecheck ------------------------------------------------- #
        if self.racecheck and op != "atomic":
            window = self._window.get(id(buf))
            if window is None:
                window = self._window[id(buf)] = _RaceWindow()
            record = (indices.astype(np.int64, copy=True),
                      tids.astype(np.int64) // self.warp_size)
            (window.writes if op == "write" else window.reads).append(record)

        return indices

    def on_step_end(self, kind: str) -> None:
        """Close the racecheck window of one instruction block and stamp
        the block kind onto findings recorded during it."""
        if self.racecheck and self._window:
            # Flush before stamping: race findings belong to the block
            # that just ended and must pick up its kind too.
            for key, window in self._window.items():
                if window.writes:
                    shadow = self._shadows.get(key)
                    if shadow is not None:
                        self._flush_races(shadow, window)
            self._window.clear()
        for rep in self._pending_kind:
            rep.step_kind = kind
        self._pending_kind.clear()
        self.step += 1

    # ------------------------------------------------------------------ #
    # racecheck analysis
    # ------------------------------------------------------------------ #

    def _flush_races(self, shadow: _Shadow, window: _RaceWindow) -> None:
        w_idx = np.concatenate([w[0] for w in window.writes])
        w_warp = np.concatenate([w[1] for w in window.writes])
        # Pack (element, warp) so one sort finds both duplicate levels.
        key = (w_idx << _WARP_BITS) | w_warp
        order = np.argsort(key, kind="stable")
        uniq = key[order][np.concatenate(
            ([True], np.diff(key[order]) != 0))] if len(key) else key
        elems = uniq >> _WARP_BITS
        if len(elems) > 1:
            dup = np.flatnonzero(elems[1:] == elems[:-1])
            if len(dup):
                e = int(elems[dup[0]])
                warps = np.unique(uniq[(elems == e)] & ((1 << _WARP_BITS) - 1))
                pos = int(np.flatnonzero(w_idx == e)[0])
                self._emit(
                    "racecheck", "write-write-race", shadow,
                    pos=pos, indices=w_idx, tids=w_warp * self.warp_size,
                    detail=f"warps {sorted(int(w) for w in warps[:4])} all "
                           f"wrote element {e} without atomic_add")
        if not window.reads:
            return
        writers: dict[int, int] = {}
        multi = set()
        for e, w in zip(w_idx.tolist(), w_warp.tolist()):
            prev = writers.setdefault(e, w)
            if prev != w:
                multi.add(e)
        r_idx = np.concatenate([r[0] for r in window.reads])
        r_warp = np.concatenate([r[1] for r in window.reads])
        written = np.isin(r_idx, w_idx)
        for pos in np.flatnonzero(written):
            e = int(r_idx[pos])
            rw = int(r_warp[pos])
            if e in multi or writers[e] != rw:
                self._emit(
                    "racecheck", "read-write-race", shadow,
                    pos=int(pos), indices=r_idx,
                    tids=r_warp * self.warp_size,
                    detail=f"warp {rw} read element {e} while warp "
                           f"{writers[e]} wrote it in the same step")
                break

    # ------------------------------------------------------------------ #
    # emission
    # ------------------------------------------------------------------ #

    def _emit(self, checker: str, kind: str, shadow: _Shadow, *,
              pos: int, indices: np.ndarray, tids: np.ndarray,
              count: int = 1, detail: str = "") -> None:
        dedup_key = (checker, kind, shadow.name)
        first = self._dedup.get(dedup_key)
        if first is not None:
            first.occurrences += 1
            if self.mode == "strict":
                raise _ERROR_OF[checker](first.message(), report=first)
            return
        index = int(indices[pos]) if len(indices) else 0
        tid = int(tids[pos]) if len(tids) else 0
        rep = SanitizerReport(
            checker=checker, kind=kind, buffer=shadow.name,
            step=self.step, step_kind=None,
            warp=tid // self.warp_size, lane=tid,
            index=index,
            address=shadow.buf.device_addr + index * shadow.buf.itemsize,
            count=count, detail=detail)
        self._dedup[dedup_key] = rep
        if len(self.reports) < self.max_reports:
            self.reports.append(rep)
            self._pending_kind.append(rep)
        else:
            self.dropped += 1
        if self.mode == "strict":
            raise _ERROR_OF[checker](rep.message(), report=rep)

    # ------------------------------------------------------------------ #

    def format_report(self) -> str:
        """Human-readable findings sheet (``==SANITIZE==`` idiom)."""
        counts = self.counts()
        head = (f"==SANITIZE== mode={self.mode} "
                + " ".join(f"{c}={counts[c]}" for c in CHECKERS))
        lines = [head]
        for rep in self.reports:
            lines.append("  " + rep.message())
        if self.dropped:
            lines.append(f"  ... {self.dropped} further findings dropped "
                         f"(max_reports={self.max_reports})")
        return "\n".join(lines)

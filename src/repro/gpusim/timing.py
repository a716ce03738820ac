"""Conversion of measured work into simulated time.

The split the paper's measurement protocol implies (Section IV):

    total = H2D copy + preprocessing + counting kernel + result reduce + D2H

Kernel time follows the standard throughput-roofline view of a
memory-bound SIMT kernel — the slowest of three resources decides:

* **compute**: warp-instruction slots through the SM issue ports,
* **DRAM**: bytes that missed all caches through the memory bus,
* **L2 / LSU**: transaction streams through the device-wide L2 and the
  per-SM load/store ports — the resources the read-only cache
  (Section III-D4) and the one-read merge loop (III-D3) relieve;

all divided by an occupancy utilization factor: below the device's
latency-hiding threshold of resident warps, dependent-load stalls leave
the pipelines idle (the regime the Section III-C grid search avoids).

All three inputs are *measured* by the engine; the constants
(clock, issue width, bandwidth, efficiency, miss latency) come from the
device spec.  The achieved-bandwidth figure the model reports for
Table II is DRAM bytes divided by the resulting kernel time — an output,
exactly like the profiler counter it reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpusim.device import DeviceSpec
from repro.gpusim.simt import KernelReport, LaunchConfig


@dataclass(frozen=True)
class KernelTiming:
    """Simulated timing of one kernel launch.

    Four throughput rooflines (the slowest decides), divided by the
    occupancy utilization (below ``latency_hiding_warps`` resident warps
    per SM, every resource idles proportionally — the regime the
    Section III-C grid search tunes away from).
    """

    compute_ms: float
    dram_ms: float
    l2_ms: float
    lsu_ms: float
    utilization: float = 1.0

    @property
    def kernel_ms(self) -> float:
        peak = max(self.compute_ms, self.dram_ms, self.l2_ms, self.lsu_ms)
        return peak / max(self.utilization, 1e-9)

    @property
    def bound(self) -> str:
        """Which resource decided the time
        ("compute"/"dram"/"l2"/"lsu")."""
        best = max(("compute", self.compute_ms), ("dram", self.dram_ms),
                   ("l2", self.l2_ms), ("lsu", self.lsu_ms),
                   key=lambda kv: kv[1])
        return best[0]


#: Warp-instruction estimates per kernel instruction block.  These mirror
#: the compiled loop bodies: the merge iteration is a compare, two
#: predicated increments, a predicated counter bump, two bound checks and
#: a branch (~10 slots incl. the dependent load issue); edge setup is the
#: six loads plus address arithmetic (~24 slots).
MERGE_INSTRUCTIONS = 10
SETUP_INSTRUCTIONS = 24

#: Per-thrust-call launch/sync overhead, milliseconds.
LAUNCH_OVERHEAD_MS = 0.008


def time_kernel(report: KernelReport) -> KernelTiming:
    """Roofline conversion of a :class:`KernelReport` into milliseconds."""
    device: DeviceSpec = report.device
    launch: LaunchConfig = report.launch

    # Compute: the most-loaded SM decides.
    slots = report.sm_instruction_slots
    max_slots = int(slots.max()) if slots is not None and len(slots) else 0
    compute_ms = max_slots / device.issue_width / device.clock_hz * 1e3

    # DRAM throughput: bytes that missed every cache.
    eff_bw = device.peak_bandwidth_gbs * device.dram_efficiency * 1e9
    dram_ms = report.dram_bytes / eff_bw * 1e3

    # L2 throughput: every L1 miss (or uncached access) is served by the
    # device-wide L2 — the resource that makes the Section III-D4
    # read-only cache matter.
    l2_ms = report.l2_bytes / (device.l2_bandwidth_gbs * 1e9) * 1e3

    # LSU throughput: each SM issues a bounded number of memory
    # transactions per cycle (this is what makes the preliminary merge
    # variant's extra loads expensive even when they hit L1).
    lsu_cycles = (report.transactions / device.num_sms
                  / device.lsu_transactions_per_cycle)
    lsu_ms = lsu_cycles / device.clock_hz * 1e3

    # Occupancy: with fewer resident warps than the latency-hiding
    # threshold, dependent-load stalls leave every pipeline idle part of
    # the time.
    resident = max(launch.resident_warps_per_sm(device), 1)
    utilization = min(1.0, resident / device.latency_hiding_warps)

    return KernelTiming(compute_ms=compute_ms, dram_ms=dram_ms,
                        l2_ms=l2_ms, lsu_ms=lsu_ms, utilization=utilization)


def achieved_bandwidth_gbs(report: KernelReport, kernel_ms: float) -> float:
    """DRAM throughput the kernel sustained (the Table II column)."""
    if kernel_ms <= 0:
        return 0.0
    return report.dram_bytes / (kernel_ms * 1e-3) / 1e9


# ---------------------------------------------------------------------- #
# whole-run timeline
# ---------------------------------------------------------------------- #

#: The default stream (host program order).
DEFAULT_STREAM = 0


@dataclass(frozen=True)
class TimelineEvent:
    """One timed pipeline step."""

    name: str
    ms: float
    phase: str = "preprocess"   # "copy" | "preprocess" | "count" | "reduce"


@dataclass(frozen=True)
class StreamEvent:
    """One timeline event stamped onto a stream's clock."""

    name: str
    ms: float
    phase: str
    stream: int
    start_ms: float

    @property
    def end_ms(self) -> float:
        return self.start_ms + self.ms


@dataclass(frozen=True)
class StreamDep:
    """One cross-stream dependency edge (``cudaStreamWaitEvent``):
    ``stream``'s next event starts no earlier than ``at_ms``, the
    ``upstream`` clock when the edge was recorded."""

    stream: int
    upstream: int
    at_ms: float


@dataclass
class Timeline:
    """Ordered record of a full pipeline run (one measurement window),
    with a CUDA-style stream schedule beside it.

    Every reported total (``total_ms``, ``phase_ms``, ``breakdown``) is
    the serial sum of :attr:`events` in host program order — exactly the
    paper's measurement protocol.  Each event is also stamped with a
    ``(start, end)`` interval on a numbered *stream*:

    * stream 0 is the default stream — host program order, where
      :meth:`add` puts every event;
    * :meth:`add_on` places an event on another stream.  A stream's
      clock starts at the default-stream time of its first use (the fork
      point — work cannot overlap with what has not been issued yet) and
      advances serially within the stream;
    * :meth:`wait_for` records a cross-stream dependency edge (the
      ``cudaStreamWaitEvent`` analogue), kept in :attr:`stream_deps`;
    * :meth:`barrier` is ``cudaDeviceSynchronize``: every stream's clock
      jumps to the makespan.

    The stream schedule answers the what-if without touching the
    reported numbers: :attr:`makespan_ms` is the end-to-end time if
    concurrent streams really ran concurrently (a measured quantity
    once ``wait_for`` edges order real work, as in the chunked ``†``
    pipeline and the multi-GPU ring exchange), :attr:`overlap_savings_ms`
    the gap, and :meth:`pipelined_ms` the double-buffering model.

    The cursor dict is an internal invariant (fork points, barrier
    advancement); outside ``repro/gpusim`` use :meth:`stream_time` /
    :meth:`wait_for` — repro-analyze SAN105 flags direct ``_cursors``
    access.
    """

    events: list[TimelineEvent] = field(default_factory=list)
    stream_events: list[StreamEvent] = field(default_factory=list)
    stream_deps: list[StreamDep] = field(default_factory=list)
    _cursors: dict[int, float] = field(default_factory=dict)

    def add(self, name: str, ms: float, phase: str = "preprocess") -> None:
        self.add_on(name, ms, phase=phase, stream=DEFAULT_STREAM)

    def add_on(self, name: str, ms: float, phase: str = "preprocess",
               stream: int = DEFAULT_STREAM) -> None:
        """Record an event on ``stream`` (0 = host program order)."""
        if ms < 0:
            raise ValueError(f"negative duration for {name}: {ms}")
        self.events.append(TimelineEvent(name=name, ms=ms, phase=phase))
        start = self.stream_time(stream)
        self.stream_events.append(StreamEvent(
            name=name, ms=ms, phase=phase, stream=stream, start_ms=start))
        self._cursors[stream] = start + ms

    def stream_time(self, stream: int = DEFAULT_STREAM) -> float:
        """Current clock of ``stream``.

        A stream that has never been used reads at its fork point — the
        default stream's current time.  This is the sanctioned accessor;
        ``_cursors`` itself is internal (repro-analyze SAN105).
        """
        if stream in self._cursors:
            return self._cursors[stream]
        return self._cursors.get(DEFAULT_STREAM, 0.0)

    def wait_for(self, stream: int, upstream: int) -> StreamDep:
        """Record a dependency edge: ``stream`` waits for everything
        already issued on ``upstream`` (``cudaStreamWaitEvent`` on an
        event recorded at the upstream's current position).

        Advances ``stream``'s clock to ``max(own, upstream)`` — later
        ``add_on`` calls on ``stream`` start after the upstream work —
        and returns the recorded :class:`StreamDep`.
        """
        at = self.stream_time(upstream)
        self._cursors[stream] = max(self.stream_time(stream), at)
        dep = StreamDep(stream=stream, upstream=upstream, at_ms=at)
        self.stream_deps.append(dep)
        return dep

    def barrier(self) -> None:
        """Synchronize every stream's clock to the makespan.

        The default stream's cursor is advanced even when it was never
        explicitly used — otherwise a stream forked *after* the barrier
        would start at the pre-barrier default clock (frozen at 0.0 for
        a timeline whose events all sat on named streams)."""
        high = self.makespan_ms
        self._cursors[DEFAULT_STREAM] = high
        for stream in self._cursors:
            self._cursors[stream] = high

    @property
    def total_ms(self) -> float:
        return sum(e.ms for e in self.events)

    def phase_ms(self, phase: str) -> float:
        return sum(e.ms for e in self.events if e.phase == phase)

    @property
    def makespan_ms(self) -> float:
        """End-to-end time of the stream schedule (streams concurrent,
        events within a stream serial).  Equals :attr:`total_ms` when
        everything sits on the default stream."""
        return max((e.end_ms for e in self.stream_events), default=0.0)

    @property
    def overlap_savings_ms(self) -> float:
        """Serial total minus the stream makespan — what concurrent
        copies/kernels would save.  Zero for a single-stream run."""
        return self.total_ms - self.makespan_ms

    def pipelined_ms(self, phase_a: str = "preprocess",
                     phase_b: str = "copy") -> float:
        """What-if total with ``phase_a`` perfectly double-buffered
        against ``phase_b`` (chunked host preprocessing overlapping the
        H2D copies of already-finished chunks — the ``†`` rows): the two
        phases cost ``max`` instead of sum, everything else unchanged."""
        a = self.phase_ms(phase_a)
        b = self.phase_ms(phase_b)
        return self.total_ms - (a + b) + max(a, b)

    @property
    def preprocessing_fraction(self) -> float:
        """Fraction of total time before the counting kernel — the
        paper's Amdahl quantity (Section III-E reports 0.08–0.76)."""
        total = self.total_ms
        if total <= 0:
            return 0.0
        pre = sum(e.ms for e in self.events if e.phase in ("copy", "preprocess"))
        return pre / total

    def breakdown(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for e in self.events:
            out[e.phase] = out.get(e.phase, 0.0) + e.ms
        return out

"""Stream/event timeline — the runtime's transfer-and-compute schedule.

The base :class:`~repro.gpusim.timing.Timeline` records *durations* in
host program order; every reported total is the serial sum, which is
exactly the paper's measurement protocol.  This module keeps that
contract bit-for-bit (``total_ms``/``phase_ms``/``breakdown`` are
inherited unchanged) while additionally stamping every event with a
``(start, end)`` interval on a numbered *stream*, CUDA-style:

* stream 0 is the default stream — host program order, where every
  event lands unless the caller says otherwise;
* :meth:`StreamTimeline.add_on` places an event on another stream.  A
  stream's clock starts at the default-stream time of its first use
  (the fork point — you cannot overlap with work that has not been
  issued yet) and advances serially within the stream;
* :meth:`StreamTimeline.barrier` is ``cudaDeviceSynchronize``: every
  stream's clock jumps to the makespan.

This is what "modeled compute/transfer overlap" means here: the
*reported* numbers stay the paper's serial protocol, and the stream
schedule answers the what-if — :attr:`makespan_ms` is the end-to-end
time if concurrent streams really ran concurrently, and
:attr:`overlap_savings_ms` the gap.  The multi-GPU pipeline places each
destination card's broadcast copies on stream ``1 + d`` (they share no
resource in the model — each card has its own PCIe lane), and
:meth:`pipelined_ms` models double-buffering the ``†`` CPU-preprocessing
host passes against the H2D copies without re-running anything.

Executed schedules (``repro.runtime.pipeline``, the multi-GPU ring
exchange) additionally record cross-stream *dependency edges* via
:meth:`StreamTimeline.wait_for` — the ``cudaStreamWaitEvent`` analogue.
An edge advances the waiting stream's clock to everything already
issued on the upstream stream, so :attr:`makespan_ms` of such a
timeline is the measured end-to-end time of the actual dependency
schedule, not a phase-sum what-if.  Every recorded edge is kept in
:attr:`StreamTimeline.stream_deps` for inspection.

The cursor dict itself is an internal invariant (fork points, barrier
advancement); outside ``repro/runtime`` use :meth:`stream_time` /
:meth:`wait_for` — repro-analyze SAN105 flags direct ``_cursors`` access.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpusim.timing import Timeline

#: The default stream (host program order).
DEFAULT_STREAM = 0


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
class StreamTimeline(Timeline):
    """A :class:`Timeline` that also keeps a stream/event schedule.

    Drop-in compatible: every ``add`` goes to the inherited event list
    (so serial totals are unchanged) *and* is stamped on stream 0.
    """

    stream_events: list[StreamEvent] = field(default_factory=list)
    stream_deps: list[StreamDep] = field(default_factory=list)
    _cursors: dict[int, float] = field(default_factory=dict)

    def add(self, name: str, ms: float, phase: str = "preprocess") -> None:
        self.add_on(name, ms, phase=phase, stream=DEFAULT_STREAM)

    def add_on(self, name: str, ms: float, phase: str = "preprocess",
               stream: int = DEFAULT_STREAM) -> None:
        """Record an event on ``stream`` (0 = host program order)."""
        super().add(name, ms, phase=phase)
        start = self.stream_time(stream)
        self.stream_events.append(StreamEvent(
            name=name, ms=ms, phase=phase, stream=stream, start_ms=start))
        self._cursors[stream] = start + ms

    def stream_time(self, stream: int = DEFAULT_STREAM) -> float:
        """Current clock of ``stream``.

        A stream that has never been used reads at its fork point — the
        default stream's current time (you cannot overlap with work the
        host has not issued yet).  This is the sanctioned accessor;
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

"""Unit tests for the multi-GPU pipeline (paper Section III-E)."""

import pytest

from repro.core.forward_gpu import gpu_count_triangles
from repro.core.multi_gpu import multi_gpu_count_triangles
from repro.core.options import GpuOptions
from repro.errors import ContextMismatchError, DeviceError, ReproError
from repro.gpusim.device import GTX_980, TESLA_C2050
from repro.gpusim.multigpu import MultiGpuContext


class TestCorrectness:
    def test_counts_match_oracle(self, any_graph, oracle):
        res = multi_gpu_count_triangles(any_graph, num_gpus=4)
        assert res.triangles == oracle(any_graph)

    def test_single_gpu_degenerate(self, small_rmat, oracle):
        res = multi_gpu_count_triangles(small_rmat, num_gpus=1)
        assert res.triangles == oracle(small_rmat)

    def test_gpu_counts_independent_of_count(self, small_ws, oracle):
        for n in (2, 3, 4):
            assert multi_gpu_count_triangles(
                small_ws, num_gpus=n).triangles == oracle(small_ws)

    def test_context_mismatch_rejected(self, k5):
        ctx = MultiGpuContext(TESLA_C2050, 2)
        with pytest.raises(ReproError):
            multi_gpu_count_triangles(k5, num_gpus=4, context=ctx)

    def test_context_mismatch_is_typed_and_names_values(self, k5):
        """Regression (the satellite bugfix): the mismatch used to be a
        bare ReproError with no actual-vs-expected detail."""
        ctx = MultiGpuContext(TESLA_C2050, 2)
        with pytest.raises(ContextMismatchError) as exc_info:
            multi_gpu_count_triangles(k5, device=GTX_980, num_gpus=4,
                                      context=ctx)
        err = exc_info.value
        assert err.actual_count == 2
        assert err.expected_count == 4
        assert err.actual_device == TESLA_C2050.name
        assert err.expected_device == GTX_980.name
        assert TESLA_C2050.name in str(err)
        assert "4x" in str(err)

    def test_context_mismatch_is_a_device_error(self, k5):
        # Callers catching the DeviceError family keep working.
        ctx = MultiGpuContext(TESLA_C2050, 3)
        with pytest.raises(DeviceError):
            multi_gpu_count_triangles(k5, num_gpus=2, context=ctx)

    def test_zero_devices_rejected(self):
        with pytest.raises(DeviceError):
            MultiGpuContext(TESLA_C2050, 0)

    def test_unknown_exchange_rejected(self, k5):
        with pytest.raises(ReproError, match="broadcast.*ring"):
            multi_gpu_count_triangles(k5, num_gpus=2, exchange="tree")

    @pytest.mark.parametrize("mode", ["report", "strict"])
    def test_sanitize_rejected(self, k5, mode):
        """The slice launches run no sanitizer, so a sanitize request
        is a typed error naming the single-GPU pipeline — never a run
        that reports the mode with empty findings."""
        with pytest.raises(ReproError, match="gpu_count_triangles"):
            multi_gpu_count_triangles(k5, num_gpus=2,
                                      options=GpuOptions(sanitize=mode))


class TestTiming:
    def test_counting_phase_shrinks(self, medium_rmat):
        """4 devices split the merge work ~4 ways — in the paper's
        regime of many more arcs than resident threads."""
        one = gpu_count_triangles(medium_rmat, device=TESLA_C2050)
        four = multi_gpu_count_triangles(medium_rmat, num_gpus=4)
        assert four.timeline.phase_ms("count") < one.timeline.phase_ms("count")

    def test_amdahl_bound(self, medium_rmat):
        """Speedup cannot exceed what the preprocessing fraction allows
        (Section III-E) — and must not be wildly below it either."""
        one = gpu_count_triangles(medium_rmat, device=TESLA_C2050)
        four = multi_gpu_count_triangles(medium_rmat, num_gpus=4)
        speedup = one.total_ms / four.total_ms
        f = one.timeline.preprocessing_fraction
        amdahl_max = 1.0 / (f + (1 - f) / 4)
        assert speedup <= amdahl_max * 1.05
        assert speedup > 0.5  # broadcast overhead can't blow it up

    def test_per_device_reports(self, small_ws):
        res = multi_gpu_count_triangles(small_ws, num_gpus=3)
        assert len(res.per_device) == 3
        for report, timing in res.per_device:
            assert timing.kernel_ms <= res.kernel_timing.kernel_ms

    def test_broadcast_events_recorded(self, small_rmat):
        res = multi_gpu_count_triangles(small_rmat, num_gpus=2)
        assert any("broadcast" in e.name for e in res.timeline.events)


class TestRingExchange:
    """The ring/store-and-forward exchange (the tentpole's multi-GPU
    half): identical results, measured makespan that beats broadcast."""

    def test_counts_and_counters_identical(self, small_rmat, oracle):
        for k in (2, 3, 4):
            bcast = multi_gpu_count_triangles(small_rmat, num_gpus=k)
            ring = multi_gpu_count_triangles(small_rmat, num_gpus=k,
                                             exchange="ring")
            assert bcast.triangles == ring.triangles == oracle(small_rmat)
            assert ([r.counters() for r, _ in bcast.per_device]
                    == [r.counters() for r, _ in ring.per_device])

    def test_ring_beats_broadcast_makespan(self, small_rmat):
        for k in (3, 4):
            bcast = multi_gpu_count_triangles(small_rmat, num_gpus=k)
            ring = multi_gpu_count_triangles(small_rmat, num_gpus=k,
                                             exchange="ring")
            assert (ring.timeline.makespan_ms
                    < bcast.timeline.makespan_ms)

    def test_ring_records_dependency_edges(self, small_rmat):
        ring = multi_gpu_count_triangles(small_rmat, num_gpus=3,
                                         exchange="ring")
        tl = ring.timeline
        assert tl.stream_deps          # wait_for edges were recorded
        assert any("ring" in e.name for e in tl.stream_events)

    def test_serial_totals_stay_paper_protocol(self, small_rmat):
        """Reported totals are the serial phase sums either way — the
        ring's pipelining only shows up in the measured makespan."""
        bcast = multi_gpu_count_triangles(small_rmat, num_gpus=3)
        ring = multi_gpu_count_triangles(small_rmat, num_gpus=3,
                                         exchange="ring")
        # Ring moves each byte once per hop (direct peer links); the
        # broadcast protocol pays the host-mediated 2x — so the ring's
        # serial copy total is smaller, not equal.
        assert (ring.timeline.phase_ms("copy")
                < bcast.timeline.phase_ms("copy"))
        assert bcast.timeline.phase_ms("count") == pytest.approx(
            ring.timeline.phase_ms("count"))


class TestContext:
    def test_partition_ranges_cover(self):
        ctx = MultiGpuContext(TESLA_C2050, 4)
        ranges = ctx.partition_ranges(1003)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == 1003
        for (a, b), (c, d) in zip(ranges, ranges[1:]):
            assert b == c
        sizes = [b - a for a, b in ranges]
        assert max(sizes) - min(sizes) <= 1

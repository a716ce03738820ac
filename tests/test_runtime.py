"""The unified kernel runtime: dispatch, launch lifecycle and stream
timeline."""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze import LEGACY_RULES, analyze_paths, analyze_source
from repro.core.forward_gpu import gpu_count_triangles
from repro.core.multi_gpu import multi_gpu_count_triangles
from repro.core.options import GpuOptions
from repro.core.partitioned import partitioned_count_triangles
from repro.cpu.forward import forward_count_cpu
from repro.errors import ReproError
from repro.gpusim.device import GTX_980, NVS_5200M, TESLA_C2050
from repro.gpusim.memory import DeviceMemory
from repro.gpusim.timing import Timeline
from repro.runtime import LaunchPlan, launch


class TestEagerValidation:
    """Bad kernel/sanitize strings are typed errors naming the valid
    choices — never a silent fallback."""

    @pytest.mark.parametrize("field,value", [
        ("kernel", "bitonic"), ("sanitize", "loud")])
    def test_gpu_options_rejects_bad_strings(self, field, value):
        with pytest.raises(ReproError, match="must be one of"):
            GpuOptions(**{field: value})

    def test_per_vertex_unsupported_fails_before_preprocess(
            self, small_rmat, monkeypatch):
        """A per-vertex plan on a kernel without the corner hook fails
        before any device work."""
        from repro.core.local_counts import gpu_local_counts

        def no_preprocess(*args, **kwargs):
            raise AssertionError("preprocess ran before validation")

        # ``repro.runtime.launch`` the attribute is the function; patch
        # the module of the same name.
        monkeypatch.setattr(sys.modules["repro.runtime.launch"],
                            "preprocess", no_preprocess)
        with pytest.raises(ReproError, match="does not support per-vertex"):
            gpu_local_counts(small_rmat, options=GpuOptions(kernel="hash"))


class TestLaunch:
    def test_matches_cpu_reference(self, small_rmat):
        want = forward_count_cpu(small_rmat).triangles
        run = launch(LaunchPlan(graph=small_rmat))
        assert run.triangles == want
        assert run.report.counters()

    def test_matches_forward_gpu_pipeline(self, small_rmat):
        run = launch(LaunchPlan(graph=small_rmat))
        via_pipeline = gpu_count_triangles(small_rmat)
        assert run.triangles == via_pipeline.triangles
        assert (run.report.counters()
                == via_pipeline.kernel_report.counters())

    def test_needs_graph_or_preprocessed(self):
        with pytest.raises(ReproError, match="graph or a preprocessed"):
            launch(LaunchPlan())

    def test_memory_device_mismatch(self, small_rmat):
        with pytest.raises(ReproError, match="memory belongs to"):
            launch(LaunchPlan(graph=small_rmat,
                              device=GTX_980,
                              memory=DeviceMemory(NVS_5200M)))

    def test_per_vertex_readback(self, small_rmat):
        run = launch(LaunchPlan(graph=small_rmat, per_vertex=True))
        assert run.per_vertex is not None
        assert len(run.per_vertex) == small_rmat.num_nodes
        assert int(run.per_vertex.sum()) == 3 * run.triangles

    def test_default_timeline_is_streamed(self, small_rmat):
        run = launch(LaunchPlan(graph=small_rmat))
        assert isinstance(run.timeline, Timeline)
        # Single-stream run: serial protocol == stream schedule.
        assert run.timeline.overlap_savings_ms == pytest.approx(0.0)

    def test_sanitizer_attached_when_requested(self, small_rmat):
        run = launch(LaunchPlan(graph=small_rmat,
                                options=GpuOptions(sanitize="report")))
        assert run.sanitizer is not None
        assert run.sanitizer_reports == []   # clean kernel
        off = launch(LaunchPlan(graph=small_rmat))
        assert off.sanitizer is None


class TestStreamTimeline:
    def test_serial_totals_unchanged_by_streams(self):
        tl = Timeline()
        tl.add("a", 2.0, phase="preprocess")
        tl.add_on("b", 3.0, phase="copy", stream=1)
        tl.add_on("c", 4.0, phase="copy", stream=2)
        assert tl.total_ms == pytest.approx(9.0)       # paper's protocol
        assert tl.makespan_ms == pytest.approx(6.0)    # 2 + max(3, 4)
        assert tl.overlap_savings_ms == pytest.approx(3.0)

    def test_fork_point_and_barrier(self):
        tl = Timeline()
        tl.add("host", 5.0)
        tl.add_on("copy", 1.0, stream=1)    # forks at t=5
        events = {e.name: e for e in tl.stream_events}
        assert events["copy"].start_ms == pytest.approx(5.0)
        tl.barrier()
        tl.add("after", 1.0)
        assert events["copy"].end_ms == pytest.approx(6.0)
        after = [e for e in tl.stream_events if e.name == "after"][0]
        assert after.start_ms == pytest.approx(tl.makespan_ms - 1.0)

    def test_pipelined_ms(self):
        tl = Timeline()
        tl.add("prep", 4.0, phase="preprocess")
        tl.add("h2d", 3.0, phase="copy")
        tl.add("kernel", 2.0, phase="count")
        # Double-buffered: prep/copy cost max(4,3) instead of 7.
        assert tl.pipelined_ms() == pytest.approx(6.0)

    def test_empty_timeline_makespan(self):
        tl = Timeline()
        assert tl.makespan_ms == 0.0
        assert tl.overlap_savings_ms == 0.0

    def test_add_on_before_any_default_event(self):
        # A stream forked before the default stream ever ran starts at 0.
        tl = Timeline()
        tl.add_on("early copy", 2.0, phase="copy", stream=3)
        event = tl.stream_events[0]
        assert event.start_ms == pytest.approx(0.0)
        assert tl.makespan_ms == pytest.approx(2.0)

    def test_pipelined_ms_with_absent_phase(self):
        # No "copy" events: nothing to hide, the what-if is the total.
        tl = Timeline()
        tl.add("prep", 4.0, phase="preprocess")
        tl.add("kernel", 2.0, phase="count")
        assert tl.pipelined_ms() == pytest.approx(tl.total_ms)

    def test_barrier_covers_streams_forked_after_it(self):
        """The cursor-bookkeeping bugfix: when every pre-barrier event
        sat on named streams, a stream forked *after* the barrier used
        to start at the stale pre-barrier default clock (0.0)."""
        tl = Timeline()
        tl.add_on("copy a", 3.0, phase="copy", stream=1)
        tl.add_on("copy b", 4.0, phase="copy", stream=2)
        tl.barrier()
        tl.add_on("late", 1.0, phase="copy", stream=7)   # fresh stream
        late = tl.stream_events[-1]
        assert late.start_ms == pytest.approx(4.0)
        assert tl.makespan_ms == pytest.approx(5.0)

    def test_wait_for_edge_semantics(self):
        tl = Timeline()
        tl.add("host", 5.0)
        dep = tl.wait_for(1, 0)          # stream 1 waits for the host work
        tl.add_on("copy", 2.0, phase="copy", stream=1)
        assert (dep.stream, dep.upstream) == (1, 0)
        assert dep.at_ms == pytest.approx(5.0)
        assert tl.stream_deps == [dep]
        assert tl.stream_events[-1].start_ms == pytest.approx(5.0)
        # The edge never rewinds a stream that is already further along.
        tl.wait_for(1, 0)
        assert tl.stream_time(1) == pytest.approx(7.0)

    def test_stream_time_accessor(self):
        tl = Timeline()
        tl.add("host", 3.0)
        assert tl.stream_time() == pytest.approx(3.0)
        assert tl.stream_time(9) == pytest.approx(3.0)   # unforked stream

    def test_multi_gpu_broadcast_overlaps(self, small_rmat):
        run3 = multi_gpu_count_triangles(small_rmat, device=TESLA_C2050,
                                         num_gpus=3)
        tl = run3.timeline
        streams = {e.stream for e in tl.stream_events}
        assert len(streams & {1, 2}) == 2   # per-destination copy streams
        # Concurrent per-card copies beat the serial protocol.
        assert tl.overlap_savings_ms > 0.0
        assert tl.makespan_ms < tl.total_ms
        want = forward_count_cpu(small_rmat).triangles
        assert run3.triangles == want


class TestStreamInvariance:
    """Serial totals are the paper's protocol — no stream assignment,
    dependency edge or barrier may change them."""

    @given(st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=100.0),
                  st.integers(min_value=0, max_value=5),
                  st.sampled_from(["preprocess", "copy", "count", "reduce"])),
        max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_serial_totals_invariant_under_streams(self, events):
        streamed = Timeline()
        serial = Timeline()
        for i, (ms, stream, phase) in enumerate(events):
            streamed.add_on(f"e{i}", ms, phase=phase, stream=stream)
            serial.add(f"e{i}", ms, phase=phase)
            if i % 3 == 0:
                streamed.wait_for((stream + 1) % 6, stream)
            if i % 7 == 6:
                streamed.barrier()
        assert streamed.total_ms == pytest.approx(serial.total_ms)
        for phase in ("preprocess", "copy", "count", "reduce"):
            assert streamed.phase_ms(phase) == pytest.approx(
                serial.phase_ms(phase))
        assert streamed.makespan_ms <= serial.total_ms + 1e-9


def gpu_counter(graph):
    """The GPU backend of the partitioned scheme: one full single-GPU
    pipeline run per subgraph."""
    return gpu_count_triangles(graph, device=GTX_980,
                               options=GpuOptions()).triangles


class TestGpuBackends:
    def test_partitioned_gpu_counter(self, small_ba):
        want = forward_count_cpu(small_ba).triangles
        res = partitioned_count_triangles(small_ba, num_parts=2,
                                          counter=gpu_counter)
        assert res.triangles == want


def legacy_findings(source, path):
    """The legacy rules' findings on one module, sorted."""
    return list(analyze_source(source, path,
                               checks=LEGACY_RULES).all_findings)


class TestSan104:
    def test_flags_direct_construction(self):
        src = ("from repro.gpusim.simt import SimtEngine\n"
               "e = SimtEngine(dev, launch)\n")
        findings = legacy_findings(src, "src/repro/core/rogue.py")
        assert [f.rule for f in findings] == ["SAN104"]
        assert "repro.runtime" in findings[0].message

    @pytest.mark.parametrize("path", [
        "src/repro/gpusim/simt.py", "src/repro/runtime/launch.py"])
    def test_exempt_packages(self, path):
        findings = legacy_findings("e = SimtEngine(dev, launch)\n", path)
        assert findings == []

    def test_suppression_comment(self):
        src = "e = SimtEngine(dev, launch)  # san-ok: SAN104\n"
        assert legacy_findings(src, "src/repro/core/rogue.py") == []

    def test_tree_is_clean(self):
        from pathlib import Path

        src_root = Path(__file__).parent.parent / "src"
        result = analyze_paths([str(src_root)], checks=LEGACY_RULES)
        findings = [f for f in result.all_findings
                    if f.rule == "SAN104"]
        assert findings == []


class TestSan105:
    def test_flags_direct_cursor_access(self):
        src = "start = tl._cursors[0]\n"
        findings = legacy_findings(src, "src/repro/core/rogue.py")
        assert [f.rule for f in findings] == ["SAN105"]
        assert "stream_time" in findings[0].message

    def test_flags_cursor_mutation(self):
        src = "tl._cursors[1] = 5.0\n"
        findings = legacy_findings(src, "src/repro/bench/rogue.py")
        assert [f.rule for f in findings] == ["SAN105"]

    def test_gpusim_package_exempt(self):
        """The exemption follows the class: only gpusim, where Timeline
        lives, may touch the cursors; the runtime is no longer exempt."""
        src = "start = self._cursors[stream]\n"
        assert legacy_findings(src, "src/repro/gpusim/timing.py") == []
        findings = legacy_findings(src, "src/repro/runtime/launch.py")
        assert [f.rule for f in findings] == ["SAN105"]

    def test_suppression_comment(self):
        src = "x = tl._cursors  # san-ok: SAN105\n"
        assert legacy_findings(src, "src/repro/core/rogue.py") == []

    def test_tree_is_clean(self):
        from pathlib import Path

        src_root = Path(__file__).parent.parent / "src"
        result = analyze_paths([str(src_root)], checks=LEGACY_RULES)
        findings = [f for f in result.all_findings
                    if f.rule == "SAN105"]
        assert findings == []

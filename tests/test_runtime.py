"""The unified kernel runtime: registry, dispatch, launch lifecycle,
stream timeline and the hostprof phase vocabulary."""

from __future__ import annotations

from time import perf_counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.forward_gpu import gpu_count_triangles
from repro.core.hybrid import gpu_hub_counter, hybrid_count_triangles
from repro.core.multi_gpu import multi_gpu_count_triangles
from repro.core.options import GpuOptions
from repro.core.partitioned import (gpu_subgraph_counter,
                                    partitioned_count_triangles)
from repro.cpu.forward import forward_count_cpu
from repro.errors import ReproError
from repro.gpusim.device import GTX_980, NVS_5200M, TESLA_C2050
from repro.gpusim.hostprof import HostProfiler, host_profiling
from repro.gpusim.memory import DeviceMemory
from repro.runtime import (KernelSpec, LaunchPlan, StreamTimeline,
                           get_kernel, kernel_names, launch,
                           resolve_kernel, spec_for_options)
from repro.runtime.spec import register
from repro.sanitize.lint import lint_source


class TestRegistry:
    def test_builtin_kernels_registered(self):
        assert kernel_names() == ("binary_search", "hash", "local", "merge",
                                  "warp_intersect")

    def test_get_kernel_unknown_names_choices(self):
        with pytest.raises(ReproError, match="registered.*merge"):
            get_kernel("bitonic")

    def test_resolve_kernel_passthrough(self):
        spec = get_kernel("merge")
        assert resolve_kernel(spec) is spec
        assert resolve_kernel("merge") is spec

    def test_register_rejects_duplicate_name(self):
        clone = KernelSpec(name="merge", display_name="X",
                           body=get_kernel("merge").body)
        with pytest.raises(ReproError, match="already registered"):
            register(clone)

    def test_spec_for_options(self):
        assert spec_for_options(GpuOptions()).name == "merge"
        assert spec_for_options(
            GpuOptions(kernel="warp_intersect")).name == "warp_intersect"
        assert spec_for_options(GpuOptions(), per_vertex=True).name == "local"


class TestEagerValidation:
    """Bad kernel/sanitize strings are typed errors naming the valid
    choices — never a silent fallback."""

    @pytest.mark.parametrize("field,value", [
        ("kernel", "bitonic"), ("sanitize", "loud")])
    def test_gpu_options_rejects_bad_strings(self, field, value):
        with pytest.raises(ReproError, match="must be one of"):
            GpuOptions(**{field: value})


class TestLaunch:
    def test_matches_cpu_reference(self, small_rmat):
        want = forward_count_cpu(small_rmat).triangles
        run = launch(LaunchPlan(kernel="merge", graph=small_rmat))
        assert run.triangles == want
        assert run.report.counters()

    def test_matches_forward_gpu_pipeline(self, small_rmat):
        run = launch(LaunchPlan(kernel="merge", graph=small_rmat))
        via_pipeline = gpu_count_triangles(small_rmat)
        assert run.triangles == via_pipeline.triangles
        assert (run.report.counters()
                == via_pipeline.kernel_report.counters())

    def test_needs_graph_or_preprocessed(self):
        with pytest.raises(ReproError, match="graph or a preprocessed"):
            launch(LaunchPlan(kernel="merge"))

    def test_memory_device_mismatch(self, small_rmat):
        with pytest.raises(ReproError, match="memory belongs to"):
            launch(LaunchPlan(kernel="merge", graph=small_rmat,
                              device=GTX_980,
                              memory=DeviceMemory(NVS_5200M)))

    def test_per_vertex_readback(self, small_rmat):
        run = launch(LaunchPlan(kernel="local", graph=small_rmat))
        assert run.per_vertex is not None
        assert len(run.per_vertex) == small_rmat.num_nodes
        assert int(run.per_vertex.sum()) == 3 * run.triangles

    def test_default_timeline_is_streamed(self, small_rmat):
        run = launch(LaunchPlan(kernel="merge", graph=small_rmat))
        assert isinstance(run.timeline, StreamTimeline)
        # Single-stream run: serial protocol == stream schedule.
        assert run.timeline.overlap_savings_ms == pytest.approx(0.0)

    def test_hostprof_unified_phases(self, small_rmat):
        profiler = HostProfiler()
        with host_profiling(profiler):
            launch(LaunchPlan(kernel="merge", graph=small_rmat))
        for phase in ("h2d", "kernel", "d2h", "free"):
            assert phase in profiler.phases, phase
        # Kernel tick sections are recorded but nest inside "kernel":
        # the top-level total must not double-count them.
        assert "merge" in profiler.phases
        top = sum(profiler.phases[p].seconds
                  for p in ("h2d", "kernel", "d2h", "free"))
        assert profiler.total_seconds == pytest.approx(top)

    @pytest.mark.parametrize("kernel", ["two_pointer", "binary_search",
                                        "hash"])
    def test_hostprof_total_within_wall_time(self, small_rmat, kernel):
        """Every strategy's step section nests inside ``kernel``, so the
        top-level total never exceeds the call's own wall time."""
        profiler = HostProfiler()
        with host_profiling(profiler):
            t0 = perf_counter()
            gpu_count_triangles(small_rmat,
                                options=GpuOptions(kernel=kernel))
            wall = perf_counter() - t0
        assert profiler.total_seconds <= wall

    def test_sanitizer_attached_when_requested(self, small_rmat):
        run = launch(LaunchPlan(kernel="merge", graph=small_rmat,
                                options=GpuOptions(sanitize="report")))
        assert run.sanitizer is not None
        assert run.sanitizer_reports == []   # clean kernel
        off = launch(LaunchPlan(kernel="merge", graph=small_rmat))
        assert off.sanitizer is None


class TestStreamTimeline:
    def test_serial_totals_unchanged_by_streams(self):
        tl = StreamTimeline()
        tl.add("a", 2.0, phase="preprocess")
        tl.add_on("b", 3.0, phase="copy", stream=1)
        tl.add_on("c", 4.0, phase="copy", stream=2)
        assert tl.total_ms == pytest.approx(9.0)       # paper's protocol
        assert tl.makespan_ms == pytest.approx(6.0)    # 2 + max(3, 4)
        assert tl.overlap_savings_ms == pytest.approx(3.0)

    def test_fork_point_and_barrier(self):
        tl = StreamTimeline()
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
        tl = StreamTimeline()
        tl.add("prep", 4.0, phase="preprocess")
        tl.add("h2d", 3.0, phase="copy")
        tl.add("kernel", 2.0, phase="count")
        # Double-buffered: prep/copy cost max(4,3) instead of 7.
        assert tl.pipelined_ms() == pytest.approx(6.0)

    def test_empty_timeline_makespan(self):
        tl = StreamTimeline()
        assert tl.makespan_ms == 0.0
        assert tl.overlap_savings_ms == 0.0

    def test_add_on_before_any_default_event(self):
        # A stream forked before the default stream ever ran starts at 0.
        tl = StreamTimeline()
        tl.add_on("early copy", 2.0, phase="copy", stream=3)
        event = tl.stream_events[0]
        assert event.start_ms == pytest.approx(0.0)
        assert tl.makespan_ms == pytest.approx(2.0)

    def test_pipelined_ms_with_absent_phase(self):
        # No "copy" events: nothing to hide, the what-if is the total.
        tl = StreamTimeline()
        tl.add("prep", 4.0, phase="preprocess")
        tl.add("kernel", 2.0, phase="count")
        assert tl.pipelined_ms() == pytest.approx(tl.total_ms)

    def test_barrier_covers_streams_forked_after_it(self):
        """The cursor-bookkeeping bugfix: when every pre-barrier event
        sat on named streams, a stream forked *after* the barrier used
        to start at the stale pre-barrier default clock (0.0)."""
        tl = StreamTimeline()
        tl.add_on("copy a", 3.0, phase="copy", stream=1)
        tl.add_on("copy b", 4.0, phase="copy", stream=2)
        tl.barrier()
        tl.add_on("late", 1.0, phase="copy", stream=7)   # fresh stream
        late = tl.stream_events[-1]
        assert late.start_ms == pytest.approx(4.0)
        assert tl.makespan_ms == pytest.approx(5.0)

    def test_wait_for_edge_semantics(self):
        tl = StreamTimeline()
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
        tl = StreamTimeline()
        tl.add("host", 3.0)
        assert tl.stream_time() == pytest.approx(3.0)
        assert tl.stream_time(9) == pytest.approx(3.0)   # unforked stream

    def test_multi_gpu_broadcast_overlaps(self, small_rmat):
        run3 = multi_gpu_count_triangles(small_rmat, device=TESLA_C2050,
                                         num_gpus=3)
        tl = run3.timeline
        assert isinstance(tl, StreamTimeline)
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
        streamed = StreamTimeline()
        serial = StreamTimeline()
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


class TestGpuBackends:
    def test_hybrid_hub_counter_matches_matmul(self, small_rmat):
        default = hybrid_count_triangles(small_rmat, hub_fraction=0.1)
        via_gpu = hybrid_count_triangles(small_rmat, hub_fraction=0.1,
                                         hub_counter=gpu_hub_counter())
        assert via_gpu.triangles == default.triangles
        assert via_gpu.hub_triangles == default.hub_triangles

    def test_partitioned_gpu_counter(self, small_ba):
        want = forward_count_cpu(small_ba).triangles
        res = partitioned_count_triangles(small_ba, num_parts=2,
                                          counter=gpu_subgraph_counter())
        assert res.triangles == want


class TestSan104:
    def test_flags_direct_construction(self):
        src = ("from repro.gpusim.simt import SimtEngine\n"
               "e = SimtEngine(dev, launch)\n")
        findings = lint_source(src, "src/repro/core/rogue.py")
        assert [f.rule for f in findings] == ["SAN104"]
        assert "repro.runtime" in findings[0].message

    @pytest.mark.parametrize("path", [
        "src/repro/gpusim/simt.py", "src/repro/runtime/launch.py"])
    def test_exempt_packages(self, path):
        findings = lint_source("e = SimtEngine(dev, launch)\n", path)
        assert findings == []

    def test_suppression_comment(self):
        src = "e = SimtEngine(dev, launch)  # san-ok: SAN104\n"
        assert lint_source(src, "src/repro/core/rogue.py") == []

    def test_tree_is_clean(self):
        from pathlib import Path

        from repro.sanitize.lint import lint_paths
        src_root = Path(__file__).parent.parent / "src"
        findings = [f for f in lint_paths([str(src_root)])
                    if f.rule == "SAN104"]
        assert findings == []


class TestSan105:
    def test_flags_direct_cursor_access(self):
        src = "start = tl._cursors[0]\n"
        findings = lint_source(src, "src/repro/core/rogue.py")
        assert [f.rule for f in findings] == ["SAN105"]
        assert "stream_time" in findings[0].message

    def test_flags_cursor_mutation(self):
        src = "tl._cursors[1] = 5.0\n"
        findings = lint_source(src, "src/repro/bench/rogue.py")
        assert [f.rule for f in findings] == ["SAN105"]

    def test_runtime_package_exempt(self):
        src = "start = self._cursors[stream]\n"
        assert lint_source(src, "src/repro/runtime/stream.py") == []

    def test_suppression_comment(self):
        src = "x = tl._cursors  # san-ok: SAN105\n"
        assert lint_source(src, "src/repro/core/rogue.py") == []

    def test_tree_is_clean(self):
        from pathlib import Path

        from repro.sanitize.lint import lint_paths
        src_root = Path(__file__).parent.parent / "src"
        findings = [f for f in lint_paths([str(src_root)])
                    if f.rule == "SAN105"]
        assert findings == []

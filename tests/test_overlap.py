"""The executed async pipeline, the overlap bench harness, and the
serve-plane ring wiring (the "make overlap real" tentpole)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.overlap import (MIN_SAVINGS, OverlapReport, PipelineRow,
                                 run_exchange_row, run_overlap,
                                 run_pipeline_row)
from repro.bench.reproduce import committed_drift
from repro.core.forward_gpu import gpu_count_triangles
from repro.core.options import GpuOptions
from repro.errors import ReproError
from repro.core.preprocess import COPY_STREAM
from repro.gpusim.device import GTX_980
from repro.gpusim.timing import DEFAULT_STREAM, Timeline
from repro.runtime import D2H_STREAM, LaunchPlan, launch
from repro.serve.fleet import Fleet
from repro.serve.plane.control import PlaneConfig
from repro.serve.plane.replicas import ReplicaManager, ResidentEntry

GOLDEN_PATH = Path(__file__).parent / "golden_runtime_counters.json"

#: The forced-† options both modes run under (the only regime the
#: executed pipeline schedules differently).
DAGGER = GpuOptions(cpu_preprocess="always")


#: The chunk count the executed pipeline is exercised with.
CHUNKS = 8


class TestPipelinedPlan:
    def test_defaults_valid(self, small_rmat):
        run = launch(LaunchPlan(graph=small_rmat,
                                pipeline_chunks=CHUNKS))
        names = [e.name for e in run.timeline.events]
        assert sum("[chunk" in n for n in names) == 2 * CHUNKS

    def test_rejects_zero_chunks(self, small_rmat):
        with pytest.raises(ReproError, match="chunks"):
            gpu_count_triangles(small_rmat, pipeline_chunks=0)


class TestPipelinedExecution:
    def test_counts_and_counters_identical(self, any_graph, oracle):
        serial = gpu_count_triangles(any_graph, options=DAGGER)
        piped = gpu_count_triangles(any_graph, options=DAGGER,
                                    pipeline_chunks=CHUNKS)
        assert piped.triangles == serial.triangles == oracle(any_graph)
        assert (piped.kernel_report.counters()
                == serial.kernel_report.counters())

    def test_serial_protocol_preserved(self, small_rmat):
        """Reported totals and every phase sum are the paper's serial
        protocol in both modes — the chunked events sum exactly."""
        serial = gpu_count_triangles(small_rmat, options=DAGGER)
        piped = gpu_count_triangles(small_rmat, options=DAGGER,
                                    pipeline_chunks=CHUNKS)
        assert piped.total_ms == pytest.approx(serial.total_ms)
        for phase in ("preprocess", "copy", "count", "reduce"):
            assert piped.timeline.phase_ms(phase) == pytest.approx(
                serial.timeline.phase_ms(phase))

    def test_makespan_measured_below_total(self, small_rmat):
        piped = gpu_count_triangles(small_rmat, options=DAGGER,
                                    pipeline_chunks=CHUNKS)
        tl = piped.timeline
        assert tl.makespan_ms < tl.total_ms
        assert tl.stream_deps           # real wait_for edges were recorded

    def test_makespan_tracks_model(self, small_rmat):
        """The executed schedule converges to the modeled pipelined_ms
        (the drift gate BENCH_overlap.json commits at 10%)."""
        serial = gpu_count_triangles(small_rmat, options=DAGGER)
        piped = gpu_count_triangles(small_rmat, options=DAGGER,
                                    pipeline_chunks=CHUNKS)
        model = serial.timeline.pipelined_ms()
        measured = piped.timeline.makespan_ms
        assert measured >= model - 1e-12   # model is the N→∞ limit
        assert abs(measured - model) / model <= 0.10

    def test_more_chunks_converge_toward_model(self, small_rmat):
        serial = gpu_count_triangles(small_rmat, options=DAGGER)
        model = serial.timeline.pipelined_ms()
        gaps = []
        for chunks in (1, 4, 16):
            piped = gpu_count_triangles(
                small_rmat, options=DAGGER, pipeline_chunks=chunks)
            gaps.append(piped.timeline.makespan_ms - model)
        assert gaps[0] > gaps[1] > gaps[2] >= -1e-12

    def test_d2h_rides_its_own_stream(self, small_rmat):
        piped = gpu_count_triangles(small_rmat, options=DAGGER,
                                    pipeline_chunks=CHUNKS)
        tl = piped.timeline
        streams = {e.stream for e in tl.stream_events}
        assert {DEFAULT_STREAM, COPY_STREAM, D2H_STREAM} <= streams
        d2h = [e for e in tl.stream_events if e.name == "d2h result"]
        assert d2h and d2h[0].stream == D2H_STREAM

    def test_forces_dagger_protocol(self, small_rmat):
        piped = gpu_count_triangles(small_rmat, pipeline_chunks=CHUNKS)
        assert piped.used_cpu_fallback
        assert piped.options.cpu_preprocess == "always"

    def test_rejects_never_preprocess(self, small_rmat):
        with pytest.raises(ReproError, match="cpu_preprocess"):
            gpu_count_triangles(small_rmat,
                                options=GpuOptions(cpu_preprocess="never"),
                                pipeline_chunks=CHUNKS)

    def test_serial_default_records_no_schedule(self, small_rmat):
        """Without pipeline_chunks the run is the serial protocol: no
        dependency edges and every event on the default stream."""
        run = gpu_count_triangles(small_rmat, options=DAGGER)
        assert run.timeline.stream_deps == []
        assert {e.stream for e in run.timeline.stream_events} == {
            DEFAULT_STREAM}

    def test_pipelined_launch_needs_graph(self):
        with pytest.raises(ReproError, match="graph"):
            launch(LaunchPlan(pipeline_chunks=CHUNKS))

    def test_chunked_preprocess_needs_dagger(self, small_rmat):
        from repro.core.preprocess import preprocess
        from repro.gpusim.memory import DeviceMemory

        with pytest.raises(ReproError, match="cpu_preprocess='always'"):
            preprocess(small_rmat, GTX_980, DeviceMemory(GTX_980),
                       Timeline(), GpuOptions(), chunks=CHUNKS)

    def test_pipeline_chunks_rejects_slice_launch(self, small_rmat):
        from repro.core.preprocess import preprocess
        from repro.gpusim.memory import DeviceMemory

        memory = DeviceMemory(GTX_980)
        pre = preprocess(small_rmat, GTX_980, memory, Timeline())
        with pytest.raises(ReproError, match="preprocessed"):
            launch(LaunchPlan(memory=memory,
                              preprocessed=pre, pipeline_chunks=CHUNKS))

    def test_golden_pinned_identity(self, small_rmat):
        """Both modes pinned to the committed golden cell: a mismatch
        means a schedule change leaked into what the simulated GPU
        observes."""
        golden = json.loads(GOLDEN_PATH.read_text())["pipelined/dagger"]
        for chunks in (None, CHUNKS):
            run = gpu_count_triangles(small_rmat, device=GTX_980,
                                      options=DAGGER, pipeline_chunks=chunks)
            cell = {"triangles": run.triangles,
                    "counters": json.loads(json.dumps(
                        run.kernel_report.counters(), default=list))}
            assert cell == golden, chunks


class TestOverlapBench:
    def test_pipeline_row_gates(self):
        row = run_pipeline_row("kron17")
        assert row.identical and row.protocol_kept
        assert row.makespan_ms <= row.total_ms
        assert row.drift <= 0.10
        assert row.savings_frac > 0.0

    def test_exchange_row_gates(self):
        row = run_exchange_row("kron17", 3)
        assert row.identical
        assert row.ring_wins

    def test_unknown_workload(self):
        with pytest.raises(ReproError, match="unknown workload"):
            run_pipeline_row("petersen")
        with pytest.raises(ReproError, match="unknown workload"):
            run_exchange_row("petersen", 2)

    def test_report_round_trip(self):
        report = run_overlap(pipeline_rows=("kron17",),
                             exchange_rows=(("kron17", 3),))
        assert report.problems() == []
        doc = json.loads(report.json_str())
        assert {r["kind"] for r in doc["rows"]} == {"pipeline", "exchange"}

    def test_savings_floor_is_a_gate(self):
        row = PipelineRow(workload="kron17", nodes=1, arcs=1, triangles=0,
                          chunks=8, total_ms=1.0,
                          modeled_ms=1.0 - MIN_SAVINGS / 2,
                          makespan_ms=1.0 - MIN_SAVINGS / 2,
                          identical=True, protocol_kept=True)
        report = OverlapReport(pipeline_rows=[row], exchange_rows=[],
                               device="gtx980", multi_device="c2050",
                               chunks=8, seed=0)
        problems = report.problems()
        assert len(problems) == 1 and "saves" in problems[0]

    def test_committed_artifact_matches(self):
        """The committed BENCH_overlap.json reproduces bit-for-bit
        (simulated ms are deterministic)."""
        path = Path(__file__).parent.parent / "BENCH_overlap.json"
        committed = json.loads(path.read_text())
        report = run_overlap(chunks=committed["chunks"],
                             seed=committed["seed"])
        drift = committed_drift(json.loads(report.json_str()), committed)
        assert drift == [], drift
        assert report.problems() == []


class TestServeRingExchange:
    """The fleet analogue: ReplicaManager's copy timing in ring mode
    chains holder-to-holder instead of hammering the one source."""

    KEY = ("graph", 0)
    ENTRY = ResidentEntry(nbytes=1 << 20, triangles=7, hit_service_ms=0.5)

    def _manager_and_fleet(self, exchange):
        mgr = ReplicaManager(k=4, hot_threshold=1, exchange=exchange)
        fleet = Fleet.homogeneous("gtx980", 4)
        dev0 = fleet[0]
        dev0.cache.insert(self.KEY, self.ENTRY.nbytes,
                          triangles=self.ENTRY.triangles,
                          hit_service_ms=self.ENTRY.hit_service_ms,
                          now_ms=0.0)
        mgr.note_requests(self.KEY)
        return mgr, fleet

    def test_rejects_unknown_exchange(self):
        with pytest.raises(ReproError, match="broadcast.*ring"):
            ReplicaManager(exchange="tree")
        with pytest.raises(ReproError, match="broadcast.*ring"):
            PlaneConfig(exchange="tree")

    def test_config_wires_exchange_through(self):
        from repro.serve.plane.control import ControlPlane
        plane = ControlPlane(PlaneConfig(exchange="ring"))
        assert plane.replicas.exchange == "ring"
        assert ControlPlane(PlaneConfig()).replicas.exchange == "broadcast"

    def test_broadcast_copies_start_together(self):
        mgr, fleet = self._manager_and_fleet("broadcast")
        installed = mgr.maybe_replicate(self.KEY, self.ENTRY, fleet,
                                        t_ms=10.0)
        assert installed == 3
        copy_ms = self.ENTRY.nbytes / (fleet[1].spec.pcie_gbs * 1e9) * 1e3
        for dev in list(fleet)[1:]:
            assert dev.busy_until_ms == pytest.approx(10.0 + copy_ms)

    def test_ring_copies_chain(self):
        mgr, fleet = self._manager_and_fleet("ring")
        installed = mgr.maybe_replicate(self.KEY, self.ENTRY, fleet,
                                        t_ms=10.0)
        assert installed == 3
        copy_ms = self.ENTRY.nbytes / (fleet[1].spec.pcie_gbs * 1e9) * 1e3
        ends = sorted(d.busy_until_ms for d in list(fleet)[1:])
        assert ends == pytest.approx([10.0 + copy_ms,
                                      10.0 + 2 * copy_ms,
                                      10.0 + 3 * copy_ms])

    def test_same_replica_set_either_way(self):
        for exchange in ("broadcast", "ring"):
            mgr, fleet = self._manager_and_fleet(exchange)
            mgr.maybe_replicate(self.KEY, self.ENTRY, fleet, t_ms=0.0)
            holders = {d.index for d in mgr.holders(self.KEY, fleet)}
            assert holders == {0, 1, 2, 3}, exchange

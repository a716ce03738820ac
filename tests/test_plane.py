"""Unit tests for the serving control plane (repro.serve.plane).

Covers the three components — degraded tier, SLO-aware admission,
replica groups (through cache pinning) — plus the
per-tier report/CSV accounting, the serve-scale bench + CLI gate and
the committed ``BENCH_serve.json``.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.bench.reproduce import committed_drift
from repro.bench.serve_scale import failure_schedule, run_serve_scale
from repro.errors import ReproError
from repro.graphs.generators.rmat import rmat
from repro.serve import (DONE, SHED, SHED_DEADLINE, TIER_APPROX, ControlPlane,
                         Fleet, PlaneConfig, PreprocessCache, ServeJob,
                         TraceConfig, build_graph_pool, generate_trace,
                         serve_trace, size_fleet_memory)
from repro.serve.plane.degraded import DegradedTier

CONFIG = TraceConfig(seed=7, duration_ms=12_000.0, rate_per_s=2.5)


@pytest.fixture(scope="module")
def pool():
    return build_graph_pool(CONFIG)


@pytest.fixture(scope="module")
def memory(pool):
    from repro.gpusim.device import DEVICES
    return size_fleet_memory(pool, CONFIG, DEVICES["gtx980"])


@pytest.fixture(scope="module")
def graph():
    return rmat(7, seed=11)


def same_key_jobs(graph, n, arrival_ms=0.0, deadline_ms=None):
    """n jobs querying the same graph, all ready at the same instant."""
    return [ServeJob(job_id=i, graph=graph, arrival_ms=arrival_ms,
                     deadline_ms=deadline_ms) for i in range(n)]


# ---------------------------------------------------------------------- #
# degraded tier
# ---------------------------------------------------------------------- #


class TestDegradedTier:
    def test_payload_shape(self, graph):
        tier = DegradedTier(method="doulion")
        answer = tier.answer(ServeJob(job_id=0, graph=graph))
        payload = answer.payload()
        assert set(payload) == {"estimate", "error_bound", "tier", "method"}
        assert payload["tier"] == TIER_APPROX
        assert payload["method"] == "doulion"
        assert payload["estimate"] >= 0.0
        assert payload["error_bound"] >= 0.0
        assert answer.service_ms > 0.0

    @pytest.mark.parametrize("method", ["doulion", "birthday"])
    def test_memoized_per_fingerprint(self, graph, method):
        tier = DegradedTier(method=method)
        a = tier.answer(ServeJob(job_id=0, graph=graph))
        b = tier.answer(ServeJob(job_id=1, graph=graph))
        assert a.estimate == b.estimate
        assert tier.answers_served == 2

    def test_deterministic_across_instances(self, graph):
        job = ServeJob(job_id=0, graph=graph)
        a = DegradedTier(method="doulion").answer(job)
        b = DegradedTier(method="doulion").answer(job)
        assert a.estimate == b.estimate
        assert a.error_bound == b.error_bound

    def test_estimate_in_the_ballpark(self, graph):
        from repro.cpu.forward import forward_count_cpu
        exact = forward_count_cpu(graph).triangles
        answer = DegradedTier(method="doulion").answer(
            ServeJob(job_id=0, graph=graph))
        assert exact > 0
        assert abs(answer.estimate - exact) <= max(3 * answer.error_bound,
                                                   0.75 * exact)

    def test_validation(self):
        with pytest.raises(ReproError):
            DegradedTier(method="magic8ball")
        with pytest.raises(ReproError):
            DegradedTier(method="doulion", p=0.0)


# ---------------------------------------------------------------------- #
# cache pinning (the replica groups' substrate)
# ---------------------------------------------------------------------- #


class TestCachePinning:
    def test_pinned_entries_survive_eviction(self):
        cache = PreprocessCache(budget_bytes=100)
        cache.insert(("a",), 60, triangles=1, hit_service_ms=1.0, now_ms=0.0)
        assert cache.pin(("a",))
        cache.insert(("b",), 60, triangles=2, hit_service_ms=1.0, now_ms=1.0)
        assert ("a",) in cache          # pinned: not evicted for b
        assert ("b",) not in cache      # no room left around the pin
        assert cache.stats.rejected >= 1

    def test_unpin_restores_lru(self):
        cache = PreprocessCache(budget_bytes=100)
        cache.insert(("a",), 60, triangles=1, hit_service_ms=1.0, now_ms=0.0)
        cache.pin(("a",))
        cache.unpin(("a",))
        cache.insert(("b",), 60, triangles=2, hit_service_ms=1.0, now_ms=1.0)
        assert ("a",) not in cache
        assert ("b",) in cache

    def test_pin_missing_key(self):
        cache = PreprocessCache(budget_bytes=100)
        assert not cache.pin(("ghost",))
        assert cache.pinned_bytes == 0


# ---------------------------------------------------------------------- #
# SLO-aware admission + shed resolution
# ---------------------------------------------------------------------- #


class TestAdmission:
    def test_hopeless_deadline_is_shed_with_prediction(self, graph):
        # A deadline equal to the arrival instant cannot be met by any
        # run with positive service time: admission must shed it and
        # record the prediction that doomed it.
        plane = ControlPlane(PlaneConfig(degraded=False, replicas=1))
        jobs = same_key_jobs(graph, 3, arrival_ms=5.0, deadline_ms=5.0)
        report = serve_trace(Fleet.from_keys(["gtx980"]), jobs, plane=plane)
        assert len(report.shed) == 3
        for job in report.shed:
            assert job.status == SHED
            assert job.shed.reason == SHED_DEADLINE
            assert job.shed.slo_ms == 5.0
            assert job.shed.predicted_finish_ms > job.shed.slo_ms
            assert not job.shed.degraded

    def test_degraded_tier_answers_shed_jobs(self, graph):
        plane = ControlPlane(PlaneConfig(replicas=1))
        jobs = same_key_jobs(graph, 3, arrival_ms=5.0, deadline_ms=5.0)
        report = serve_trace(Fleet.from_keys(["gtx980"]), jobs, plane=plane)
        assert len(report.shed) == 0
        assert len(report.degraded) == 3
        for job in report.degraded:
            assert job.status == DONE
            assert job.tier == TIER_APPROX
            assert job.shed is not None and job.shed.degraded
            assert job.estimate is not None
            assert job.error_bound is not None and job.error_bound >= 0.0
            assert job.approx_method == "doulion"

    def test_meetable_deadlines_are_not_shed(self, graph):
        plane = ControlPlane(PlaneConfig(replicas=1))
        jobs = same_key_jobs(graph, 3, arrival_ms=0.0, deadline_ms=5_000.0)
        report = serve_trace(Fleet.from_keys(["gtx980"]), jobs, plane=plane)
        assert len(report.shed) == 0 and len(report.degraded) == 0
        assert len(report.done) == 3

    def test_plane_config_validation(self):
        with pytest.raises(ReproError):
            PlaneConfig(replicas=0)
        with pytest.raises(ReproError):
            PlaneConfig(approx_method="nope")


# ---------------------------------------------------------------------- #
# replica groups
# ---------------------------------------------------------------------- #


class TestReplicaGroups:
    def test_hot_key_replicates_and_pins(self, pool, memory):
        plane = ControlPlane(PlaneConfig(replicas=2, hot_threshold=2,
                                         admission=False, degraded=False))
        fleet = Fleet.homogeneous("gtx980", 4, memory_bytes=memory)
        report = serve_trace(fleet, generate_trace(CONFIG, pool),
                             plane=plane)
        assert report.replications >= 1
        pinned = sum(d.cache.pinned_bytes > 0 for d in fleet)
        assert pinned >= 2              # the hot key lives on >= k devices

    def test_replica_affinity_raises_hit_rate(self, pool, memory):
        seed = serve_trace(Fleet.homogeneous("gtx980", 4,
                                             memory_bytes=memory),
                           generate_trace(CONFIG, pool))
        plane = ControlPlane(PlaneConfig(admission=False, degraded=False))
        steered = serve_trace(Fleet.homogeneous("gtx980", 4,
                                                memory_bytes=memory),
                              generate_trace(CONFIG, pool), plane=plane)
        assert steered.cache_hit_rate > seed.cache_hit_rate
        a = {j.job_id: j.triangles for j in seed.done}
        b = {j.job_id: j.triangles for j in steered.done}
        assert a == b                   # placement changed, answers did not


# ---------------------------------------------------------------------- #
# per-tier accounting
# ---------------------------------------------------------------------- #


class TestTierAccounting:
    @pytest.fixture(scope="class")
    def overload(self):
        return run_serve_scale(fleet_spec="gtx980x2", duration_ms=8_000.0,
                               rate_per_s=2.0, rate_multiplier=10.0,
                               burst=1.0, seed=1)

    def test_csv_has_tier_and_reason_columns(self, overload):
        csv = overload.plane_report.jobs_csv()
        header = csv.splitlines()[0].split(",")
        assert header[-2:] == ["tier", "shed_reason"]
        assert any(",approx,fleet-dead" in line
                   for line in csv.splitlines()[1:])

    def test_report_renders_plane_lines(self, overload):
        text = overload.plane_report.format_report()
        assert "shed / degraded-tier answers" in text
        assert "replica copies pinned" in text
        seed_text = overload.seed_report.format_report()
        assert "shed / degraded-tier" not in seed_text   # plane-off sheet

    def test_summary_counts_shed(self, overload):
        assert "shed" in overload.seed_report.summary()


# ---------------------------------------------------------------------- #
# serve-scale bench + CLI gate
# ---------------------------------------------------------------------- #


class TestServeScale:
    @pytest.fixture(scope="class")
    def result(self):
        return run_serve_scale(fleet_spec="gtx980x2", duration_ms=8_000.0,
                               rate_per_s=2.0, rate_multiplier=10.0,
                               burst=1.0, seed=1)

    def test_overload_contrast(self, result):
        sdoc = result.doc()["seed_replay"]
        pdoc = result.doc()["plane_replay"]
        assert sdoc["unanswered"] > 0          # the seed strands jobs
        assert pdoc["unanswered"] == 0         # the plane answers them all
        assert pdoc["lost"] == 0
        assert pdoc["degraded"] > 0
        assert result.identical

    def test_doc_round_trips_json(self, result):
        doc = json.loads(result.json_str())
        assert doc["bench"] == "serve-scale"
        assert doc["exact_identical"] is True

    def test_contract_checks(self, result):
        assert [c["name"] for c in result.checks()] == [
            "plane_no_lost_jobs", "plane_all_answered", "exact_identical"]
        assert all(c["passed"] for c in result.checks())
        broken = dataclasses.replace(result, identical=False)
        assert [c["name"] for c in broken.checks()
                if not c["passed"]] == ["exact_identical"]

    def test_committed_artifact_matches(self):
        """A fresh run with the committed config reproduces
        BENCH_serve.json (simulated time is deterministic)."""
        path = Path(__file__).parent.parent / "BENCH_serve.json"
        committed = json.loads(path.read_text())
        cfg = committed["config"]
        res = run_serve_scale(fleet_spec=cfg["fleet"],
                              duration_ms=cfg["duration_ms"],
                              rate_per_s=cfg["rate_per_s"],
                              rate_multiplier=cfg["rate_multiplier"],
                              burst=cfg["burst"], seed=cfg["seed"])
        drift = committed_drift(json.loads(res.json_str()), committed)
        assert drift == [], drift

    def test_failure_schedule_covers_fleet(self):
        sched = failure_schedule(4, 30_000.0)
        assert [i for i, _ in sched] == [0, 1, 2, 3]
        times = [ms for _, ms in sched]
        assert times == sorted(times)
        assert times[-1] < 30_000.0
        assert failure_schedule(1, 10_000.0) == [(0, 2_000.0)]

    def test_rejects_sub_baseline_multiplier(self):
        with pytest.raises(ReproError):
            run_serve_scale(rate_multiplier=0.5)

    def test_cli_smoke(self, tmp_path):
        from repro.bench.cli import main
        out = tmp_path / "BENCH_serve.json"
        rc = main(["serve-scale", "--fleet", "gtx980x2", "--duration", "8",
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["plane_replay"]["unanswered"] == 0


# ---------------------------------------------------------------------- #
# trace knobs
# ---------------------------------------------------------------------- #


class TestTraceKnobs:
    def test_unit_knobs_keep_trace_byte_identical(self, pool):
        base = generate_trace(CONFIG, pool)
        unit = generate_trace(
            TraceConfig(seed=7, duration_ms=12_000.0, rate_per_s=2.5,
                        rate_multiplier=1.0, burst=1.0), pool)
        assert [j.arrival_ms for j in base] == [j.arrival_ms for j in unit]
        assert [j.fingerprint for j in base] == [j.fingerprint for j in unit]

    def test_multiplier_scales_arrivals(self, pool):
        cfg = TraceConfig(seed=7, duration_ms=12_000.0, rate_per_s=2.5,
                          rate_multiplier=4.0)
        assert len(generate_trace(cfg, pool)) > len(generate_trace(CONFIG,
                                                                   pool))

    def test_burst_concentrates_arrivals(self, pool):
        from repro.serve.workload import BURST_DUTY, BURST_PERIOD_MS
        cfg = TraceConfig(seed=7, duration_ms=12_000.0, rate_per_s=2.5,
                          rate_multiplier=4.0, burst=3.0)
        jobs = generate_trace(cfg, pool)
        on = sum((j.arrival_ms % BURST_PERIOD_MS)
                 < BURST_PERIOD_MS * BURST_DUTY for j in jobs)
        assert on / len(jobs) > BURST_DUTY     # more than its time share

    def test_knob_validation(self, pool):
        with pytest.raises(ReproError):
            generate_trace(TraceConfig(rate_multiplier=0.0), pool)
        with pytest.raises(ReproError):
            generate_trace(TraceConfig(burst=0.5), pool)

"""Unit tests for admission control and the job queue (repro.serve.queue)."""

import pytest

from repro.core.forward_gpu import gpu_count_triangles
from repro.core.options import GpuOptions
from repro.graphs.generators.rmat import rmat
from repro.gpusim.device import DEVICES
from repro.gpusim.memory import DeviceMemory
from repro.serve.fleet import Fleet
from repro.serve.queue import (JobQueue, ServeJob,
                               estimate_working_set_bytes, fits_device)


class TestWorkingSetEstimate:
    @pytest.mark.parametrize("scale", [6, 7, 8])
    @pytest.mark.parametrize("opts", [
        GpuOptions(),
        GpuOptions(unzip=False),
        GpuOptions(cpu_preprocess="never"),
        GpuOptions(sort_as_u64=False),
    ], ids=["default", "aos", "gpu-only", "sort32"])
    def test_capacity_sized_to_estimate_suffices(self, scale, opts):
        """The admission guarantee: a device whose free memory equals the
        estimate completes the job without an unrecoverable OOM (the
        ``auto`` variants may degrade to the † path, never fail)."""
        g = rmat(scale, seed=scale)
        spec = DEVICES["gtx980"]
        est = estimate_working_set_bytes(g, opts, spec)
        memory = DeviceMemory(spec.with_memory(est))
        run = gpu_count_triangles(g, device=spec, options=opts,
                                  memory=memory)
        assert run.triangles >= 0
        assert memory.peak_bytes <= est

    @pytest.mark.parametrize("scale", [6, 7, 8])
    def test_direct_path_estimate_bounds_actual_peak(self, scale):
        """With ``cpu_preprocess="never"`` the pipeline has exactly one
        path, so the estimate must dominate its measured peak outright."""
        g = rmat(scale, seed=scale)
        opts = GpuOptions(cpu_preprocess="never")
        spec = DEVICES["gtx980"]
        memory = DeviceMemory(spec)
        gpu_count_triangles(g, device=spec, options=opts, memory=memory)
        assert estimate_working_set_bytes(g, opts, spec) >= memory.peak_bytes

    def test_fallback_estimate_smaller_than_direct(self):
        g = rmat(8, seed=0)
        spec = DEVICES["gtx980"]
        direct = estimate_working_set_bytes(
            g, GpuOptions(cpu_preprocess="never"), spec)
        fallback = estimate_working_set_bytes(
            g, GpuOptions(cpu_preprocess="auto"), spec)
        assert fallback < direct


class TestAdmission:
    def test_small_graph_fits_large_does_not(self):
        g = rmat(7, seed=0)
        need = estimate_working_set_bytes(g, GpuOptions(),
                                          DEVICES["gtx980"])
        fleet = Fleet.from_keys(["gtx980"], memory_bytes=2 * need)
        job = ServeJob(job_id=0, graph=g)
        assert fits_device(job, fleet[0])
        whale = ServeJob(job_id=1, graph=rmat(10, seed=0))
        assert not fits_device(whale, fleet[0])

    def test_cache_residency_shrinks_capacity(self):
        g = rmat(7, seed=0)
        need = estimate_working_set_bytes(g, GpuOptions(),
                                          DEVICES["gtx980"])
        fleet = Fleet.from_keys(["gtx980"], memory_bytes=2 * need,
                                cache_fraction=0.9)
        dev = fleet[0]
        job = ServeJob(job_id=0, graph=g)
        assert fits_device(job, dev)
        # Fill the cache past the point where the job no longer fits.
        dev.cache.insert("hog", int(1.5 * need), triangles=0,
                         hit_service_ms=0.0, now_ms=0.0)
        assert not fits_device(job, dev)


def _job(job_id, **kw):
    kw.setdefault("graph", _job.graph)
    return ServeJob(job_id=job_id, **kw)


_job.graph = rmat(5, seed=0)


class TestQueueOrdering:
    def test_priority_then_deadline_then_size(self):
        q = JobQueue()
        big = rmat(6, seed=1)
        q.push(_job(0, priority=0, arrival_ms=0.0))
        q.push(_job(1, priority=1, arrival_ms=1.0, deadline_ms=900.0))
        q.push(_job(2, priority=1, arrival_ms=2.0, deadline_ms=500.0))
        q.push(_job(3, priority=0, arrival_ms=3.0, graph=big))
        order = [q.pop(10.0).job_id for _ in range(4)]
        # priority tier first; EDF inside the tier; LPT (bigger graph
        # first) among no-deadline equals; arrival breaks exact ties.
        assert order == [2, 1, 3, 0]

    def test_backoff_holds_job_until_release(self):
        q = JobQueue()
        j = _job(0)
        j.not_before_ms = 100.0
        q.push(j)
        assert q.pop(50.0) is None
        assert q.next_release_ms(50.0) == 100.0
        assert q.pop(100.0) is j

    def test_held_job_outranks_later_arrivals_once_released(self):
        q = JobQueue()
        held = _job(0, priority=5)
        held.not_before_ms = 10.0
        q.push(held)
        q.push(_job(1, priority=0))
        assert q.pop(5.0).job_id == 1      # held job invisible before release
        q.push(_job(2, priority=0))
        assert q.pop(20.0).job_id == 0     # released: priority wins again

    def test_drain_empties_both_heaps(self):
        q = JobQueue()
        q.push(_job(0))
        held = _job(1)
        held.not_before_ms = 99.0
        q.push(held)
        assert {j.job_id for j in q.drain()} == {0, 1}
        assert len(q) == 0

    def test_latency_of_unfinished_job_is_inf(self):
        j = _job(0, arrival_ms=10.0)
        assert j.latency_ms == float("inf")
        assert j.wait_ms == float("inf")
        assert j.met_deadline            # no deadline set

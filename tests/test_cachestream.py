"""The cache model's two transports: in-process and the worker process.

:mod:`repro.gpusim.cachestream` may run an engine's cache model in a
worker that applies a stream of transaction keys.  These tests hold the
worker to the in-process model under interleaved engines, faults and
backpressure, and check that a dead or stalled worker surfaces as a
typed error instead of a hang.
"""

from __future__ import annotations

import fcntl
import gc
import os
import signal
import subprocess
import sys
import termios
import textwrap
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.count_kernel import count_triangles_kernel
from repro.core.options import GpuOptions
from repro.core.preprocess import preprocess
from repro.errors import CacheWorkerError, KernelFault, ReproError
from repro.gpusim import cachestream
from repro.gpusim.cache import CacheModel, cache_geometry
from repro.gpusim.cachestream import (PIPE_BYTES, RemoteCacheModel,
                                      Transport, open_cache_model,
                                      worker_allowed)
from repro.gpusim.device import GTX_980, NVS_5200M, TESLA_C2050
from repro.gpusim.memory import DeviceMemory
from repro.gpusim.simt import LaunchConfig, SimtEngine
from repro.gpusim.timing import Timeline
from repro.runtime import LaunchPlan, launch
from tests.conftest import assert_same_caches, forced_transport

SRC = Path(__file__).resolve().parents[1] / "src"


def _pair(device, launch_cfg, use_ro_cache=True):
    """The same engine twice: cache model in the worker, and inline."""
    engines = []
    for kind in ("worker", "inline"):
        with forced_transport(kind):
            engines.append(SimtEngine(device, launch_cfg,
                                      use_ro_cache=use_ro_cache))
    assert isinstance(engines[0]._model, RemoteCacheModel)
    assert isinstance(engines[1]._model, CacheModel)
    return engines


def _random_read(rng, engine, buf):
    size = int(rng.choice([1, 1, 2, 7, 33, 300, 1500]))
    indices = rng.integers(0, len(buf.data), size)
    lanes = rng.integers(0, engine.num_threads, size)
    return indices, lanes


class TestSelection:
    def test_needs_two_cores(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert not worker_allowed()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        assert worker_allowed()

    def test_daemonic_process_stays_inline(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)

        class Daemon:
            daemon = True

        monkeypatch.setattr(cachestream.multiprocessing, "current_process",
                            lambda: Daemon())
        assert not worker_allowed()
        assert isinstance(open_cache_model(GTX_980, True), CacheModel)

    def test_bad_geometry_fails_in_the_caller(self):
        tiny = replace(GTX_980, l1_bytes=64)
        for kind in ("inline", "worker"):
            with forced_transport(kind):
                with pytest.raises(ReproError, match="too small"):
                    SimtEngine(tiny, LaunchConfig(64, 1))


class TestStart:
    def test_unguarded_script_with_threads(self, tmp_path):
        """The worker is a fresh interpreter: a script with top-level
        code and no ``__main__`` guard runs once, whatever threads the
        process already has, and its counters match the inline model."""
        script = tmp_path / "unguarded.py"
        script.write_text(textwrap.dedent("""
            import threading
            import numpy as np
            from repro.gpusim import cachestream
            cachestream.worker_allowed = lambda: True
            from repro.gpusim.device import GTX_980
            from repro.gpusim.memory import DeviceMemory
            from repro.gpusim.simt import LaunchConfig, SimtEngine
            release = threading.Event()
            helper = threading.Thread(target=release.wait, daemon=True)
            helper.start()
            print("top-level code ran", flush=True)
            engine = SimtEngine(GTX_980, LaunchConfig(64, 1))
            assert type(engine._model).__name__ == "RemoteCacheModel"
            buf = DeviceMemory(GTX_980).alloc(
                "x", np.arange(4096, dtype=np.int32))
            for _ in range(3):
                engine.read_compacted(buf, np.arange(0, 4096, 3),
                                      np.arange(1366) % 64)
            print(repr(engine.report.counters()), flush=True)
            release.set()
        """))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, str(script)], env=env,
                             cwd=tmp_path, capture_output=True, text=True,
                             timeout=120)
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        assert lines[0] == "top-level code ran" and len(lines) == 2
        with forced_transport("inline"):
            engine = SimtEngine(GTX_980, LaunchConfig(64, 1))
        buf = DeviceMemory(GTX_980).alloc("x", np.arange(4096,
                                                         dtype=np.int32))
        for _ in range(3):
            engine.read_compacted(buf, np.arange(0, 4096, 3),
                                  np.arange(1366) % 64)
        assert lines[1] == repr(engine.report.counters())


class TestWorkerMatchesInline:
    def test_interleaved_engines(self):
        """Several engines stream into one worker, as the multi-GPU and
        serving paths do; each must end exactly like its inline twin,
        with report reads (sync points) sprinkled in."""
        rng = np.random.default_rng(7)
        tiny = replace(GTX_980, name="tiny-2sm", num_sms=2,
                       l1_bytes=4 * GTX_980.line_bytes, l1_ways=2,
                       l2_bytes=16 * GTX_980.line_bytes, l2_ways=4)
        setups = [(GTX_980, LaunchConfig(64, 2), True),
                  (GTX_980, LaunchConfig(64, 2), False),
                  (NVS_5200M, LaunchConfig(64, 1), True),
                  (TESLA_C2050, LaunchConfig(64, 1), False),
                  (tiny, LaunchConfig(32, 1), True)]
        pairs, bufs = [], []
        for device, cfg, ro in setups:
            pairs.append(_pair(device, cfg, ro))
            bufs.append(DeviceMemory(device).alloc(
                "x", np.arange(50_000, dtype=np.int32)))
        for step in range(600):
            k = int(rng.integers(len(pairs)))
            worker, inline = pairs[k]
            indices, lanes = _random_read(rng, worker, bufs[k])
            got = worker.read_compacted(bufs[k], indices, lanes)
            want = inline.read_compacted(bufs[k], indices, lanes)
            assert np.array_equal(got, want)
            if step % 97 == 0:
                assert (worker.report.counters()
                        == inline.report.counters())
        for worker, inline in pairs:
            assert worker.report.counters() == inline.report.counters()
            assert worker.report.l1_hits + worker.report.l2_hits > 0
            assert_same_caches(worker, inline)

    def test_kernel_fault_leaves_worker_usable(self, small_rmat):
        """A read that faults is never streamed: the engine that raised
        and later engines on the same worker stay exact."""
        worker, inline = _pair(GTX_980, LaunchConfig(64, 1))
        buf = DeviceMemory(GTX_980).alloc("x", np.arange(64, dtype=np.int32))
        for engine in (worker, inline):
            engine.read_compacted(buf, np.arange(40), np.arange(40))
            with pytest.raises(KernelFault):
                engine.read_compacted(buf, np.array([3, 64]),
                                      np.array([0, 1]))
            engine.read_compacted(buf, np.array([63]), np.array([5]))
        assert worker.report.counters() == inline.report.counters()
        assert_same_caches(worker, inline)

        # A fault in the middle of a kernel, then a clean launch.
        with forced_transport("worker"):
            memory = DeviceMemory(GTX_980)
            pre = preprocess(small_rmat, GTX_980, memory, Timeline(),
                             GpuOptions())
            engine = SimtEngine(GTX_980, LaunchConfig())
            pre.node.data[len(pre.node.data) // 2:] += 10**6
            with pytest.raises(KernelFault):
                count_triangles_kernel(engine, pre, GpuOptions(),
                                       memory=memory)
            assert engine.report.lane_reads > 0
            cells = [launch(LaunchPlan(graph=small_rmat))
                     .report.counters()]
        with forced_transport("inline"):
            cells.append(launch(LaunchPlan(graph=small_rmat))
                         .report.counters())
        assert cells[0] == cells[1]

    def test_collected_engine_drops_its_model(self):
        with forced_transport("worker"):
            engine = SimtEngine(GTX_980, LaunchConfig(64, 1))
        buf = DeviceMemory(GTX_980).alloc("x", np.arange(64, dtype=np.int32))
        engine.read_compacted(buf, np.arange(8), np.arange(8))
        assert engine.report.transactions == 1
        transport, mid = engine._model._t, engine._model.id
        del engine
        gc.collect()
        transport.flush()
        with pytest.raises(CacheWorkerError, match="no cache model"):
            transport.request(mid, False)


def _keys(rng, n):
    """Sorted (line, sm) transaction keys for GTX 980 (16 SMs)."""
    lines = rng.integers(0, 1 << 20, n)
    sms = rng.integers(0, GTX_980.num_sms, n)
    return np.sort((lines << 4) | sms)


def _unread_bytes(fd: int) -> int:
    """Bytes written to a pipe and not yet read (``FIONREAD``)."""
    buf = bytearray(4)
    fcntl.ioctl(fd, termios.FIONREAD, buf)
    return int.from_bytes(buf, sys.byteorder)


@pytest.mark.skipif(not hasattr(signal, "SIGSTOP"), reason="POSIX signals")
class TestFailures:
    def test_killed_worker_is_a_typed_error(self):
        with forced_transport("worker"):
            engine = SimtEngine(GTX_980, LaunchConfig(64, 1))
        buf = DeviceMemory(GTX_980).alloc("x", np.arange(64, dtype=np.int32))
        engine.read_compacted(buf, np.arange(8), np.arange(8))
        assert engine.report.transactions == 1
        process = engine._model._t.process
        os.kill(process.pid, signal.SIGKILL)
        process.wait(10)
        engine.read_compacted(buf, np.arange(8), np.arange(8))
        t0 = time.monotonic()
        with pytest.raises(CacheWorkerError):
            engine.report
        assert time.monotonic() - t0 < 5
        with pytest.raises(CacheWorkerError):
            engine.l2
        # The next engine gets a fresh worker.
        with forced_transport("worker"):
            fresh = SimtEngine(GTX_980, LaunchConfig(64, 1))
        assert fresh._model._t.process.pid != process.pid
        fresh.read_compacted(buf, np.arange(8), np.arange(8))
        assert fresh.report.transactions == 1

    def test_in_flight_bytes_bounded_while_worker_stalls(self):
        """A stopped worker fills the stream pipe; the caller then
        blocks instead of buffering past it, and every key still
        arrives once the worker resumes."""
        transport = Transport()
        try:
            geometry = cache_geometry(GTX_980, True)
            handle = transport.open(geometry)
            reference = CacheModel(*geometry)
            rng = np.random.default_rng(3)
            batches = [_keys(rng, 8192) for _ in range(160)]  # 10 MB
            os.kill(transport.process.pid, signal.SIGSTOP)
            done = []

            def push():
                for keys in batches:
                    handle.apply(keys)
                    done.append(1)
                transport.flush()

            pusher = threading.Thread(target=push, daemon=True)
            pusher.start()
            peak, last, still = 0, -1, 0
            deadline = time.monotonic() + 20
            while still < 10 and time.monotonic() < deadline:
                time.sleep(0.05)
                peak = max(peak, _unread_bytes(transport._stream))
                still = still + 1 if len(done) == last else 0
                last = len(done)
            assert pusher.is_alive()            # held by backpressure
            assert len(done) < len(batches)
            assert 0 < peak <= PIPE_BYTES
            os.kill(transport.process.pid, signal.SIGCONT)
            pusher.join(60)
            assert not pusher.is_alive()
            for keys in batches:
                reference.apply(keys)
            assert handle.sync() == reference.sync()
        finally:
            os.kill(transport.process.pid, signal.SIGCONT)
            transport.close()

    def test_abandoned_sync_does_not_wedge_the_stream(self, monkeypatch):
        """A sync cut short (Ctrl-C while reading ``engine.l2``) leaves
        a cache copy larger than the replies pipe unread; the worker
        blocks writing it until the caller, waiting for room in the
        stream, drains and drops it.  The next sync answers with the
        deltas since the abandoned one."""
        monkeypatch.setattr(cachestream, "TIMEOUT_S", 10.0)
        transport = Transport()
        try:
            geometry = cache_geometry(GTX_980, True)
            handle = transport.open(geometry)
            reference = CacheModel(*geometry)
            rng = np.random.default_rng(5)
            first = _keys(rng, 4096)
            handle.apply(first)
            reference.apply(first)
            real_select = cachestream.select.select

            def interrupted(*args):
                raise KeyboardInterrupt

            monkeypatch.setattr(cachestream.select, "select", interrupted)
            with pytest.raises(KeyboardInterrupt):
                handle.sync(caches=True)
            reference.sync()        # the lost reply carried these deltas
            monkeypatch.setattr(cachestream.select, "select", real_select)
            assert transport.error is None
            t0 = time.monotonic()
            for _ in range(160):                # 10 MB, past the pipe
                keys = _keys(rng, 8192)
                handle.apply(keys)
                reference.apply(keys)
            assert handle.sync() == reference.sync()
            assert time.monotonic() - t0 < 10
        finally:
            transport.close()

    def test_write_cut_mid_message_is_a_typed_error(self, monkeypatch):
        """Ctrl-C while the caller waits for room in a full pipe leaves
        half a message in the stream; the transport refuses further use
        instead of letting the worker misread the rest."""
        transport = Transport()
        try:
            handle = transport.open(cache_geometry(GTX_980, True))
            keys = _keys(np.random.default_rng(9), 1 << 18)   # 2 MB
            os.kill(transport.process.pid, signal.SIGSTOP)

            def interrupted(*args):
                raise KeyboardInterrupt

            monkeypatch.setattr(cachestream.select, "select", interrupted)
            with pytest.raises(KeyboardInterrupt):
                handle.apply(keys)
            monkeypatch.undo()
            monkeypatch.setattr(cachestream, "TIMEOUT_S", 10.0)
            os.kill(transport.process.pid, signal.SIGCONT)
            with pytest.raises(CacheWorkerError, match="cut"):
                handle.sync()
        finally:
            os.kill(transport.process.pid, signal.SIGCONT)
            transport.close()

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads /proc")
    def test_no_worker_outlives_the_interpreter(self):
        script = textwrap.dedent("""
            import numpy as np
            from repro.gpusim import cachestream
            cachestream.worker_allowed = lambda: True
            from repro.gpusim.device import GTX_980
            from repro.gpusim.memory import DeviceMemory
            from repro.gpusim.simt import LaunchConfig, SimtEngine
            engine = SimtEngine(GTX_980, LaunchConfig(64, 1))
            buf = DeviceMemory(GTX_980).alloc(
                "x", np.arange(4096, dtype=np.int32))
            engine.read_compacted(buf, np.arange(64), np.arange(64))
            assert engine.report.transactions == 2
            print(cachestream.shared_transport().process.pid, flush=True)
            for _ in range(300):    # exit with reads still streaming
                engine.read_compacted(buf, np.arange(4096),
                                      np.arange(4096) % 1024)
        """)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert time.monotonic() - t0 < 60
        pid = int(out.stdout.split()[0])
        deadline = time.monotonic() + 5
        while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not os.path.exists(f"/proc/{pid}")

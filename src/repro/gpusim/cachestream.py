"""Run the engine's cache model on another core.

The cache counters never feed the kernel's values, so
:class:`~repro.gpusim.simt.SimtEngine` splits each read in two: the
functional half (bounds check, value gather, coalescing into
transaction keys) runs in the caller, and the timing half,
:meth:`CacheModel.apply <repro.gpusim.cache.CacheModel.apply>`, runs
wherever :func:`open_cache_model` put the engine's model:

* **inline** — a :class:`~repro.gpusim.cache.CacheModel` in this
  process, applied call by call.  Used when fewer than two cores are
  usable (``os.sched_getaffinity``; hosts without it or without
  ``os.memfd_create``, that is anything but Linux, always run inline)
  or the process may not start children (it is daemonic);
* **worker** — a :class:`RemoteCacheModel` handle.  Each call's keys
  are appended to a one-way stream that one lazily started worker
  process per interpreter applies in order, one model per engine.

The worker is a fresh interpreter (``python -c``) that imports only
this module's package and reads the stream from an inherited pipe: it
never re-imports the caller's ``__main__``, so scripts need no
``if __name__ == "__main__"`` guard, and the caller's threads do not
matter.  The stream is batched (:data:`BATCH_CALLS` calls or
:data:`BATCH_BYTES` bytes per message, :data:`EAGER_CALLS` while the
worker idles) and written by the caller itself with non-blocking
writes.  The pipe is the only buffer: once :data:`PIPE_BYTES` are
unread the caller waits (backpressure), still draining the replies
pipe so an abandoned sync cannot wedge the worker.

Sync points are the engine's ``report``, ``l1`` and ``l2`` properties:
they flush the stream, wait for the worker to reach the sync record and
merge the counter deltas it returns (``l1``/``l2`` also copy the cache
arrays back).  The worker's busy seconds are reported with the deltas.
A model is dropped when its handle (its engine) is collected.  If the
worker dies, the next flush or sync raises
:class:`~repro.errors.CacheWorkerError`; no wait is unbounded.
"""

from __future__ import annotations

import atexit
import collections
import fcntl
import mmap
import multiprocessing
import os
import pickle
import select
import signal
import subprocess
import sys
import weakref
from pathlib import Path
from time import monotonic, perf_counter
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import CacheWorkerError
from repro.gpusim.cache import (COUNTER_NAMES, CacheArray, CacheModel,
                                cache_geometry)

if TYPE_CHECKING:
    from repro.gpusim.device import DeviceSpec

#: What a sync hands back: counter deltas (:data:`COUNTER_NAMES` order),
#: the worker's busy seconds and applied calls since the last sync, and
#: copies of the (L1, L2) arrays when they were asked for.
SyncReply = tuple[tuple[int, ...], float, int,
                  "tuple[CacheArray | None, CacheArray] | None"]

#: Calls per stream message; a message is also closed once its keys
#: reach :data:`BATCH_BYTES`, or once :data:`EAGER_CALLS` calls wait
#: while the worker is idle (so a short launch overlaps too).
BATCH_CALLS = 128
BATCH_BYTES = 256 * 1024
EAGER_CALLS = 16
#: Capacity asked for the stream pipe (Linux ``F_SETPIPE_SZ``; the
#: default 64 KB stays if the host refuses).  Written but unread bytes
#: never exceed it: past it the caller waits for the worker.
PIPE_BYTES = 1024 * 1024
#: A sync or a backpressure wait that gets nowhere for this long fails.
TIMEOUT_S = 300.0
_POLL_S = 0.05

# Record kinds.  A message is one int64 array: its length in words, the
# record count n, n (kind, model id, data length) triples, then every
# record's data.  A reply is an 8-byte length and a pickled
# ``(seq, error, payload)``.
_KEYS, _OPEN, _CLOSE, _SYNC, _SYNC_CACHES = range(5)
_NO_DELTAS = (0,) * len(COUNTER_NAMES)
_WORD = 8

#: Directory holding the ``repro`` package, put first on the worker's
#: ``sys.path`` so it imports this very copy.
_SRC = str(Path(__file__).resolve().parents[2])
_WORKER_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from repro.gpusim.cachestream import worker_main; "
                "worker_main(*map(int, sys.argv[2:]))")


class _Slot:
    """Worker-side state of one engine's model."""

    __slots__ = ("model", "seconds", "calls", "error")

    def __init__(self, geometry: list[int]) -> None:
        self.model = CacheModel(*geometry)
        self.seconds = 0.0
        self.calls = 0
        self.error: str | None = None


def _read_exact(stream, view: memoryview) -> bool:
    """Fill ``view`` from ``stream``; ``False`` on end of file."""
    while view:
        got = stream.readinto(view)
        if not got:
            return False
        view = view[got:]
    return True


def _read_message(stream) -> np.ndarray | None:
    head = np.empty(1, dtype=np.int64)
    if not _read_exact(stream, memoryview(head).cast("B")):
        return None
    words = np.empty(int(head[0]), dtype=np.int64)
    words[0] = head[0]
    if not _read_exact(stream, memoryview(words).cast("B")[_WORD:]):
        return None
    return words


def worker_main(stream_fd: int, replies_fd: int, idle_fd: int) -> None:
    """Worker process: apply the stream's records in order until the
    stream ends (the caller closed it or exited)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    idle = mmap.mmap(idle_fd, 1)
    os.close(idle_fd)
    stream = open(stream_fd, "rb", buffering=0)
    replies = open(replies_fd, "wb")
    slots: dict[int, _Slot] = {}

    def reply(seq: int, error: str | None, payload) -> None:
        data = pickle.dumps((seq, error, payload), pickle.HIGHEST_PROTOCOL)
        replies.write(len(data).to_bytes(_WORD, "little") + data)
        replies.flush()

    try:
        while True:
            idle[0] = 1
            words = _read_message(stream)
            if words is None:
                return
            idle[0] = 0
            n = int(words[1])
            pos = 2 + 3 * n
            for kind, mid, length in words[2:pos].reshape(n, 3).tolist():
                data = words[pos:pos + length]
                pos += length
                if kind == _KEYS:
                    slot = slots[mid]
                    if slot.error is not None:
                        continue
                    t0 = perf_counter()
                    try:
                        slot.model.apply(data)
                    except Exception as exc:  # reported at the next sync
                        slot.error = f"{type(exc).__name__}: {exc}"
                    slot.seconds += perf_counter() - t0
                    slot.calls += 1
                elif kind == _OPEN:
                    slots[mid] = _Slot(data.tolist())
                elif kind == _CLOSE:
                    del slots[mid]
                else:
                    seq = int(data[0])
                    got = slots.get(mid)
                    if got is None or got.error is not None:
                        reply(seq, got.error if got is not None
                              else f"no cache model {mid}", None)
                        continue
                    deltas, _, _ = got.model.sync()
                    caches = ((got.model.l1, got.model.l2)
                              if kind == _SYNC_CACHES else None)
                    reply(seq, None, (deltas, got.seconds, got.calls, caches))
                    got.seconds = 0.0
                    got.calls = 0
    except BrokenPipeError:             # the caller closed its end
        return


class Transport:
    """One worker process and the two pipes to and from it."""

    def __init__(self) -> None:
        stream_r, stream_w = os.pipe()
        replies_r, replies_w = os.pipe()
        idle_fd = os.memfd_create("repro-cache-idle")
        try:
            try:
                fcntl.fcntl(stream_w, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
            except OSError:
                pass
            os.ftruncate(idle_fd, 1)
            #: set by the worker while it waits for the next message
            self.idle = mmap.mmap(idle_fd, 1)
            self.process = subprocess.Popen(
                [sys.executable, "-c", _WORKER_CODE, _SRC,
                 str(stream_r), str(replies_w), str(idle_fd)],
                stdin=subprocess.DEVNULL,
                pass_fds=(stream_r, replies_w, idle_fd))
        except BaseException:
            os.close(stream_w)
            os.close(replies_r)
            raise
        finally:
            os.close(stream_r)
            os.close(replies_w)
            os.close(idle_fd)
        os.set_blocking(stream_w, False)
        os.set_blocking(replies_r, False)
        self.pid = os.getpid()
        self._stream = stream_w
        self._replies = replies_r
        self._next_id = 0
        self._seq = 0
        # The message being built: flat (kind, id, length) triples and
        # each record's data, plus its size.
        self._meta: list[int] = []
        self._data: list[np.ndarray] = []
        self._calls = 0
        self._bytes = 0
        #: model ids whose handles were collected (appended by finalizers)
        self._closed: collections.deque[int] = collections.deque()
        # Reply bytes read so far, and the reply to the pending sync.
        self._inbox = bytearray()
        self._answer: tuple | None = None
        self.error: str | None = None
        atexit.register(self.close)

    # ------------------------------------------------------------------ #

    def open(self, geometry: tuple[int, ...]) -> "RemoteCacheModel":
        """A new model in the worker; the handle closes it when collected."""
        mid = self._next_id
        self._next_id += 1
        self._meta += (_OPEN, mid, len(geometry))
        self._data.append(np.array(geometry, dtype=np.int64))
        return RemoteCacheModel(self, mid)

    def flush(self) -> None:
        """Write the message being built (if any) to the stream."""
        if self.pid != os.getpid():
            raise CacheWorkerError("a cache model handle was used in a "
                                   "forked child of the process owning it")
        closed = self._closed
        while closed:
            self._meta += (_CLOSE, closed.popleft(), 0)
        meta = self._meta
        if not meta:
            return
        n_words = 2 + len(meta) + sum(len(d) for d in self._data)
        buf = np.concatenate([np.array([n_words, len(meta) // 3, *meta],
                                       dtype=np.int64), *self._data],
                             dtype=np.int64)
        self._meta = []
        self._data = []
        self._calls = 0
        self._bytes = 0
        self._write(memoryview(buf).cast("B"))

    def request(self, mid: int, caches: bool) -> SyncReply:
        """Sync model ``mid``: flush, wait for the worker to reach the
        sync record, return ``(deltas, busy_seconds, calls, caches)``."""
        self._seq += 1
        self._answer = None
        self._meta += (_SYNC_CACHES if caches else _SYNC, mid, 1)
        self._data.append(np.array([self._seq], dtype=np.int64))
        self.flush()
        deadline = monotonic() + TIMEOUT_S
        while self._answer is None:
            ready, _, _ = select.select([self._replies], [], [], _POLL_S)
            if ready:
                self._drain()
                continue
            self._check()
            if monotonic() > deadline:
                raise self._fail(f"no answer from the cache-model worker "
                                 f"within {TIMEOUT_S:.0f} s")
        error, payload = self._answer
        self._answer = None
        if error is not None:
            raise CacheWorkerError(f"cache model failed: {error}")
        return payload

    def _write(self, view: memoryview) -> None:
        if self.error is not None:
            raise CacheWorkerError(self.error)
        size = len(view)
        deadline = None
        try:
            while True:
                try:
                    view = view[os.write(self._stream, view):]
                except BlockingIOError:
                    pass
                except OSError as exc:      # EPIPE: the worker is gone
                    self._check()
                    raise self._fail(f"the cache-model stream broke: {exc}") \
                        from None
                if not view:
                    return
                # The pipe is full: wait for room, reading (and dropping)
                # replies meanwhile, so a worker blocked on an unread
                # reply to an abandoned sync gets going again.
                ready, _, _ = select.select([self._replies], [self._stream],
                                            [], _POLL_S)
                if self._replies in ready:
                    self._drain()
                elif not ready:
                    self._check()
                    if deadline is None:
                        deadline = monotonic() + TIMEOUT_S
                    elif monotonic() > deadline:
                        raise self._fail("the cache-model worker accepted "
                                         f"no data for {TIMEOUT_S:.0f} s")
        except BaseException:
            if self.error is None and 0 < len(view) < size:
                # Interrupted mid-message: the stream is out of frame.
                self.error = "a write to the cache-model stream was cut"
            raise

    def _drain(self) -> None:
        """Read whatever replies have arrived; keep the pending sync's."""
        try:
            chunk = os.read(self._replies, 1 << 20)
        except BlockingIOError:
            return
        if not chunk:
            raise self._fail("the cache-model worker exited")
        inbox = self._inbox
        inbox += chunk
        while len(inbox) >= _WORD:
            size = int.from_bytes(inbox[:_WORD], "little")
            if len(inbox) < _WORD + size:
                break
            seq, error, payload = pickle.loads(inbox[_WORD:_WORD + size])
            del inbox[:_WORD + size]
            if seq == self._seq:        # else: an abandoned sync's
                self._answer = (error, payload)

    def _check(self) -> None:
        if self.error is None and self.process.poll() is not None:
            self.error = (f"the cache-model worker exited "
                          f"(exit code {self.process.returncode})")
        if self.error is not None:
            raise CacheWorkerError(self.error)

    def _fail(self, message: str) -> CacheWorkerError:
        if self.error is None:
            self.error = message
        return CacheWorkerError(self.error)

    def close(self, timeout: float = 2.0) -> None:
        """Stop the worker (pending work is dropped)."""
        if self.pid != os.getpid() or self._stream < 0:
            return
        if self.error is None:
            self.error = "the cache-model worker was shut down"
        os.close(self._stream)
        os.close(self._replies)
        self._stream = self._replies = -1
        self.process.terminate()        # rather than drain the pipe
        try:
            self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout)
        self.idle.close()


class RemoteCacheModel:
    """Caller-side handle of one :class:`CacheModel` in the worker.

    Same interface as the model: :meth:`apply` streams the keys,
    :meth:`sync` round-trips, and ``l1``/``l2`` are the copies the last
    ``sync(caches=True)`` brought back.
    """

    def __init__(self, transport: Transport, mid: int) -> None:
        self._t = transport
        self.id = mid
        self.dirty = False
        self._fetched = False
        self.l1: CacheArray | None = None
        self.l2: CacheArray | None = None
        finalizer = weakref.finalize(self, transport._closed.append, mid)
        finalizer.atexit = False

    def apply(self, keys: np.ndarray) -> None:
        t = self._t
        t._meta += (_KEYS, self.id, len(keys))
        t._data.append(keys)
        self.dirty = True
        t._calls += 1
        t._bytes += 8 * len(keys)
        if (t._calls >= BATCH_CALLS or t._bytes >= BATCH_BYTES
                or (t._calls >= EAGER_CALLS and t.idle[0])):
            t.flush()

    def sync(self, caches: bool = False) -> tuple[tuple[int, ...], float, int]:
        if not (self.dirty or (caches and not self._fetched)):
            return _NO_DELTAS, 0.0, 0
        deltas, seconds, calls, arrays = self._t.request(self.id, caches)
        self.dirty = False
        self._fetched = caches
        if arrays is not None:
            self.l1, self.l2 = arrays
        return deltas, seconds, calls


_transport: Transport | None = None


def _forget_transport() -> None:
    global _transport
    _transport = None


os.register_at_fork(after_in_child=_forget_transport)


def worker_allowed() -> bool:
    """Whether engines get a worker: two usable cores, and a process
    that may start children."""
    if not (hasattr(os, "sched_getaffinity")
            and hasattr(os, "memfd_create")):
        return False
    return (len(os.sched_getaffinity(0)) >= 2
            and not multiprocessing.current_process().daemon)


def shared_transport() -> Transport | None:
    """This process's transport, started on first use (a dead one is
    replaced); ``None`` if no worker can be started."""
    global _transport
    if (_transport is None or _transport.error is not None
            or _transport.process.poll() is not None):
        if _transport is not None:
            _transport.close()
        try:
            _transport = Transport()
        except OSError:
            _transport = None
    return _transport


def open_cache_model(device: DeviceSpec,
                     use_l1: bool) -> CacheModel | RemoteCacheModel:
    """The cache model of one engine on ``device``, in-process or in the
    worker (see module docstring)."""
    geometry = cache_geometry(device, use_l1)
    transport = shared_transport() if worker_allowed() else None
    if transport is None:
        return CacheModel(*geometry)
    return transport.open(geometry)

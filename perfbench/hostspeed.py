"""A fixed host-speed reference, so that times taken minutes apart on a
shared host compare.

On a shared virtual machine the same code runs 20-40% faster or slower
for minutes at a time, and interpreter-bound code swings by more than a
second between back-to-back iterations.  The slowdown is contention for
the core and its caches, not stolen time, so CPU time swings with wall
time.  The benchmark therefore times this reference right before and
right after every timed interval, and a workload whose work is of the
reference's kind reports the interval in *reference seconds*: its wall
time divided by the mean of the two reference times around it, times
:data:`NOMINAL_S`.  The reference imports nothing from the program, so a
change to the program moves the interval and not the reference.

The reference has three parts of about equal length, each a kind of work
the simulator kernel does per tick: a pure-Python loop (the driver's
bookkeeping), NumPy calls on a few thousand cache-resident elements (the
per-tick lane arithmetic) and NumPy gathers of a few thousand elements
from a 16 MB array (the reads and cache-model probes, which slow down
most when a neighbour thrashes the shared cache).  On back-to-back
``tail`` iterations it cut the quartile spread of single iterations from
0.16 to 0.10 and on ``clustering`` from 0.27 to 0.15.  It does not track
``serve-overload``, whose dense matrix products slow down differently
(it raised that spread from 0.10 to 0.14); that workload stays on host
seconds.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Python-loop trips, small-array NumPy rounds and gathers of one
#: reference run (about 0.1 s each on the calibration host).
PY_TRIPS = 2_000_000
NP_ROUNDS = 700
NP_SIZE = 2000
GATHERS = 400
#: Wall seconds of one reference run on the host the benchmark was
#: calibrated on (2-vCPU VM, Python 3.11, NumPy 2.4); a reference second
#: is that host's second at the reference's speed.
NOMINAL_S = 0.3

_RNG = np.random.default_rng(0)
_SMALL = _RNG.integers(0, 1 << 20, NP_SIZE)
_BIG = _RNG.integers(0, 1 << 30, 2_000_000)
_ROWS = _RNG.integers(0, len(_BIG), (GATHERS, NP_SIZE))


def reference_seconds() -> float:
    """Wall seconds of one run of the fixed reference work."""
    t0 = perf_counter()
    acc = 0
    for i in range(PY_TRIPS):
        acc += i & 7
    a = _SMALL
    for _ in range(NP_ROUNDS):
        acc += int(np.unique(a & 1023)[0])
        a = np.where(a > 5, a - 1, a + 1)
    for row in _ROWS:
        acc += int(np.unique(_BIG[row] >> 8)[0])
    return perf_counter() - t0


def normalise(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` of wall time in reference seconds, given the reference
    times measured right before and right after it."""
    return seconds / ((ref_before + ref_after) / 2) * NOMINAL_S

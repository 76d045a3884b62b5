"""A fixed reference probe of the host CPU's current speed.

The CPU of a shared host switches between two speeds, 1.3-1.7x apart,
every few seconds to minutes (on a 2-vCPU VM, a sigtest call on N=200
took 22-25 us in one and 37-40 us in the other, in one process, the same
in CPU time as in wall time). A run of half a minute spends a share of
its time at each speed that differs from run to run: over five seeds the
raw op times of whole runs spread by 0.13-0.29 (IQR over median), with
the mean, median or fastest repetition of each op alike.

The probe is a few milliseconds of work of the three characters the
library's ops mix: short numpy calls on 200-point vectors, a pure-Python
loop, and a sort of 20 000 points. It calls numpy, scipy and Python only,
never sigcluster, so a change to the library cannot change it. ``ratio``
is the probe time over its time at full speed on the reference host (a
2-vCPU x86-64 VM, Python 3.11, numpy 2, BLAS on one thread): 1.0 at full
speed, about 1.6 in the slow state. The benchmark divides each time it
reports by the ratio measured around it; the raw times stay in the
record.
"""

import time

import numpy as np
from scipy.special import erf

_rng = np.random.default_rng(20_140_107)
_SMALL = [_rng.standard_normal(200) for _ in range(10)]
_LARGE = _rng.standard_normal(20_000)


def _short_numpy():
    for y in _SMALL:
        z = np.sort(np.abs((y - y.mean()) / y.std()))
        erf(z / np.sqrt(2.0))
        np.cumsum(z)


def _python_loop():
    s = 0
    for i in range(5000):
        s += i * i
    return s


def _large_sort():
    np.cumsum(np.sort(_LARGE))


# Seconds of each part at full speed on the reference host: the fastest
# of 3 repetitions, 5th percentile over 30 s of probes.
REFERENCE_S = {_short_numpy: 2.4e-4, _python_loop: 3.2e-4, _large_sort: 1.8e-4}
REPETITIONS = 3


def ratio() -> float:
    """Mean over the probe's parts of (fastest of REPETITIONS timings) /
    (its reference time); the fastest repetition drops the cold caches
    the op before the probe leaves behind."""
    total = 0.0
    for part, reference in REFERENCE_S.items():
        best = float("inf")
        for _ in range(REPETITIONS):
            t0 = time.perf_counter()
            part()
            best = min(best, time.perf_counter() - t0)
        total += best / reference
    return total / len(REFERENCE_S)

"""
Machine-speed calibration of the benchmark's timings.

The machine the benchmark was tuned on (2 vCPUs of a shared host) has
phases of seconds to minutes in which all code runs up to twice as slow.
CPU time slows almost as much as wall time, so no clock avoids them, and
a whole run can fall inside one.  So the benchmark runs a fixed
calibration probe between operations, outside the timed region, and
rescales the wall time of the operations around it by

    REF_S / (mean time of those probes).

A time so rescaled reads as the time the operation takes while the probe
takes REF_S seconds: on a quiet phase of the reference machine the factor
is about 1.  The probe is pure Python and calls nothing in affcox, so a
change to the library cannot move it: a faster library still reads as
faster.  Its work is of the library's kind: arithmetic on affine
permutation windows held in tuples, and a dict of the windows it visits.
"""

import random
import statistics
from time import perf_counter

REF_S = 4.0e-4  # the probe's mean time on a quiet phase of the reference machine

_N = 8
_STEPS = tuple(random.Random(0).randrange(_N) for _ in range(120))


def _right_mul(w, s):
    w = list(w)
    if s:
        w[s - 1], w[s] = w[s], w[s - 1]
    else:
        w[0], w[-1] = w[-1] - _N, w[0] + _N
    return tuple(w)


def _length(w):
    """Coxeter length of a window: sum over i < j of |floor((w(j) - w(i)) / n)|."""
    total = 0
    for i in range(_N):
        for j in range(i + 1, _N):
            total += abs((w[j] - w[i]) // _N)
    return total


def probe():
    """Run the calibration probe once; return its wall time in seconds."""
    t0 = perf_counter()
    w = tuple(range(1, _N + 1))
    seen = {}
    for s in _STEPS:
        w = _right_mul(w, s)
        seen[w] = _length(w)
    t1 = perf_counter()
    if len(seen) > len(_STEPS):
        raise AssertionError("calibration probe miscounted")
    return t1 - t0


def factor(times):
    """The factor by which to multiply wall times measured while probes
    took `times` seconds.  The mean, not the median: the operations'
    time is a sum over the same interval, and on the reference machine
    the mean tracks it more closely (log-log slope 0.84-1.00 against
    0.65-0.89 for the median)."""
    return REF_S / statistics.fmean(times)

"""Host-speed reference for the end-to-end timings.

The 2-vCPU virtual machine this benchmark was written on has spells in
which it runs up to 1.9x slower, each lasting from a tenth of a second to
tens of seconds, and a process's CPU time slows down with its wall time,
so no clock removes the drift.  Every timing is therefore set against two
fixed reference kernels that use only the standard library, so that no
change to kchern can change them.  One is ``Fraction`` arithmetic into a
small tuple-keyed dict, like the exact algebra of kchern's hot paths; the
other is a plain integer loop.  After each timed op, untimed, both kernels
run once; the geometric mean of each kernel's time over its reference time
below is the host's slowness at that moment.  An op's time is divided by
the median of three samples: the one taken just before it, the one just
after it, and the one after the next op.  Reported times are thus times at
the reference speed; run.py prints the raw timings beside them.  The spells
come and go within a second, so the samples must be taken next to the op
they scale: one slowness per run left up to 2.6 times the spread between
runs, and a window of 10 ops on either side up to 1.7 times.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# Median kernel times on the 2-vCPU, 2.1-GHz host, Python 3.11, the
# benchmark was written on.  They only set the scale of the reported times.
REFERENCE_S = (1.2e-3, 0.25e-3)
# Ops on either side of an op whose slowness samples are pooled.
WINDOW = 1
# Samples taken before and after each set-up.
SETUP_SAMPLES = 15


def _fraction_kernel():
    acc = {}
    f = Fraction(1, 3)
    for i in range(300):
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, Fraction(0)) + f * Fraction(i % 7 - 3,
                                                          i % 11 + 1)
    return acc


def _int_kernel():
    s = 0
    for i in range(4000):
        s += (i * i) % 7
    return s


KERNELS = (_fraction_kernel, _int_kernel)


def slowness() -> float:
    """Time of the reference kernels relative to the reference host: 1.0 at
    its speed, above 1 when the host runs slower.  The collector is off
    while the kernels run, so kchern's heap size cannot slow them."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        ratio = 1.0
        for kernel, ref in zip(KERNELS, REFERENCE_S):
            t0 = time.perf_counter()
            kernel()
            ratio *= (time.perf_counter() - t0) / ref
    finally:
        if enabled:
            gc.enable()
    return ratio ** (1 / len(KERNELS))


def around(samples: int = SETUP_SAMPLES) -> list:
    return [slowness() for _ in range(samples)]


def scaled(times, slow) -> list:
    """Each time divided by the median slowness of the samples taken after
    the ops within WINDOW of it."""
    if len(times) != len(slow):
        raise ValueError("one slowness sample per time is needed")
    return [t / statistics.median(slow[max(0, i - WINDOW):i + WINDOW + 1])
            for i, t in enumerate(times)]

"""The reference loop that measures the shared host's speed during a run.

The host's speed drifts by 20-50% within a minute, which no run length
averages out.  The benchmark therefore times this fixed loop, which is its
own code and not pabraid's, around and during everything it measures, and
reports each time also scaled by ``REFERENCE_S`` over the reference time
measured next to it: the time the work would take on a host where the loop
takes ``REFERENCE_S``.  This module imports nothing from ``pabraid``.
"""

import statistics
import time

REFERENCE_LOOPS = 30000
# the reference loop's time on the host whose speed the scaled times assume
REFERENCE_S = 0.005


def reference_loop():
    """A fixed amount of pure-Python integer and dict work."""
    x, table = 0, {}
    for i in range(REFERENCE_LOOPS):
        x = (x * 31 + i) % 1000003
        table[i & 1023] = x
    return x


def reference_times(count):
    """Seconds taken by ``count`` back-to-back runs of the reference loop."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return times


def scaled(seconds, reference_s):
    """``seconds`` measured next to reference times ``reference_s``, at reference speed."""
    return seconds * REFERENCE_S / statistics.fmean(reference_s)

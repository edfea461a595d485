"""A fixed probe of the interpreter's current speed.

The benchmark's machine is shared: its speed drifts by tens of percent
over seconds and minutes, and CPU time drifts with wall time, so the
drift is slower execution, not waiting.  The probe is a few milliseconds
of pure Python of the same kind as the package's hot loops (string
substitution, slicing into a set, float arithmetic).  It never calls the
package, so no change to the program moves it.  Timings are scaled by
REFERENCE_S / (probe time around them): a "reference second" is a second
on this machine when the probe takes REFERENCE_S.
"""

from __future__ import annotations

import time

# The probe's typical time on an idle 2-vCPU x86-64 host with CPython 3.11.
REFERENCE_S = 0.0055


def _probe() -> float:
    word = "0"
    images = ("01", "0")
    for _ in range(20):
        word = "".join([images[int(c)] for c in word])
    factors = {word[i : i + 16] for i in range(len(word) - 16)}
    counts = [[word.count(a, i, i + 64) for a in "01"] for i in range(0, len(word) - 64, 64)]
    total = 0.0
    for i in range(3000):
        total += (i % 7) ** 0.5
    return len(factors) + len(counts) + total


def probe_seconds() -> float:
    start = time.perf_counter()
    _probe()
    return time.perf_counter() - start

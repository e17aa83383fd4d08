"""How fast the shared processor runs this process at the moment.

On a shared virtual machine the processor runs a process up to twice
as slow in spells, from a fraction of a second to longer than a whole
run, and process CPU time slows with it.  A fixed pure-Python loop,
timed in the same process as the work, gauges the speed: REFERENCE_S
divided by the loop's 10th-percentile time.  Multiplying a timing by
that factor states it at one machine speed.  The loop is not part of
ramcirc, so a change to the program does not move it.
"""

from __future__ import annotations

import time

## the loop's 10th-percentile time in the fast spells of the machine
## the bounds were set on (see README.md, "Noise")
REFERENCE_S = 140e-6


def reference() -> int:
    total = 0
    for i in range(1500):
        total += (i * 2654435761) % 1000003
    return total


def factor(times: list[float]) -> float:
    """REFERENCE_S over the 10th percentile of reference() timings."""
    return REFERENCE_S / sorted(times)[len(times) // 10]


def gauge(samples: int = 40) -> float:
    """Time reference() ``samples`` times now and return the factor."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    return factor(times)

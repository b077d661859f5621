"""A fixed pure-Python loop that measures how fast the host runs right now.

The timed worker runs it between ``learn`` calls, and ``learn_s`` is each
call's wall time divided by the mean of the loop times just before and
just after it, times ``NOMINAL_S``. On a shared host whose speed drifts
for minutes at a time, that ratio moves much less than the wall time
(README.md). The loop does not touch ``bndp``, so a change to the program
moves the ratio by exactly as much as it moves the wall time.
"""

import time

ITERATIONS = 150_000
# The loop's time on the 2-vCPU host the benchmark was built on when that
# host ran fast. Only a scale: learn_s reads as seconds on a host where the
# loop takes this long.
NOMINAL_S = 0.020


def loop_s() -> float:
    """Wall time of one pass of the fixed loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0

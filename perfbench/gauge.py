"""The interpreter-speed gauge that scales every time the benchmark reports.

On a shared VM the interpreter's speed drifts by half over tens of
seconds, often for longer than a whole run, so raw times of the same
code differ by a quarter from run to run.  `seconds()` times a fixed
pure-Python loop of integer and dict work, the kind etaquad's own loops
do.  A time t measured next to a gauge reading g is reported as
`scaled(t, g)`: the time it would take at the speed at which the loop
takes REF_S, about its median on a 2-core x86-64 VM.
"""

import time

LOOPS = 40_000
REF_S = 0.0065


def seconds() -> float:
    """Seconds the gauge loop takes right now."""
    start = time.perf_counter()
    s, d = 0, {}
    for i in range(LOOPS):
        s += i * i % 7
        d[i & 1023] = s
    return time.perf_counter() - start


def scaled(t: float, g: float) -> float:
    """Time t, measured where the gauge read g, at the reference speed."""
    return t * REF_S / g

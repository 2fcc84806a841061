"""Host-speed gauge: fixed work whose time tracks the CPU's current speed.

On a shared host the speed of the CPU drifts by tens of percent over
minutes and moves every timing with it.  Timing this gauge next to a
measurement and scaling the measurement by PROBE_NOMINAL_S over the gauge's
time states it at one fixed speed.  The gauge mixes the two kinds of work
the workloads spend their time on, bytecode on small ints and big-integer
multiply-and-reduce, because host contention slows them by different
amounts.  It calls no ceildyn code, so a change to ceildyn cannot move it.
"""

from __future__ import annotations

import gc
import time

PROBE_LOOPS = 100_000  # bytecode part, about half the gauge
PROBE_BIG_STEPS = 4  # big-integer part: products of 31k-bit operands mod 199^4095
PROBE_NOMINAL_S = 0.020

_MODULUS = 199**4095
_LEFT = _MODULUS * 2 // 3 + 12345
_RIGHT = _LEFT // 199 + 1


def speed_probe() -> float:
    """Seconds the host takes for the gauge now (garbage collector off)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc, table = 0, {}
        for i in range(PROBE_LOOPS):
            acc = (acc * 31 + i) % 1000003
            table[i & 255] = acc
        for _ in range(PROBE_BIG_STEPS):
            _LEFT * _RIGHT % _MODULUS
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()

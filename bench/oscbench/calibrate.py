"""Host-speed calibration of measured times.

The 2-vCPU shared virtual machine this benchmark was tuned on runs the
same code up to 2x slower in phases that last from seconds to several
minutes, and pure-Python code, numpy imports and process starts all slow
together. Unscaled, the end-to-end times of ten seeded runs spread up to
0.38 of their median, wider than any useful bound; scaled, under 0.08.

So every timed op is paired with a fixed reference job that shares no
code with oscpop, run between ops: a small pure-Python scalar integrator
for in-process ops, and a fresh ``python -c "import numpy"`` for CLI ops
and set-ups. An op's time is scaled by REF / (the median of the
reference jobs around it), which reports it in seconds at the reference
host speed: the speed at which each reference job takes its REF time.
A slower program moves the scaled time; a slower host does not. The
unscaled times stay in the details of every result.
"""
from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

# Seconds each reference job took on the 2-vCPU virtual machine, Python
# 3.11, in its fast phase, when the benchmark was defined.
KERNEL_REF_S = 1.8e-3
SPAWN_REF_S = 0.12
SPAWN_CMD = (sys.executable, "-c", "import numpy")
SPAWN_TIMEOUT_S = 60.0


class _Step:
    __slots__ = ("t", "y", "f")

    def __init__(self, t: float, y: float, f: float) -> None:
        self.t, self.y, self.f = t, y, f


def _rhs(t: float, y: float) -> float:
    return y * (2.0 + 0.5 * math.sin(t) - y)


def kernel() -> float:
    """Run the in-process reference job once; return its seconds.

    Fixed-step fifth-stage Runge-Kutta on a logistic equation, storing
    each step: scalar floats, calls and small objects, like oscpop's solvers.
    """
    t0 = time.perf_counter()
    t, y, h, steps = 0.0, 0.5, 0.01, []
    for _ in range(1500):
        k1 = _rhs(t, y)
        k2 = _rhs(t + 0.2 * h, y + 0.2 * h * k1)
        k3 = _rhs(t + 0.3 * h, y + h * (3.0 * k1 + 9.0 * k2) / 40.0)
        k4 = _rhs(t + 0.8 * h, y + h * (44.0 * k1 / 45.0 - 56.0 * k2 / 15.0 + 32.0 * k3 / 9.0))
        k5 = _rhs(t + h, y + h * k4)
        y += h * (k1 + k2 + k3 + k4 + k5) / 5.0
        t += h
        steps.append(_Step(t, y, k5))
    return time.perf_counter() - t0


def spawn(cwd) -> float:
    """Run the subprocess reference job once; return its seconds."""
    t0 = time.perf_counter()
    subprocess.run(SPAWN_CMD, cwd=cwd, capture_output=True, check=True, timeout=SPAWN_TIMEOUT_S)
    return time.perf_counter() - t0


def scale(latencies: list[float], refs: list[float], ref_s: float) -> list[float]:
    """Each latency at the reference host speed.

    refs holds one reference time before the first op and one after each
    op, so op i sits between refs[i] and refs[i + 1]. Its speed is the
    median of the four reference times around it, refs[i - 1 : i + 3].
    """
    if len(refs) != len(latencies) + 1:
        raise ValueError("need one reference time before the first op and one after each op")
    return [
        x * ref_s / statistics.median(refs[max(0, i - 1): i + 3])
        for i, x in enumerate(latencies)
    ]

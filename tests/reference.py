"""Reference rules that several test modules check the library against,
each written once: a table's answers from numpy, dopri5's continuous
extension of one step, the float neighbours of probe times, and I0(1).

This module imports no hypothesis, so the example tests that use it run
without it.
"""
import math

import numpy as np

from oscpop import NonDifferentiableError, ScheduleRangeError


class ReferenceTable:
    """Tabulated's answers, exceptions and messages rebuilt from numpy:
    np.searchsorted locates segments, np.interp gives values and a
    cumulative sum of trapezoids the running area from the first knot."""

    def __init__(self, times, values):
        self.ts, self.vs = times, values
        self.lo, self.hi = times.tolist()[0], times.tolist()[-1]
        with np.errstate(over="ignore"):  # overflow gives inf quietly, as on Python floats
            self.cum = np.concatenate(([0.0], np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(times))))

    def check(self, t):
        if not self.lo <= t <= self.hi:
            raise ScheduleRangeError(f"t={t} outside sampled range [{self.lo}, {self.hi}]")

    def segment(self, t):
        k = int(np.searchsorted(self.ts, t, side="right")) - 1
        return min(max(k, 0), self.ts.size - 2)

    def slope(self, k):
        return float((self.vs[k + 1] - self.vs[k]) / (self.ts[k + 1] - self.ts[k]))

    def at(self, t):
        self.check(t)
        return float(np.interp(t, self.ts, self.vs))

    def cumulative(self, t):
        k = self.segment(t)
        return float(self.cum[k] + (t - self.ts[k]) * 0.5 * (self.vs[k] + self.at(t)))

    def integral(self, t0, t1):
        if t1 < t0:
            raise ValueError(f"integral bounds out of order: {t0} > {t1}")
        self.check(t0)
        self.check(t1)
        return self.cumulative(t1) - self.cumulative(t0)

    def derivative(self, t):
        self.check(t)
        idx = int(np.searchsorted(self.ts, t))
        if idx < self.ts.size and self.ts[idx] == t:
            raise NonDifferentiableError(f"capacity has a sample kink at t={t}")
        return self.slope(self.segment(t))

    def piece(self, lo, hi):
        """(v0, t0, s): the piece [lo, hi] is the line v0 + s * (t - t0)."""
        self.check(lo)
        self.check(hi)
        k = self.segment(0.5 * (lo + hi))
        return float(self.vs[k]), float(self.ts[k]), self.slope(k)


def outcome(query, *args):
    """The bits of a float answer, or the exception's type and message."""
    try:
        return float(query(*args)).hex()
    except (ScheduleRangeError, NonDifferentiableError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def contd5(step, theta):
    """dopri5's continuous extension of one RK45 step row (t0, t1, y0, y1,
    f0, f1, dk) at the fraction theta of the step, in Python floats."""
    t0, t1, y0, y1, f0, f1, dk = step
    dt, delta = t1 - t0, y1 - y0
    r3 = dt * f0 - delta
    r4 = delta - dt * f1 - r3
    omt = 1.0 - theta
    return y0 + theta * (delta + omt * (r3 + theta * (r4 + omt * (dt * dk))))


def near(ts):
    """ts and both float neighbours of each, sorted, without repeats."""
    ts = np.asarray(ts, dtype=float)
    return np.unique(np.concatenate((ts, np.nextafter(ts, -np.inf), np.nextafter(ts, np.inf))))


def _bessel_i0_at_1():
    # the power series sum_k 4**-k / (k!)**2, summed in order (sum() may
    # compensate); 20 terms reach the float, scipy.special.i0(1.0)'s bits
    total = 0.0
    for k in range(20):
        total += 4.0**-k / math.factorial(k) ** 2
    return total


I0_1 = _bessel_i0_at_1()  # the modified Bessel function I0 at 1

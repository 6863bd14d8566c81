"""Reference rules that several test modules check the library against,
each written once: a table's answers from numpy, dopri5's continuous
extension of one step, the float neighbours of probe times, I0(1), the
half-peak band's share of a level schedule's cycle in closed form, the
exact-solution settings and error bound RK45 runs are held to, and a
schedule's twin whose RK45 runs step all the way to t_end.

This module imports no hypothesis, so the example tests that use it run
without it.
"""
import math
from dataclasses import fields

import numpy as np

from oscpop import NonDifferentiableError, ScheduleRangeError, SolverConfig, TwoPhase

# the reciprocal-space reference, about 1e-13 relative, far below every
# rel_tol an RK45 run here is checked at
EXACT = SolverConfig(abs_tol=1e-16, rel_tol=1e-13)
# the largest error, in units of abs_tol + rel_tol |P| at the sample, that
# an RK45 run may show against EXACT. The error is global and the samples
# are dense output, so the local test's 1 is no bound: over 1,560 draws of
# the tolerance property's ranges the shifted form read at most 31. When
# it tested its error against W = P - M/2, it read 1,987 on a die-off of
# the derandomized draws
ERROR_BOUND = 100.0


def stepping_to_the_end(cap):
    """cap's twin, with the same parameters, whose RK45 runs never settle
    on their cycle: an instance of a subclass with the repeat marker off,
    so that it steps all the way to t_end, as every run did before the
    settle test."""
    twin = type(f"{type(cap).__name__}ToTheEnd", (type(cap),), {"_repeats": False})
    return twin(*[getattr(cap, f.name) for f in fields(cap) if f.init])


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


def band_residence(r, cap, band):
    """The share of the periodic cycle of P' = r P (M - P) that P spends
    in the open band (0.5 - band, 0.5 + band) * max M, exactly, for a
    Constant (a declared period) or a TwoPhase, in Python floats.

    In u = 1/P a piece at level m is u' = r (1 - m u), so over a piece
    of length tau, u - 1/m = (u_a - 1/m) e^(-r m tau), or u = u_a + r tau
    where m = 0: an affine map u_a -> a u_a + b. The cycle starts at the
    fixed point of the two phases' maps composed. P is monotone on a
    piece, and it reaches a value e between its ends after
    log((P_a - m) e / ((e - m) P_a)) / (r m), or (1/e - 1/P_a) / r where
    m = 0: the log of a ratio of known numbers, so no e^(r m tau) of
    several hundred is formed, only e^(-r m tau), which underflows to 0.
    A flat piece counts all or nothing."""
    levels = (cap.m1, cap.m2) if isinstance(cap, TwoPhase) else (cap.m, cap.m)
    tau = 0.5 * cap.period
    (a1, b1), (a2, b2) = [
        (math.exp(-r * m * tau), -math.expm1(-r * m * tau) / m if m else r * tau) for m in levels
    ]
    u0 = (a2 * b1 + b2) / -math.expm1(-r * sum(levels) * tau)  # a1 a2 = e^(-r (m1 + m2) tau)
    u1 = a1 * u0 + b1
    peak = max(levels)
    lo, hi = (0.5 - band) * peak, (0.5 + band) * peak
    inside = 0.0
    for m, p_a, p_b in ((levels[0], 1.0 / u0, 1.0 / u1), (levels[1], 1.0 / u1, 1.0 / u0)):
        if p_a == p_b:
            inside += tau if lo < p_a < hi else 0.0
            continue

        def reach(e):
            # the time P takes to reach e: 0 if it starts at or past e, tau if it never gets there
            if (e - p_a) * (p_b - p_a) <= 0.0:
                return 0.0
            if (e - p_b) * (p_b - p_a) >= 0.0:
                return tau
            if m == 0.0:
                return (1.0 / e - 1.0 / p_a) / r
            return math.log((p_a - m) * e / ((e - m) * p_a)) / (r * m)

        inside += abs(reach(hi) - reach(lo))
    return inside / (2.0 * tau)


def _bessel_i0_at_1():
    # the power series sum_k 4**-k / (k!)**2, summed in order (sum() may
    # compensate); 20 terms reach the float, scipy.special.i0(1.0)'s bits
    total = 0.0
    for k in range(20):
        total += 4.0**-k / math.factorial(k) ** 2
    return total


I0_1 = _bessel_i0_at_1()  # the modified Bessel function I0 at 1

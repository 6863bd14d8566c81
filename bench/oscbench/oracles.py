"""Output oracles that share no code path with oscpop.

Everything here is numpy on the raw input specs. The trajectory and cycle
references propagate u = 1/P, which obeys the linear equation
u' = r (1 - M u), exactly across each interval [a, b]:

    u(b) = u(a) exp(-r A(a, b)) + r * integral_a^b exp(-r A(s, b)) ds,

with A(s, b) the integral of M over [s, b]. Intervals never straddle a
schedule breakpoint, A comes from each schedule's own antiderivative
formula, and the remaining integral is exact on constant pieces and
16-point Gauss-Legendre on short intervals elsewhere. Every term is positive, so nothing
cancels, and no exponent exceeds one interval's worth.
"""
from __future__ import annotations

import math

import numpy as np

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)

# Acceptance thresholds. Each is at least 20x the worst error seen at the
# initial commit across many seeds (see bench/README.md), so they flag
# real regressions, not rounding.
CYCLE_P_STAR_RTOL = 1e-6
CYCLE_ORBIT_RTOL = 2e-6
CYCLE_MEAN_RTOL = 2e-5
CYCLE_IDENTITY_MAX = 1e-4
DENSE_RTOL = 1e-4  # dense output is cubic Hermite, about 1e-6 at default tolerances
QUADRATURE_RTOL = 1e-4  # the adaptive Simpson tolerance follows its crude first estimate
SCAN_BRANCH_ATOL = 1e-6
# the accuracy oscpop's acceptance tests claim for a doubling; branch values
# are checked only this far from one
DOUBLING_ATOL = 0.01
SQRT6 = math.sqrt(6.0)


# ------------------------------------------------------------- schedules


def breakpoints(s: dict, t0: float, t1: float) -> np.ndarray:
    """Non-smooth points of the schedule strictly inside (t0, t1)."""
    kind = s["kind"]
    if kind == "twophase":
        half = 0.5 * s["period"]
        k = np.arange(math.floor(t0 / half) + 1, math.ceil(t1 / half) + 1)
        b = k * half
    elif kind == "table":
        b = np.asarray(s["times"], dtype=float)
    else:
        return np.empty(0)
    return b[(b > t0) & (b < t1)]


def value(s: dict, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    kind = s["kind"]
    if kind == "constant":
        return np.full_like(t, s["m"])
    if kind == "twophase":
        tau = np.mod(t, s["period"])
        return np.where(tau < 0.5 * s["period"], s["m1"], s["m2"])
    if kind == "sinusoid":
        return s["mean"] + s["amplitude"] * np.sin(2.0 * math.pi * np.mod(t, s["period"]) / s["period"])
    return np.interp(t, s["times"], s["values"])


def increment(s: dict, a, b) -> np.ndarray:
    """Integral of M over [a, b] for a, b inside one smooth piece."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    kind = s["kind"]
    if kind == "constant":
        return s["m"] * (b - a)
    if kind == "twophase":
        # the piece is constant; its level is the value at the midpoint
        return value(s, 0.5 * (a + b)) * (b - a)
    if kind == "sinusoid":
        w = 2.0 * math.pi / s["period"]
        ca = np.cos(w * np.mod(a, s["period"]))
        cb = np.cos(w * np.mod(b, s["period"]))
        return s["mean"] * (b - a) + s["amplitude"] / w * (ca - cb)
    # linear piece: exact trapezoid
    return 0.5 * (b - a) * (value(s, a) + value(s, b))


def integral(s: dict, t0: float, t1: float) -> float:
    knots = np.concatenate(([t0], breakpoints(s, t0, t1), [t1]))
    return float(np.sum(increment(s, knots[:-1], knots[1:])))


# ------------------------------------------------------ reciprocal engine


def _interval_terms(s: dict, r: float, a: np.ndarray, b: np.ndarray):
    """Per-interval log-decay r*A(a, b) and source r*int exp(-r A(s, b)) ds."""
    lam = r * increment(s, a, b)
    h = b - a
    if s["kind"] in ("constant", "twophase"):
        # exp(-r m (b - s)) integrates in closed form; phi(x) = (1 - e^-x)/x
        safe = np.where(lam == 0.0, 1.0, lam)
        phi = np.where(lam == 0.0, 1.0, -np.expm1(-lam) / safe)
        return lam, r * h * phi
    nodes = a[:, None] + 0.5 * h[:, None] * (_GL_X[None, :] + 1.0)
    inner = r * increment(s, nodes, b[:, None])
    source = r * 0.5 * h * np.sum(_GL_W[None, :] * np.exp(-inner), axis=1)
    return lam, source


def _knots(s: dict, r: float, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t0, t1 = float(times[0]), float(times[-1])
    knots = np.union1d(times, breakpoints(s, t0, t1))
    if s["kind"] in ("sinusoid", "table"):
        # keep each Gauss-Legendre interval short: the integrand changes by
        # at most a factor e^0.25 and a sinusoid turns by at most 1/32 cycle
        peak = float(np.max(np.abs(value(s, knots)))) + abs(s.get("amplitude", 0.0))
        step = 0.25 / (r * peak) if peak > 0.0 else t1 - t0
        if s["kind"] == "sinusoid":
            step = min(step, s["period"] / 32.0)
        n = int(math.ceil((t1 - t0) / step))
        knots = np.union1d(knots, np.linspace(t0, t1, n + 1))
    return knots, np.searchsorted(knots, times)


def reciprocal_path(s: dict, r: float, times, u0: float) -> tuple[np.ndarray, float]:
    """u = 1/P at each of the ascending times, from u(times[0]) = u0.

    Also returns the total log-decay r * integral of M over the span.
    """
    times = np.asarray(times, dtype=float)
    knots, where = _knots(s, r, times)
    lam, source = _interval_terms(s, r, knots[:-1], knots[1:])
    u = np.empty(knots.size)
    u[0] = u0
    decay = np.exp(-lam)
    acc = u0
    for k in range(lam.size):
        acc = acc * decay[k] + source[k]
        u[k + 1] = acc
    return u[where], float(np.sum(lam))


def trajectory(s: dict, r: float, p0: float, times) -> np.ndarray:
    """Reference population P at the ascending times, P(times[0]) = p0."""
    u, _ = reciprocal_path(s, r, times, 1.0 / p0)
    return 1.0 / u


def cycle_start(s: dict, r: float) -> float:
    """p* of the periodic cycle from the affine return map in u:

    u* = r int_0^h exp(-r A(s, h)) ds / (1 - exp(-r A(0, h))).
    """
    h = s["period"]
    u_h, lam = reciprocal_path(s, r, np.array([0.0, h]), 0.0)
    return float(-np.expm1(-lam) / u_h[-1])


# ---------------------------------------------------------------- checks


def rel_error(got, want, floor: float = 0.0) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return math.inf
    scale = np.maximum(np.abs(want), floor)
    err = np.abs(got - want) / scale
    return float(np.max(err)) if err.size else 0.0


def check_cycle(spec: dict, p_star: float, orbit_t, orbit_p, mean_p: float, identity: float) -> list[str]:
    """Problems with a cycle result; empty when it passes."""
    s, r = spec["schedule"], spec["r"]
    problems = []
    want = cycle_start(s, r)
    e = rel_error(p_star, want)
    if not e <= CYCLE_P_STAR_RTOL:
        problems.append(f"p_star {p_star!r} vs reference {want!r} (rel {e:.2e})")
    e = rel_error(orbit_p, trajectory(s, r, want, orbit_t))
    if not e <= CYCLE_ORBIT_RTOL:
        problems.append(f"orbit off reference by rel {e:.2e}")
    h = s["period"]
    mean_m = integral(s, 0.0, h) / h
    e = rel_error(mean_p, mean_m)
    if not e <= CYCLE_MEAN_RTOL:
        problems.append(f"mean P {mean_p!r} vs mean M {mean_m!r} (rel {e:.2e})")
    if not identity <= CYCLE_IDENTITY_MAX:
        problems.append(f"orbit identity residual {identity:.2e}")
    return problems


def check_plateaus(spec: dict, p1: float, p2: float) -> list[str]:
    """Square-wave end-of-phase populations against the reference cycle."""
    s, r = spec["schedule"], spec["r"]
    want0 = cycle_start(s, r)
    want = trajectory(s, r, want0, np.array([0.0, 0.5 * s["period"], s["period"]]))
    e = rel_error([p1, p2], want[1:])
    return [] if e <= CYCLE_P_STAR_RTOL else [f"phase-end populations off by rel {e:.2e}"]


def check_dense(spec: dict, times, pops, label: str) -> list[str]:
    s = spec["schedule"]
    want = trajectory(s, spec["r"], spec["p0"], times)
    floor = max(1.0, float(np.max(np.abs(value(s, times)))))
    e = rel_error(pops, want, floor)
    return [] if e <= DENSE_RTOL else [f"{label} off reference by {e:.2e} (scaled)"]


def check_points(spec: dict, times, pops, label: str) -> list[str]:
    want = trajectory(spec["schedule"], spec["r"], spec["p0"], np.concatenate(([0.0], times)))[1:]
    e = rel_error(pops, want)
    return [] if e <= QUADRATURE_RTOL else [f"{label} off reference by rel {e:.2e}"]


# ------------------------------------------------------------------ scan


def two_cycle(rho) -> tuple[np.ndarray, np.ndarray]:
    """The period-2 orbit of x -> mu x (1 - x), mu = 1 + rho > 3."""
    mu = 1.0 + np.asarray(rho, dtype=float)
    root = np.sqrt((mu + 1.0) * (mu - 3.0))
    return (mu + 1.0 - root) / (2.0 * mu), (mu + 1.0 + root) / (2.0 * mu)


def transition_bracket(controls, periods, before: int, after: int):
    """(lo, hi) controls around the first before -> after change, or None.

    Unresolved points (period None) between the two are bridged, the way
    a doubling exactly on a grid point shows up.
    """
    for i in range(len(periods) - 1):
        if periods[i] != before:
            continue
        j = i + 1
        while j < len(periods) and periods[j] is None:
            j += 1
        if j < len(periods) and periods[j] == after:
            return controls[i], controls[j]
    return None



def check_scan(spec: dict, controls, periods, attractors, diverged, d12, d24, r_fixed: float = 1.0):
    """Grid, brackets, and branch values of one scan against theory.

    Returns (problems, misses). A doubling bracket that misses the true
    value by at most DOUBLING_ATOL is a miss: a failed op, but within
    what oscpop claims. Anything else is a problem.
    """
    problems, misses = [], []
    want_grid = np.linspace(spec["rho_start"], spec["rho_stop"], spec["steps"])
    if len(controls) != spec["steps"] or rel_error(controls, want_grid, 1.0) > 1e-12:
        return ["scan grid does not match the requested range"], []
    if any(diverged):
        problems.append("orbit diverged inside [0.5, 3]")
    for label, value_, before, after, target in (
        ("1->2", d12, 1, 2, 2.0),
        ("2->4", d24, 2, 4, SQRT6),
    ):
        inside = spec["rho_start"] + DOUBLING_ATOL < target < spec["rho_stop"] - DOUBLING_ATOL
        if not inside:
            continue
        bracket = transition_bracket(controls, periods, before, after)
        if bracket is None or value_ is None:
            problems.append(f"doubling {label} not located")
            continue
        lo, hi = bracket
        if abs(value_ - 0.5 * (lo + hi)) > 1e-12 * hi:
            problems.append(f"doubling {label} reported at {value_!r}, bracket ({lo!r}, {hi!r})")
        elif not lo - DOUBLING_ATOL <= target <= hi + DOUBLING_ATOL:
            problems.append(f"doubling {label} bracket ({lo!r}, {hi!r}) far from {target!r}")
        elif not lo <= target <= hi:
            misses.append(f"doubling {label} bracket ({lo!r}, {hi!r}) misses {target!r}")
    for rho, period, values in zip(controls, periods, attractors):
        m = rho / r_fixed
        x = r_fixed * np.asarray(values, dtype=float) / (1.0 + rho)
        if 0.5 <= rho < 2.0 - DOUBLING_ATOL:
            if period != 1 or abs(float(values[0]) - m) > SCAN_BRANCH_ATOL * max(1.0, m):
                problems.append(f"rho={rho:.6f}: expected the fixed point P = M")
        elif 2.0 + DOUBLING_ATOL < rho < SQRT6 - DOUBLING_ATOL:
            lo, hi = two_cycle(rho)
            if period != 2 or x.size != 2 or np.max(np.abs(np.sort(x) - [lo, hi])) > SCAN_BRANCH_ATOL:
                problems.append(f"rho={rho:.6f}: expected the 2-cycle")
    return problems[:5], misses

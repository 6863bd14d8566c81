"""Periodic cycles of the logistic flow under a periodic capacity.

In u = 1/P the flow is linear, u' = r (1 - M u), so the return map over
one period h is affine:

    u -> u exp(-r * mass) + r * integral over [0, h] of w(s) ds,
    w(s) = exp(-r * integral of M over [s, h]),

where mass is the integral of M over one period. A positive cycle
therefore exists exactly when the capacity has positive mean over a
period, and its start value is the fixed point of that affine map,
whose offset is u(h) from u(0) = 0 by the closed-form module's exact
step. ExponentOverflowError means the cycle is unrepresentable.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .capacity import CapacitySchedule, SolverConfig, TwoPhase
from .closedform import LogisticParams, _propagate
from .errors import ConvergenceError, ExponentOverflowError, NoPeriodicSolutionError
from .odesolve import Trajectory, integrate_logistic

__all__ = [
    "PeriodicSolution",
    "TwoPhaseReport",
    "period_map",
    "find_periodic_solution",
    "orbit_identity_residual",
    "mean_identity_residual",
    "square_deviation_identity",
    "time_average",
    "half_peak_fraction",
    "two_phase_deductions",
]

_ORBIT_PANELS = 1024  # equal intervals of the printed orbit over one period, h/2 a sample
_EPS = sys.float_info.epsilon
_HUGE = 2.0**500  # past it a square of M or P can overflow a cycle integral


@dataclass(frozen=True)
class PeriodicSolution:
    """A converged cycle: start value, one-period orbit, closure residual."""

    p_star: float
    period: float
    orbit: Trajectory
    residual: float
    growth_rate: float
    fixed_point_tol: float

    def __post_init__(self) -> None:
        if not self.p_star > 0.0:
            raise ValueError("cycle population must be positive")
        if not self.residual <= self.fixed_point_tol:
            raise ValueError(
                f"closure residual {self.residual:.3e} exceeds tolerance "
                f"{self.fixed_point_tol:.3e}"
            )
        span = self.orbit.times[-1] - self.orbit.times[0]
        if abs(span - self.period) > 1e-9 * self.period:
            raise ValueError("orbit must span exactly one period")
        gap = abs(self.orbit.populations[0] - self.orbit.populations[-1])
        if gap > self.fixed_point_tol * self.p_star:
            raise ValueError("orbit endpoints do not close to tolerance")


def period_map(
    r: float, cap: CapacitySchedule, p0: float, cfg: SolverConfig | None = None
) -> float:
    """Population after one schedule period, starting from p0 at t = 0."""
    h = cap.period
    if h is None:
        raise ValueError("schedule declares no period")
    if not p0 > 0.0:
        raise ValueError("p0 must be positive")
    params = LogisticParams(r, p0, 0.0)
    return integrate_logistic(params, cap, h, cfg).final


def _require_positive_finite(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _cycle_start(start: LogisticParams, cap: CapacitySchedule, cfg) -> tuple[float, float, float]:
    # (h, mass, p*): the period, the integral of M over it and the fixed point
    # of the affine return map at rate start.r, start being P = inf at t = 0
    r, h = start.r, cap.period
    if h is None:
        raise ValueError("schedule declares no period")
    mass = cap.integral(0.0, h)
    if mass <= 0.0:
        raise NoPeriodicSolutionError(
            f"capacity mean over one period is {mass / h:.3g}; no positive cycle exists"
        )
    if not mass < math.inf:
        raise ExponentOverflowError("the capacity integral over one period leaves the float range")
    # from u = 0 (P = inf) the step gives u(h) = the affine map's offset
    offset = float(_propagate(start, cap, [h], cfg)[0])
    if math.isinf(offset):
        raise ExponentOverflowError("die-off drives the cycle below the float range")
    p_star = -math.expm1(-r * mass) / offset if offset > 0.0 else 0.0
    if p_star == 0.0:
        # a subnormal r underflows u(h) or p* to 0
        raise ExponentOverflowError(f"the cycle is unrepresentable at r = {r:g}")
    return h, mass, p_star


def find_periodic_solution(
    r: float,
    cap: CapacitySchedule,
    cfg: SolverConfig | None = None,
    fixed_point_tol: float = 1e-8,
) -> PeriodicSolution:
    """Locate the positive periodic cycle of the flow.

    The start value is the fixed point of the affine return map,

        p* = -expm1(-r * mass) / u(h),

    u(h) being propagated from u(0) = 0 (P = inf), exactly for constant
    and square-wave schedules, else by one adaptive quadrature of w.
    The one-period orbit from p*, printed at 1,025 equally spaced times,
    must then close to fixed_point_tol.

    Raises ValueError, before any work, unless r and fixed_point_tol are
    positive and finite and fixed_point_tol is at least float64 epsilon,
    or where the 1,025 print times over the period are not strictly
    increasing (some periods under about 1e-317, whose grid repeats
    subnormal floats); NoPeriodicSolutionError when the capacity mean
    over one period is nonpositive, ExponentOverflowError when that
    integral overflows, a die-off stretch makes u(h) infinite or the
    exponent of w exceed 700, or a subnormal r underflows u(h) or p* to
    0, and ConvergenceError when the orbit fails to close; numerics
    errors of the quadrature or the orbit integration propagate.
    """
    cfg = cfg or SolverConfig()
    start = LogisticParams(r, math.inf)  # checks r; u = 1/P starts from 0
    _require_positive_finite("fixed_point_tol", fixed_point_tol)
    # a relative closure residual below one ulp cannot be certified
    if fixed_point_tol < _EPS:
        raise ValueError(
            f"fixed_point_tol must be at least float64 epsilon {_EPS}, got {fixed_point_tol}"
        )
    inner = replace(
        cfg,
        rel_tol=min(cfg.rel_tol, 1e-2 * fixed_point_tol),
        abs_tol=min(cfg.abs_tol, 1e-4 * fixed_point_tol),
    )
    if cap.period is not None:  # else _cycle_start raises
        grid = np.linspace(0.0, cap.period, _ORBIT_PANELS + 1)
        if not (grid[1:] > grid[:-1]).all():
            raise ValueError(f"period {cap.period} is too short for {_ORBIT_PANELS + 1} strictly increasing print times")
    h, _, p_star = _cycle_start(start, cap, inner)
    orbit = integrate_logistic(LogisticParams(r, p_star, 0.0), cap, h, inner, t_eval=grid)
    residual = abs(orbit.final - p_star) / p_star
    if residual > fixed_point_tol:
        raise ConvergenceError(f"orbit closure residual {residual:.3e} exceeds tolerance")
    return PeriodicSolution(p_star, h, orbit, residual, r, fixed_point_tol)


def _scaled(*arrays: np.ndarray) -> tuple[float, tuple[np.ndarray, ...]]:
    # s and the arrays times s: 1.0 and the arrays themselves, or where the
    # largest magnitude passes _HUGE the power of two that takes it below
    # _HUGE. The diagnostics are homogeneous in (M, P) and scaling by a
    # power of two is exact, so an answer that is finite unscaled keeps its
    # bits unless a scaled value leaves the normal range
    big = float(np.abs(np.concatenate(arrays)).max())
    if not big > _HUGE:
        return 1.0, arrays
    s = math.ldexp(_HUGE, -math.frexp(min(big, sys.float_info.max))[1])
    return s, tuple(s * a for a in arrays)


def _node_capacity(orbit: Trajectory, cap: CapacitySchedule) -> np.ndarray:
    # M at the orbit's Gauss nodes, each step's from the piece of the walk it
    # was integrated on: every piece ends on a step end, so a step's end
    # places it, and a node that rounds onto a breakpoint keeps its step's piece
    steps = orbit.steps
    return cap._walk_values(float(steps[0, 0]), float(steps[-1, 1]), orbit._coefficients[0], orbit._gauss[0])


def orbit_identity_residual(orbit: Trajectory, cap: CapacitySchedule) -> float:
    """|integral of (M P - P^2)| / integral of P^2 over the orbit's steps.

    Along any exact periodic cycle the numerator vanishes, because
    M P - P^2 is dP/dt / r and the cycle closes. Computed by the 4-point
    Gauss-Legendre rule on every accepted RK45 step (the orbit's node
    record), through the step's continuous extension and with M from the
    step's own piece, on M and P scaled by a power of two where a square
    could overflow. Raises ValueError for an orbit without its step record.
    """
    _, w, p = orbit._gauss
    _, (mm, pp) = _scaled(_node_capacity(orbit, cap), p)
    square = pp * pp
    num, den = (float(np.add.reduce((y * w).ravel())) for y in (mm * pp - square, square))
    if den <= 0.0:
        raise ValueError("orbit has no positive mass")
    return abs(num) / den


def mean_identity_residual(sol: PeriodicSolution, cap: CapacitySchedule) -> float:
    """Normalized defect of the cycle identity mean(M P) = mean(P^2)."""
    return orbit_identity_residual(sol.orbit, cap)


def square_deviation_identity(
    sol: PeriodicSolution, cap: CapacitySchedule
) -> tuple[float, float]:
    """The equivalent quadratic form of the cycle identity.

    Returns (integral of (P - M/2)^2, integral of M^2/4) over one
    period; the two agree exactly on a true cycle since their
    difference is the same vanishing integral of P^2 - M P.
    """
    _, w, p = sol.orbit._gauss
    s, (mm, pp) = _scaled(_node_capacity(sol.orbit, cap), p)
    dev = pp - 0.5 * mm
    lhs, rhs = (float(np.add.reduce((y * w).ravel())) for y in (dev * dev, 0.25 * mm * mm))
    return lhs / s / s, rhs / s / s


def time_average(sol: PeriodicSolution) -> float:
    """Mean population over one period of the cycle."""
    t = sol.orbit.times
    _, w, p = sol.orbit._gauss
    s, (pp,) = _scaled(p)
    return float(np.add.reduce((pp * w).ravel())) / float(t[-1] - t[0]) / s


def half_peak_fraction(sol: PeriodicSolution, cap: CapacitySchedule, band: float = 0.10) -> float:
    """Fraction of the period where P, the piecewise-linear curve through
    the printed orbit, sits within band*max(M) of max(M)/2: each sample
    interval counts the share of its P range inside the open band, a flat
    one all or nothing. ValueError unless band is positive and finite."""
    _require_positive_finite("band", band)
    peak = cap.max_value()
    mid, width = 0.5 * peak, band * peak
    t, p = sol.orbit.times, sol.orbit.populations
    lo, hi = np.minimum(p[:-1], p[1:]), np.maximum(p[:-1], p[1:])
    # rounding is monotone, so the overlap is at most hi - lo
    overlap = np.maximum(np.minimum(hi, mid + width) - np.maximum(lo, mid - width), 0.0)
    inside = np.abs(lo - mid) < width  # the share of a flat interval
    share = np.divide(overlap, hi - lo, out=inside.astype(float), where=hi > lo)
    return float(np.sum(share * np.diff(t))) / float(t[-1] - t[0])


@dataclass(frozen=True)
class TwoPhaseReport:
    """End-of-phase populations on the cycle, its mean population, and
    how the square-wave story holds up: plateau gaps against each
    capacity level."""

    p1: float
    p2: float
    mean_population: float
    plateau_gaps: tuple[float, float]
    saturated: bool
    regime_tol: float


def two_phase_deductions(
    params: LogisticParams,
    cap: TwoPhase,
    *,
    regime_tol: float = 0.05,
) -> TwoPhaseReport:
    """Cycle diagnostics for a square-wave schedule, in closed form.

    Only the growth rate matters, not params.p0 or params.t0. p1,
    the population at the phase switch, is one exact step from p2 = p*,
    where the cycle closes; P'/P = r (M - P) and P(h) = P(0) make the
    mean population exactly mass / h. saturated reports whether both
    plateau gaps are within regime_tol of their capacity levels (slow
    switching). ExponentOverflowError means the integral of M over the
    period or p1 leaves the float range.
    """
    _require_positive_finite("regime_tol", regime_tol)
    h, mass, p_star = _cycle_start(LogisticParams(params.r, math.inf), cap, None)
    p1 = 1.0 / float(_propagate(LogisticParams(params.r, p_star), cap, [0.5 * h], None)[0])
    if not 0.0 < p1 < math.inf:
        raise ExponentOverflowError("the cycle's phase-one population leaves the float range")
    plateau = (abs(p1 - cap.m1), abs(p_star - cap.m2))
    saturated = (
        plateau[0] < regime_tol * abs(cap.m1) and plateau[1] < regime_tol * abs(cap.m2)
    )
    return TwoPhaseReport(p1, p_star, mass / h, plateau, saturated, regime_tol)

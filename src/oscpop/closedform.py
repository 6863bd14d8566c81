"""Closed-form solutions of dP/dt = r (M - P) P.

For constant capacity M the solution is

    P(t) = M P0 / (P0 + (M - P0) exp(-r M (t - t0)))

evaluated in a form that never exponentiates a positive argument. For
any M(t), u = 1/P obeys the linear u' = r (1 - M u), whose exact step is

    u(b) = u(a) exp(-r A(a, b)) + r * integral over [a, b] of exp(-r A(s, b)) ds

with A(a, b) the integral of M. One routine takes that step for the
solutions here and for the periodic cycle: in closed form on constant
pieces (Constant, TwoPhase), otherwise by quadrature of a weight that,
anchored at b, never exceeds 1 where M >= 0; only where M < 0 can its
exponent pass 700, and only where an integral of M leaves the float
range can its exponent be unknown, each raising ExponentOverflowError,
as does a boundary layer at b too narrow for the floats there.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .capacity import CapacitySchedule, SolverConfig, TwoPhase
from .errors import ExponentOverflowError, PoleError
from .odesolve import SolverStats, Trajectory, _qag

__all__ = [
    "LogisticParams",
    "logistic_constant",
    "two_phase_trajectory",
    "quadrature_solution",
    "reciprocal_solution",
]

_MAX_EXPONENT = 700.0  # largest exponent exp() is allowed to take here
_POLE_TOL = 1e-10  # relative size below which a denominator is a pole
# fewest floats the weight's boundary layer, 4 / (r max|M|) wide, must span
# at t: the quadrature nodes there are floats, and on zero-amplitude
# sinusoids against logistic_constant the relative error came to about
# 2 ulp(t) / width (worst 2e-5 from 2**15 floats up, 3e-4 at 2**12, 0.75
# at 1); under one float the layer is unseen and P came out 1e293 too small
_LAYER_FLOATS = 2.0**16


@dataclass(frozen=True)
class LogisticParams:
    """Growth rate r > 0 and initial condition P(t0) = p0 >= 0.

    p0 = 0 is admitted because the zero population is a fixed point;
    the pole and positivity statements below assume p0 > 0.
    """

    r: float
    p0: float
    t0: float = 0.0

    def __post_init__(self) -> None:
        if not self.r > 0.0:
            raise ValueError("growth rate r must be positive")
        if self.r == math.inf:
            raise ValueError("growth rate r must be finite")
        if not self.p0 >= 0.0:
            raise ValueError("initial population must be nonnegative")
        if not math.isfinite(self.t0):
            raise ValueError("initial time must be finite")


def logistic_constant(params: LogisticParams, m: float, t: float) -> float:
    """Population at time t under constant capacity m.

    Raises PoleError when the denominator vanishes to within 1e-10
    relative to its terms, which can only happen when evaluating at
    times on the far side of a finite-time pole (p0 > m and t < t0, or
    p0 > 0 > m likewise in the past).
    """
    r, p0, t0 = params.r, params.p0, params.t0
    if m == 0.0:
        # capacity-free limit: dP/dt = -r P^2
        den = 1.0 + r * p0 * (t - t0)
        if abs(den) <= _POLE_TOL * max(1.0, abs(r * p0 * (t - t0))):
            raise PoleError(f"solution pole at t={t}")
        return p0 / den
    x = r * m * (t - t0)
    if x >= 0.0:
        w = math.exp(-x)
        num = m * p0
        den = m * w - p0 * math.expm1(-x)
        scale = max(abs(m * w), abs(p0 * math.expm1(-x)), abs(p0))
    else:
        w = math.exp(x)
        num = m * p0 * w
        den = m + p0 * math.expm1(x)
        scale = max(abs(m), abs(p0 * math.expm1(x)))
    if abs(den) <= _POLE_TOL * scale:
        raise PoleError(f"solution pole at t={t}")
    return num / den


def two_phase_trajectory(
    params: LogisticParams, cap: TwoPhase, t_end: float, dt_sample: float
) -> Trajectory:
    """Piecewise-exact trajectory under a square-wave schedule.

    The solution is chained across the schedule's own switch times
    (anchored at t = 0), so params.t0 may fall anywhere in a cycle.
    Samples are taken every dt_sample from t0; t_end itself is included
    only when it lands on the sample grid.
    """
    if not dt_sample > 0.0:
        raise ValueError("dt_sample must be positive")
    if t_end < params.t0:
        raise ValueError("t_end must not precede the initial time")
    for name, value in (("t_end", t_end), ("dt_sample", dt_sample)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    ts = _sample_grid(params.t0, t_end, dt_sample)
    return Trajectory(ts, 1.0 / _propagate(params, cap, ts, None), SolverStats("piecewise-exact"))


def _sample_grid(t0: float, t_end: float, dt: float) -> np.ndarray:
    # t0, t0 + dt, ... up to t_end, which is kept when within 1e-9 steps of
    # the grid; callers check that the bounds and spacing are finite, and a
    # spacing too fine for a finite count of steps is refused here
    steps = (t_end - t0) / dt + 1e-9
    if not math.isfinite(steps):
        raise ValueError(f"sample spacing {dt} gives no finite number of samples over [{t0}, {t_end}]")
    return t0 + dt * np.arange(math.floor(steps) + 1)


def _constant_step(r: float, m: float, u: float, tau: float) -> float:
    # exact u after time tau >= 0 at constant capacity m; u = inf (P = 0)
    # is absorbing, and a decay exponent past the bound reads as P = 0
    if math.isinf(u):
        return u
    x = r * m * tau
    if abs(x) < sys.float_info.min:
        # m = 0, or x below the normal floats, where expm1(-x) / m keeps no
        # digit: the m = 0 step, which e^-x differs from by under 2**-1022
        return u + r * tau
    if -x > _MAX_EXPONENT:
        return math.inf
    return u * math.exp(-x) - math.expm1(-x) / m


def _weights(r: float, areas: list) -> list:
    # exp(-r * area) of each area of a batch, as floats, by math.exp of one
    # float each: np.exp need not round alike on every CPU. The checks run
    # over the whole batch at once; a NaN exponent makes the sum NaN, as
    # does +inf beside -inf, where the largest fails anyway. Otherwise the
    # first area that fails raises: an area past the float range is
    # unknown, so its weight is known only where exp(-r * the largest
    # float) is already 0
    exponents = [-r * area for area in areas]
    total = sum(exponents)
    if total == total and max(exponents) <= _MAX_EXPONENT and min(exponents) > -math.inf:
        return list(map(math.exp, exponents))
    unknown = math.exp(-r * sys.float_info.max) > 0.0
    for exponent in exponents:
        if math.isnan(exponent) or exponent == -math.inf and unknown:
            raise ExponentOverflowError("the capacity integral leaves the float range")
        if exponent > _MAX_EXPONENT:
            raise ExponentOverflowError(f"weight exponent {exponent:.3g} > {_MAX_EXPONENT:g}")
    return list(map(math.exp, exponents))


def _propagate(params, cap, times, cfg) -> np.ndarray:
    """u = 1/P at ascending times >= t0, each the exact step from (t0, 1/p0).

    No value depends on which other times are given. A walk of level
    pieces (one without a stage evaluator) is taken once with the times,
    u carried across each cut, so memory is bounded by the times. Other
    schedules take a quadrature per time, panel points doubling away
    from t, as the weight is a boundary layer of width ~1/(r max|M|)
    there; each batch of panels takes the integral of M from all its
    nodes in one call, and an integral past the float range raises
    ExponentOverflowError unless its weight is 0 whatever its value. So
    does a layer too narrow for the floats near t, which no quadrature
    can resolve. p0 = inf starts from u = 0, whose homogeneous term is 0
    and takes no integral of M over [t0, t]; u = inf (P = 0) is absorbing.
    """
    r, t0 = params.r, params.t0
    u0 = math.inf if params.p0 == 0.0 else 1.0 / params.p0
    if times[0] < t0:
        raise ValueError("t must not precede the initial time")
    if math.isinf(u0):
        return np.full(len(times), math.inf)
    out = np.empty(len(times))
    pieces, stages = cap._staged_pieces(t0, times[-1], False)
    if stages is None:
        (lo, hi, m, _), u = next(pieces), u0
        for i, t in enumerate(times):
            # a time on a cut goes with the piece that starts there
            while t >= hi and hi < times[-1]:
                u = _constant_step(r, m(lo), u, hi - lo)
                lo, hi, m, _ = next(pieces)
            out[i] = _constant_step(r, m(lo), u, float(t) - lo)
        return out
    spread = r * max(abs(cap.min_value()), abs(cap.max_value()))
    width = 4.0 / spread if spread > 0.0 else math.inf
    for i, t in enumerate(times):
        if t > t0 and width < _LAYER_FLOATS * math.ulp(t):
            raise ExponentOverflowError(
                f"the weight's boundary layer at t={t} is {width:.3g} wide, under 2**16 float spacings"
            )

        def weight(s: np.ndarray, t: float = t) -> list:
            return _weights(r, cap._integrals_to(s, t))

        points = cap.breakpoints_between(t0, t)
        d = width
        while t - d > t0:
            points.append(t - d)
            d *= 2.0
        forcing = _qag(weight, t0, t, points, cfg)
        # from u0 = 0 the homogeneous term is 0, and its integral of M is not taken
        out[i] = r * forcing if u0 == 0.0 else u0 * _weights(r, [cap.integral(t0, t)])[0] + r * forcing
    return out


def quadrature_solution(
    params: LogisticParams, cap: CapacitySchedule, t: float, cfg: SolverConfig | None = None
) -> float:
    """Population at t for arbitrary M(t), via the reciprocal substitution.

    1/P(t) = exp(-r A(t0, t)) / p0 + r * integral over [t0, t] of
    exp(-r A(s, t)) ds. Anchored at t, the weight cannot overflow where
    M >= 0; constant pieces take the closed form, others one adaptive
    quadrature with schedule breakpoints as mandatory points.
    ExponentOverflowError means M < 0 drives P below the float range, or
    an integral of M that the quadrature needs leaves the float range.
    """
    return float(1.0 / _propagate(params, cap, [t], cfg)[0])


def reciprocal_solution(
    params: LogisticParams, cap: CapacitySchedule, t: float, cfg: SolverConfig | None = None
) -> float:
    """1/P(t), the linear-equation variable behind quadrature_solution."""
    return float(_propagate(params, cap, [t], cfg)[0])

"""Adaptive numerical machinery: an embedded Runge-Kutta 4/5 pair with PI
step control and Dormand-Prince's continuous extension as dense output,
plus globally adaptive 7/15-point Gauss-Kronrod quadrature.

Dense output is the pair's own 4th-order interpolant (Shampine 1986;
Hairer, Norsett and Wanner, Solving ODEs I, II.6, dopri5's contd5), one
order above a cubic Hermite, so a sampled orbit is as accurate as the
steps it comes from and needs no extra step-size cap. Each accepted step
is one row of seven floats (a logistic trajectory's steps). The
interpolant's per-step coefficients (the step's width, its rise and the
two remainders of contd5) are formed once per step, in one array with a
row per coefficient, and sampling gathers them for all samples in one
take along the step axis, so no sample forms them again; the cycle
integrals' Gauss nodes read the same array. Either pass is linear in
steps plus samples.

``_steps`` is the one step loop of both integrators and the hot path of
every long run; ``_rk45`` calls it once, or twice on a repeating schedule
(below). It walks the schedule's pieces itself and evaluates each
stage's right-hand side in its own body, in the logistic or the shifted
form chosen by its caller. The schedule's _staged_pieces gives the walk
and a stage evaluator, None where every piece is one level (Constant,
TwoPhase): there M is read once per piece and dM/dt is 0.0. On a table
the loop reads M at a step's five stage times from the piece's line
itself, with the table's float operations, and makes no call per step;
elsewhere each attempted step makes one call of the evaluator, which
returns M at the five stage times, and dM/dt too in the shifted form.
The loop computes those times, so the Dormand-Prince nodes stay in this
module, and stages 6 and 7, which both sit at the step's end (the pair
is FSAL), share the values at it. The loop binds its coefficients and
settings to locals once per call, keeping its counters, step budget and
carried step size in locals too; that saves each step's and each
piece's global and attribute lookups without changing any float it
produces.

On a schedule that repeats for all t, a long run steps two periods: one
from p0 and one from the cycle start that the first gives. In u = 1/P
the gap between two solutions contracts by a fixed factor a period, so
those two give every later time exactly (_rk45's docstring states how).

Capacity breakpoints are treated as hard step boundaries: the integrator
never takes a step across one, and each smooth piece is integrated with
the piece's own one-sided capacity values, so discontinuous forcing does
not degrade the order of the method. Each piece starts from the step
size the controller proposed at the end of the previous one, so a
square wave does not pay a restart from a small step at every switch.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .capacity import SolverConfig, _on_line
from .errors import ConvergenceError, DivergenceError, StiffnessError

__all__ = [
    "Trajectory",
    "SolverStats",
    "integrate_logistic",
    "integrate_riccati",
    "adaptive_quadrature",
]

# Dormand-Prince 5(4) coefficients. The fifth-order solution is propagated;
# the difference row _E* feeds the error estimate. Stage 7 is FSAL.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)
# dopri5's continuous-extension weights: the stage combination that lifts
# the step's cubic Hermite to the 4th-order interpolant
_D1, _D3, _D4, _D5, _D6, _D7 = (
    -12715105075 / 11282082432,
    87487479700 / 32700410799,
    -10690763975 / 1880347072,
    701980252875 / 199316789632,
    -1453857185 / 822651844,
    69997945 / 29380423,
)

# the 4-point Gauss-Legendre rule on [0, 1], exact to degree 7: its nodes,
# as fractions of a step, and its weights, as columns
_GAUSS_THETA = np.array([0.069431844202973712, 0.33000947820757187, 0.66999052179242813, 0.93056815579702629])[:, None]
_GAUSS_WEIGHTS = np.array([0.17392742256872693, 0.32607257743127307, 0.32607257743127307, 0.17392742256872693])[:, None]

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERR_FLOOR = 1e-10


@dataclass(frozen=True)
class SolverStats:
    """Step bookkeeping attached to every trajectory, over every step the
    call took. settled_at is t0 + h, where the exact period map took over
    from stepping on a repeating schedule (see _rk45), None when RK45
    stepped all the way to t_end."""

    solver: str
    n_accepted: int = 0
    n_rejected: int = 0
    n_rhs_evals: int = 0
    smallest_step: float = 0.0
    largest_step: float = 0.0
    settled_at: float | None = None


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled solution: strictly increasing times, finite populations and
    steps, the (n, 7) array of the accepted RK45 steps on P, one row (t0,
    t1, y0, y1, f0, f1, dk) each; None for integrate_riccati, whose rows
    hold W = P - M/2, and where no step was taken. steps holds the steps
    from p0: where the period map took over (meta.settled_at), those of the
    first period, and the samples after it come from the map."""

    times: np.ndarray
    populations: np.ndarray
    meta: SolverStats
    steps: np.ndarray | None = None

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        p = np.asarray(self.populations, dtype=float)
        if t.ndim != 1 or p.ndim != 1 or t.shape != p.shape or t.size < 1:
            raise ValueError("times and populations must be matching 1-D arrays")
        if not (t[1:] > t[:-1]).all():
            raise ValueError("sample times must be strictly increasing")
        if not np.isfinite(p).all():
            raise ValueError("populations must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "populations", p)

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def final(self) -> float:
        return float(self.populations[-1])

    @cached_property
    def _coefficients(self) -> np.ndarray:
        # the step record's continuous-extension coefficients, _step_coefficients'
        # array; the integrator that sampled with them hands them over
        return _step_coefficients(self.steps)

    @cached_property
    def _gauss(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(nodes, weights, p), one row per node and one column per step:
        the 4-point Gauss-Legendre nodes of every accepted step, their
        weights times the step widths and P at them from the continuous
        extension, all read from the per-step coefficients that sampled
        the trajectory. Built on first use and kept, read-only, so the
        cycle integrals of one orbit share one extension pass. ValueError
        for a trajectory without steps."""
        if self.steps is None:
            raise ValueError("cycle integrals need the orbit's RK45 step record (Trajectory.steps)")
        c = self._coefficients[1:]
        t0, dt = c[0], c[1]
        record = t0 + _GAUSS_THETA * dt, _GAUSS_WEIGHTS * dt, _extension(c, _GAUSS_THETA)
        for array in record:
            array.flags.writeable = False
        return record


def _rk45(params, cap, t_end, cfg, t_eval, solver, shift) -> Trajectory:
    """Integrate P' = r (M - P) P, or with shift W' = r (M^2/4 - W^2) - M'/2
    for W = P - M/2, from (t0, p0) to t_end, and sample the steps' continuous
    extension at t_eval, with shift plus M/2 on each sample's own piece;
    without t_eval the samples are t0 and the step ends. Before any step, a
    bad t_end or t_eval raises ValueError; max_iterations caps the attempted
    steps of the whole call, and its ConvergenceError names the t reached,
    t_end and the steps attempted. _steps takes the steps.

    On a schedule whose M repeats for all t (cap._repeats: TwoPhase,
    SinusoidOffset, Constant with a declared period h), with p0 > 0, t_end -
    t0 in (2h, 2^52 h) and r mass in (0, inf), mass = cap.integral(t0, t0 +
    h), only two periods are stepped. In u = 1/P the period map is u -> a u +
    (1 - a) u*, a = e^(-r mass), so one period from p0 gives the cycle start
    u* = (u(s) - a/p0) / (1 - a) at s = t0 + h; that period is stepped at
    abs_tol and rel_tol times 1 - a (rel_tol not below 2^-52), as its error
    reaches u* divided by 1 - a. A second period is stepped from 1/u* at the
    call's rel_tol and an abs_tol of at most rel_tol/u*, from the step size
    the first ended with. The gap
    between two solutions in u obeys v' = -r M v, so it shrinks by a each
    period, and a time t = tau + n h past s, tau = s - ((s - t) mod h) its
    place in the first period, is read as u*(tau) + a^n (u(tau) - u*(tau))
    from the two periods' samples, exactly; a^n and 1 - a^n are taken once
    per n. Every float at or before s is the one of a run to s at the first
    period's tolerances. Step mode lists t0, the first period's step ends
    and t_end, and SolverStats.settled_at is s. Where 1/u* is not a float
    at or above abs_tol, a cycle the steps cannot tell from 0, or with shift
    rel_tol P* is below 2^-52 max|M|, finer than W + M/2 resolves P, the run
    steps to t_end from t0 instead; SolverStats counts the steps of both
    attempts.
    """
    cfg = cfg or SolverConfig()
    t0, p0, r = params.t0, params.p0, params.r
    if not math.isfinite(t_end):
        # NaN passes both comparisons below and never ends a piece
        raise ValueError(f"integration needs finite bounds, got t_end={t_end}")
    if t_end < t0:
        raise ValueError("t_end must not precede the initial time")
    ts = None if t_eval is None else _check_eval_times(t_eval, t0, t_end)
    if t_end == t0:
        return Trajectory(np.array([t0]), np.array([p0]), SolverStats(solver))
    walk, stages = cap._staged_pieces(t0, t_end, shift)
    # attempts left, steps accepted and rejected, pieces, smallest and largest step
    tally = [cfg.max_iterations, 0, 0, 0, math.inf, 0.0]
    h, mapped = cap.period if cap._repeats else None, None
    if h is not None and p0 > 0.0 and 2.0 * h < t_end - t0 < 2.0**52 * h:
        walk = itertools.chain((next(walk),), walk)  # the walk's own range checks come first
        decay = r * cap.integral(t0, t0 + h)
        if 0.0 < decay < math.inf:
            mapped = _map_periods(params, cap, h, decay, t_end, ts, cfg, tally, shift)
    if mapped is None:
        s = None
        steps, _, _ = _steps(walk, stages, shift, r, p0, None, t_end, cfg, tally)
        coef = _step_coefficients(steps)
        if ts is None:  # the step ends, where sampling returns each step's end value
            ts = np.concatenate(([t0], coef[0]))
        out = _sample_steps(coef, ts)
        if shift:
            out += 0.5 * cap._walk_values(t0, t_end, ts, ts)
    else:
        s, ts, out, steps, coef = mapped
    if ts[0] == t0:
        out[0] = p0  # W + M/2 need not round back to p0, nor y0 + 0.0 to -0.0
    _, n_acc, n_rej, n_pieces, h_min, h_max = tally
    # every piece spans lo < hi, so at least one step was accepted
    meta = SolverStats(solver, n_acc, n_rej, n_pieces + 6 * (n_acc + n_rej), h_min, h_max, s)
    orbit = Trajectory(ts, out, meta, None if shift else steps)
    if not shift:
        orbit.__dict__["_coefficients"] = coef  # the cached property's value: _gauss forms none
    return orbit


def _map_periods(params, cap, h, decay, t_end, ts, cfg, tally, shift):
    """_rk45's run on a repeating schedule, decay = r mass: (s, sample
    times, populations, the first period's steps, their coefficients), or
    None where 1/u* is not a float at or above abs_tol or, with shift, where
    rel_tol/u* is below 2^-52 max|M|, the spacing at which W + M/2 holds P."""
    t0, p0, r = params.t0, params.p0, params.r
    s, gap = t0 + h, -math.expm1(-decay)
    k = max(gap, min(1.0, 2.0**-52 / cfg.rel_tol))
    tight = replace(cfg, abs_tol=k * cfg.abs_tol, rel_tol=k * cfg.rel_tol)
    steps, p1, h1 = _steps(*cap._staged_pieces(t0, s, shift), shift, r, p0, None, t_end, tight, tally)
    u_star = (1.0 / p1 - math.exp(-decay) / p0) / gap if p1 > 0.0 else 0.0
    grain = 2.0**-52 * max(-cap.min_value(), cap.max_value()) if shift else 0.0
    if not (0.0 < u_star and cfg.abs_tol * u_star <= 1.0 and grain * u_star <= cfg.rel_tol):
        return None
    # the second period starts from the step size the first ended with, at
    # an abs_tol of at most rel_tol P*: the map weighs its samples against
    # the first period's, however far below those the cycle lies
    at_cycle = replace(cfg, abs_tol=min(cfg.abs_tol, cfg.rel_tol / u_star))
    cycle = _steps(*cap._staged_pieces(t0, s, shift), shift, r, 1.0 / u_star, h1, t_end, at_cycle, tally)[0]
    coef = _step_coefficients(steps)
    if ts is None:
        ts = np.concatenate(([t0], coef[0], [t_end]))
    i = int(np.searchsorted(ts, s, side="right"))
    # each time t past s is its place s - rem, rem = (s - t) mod h, less q h;
    # both periods are sampled at the places in sample order
    q, rem = np.divmod(s - ts[i:], h)
    places = np.concatenate((ts[:i], s - rem))
    p, c = _sample_steps(coef, places), _sample_steps(_step_coefficients(cycle), places)
    if shift:  # the walk takes ascending keys
        keys, back = np.unique(places, return_inverse=True)
        half = (0.5 * cap._walk_values(t0, s, keys, keys))[back]
        p += half
        c += half
    # a^n and 1 - a^n, n = -q, once per run of equal q, which falls along
    # the times: 1/P = a^n / p + (1 - a^n) / c. Where p and c differ in
    # sign or one is 0, noise at a die-off's floor, P is their linear blend
    # by the same weights, which lies between them
    firsts = np.flatnonzero(np.diff(q, prepend=math.nan))
    exponents, runs = (decay * q[firsts]).tolist(), np.diff(firsts, append=q.size)
    g = np.repeat(list(map(math.exp, exponents)), runs)
    gm = -np.repeat(list(map(math.expm1, exponents)), runs)
    both = p[i:] * c[i:]
    p[i:] = np.divide(both, gm * p[i:] + g * c[i:], out=gm * c[i:] + g * p[i:], where=both > 0.0)
    return s, ts, p, steps, coef


def _steps(walk, stages, shift, r, y, h, t_end, cfg, tally):
    """Step from P = y over the pieces of walk, with stage evaluator stages
    (cap._staged_pieces': None on levels, _on_line on a table's lines, else
    a callable; the module docstring says how M reaches the stages), from
    the step size h (None for a sixteenth of the first piece); returns the
    (n, 7) array of the accepted steps, P at the walk's end and the step
    size proposed there. tally holds the call's attempts left, steps
    accepted and rejected, pieces, and smallest and largest step, and is
    updated in place; t_end is the call's, for the budget's message.

    Each piece starts at min(max_step, span, h), span its width, h the
    controller's last proposal before the clip to the previous piece's end.
    With shift, each piece restarts W from the carried P. Both forms scale
    a trial's error by abs_tol + rel_tol max|P| over the step's ends (with
    shift, P carried into the piece, then W + M/2 at stage 6's M), so where
    M is level or linear on each piece they take the same steps: a
    Runge-Kutta step commutes with such a shift. A trial is accepted only
    when err <= 1 and y1 is finite, and adds the row (t0, t1, y0, y1, f0,
    f1, dk) to one flat record, the step array after one np.fromiter pass:
    f0/f1 are its end slopes and dk the continuous-extension combination of
    its stages. Every step has t1 > t0: a step size that no longer moves t
    raises StiffnessError.
    """
    c2, c3, c4, c5 = _C2, _C3, _C4, _C5
    a21, a31, a32, a41, a42, a43 = _A21, _A31, _A32, _A41, _A42, _A43
    a51, a52, a53, a54 = _A51, _A52, _A53, _A54
    a61, a62, a63, a64, a65 = _A61, _A62, _A63, _A64, _A65
    b1, b3, b4, b5, b6 = _B1, _B3, _B4, _B5, _B6
    e1, e3, e4, e5, e6, e7 = _E1, _E3, _E4, _E5, _E6, _E7
    d1, d3, d4, d5, d6, d7 = _D1, _D3, _D4, _D5, _D6, _D7
    safety, min_factor, max_factor, err_floor = _SAFETY, _MIN_FACTOR, _MAX_FACTOR, _ERR_FLOOR
    abs_tol, rel_tol, max_step, min_step = cfg.abs_tol, cfg.rel_tol, cfg.max_step, cfg.min_step
    isfinite = math.isfinite
    record: list[float] = []
    extend = record.extend
    left, n_acc, n_rej, n_pieces, h_min, h_max = tally
    # m1..m6 and s1..s6 are M and dM/dt at stages 1 to 6; s stays 0.0 on
    # level pieces and is read only with shift
    s1 = s2 = s3 = s4 = s5 = s6 = 0.0
    levels, lines = stages is None, stages is _on_line
    for lo, hi, m, dm in walk:
        t = lo
        if lines:  # m is the piece's line, whose slope is scale * rate
            tk, v, rate, scale = m
            m1 = scale * (v + rate * (lo - tk))
            s1 = s2 = s3 = s4 = s5 = s6 = scale * rate
        else:
            m1 = m(lo)
            if levels:
                m2 = m3 = m4 = m5 = m6 = m1
            elif shift:
                s1 = dm(lo)
        size = abs(y)  # |P| at the step's start, carried from step to step
        if shift:
            y = y - 0.5 * m1
        k1 = r * (0.25 * m1 * m1 - y * y) - 0.5 * s1 if shift else r * (m1 - y) * y
        n_pieces += 1
        if not isfinite(k1) or not isfinite(y):
            raise DivergenceError(f"non-finite state at t={t}")
        # a step end within 1e-14 max(|lo|, |hi|) of hi lands on hi, a slack
        # relative to the piece's own ends, so no step jumps a tiny piece
        # near 0; max(|lo|, |hi|) = max(-lo, hi) as lo < hi
        snap = 1e-14 * (-lo if -lo > hi else hi)
        span = hi - lo
        if h is None:
            h = max(span / 16.0, min_step)
        # min and max, without their calls
        if span < h:
            h = span
        if max_step < h:
            h = max_step
        err_prev = None
        while t < hi:
            # the controller's proposal, kept before the clip to the piece
            # end, so that a short step there does not shrink the next
            h_next = h
            rest = hi - t
            if rest < h:
                h = rest
            if left <= 0:
                raise ConvergenceError(f"step budget exhausted (max_iterations) at t={t:.6g} of t_end={t_end:.6g}"
                                       f" after {cfg.max_iterations} attempted steps")
            left -= 1
            t_next = t + h
            if lines:
                m2, m3 = scale * (v + rate * (t + c2 * h - tk)), scale * (v + rate * (t + c3 * h - tk))
                m4, m5 = scale * (v + rate * (t + c4 * h - tk)), scale * (v + rate * (t + c5 * h - tk))
                m6 = scale * (v + rate * (t_next - tk))
            elif not levels:
                t2, t3, t4, t5 = t + c2 * h, t + c3 * h, t + c4 * h, t + c5 * h
                if shift:
                    m2, m3, m4, m5, m6, s2, s3, s4, s5, s6 = stages(t2, t3, t4, t5, t_next)
                else:
                    m2, m3, m4, m5, m6 = stages(t2, t3, t4, t5, t_next)
            z = y + h * (a21 * k1)
            k2 = r * (0.25 * m2 * m2 - z * z) - 0.5 * s2 if shift else r * (m2 - z) * z
            z = y + h * (a31 * k1 + a32 * k2)
            k3 = r * (0.25 * m3 * m3 - z * z) - 0.5 * s3 if shift else r * (m3 - z) * z
            z = y + h * (a41 * k1 + a42 * k2 + a43 * k3)
            k4 = r * (0.25 * m4 * m4 - z * z) - 0.5 * s4 if shift else r * (m4 - z) * z
            z = y + h * (a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4)
            k5 = r * (0.25 * m5 * m5 - z * z) - 0.5 * s5 if shift else r * (m5 - z) * z
            z = y + h * (a61 * k1 + a62 * k2 + a63 * k3 + a64 * k4 + a65 * k5)
            k6 = r * (0.25 * m6 * m6 - z * z) - 0.5 * s6 if shift else r * (m6 - z) * z
            y_new = y + h * (b1 * k1 + b3 * k3 + b4 * k4 + b5 * k5 + b6 * k6)
            # stage 7, the next step's first, at stage 6's time; the error is
            # measured against P at the step's ends in both forms
            if shift:
                k7 = r * (0.25 * m6 * m6 - y_new * y_new) - 0.5 * s6
                size_new = abs(y_new + 0.5 * m6)
            else:
                k7 = r * (m6 - y_new) * y_new
                size_new = abs(y_new)
            err_abs = h * (e1 * k1 + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6 + e7 * k7)
            err = abs(err_abs) / (abs_tol + rel_tol * (size_new if size_new > size else size))
            if err <= 1.0 and isfinite(y_new):
                t_new = hi if hi - t_next <= snap else t_next
                dk = d1 * k1 + d3 * k3 + d4 * k4 + d5 * k5 + d6 * k6 + d7 * k7
                extend((t, t_new, y, y_new, k1, k7, dk))
                if h < h_min:
                    h_min = h
                if h > h_max:
                    h_max = h
                t, y, k1 = t_new, y_new, k7
                size = size_new
                if err == 0.0:
                    factor = max_factor
                elif err_prev is None:
                    factor = safety * err ** -0.2
                else:
                    factor = safety * err ** -0.14 * err_prev ** 0.08
                err_prev = err_floor if err_floor > err else err
                if factor < min_factor:
                    factor = min_factor
                elif factor > max_factor:
                    factor = max_factor
                h *= factor
                if h > max_step:
                    h = max_step
            else:
                n_rej += 1
                # an overflowed trial (err NaN) takes the smallest factor
                factor = safety * err ** -0.2 if err > 1.0 else min_factor
                h *= factor if factor > min_factor else min_factor
                if h < min_step:
                    raise StiffnessError(
                        f"step size underflow at t={t} (needed {h:.3e} < min_step)"
                    )
            if t < hi and t + h == t:
                raise StiffnessError(f"step size vanished at t={t}")
        h = h_next
        if shift:
            y = y + 0.5 * (m1 if levels else scale * (v + rate * (hi - tk)) if lines else m(hi))
    n = len(record) // 7
    tally[:] = left, n_acc + n, n_rej, n_pieces, h_min, h_max
    return np.fromiter(record, float, 7 * n).reshape(n, 7), y, h


def _check_eval_times(t_eval, t0, t_end) -> np.ndarray:
    ts = np.asarray(t_eval, dtype=float)
    if ts.ndim != 1 or ts.size < 1:
        raise ValueError("t_eval must be a non-empty 1-D array")
    if not np.isfinite(ts).all():
        # NaN passes both range comparisons below
        raise ValueError("t_eval must be finite")
    if not (ts[1:] > ts[:-1]).all():
        raise ValueError("t_eval must be strictly increasing")
    if ts[0] < t0 or ts[-1] > t_end:
        raise ValueError("t_eval must lie within the integration interval")
    return ts


def _step_coefficients(steps) -> np.ndarray:
    """The (9, n) per-step coefficients of the continuous extension of n
    step rows (t0, t1, y0, y1, f0, f1, dk): one row each of t1, t0, dt =
    t1 - t0, y0, delta = y1 - y0, r3 = dt f0 - delta, r4 = delta - dt f1
    - r3, dt dk and y1, formed once per step with contd5's operations.
    t1 is the first row, so the step ends are one contiguous array."""
    # the columns t1, t0, t1, y0, y1, f0, f1, dk, y1, then rows 2 and 4 to 7
    # worked in place into their coefficients
    c = np.asarray(steps, dtype=float).T.take([1, 0, 1, 2, 3, 4, 5, 6, 3], axis=0)
    _, _, dt, _, delta, r3, r4, dtdk, _ = c
    dt -= c[1]
    delta -= c[3]
    r3 *= dt
    r3 -= delta
    r4 *= dt
    np.subtract(delta, r4, out=r4)
    r4 -= r3
    dtdk *= dt
    return c


def _sample_steps(coef: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Continuous-extension dense output at ts, in one vectorized pass.

    coef holds _step_coefficients' rows. Each sample's step is found on
    the contiguous step ends, and the coefficients of all samples' steps
    are gathered in one take along the step axis, so the samples pay for
    the extension itself only. A sample on a step end is the end value of
    the step that ends there, exactly; samples past the last end use the
    last step.
    """
    ends = coef[0]
    i = np.searchsorted(ends, ts, side="left")
    np.minimum(i, ends.size - 1, out=i)
    rows = coef[1:].take(i, axis=1)
    theta = ts - rows[0]
    theta /= rows[1]
    out = _extension(rows, theta)
    # y0 + (y1 - y0) need not round back to y1
    np.copyto(out, rows[7], where=theta == 1.0)
    return out


def _extension(c, theta):
    """The continuous extension (dopri5's contd5) at fractions theta of the
    steps whose coefficient rows t0, dt, y0, delta, r3, r4, dt dk, y1 c
    holds (_step_coefficients' rows after t1), broadcast, as one new array
    updated in place."""
    _, _, y0, delta, r3, r4, dtdk, _ = c
    omt = 1.0 - theta
    # y0 + theta (delta + omt (r3 + theta (r4 + omt dt dk))), inside out
    out = omt * dtdk
    out += r4
    out *= theta
    out += r3
    out *= omt
    out += delta
    out *= theta
    out += y0
    return out


def integrate_logistic(params, cap, t_end, cfg=None, t_eval=None) -> Trajectory:
    """Solve dP/dt = r * (M(t) - P) * P from (t0, p0) up to t_end.

    Returns the accepted-step samples, or the dense-output values at
    t_eval when given: one vectorized continuous-extension pass over the
    accepted steps, linear in steps plus samples. The first sample is
    exactly the supplied initial condition.
    """
    return _rk45(params, cap, t_end, cfg, t_eval, "logistic-rk45", shift=False)


def integrate_riccati(params, cap, t_end, cfg=None, t_eval=None) -> Trajectory:
    """Solve the shifted form W = P - M(t)/2 and report P = W + M(t)/2.

    W obeys dW/dt = r * (M^2/4 - W^2) - (1/2) dM/dt on each smooth piece
    of the schedule. P is continuous across capacity jumps while W is
    not, so each piece restarts W from the carried population (and from
    the step size the previous piece ended with). Each step's error is
    tested against abs_tol + rel_tol |P|, not |W|, as on the logistic
    route. Dense output at t_eval is one vectorized continuous-extension
    pass over the accepted steps plus each piece's M/2 on its slice of
    t_eval, linear in steps plus samples. The first sample is exactly the
    supplied initial condition, on both routes.
    """
    return _rk45(params, cap, t_end, cfg, t_eval, "riccati-rk45", shift=True)


def adaptive_quadrature(f, a, b, mandatory_points=(), cfg=None) -> float:
    """Globally adaptive 7/15-point Gauss-Kronrod integral of f over [a, b].

    QUADPACK's QAG scheme (Piessens et al. 1983): mandatory_points cut
    [a, b] into the starting panels, so integrands with known kinks or
    jumps keep full accuracy. Each panel is rated by the 15-point Kronrod
    rule, with |K15 - G7| as its error estimate; the panel with the
    largest estimate is bisected until the summed estimate is at most
    max(abs_tol, rel_tol * |result|). Each bisection spends one unit of
    max_iterations; running out, or a panel too narrow to bisect, raises
    ConvergenceError. f is called with one float at a time, panel by
    panel in _rate's node order; non-finite bounds raise ValueError
    before any call.
    """
    return _qag(lambda xs: [f(x) for x in xs.tolist()], a, b, mandatory_points, cfg)


def _qag(f_nodes, a, b, mandatory_points, cfg) -> float:
    """adaptive_quadrature over an integrand of a whole batch of nodes.

    f_nodes takes the float64 array of _rate's nodes and returns f at
    each node, in order, as floats. The starting panels are one batch and
    each bisection's two halves another, and every panel is rated with
    the float operations of rating it alone.
    """
    cfg = cfg or SolverConfig()
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"quadrature needs finite bounds, got a={a}, b={b}")
    if b < a:
        raise ValueError("integration bounds out of order")
    if a == b:
        return 0.0
    inner = sorted({float(p) for p in mandatory_points if a < p < b})
    edges = [a, *inner, b]
    heap = []
    total = err = 0.0
    for lo, hi, (value, e) in zip(edges[:-1], edges[1:], _rate(f_nodes, edges)):
        heap.append((-e, lo, hi, value))
        total += value
        err += e
    heapq.heapify(heap)
    budget = cfg.max_iterations
    # a NaN estimate never passes, so it ends in ConvergenceError
    while not err <= max(cfg.abs_tol, cfg.rel_tol * abs(total)):
        if budget <= 0:
            raise ConvergenceError("quadrature subdivision budget exhausted")
        budget -= 1
        neg_e, lo, hi, value = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise ConvergenceError(f"quadrature panel at t={lo} too narrow to bisect")
        (left, e_left), (right, e_right) = _rate(f_nodes, [lo, mid, hi])
        heapq.heappush(heap, (-e_left, lo, mid, left))
        heapq.heappush(heap, (-e_right, mid, hi, right))
        total += left + right - value
        err += e_left + e_right + neg_e
    return math.fsum(panel[3] for panel in heap)


# QUADPACK qk15: Kronrod nodes on [0, 1] of the reference interval [-1, 1]
# (the odd ones, and 0, are the 7-point Gauss nodes) and their weights;
# each row pairs a node with its Kronrod and Gauss weight (0 for Kronrod-only)
_KRONROD_ROWS = (
    (0.991455371120812639206854697526329, 0.022935322010529224963732008058970, 0.0),
    (0.949107912342758524526189684047851, 0.063092092629978553290700663189204,
     0.129484966168869693270611432679082),
    (0.864864423359769072789712788640926, 0.104790010322250183839876322541518, 0.0),
    (0.741531185599394439863864773280788, 0.140653259715525918745189590510238,
     0.279705391489276667901467771423780),
    (0.586087235467691130294144845693013, 0.169004726639267902826583426598550, 0.0),
    (0.405845151377397166906606412076961, 0.190350578064785409913256402421014,
     0.381830050505118944950369775488975),
    (0.207784955007898467600689403773245, 0.204432940075298892414161999234649, 0.0),
)
_KRONROD_CENTRE = 0.209482141084727828012999174891714
_GAUSS_CENTRE = 0.417959183673469387755102040816327


# each panel's 15 nodes, as multiples of its half-width from its centre
_NODE_OFFSETS = np.array([0.0, *(sign * row[0] for row in _KRONROD_ROWS for sign in (-1.0, 1.0))])


def _rate(f_nodes, edges) -> list:
    """(K15 integral, |K15 - G7| error estimate) of each panel between
    consecutive edges, f evaluated at all their nodes in one call: panel
    after panel, the centre, then centre - d and centre + d for each
    Kronrod abscissa's half-width multiple d."""
    e = np.array(edges, dtype=float)
    centre = 0.5 * (e[:-1] + e[1:])
    half = 0.5 * (e[1:] - e[:-1])
    # centre + -d is centre - d; the centre itself is kept, not centre + 0.0
    nodes = centre[:, None] + half[:, None] * _NODE_OFFSETS
    nodes[:, 0] = centre
    fx = f_nodes(nodes.ravel())
    kc, gc = _KRONROD_CENTRE, _GAUSS_CENTRE
    (_, k1, g1), (_, k2, g2), (_, k3, g3), (_, k4, g4), (_, k5, g5), (_, k6, g6), (_, k7, g7) = _KRONROD_ROWS
    rated = []
    # each sum runs term by term from the centre's, the zero Gauss weights'
    # terms included (0 * inf is NaN), unrolled over a panel's 15 values
    for h, (f0, a1, b1, a2, b2, a3, b3, a4, b4, a5, b5, a6, b6, a7, b7) in zip(half.tolist(), zip(*[iter(fx)] * 15)):
        p1, p2, p3, p4, p5, p6, p7 = a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5, a6 + b6, a7 + b7
        kronrod = kc * f0 + k1 * p1 + k2 * p2 + k3 * p3 + k4 * p4 + k5 * p5 + k6 * p6 + k7 * p7
        gauss = gc * f0 + g1 * p1 + g2 * p2 + g3 * p3 + g4 * p4 + g5 * p5 + g6 * p6 + g7 * p7
        rated.append((kronrod * h, abs((kronrod - gauss) * h)))
    return rated

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

``_rk45`` is the one step loop of both integrators and the hot path of
every long run. It walks the schedule's pieces itself and evaluates each
stage's right-hand side in its own body, in the logistic or the shifted
form chosen once per call. The schedule's _staged_pieces gives the walk
and a stage evaluator, None where every piece is one level (Constant,
TwoPhase): there M is read once per piece and dM/dt is 0.0; elsewhere
each attempted step makes one call of the evaluator, which returns M at
the step's five stage times, and dM/dt too in the shifted form. The loop
computes those times, so the Dormand-Prince nodes stay in this module,
and stages 6 and 7, which both sit at the step's end (the pair is FSAL),
share the values at it. The loop binds its coefficients and settings to
locals once per call, keeping its counters, step budget and carried step
size in locals too; that saves each step's and each piece's global and
attribute lookups without changing any float it produces.

On a schedule that repeats for all t, a long run stops stepping once its
orbit has settled on its cycle and reads each later time at its place in
the last period (_rk45's docstring states the test and its guarantee).

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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .capacity import SolverConfig
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
# the settle test's share of rel_tol: stepping stops once two marks a period
# apart differ by at most this much of rel_tol times the period map's contraction
_SETTLE_MARGIN = 0.1


@dataclass(frozen=True)
class SolverStats:
    """Step bookkeeping attached to every trajectory. settled_at is the mark
    at which RK45 stopped stepping on a repeating schedule (see _rk45), None
    when it stepped all the way to t_end."""

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
    hold W = P - M/2, and where no step was taken. steps holds only the
    steps taken: on an orbit that settled on its cycle (meta.settled_at),
    they end at the step that crosses that mark, and the samples after it
    are read from the last period of the record."""

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
    for W = P - M/2, from (t0, p0) to t_end, piece by piece.

    One pass over cap._staged_pieces' walk, each stage's right-hand side
    evaluated in the loop. A walk without a stage evaluator is of levels: M is
    read once per piece and dM/dt is 0.0; otherwise M (and, with shift, dM/dt)
    is one value (and slope) call at a piece's start and, at an attempted
    step's five other stage times, one stage evaluator call that gives the
    floats of those calls; stages 6 and 7 share the values at t_next. Each
    piece starts at min(max_step, span, h), h the controller's last proposal
    before the clip to the previous piece's end (a sixteenth of the span for
    the first piece). With shift, each piece restarts W from the carried P,
    and P = W + M/2 is reported. Both forms scale a trial's error by abs_tol +
    rel_tol max|P| over the step's ends (with shift, P carried into the piece,
    then W + M/2 at stage 6's M), so where M is level or linear on each piece
    they take the same steps: a Runge-Kutta step commutes with such a shift. A
    trial is accepted only when err <= 1 and y1 is finite, and adds the row
    (t0, t1, y0, y1, f0, f1, dk) to one flat record, the (n, 7) step array
    after one np.fromiter pass, kept as the trajectory's steps without shift:
    f0/f1 are its end slopes and dk the continuous-extension combination of
    its stages. Every step has t1 > t0: a step size that no longer moves t
    raises StiffnessError. Before any step, a bad t_end or t_eval raises
    ValueError; max_iterations caps the attempted steps of the whole call, and
    its ConvergenceError names the t reached, t_end and the steps attempted.

    On a schedule whose M repeats for all t (cap._repeats: TwoPhase,
    SinusoidOffset, Constant with a declared period h), with t_end - t0 at
    least 2h and mass = cap.integral(t0, t0 + h) in (0, inf), stepping stops
    at the first mark s = t0 + k h before t_end, crossed by an accepted step,
    where |P(s) - P(s - h)| <= 0.1 (1 - e^(-r mass)) rel_tol |P(s)|, P read
    from the steps' continuous extension (_Marks). The period map is affine
    in u = 1/P with slope e^(-r mass), so the state at s is within 0.1
    rel_tol of the cycle, and for r > 0 a relative error in u never grows
    along the flow. A sample at t > s then reads the record at its place
    s - ((s - t) mod h) in the last period, with shift M/2 taken there on
    that place's own piece; step mode lists the ends of the last period's
    steps shifted by whole periods, then t_end, so both modes give the same
    value at any time. Every float at or before s is the one of a run that
    steps to t_end, and SolverStats.settled_at is s (None without a stop).
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
    left = cfg.max_iterations
    n_rej = n_pieces = 0
    h_min, h_max = math.inf, 0.0
    y, h = p0, None
    # m1..m6 and s1..s6 are M and dM/dt at stages 1 to 6; s stays 0.0 on
    # level pieces and is read only with shift
    s1 = s2 = s3 = s4 = s5 = s6 = 0.0
    walk, stages = cap._staged_pieces(t0, t_end, shift)
    levels = stages is None
    # the settle test's marks t0 + k h, h the period of a schedule that
    # repeats; mark is the next one, inf where the test is off
    period = cap.period if cap._repeats else None
    marks, mark, settled_at = None, math.inf, None
    if period is not None and 2.0 * period <= t_end - t0 < 2.0**52 * period:
        walk = itertools.chain((next(walk),), walk)  # the walk's own range checks come first
        mass = cap.integral(t0, t0 + period)
        if 0.0 < mass < math.inf:
            marks = _Marks(t0, period, t_end, _SETTLE_MARGIN * -math.expm1(-r * mass) * rel_tol, p0)
            mark = marks.next
    for lo, hi, m, dm in walk:
        t = lo
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
        span = hi - lo
        if h is None:
            h = max(span / 16.0, min_step)
        # min and max, without their calls
        if span < h:
            h = span
        if max_step < h:
            h = max_step
        # a step end within 1e-14 max(|lo|, |hi|) of hi lands on hi, a slack
        # relative to the piece's own ends, so no step jumps a tiny piece
        # near 0; max(|lo|, |hi|) = max(-lo, hi) as lo < hi
        snap = 1e-14 * (-lo if -lo > hi else hi)
        err_prev = None
        while t < hi:
            # the controller's proposal, kept before the clip to the piece end
            # so that a short last step does not shrink the next piece's start
            h_next = h
            rest = hi - t
            if rest < h:
                h = rest
            if left <= 0:
                raise ConvergenceError(f"step budget exhausted (max_iterations) at t={t:.6g} of t_end={t_end:.6g}"
                                       f" after {cfg.max_iterations} attempted steps")
            left -= 1
            t_next = t + h
            if not levels:
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
                if t_new >= mark:
                    settled_at = marks.cross(t, t_new, y, y_new, k1, k7, dk, m if shift else None)
                    if settled_at is not None:
                        break
                    mark = marks.next
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
        if settled_at is not None:
            break
        h = h_next
        if shift:
            y = y + 0.5 * (m1 if levels else m(hi))
    n_acc = len(record) // 7
    # every piece spans lo < hi, so at least one step was accepted
    meta = SolverStats(solver, n_acc, n_rej, n_pieces + 6 * (n_acc + n_rej), h_min, h_max, settled_at)
    # the record becomes the (n, 7) step array, released before sampling;
    # a logistic trajectory keeps the array and the coefficients sampled from
    steps = np.fromiter(record, float, 7 * n_acc).reshape(n_acc, 7)
    record.clear()
    coef = _step_coefficients(steps)
    if ts is None:  # the step ends, where sampling returns each step's end value
        ts = np.concatenate(([t0], coef[0]))
        if settled_at is not None:
            ts = _repeat_ends(ts, settled_at, period, t_end)
    if settled_at is None:
        keys, back, stop = ts, None, t_end
    else:
        # each time past the mark is read at its place in the last period,
        # the distinct places once each and in order, as the M/2 pass needs
        keys, back = np.unique(_fold(ts, settled_at, period), return_inverse=True)
        stop = settled_at
    out = _sample_steps(coef, keys)
    if shift:
        # M/2 at each place on its own piece, which a time a period later
        # need not round onto
        out += 0.5 * cap._walk_values(t0, stop, keys, keys)
    if back is not None:
        out = out[back]
    if ts[0] == t0:
        out[0] = p0  # W + M/2 need not round back to p0, nor y0 + 0.0 to -0.0
    orbit = Trajectory(ts, out, meta, None if shift else steps)
    if not shift:
        orbit.__dict__["_coefficients"] = coef  # the cached property's value: _gauss forms none
    return orbit


class _Marks:
    """The settle test of _rk45 at the marks t0 + k h before t_end.

    cross(t, t_new, y0, y1, f0, f1, dk, m) takes an accepted step that
    reaches the next mark, with its row's floats (in W with the piece's M
    as m on the shifted form, P and m None on the logistic form). It reads
    P at the last mark the step crosses, and at the mark before it (from
    this step, or kept from the step that crossed it; p0 at t0), from the
    step's continuous extension, plus M/2 there with m; where one step
    crosses several marks only those two are compared. It returns that
    last mark if the two differ by at most tol |P| there, and otherwise
    keeps P and moves next past the step.
    """

    def __init__(self, t0, h, t_end, tol, p0):
        self.t0, self.h, self.t_end, self.tol = t0, h, t_end, tol
        self.k, self.p, self.next = 1, p0, t0 + h

    def _before_end(self, j, t_new):
        x = self.t0 + j * self.h
        return x <= t_new and x < self.t_end

    def cross(self, t, t_new, y0, y1, f0, f1, dk, m):
        t0, h, k = self.t0, self.h, self.k
        # the last mark crossed, from a float estimate of its index, at most
        # one mark off each way while fewer than 2**52 periods are marked
        j = max(k, math.floor((t_new - t0) / h))
        if j > k and not self._before_end(j, t_new):
            j -= 1
        if self._before_end(j + 1, t_new):
            j += 1
        dt = t_new - t
        delta = y1 - y0
        r3 = dt * f0 - delta
        r4 = delta - dt * f1 - r3

        def p(x):
            theta = (x - t) / dt
            omt = 1.0 - theta
            y = y0 + theta * (delta + omt * (r3 + theta * (r4 + omt * dt * dk)))
            return y if m is None else y + 0.5 * m(x)

        last = t0 + j * h
        p_last = p(last)
        p_before = p(t0 + (j - 1) * h) if j > k else self.p
        if abs(p_last - p_before) <= self.tol * abs(p_last):
            return last
        self.k, self.p = j + 1, p_last
        self.next = t0 + (j + 1) * h
        if not self.next < self.t_end:
            self.next = math.inf
        return None


def _fold(ts, s, h) -> np.ndarray:
    """ts with each time t past the mark s replaced by its place in the last
    period, s - ((s - t) mod h)."""
    keys = ts.copy()
    i = np.searchsorted(ts, s, side="right")
    keys[i:] = s - np.mod(s - ts[i:], h)
    return keys


def _repeat_ends(ts, s, h, t_end) -> np.ndarray:
    """Step mode past the mark s: the times ts up to s (t0, then the step
    ends), the ends of the last period (s - h, s] shifted by whole periods
    while before t_end, then t_end; a shifted end that rounds onto the time
    before it is dropped, so the times stay strictly increasing."""
    i = np.searchsorted(ts, s, side="right")
    last = ts[np.searchsorted(ts, s - h, side="right") : i]
    later = last[:0]
    if last.size:
        later = (last + h * np.arange(1, math.ceil((t_end - s) / h) + 1)[:, None]).ravel()
    ts = np.concatenate((ts[:i], later[later < t_end], [t_end]))
    return ts[np.concatenate(([True], ts[1:] > np.maximum.accumulate(ts)[:-1]))]


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

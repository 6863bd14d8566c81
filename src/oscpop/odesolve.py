"""Adaptive numerical machinery: an embedded Runge-Kutta 4/5 pair with PI
step control and Dormand-Prince's continuous extension as dense output,
plus globally adaptive 7/15-point Gauss-Kronrod quadrature.

Dense output is the pair's own 4th-order interpolant (Shampine 1986;
Hairer, Norsett and Wanner, Solving ODEs I, II.6, dopri5's contd5), one
order above a cubic Hermite, so a sampled orbit is as accurate as the
steps it comes from and needs no extra step-size cap. Each accepted step
stores one more float for it, and sampling is one vectorized pass over
the accepted steps, linear in steps plus samples.

``_rk45`` is the one step loop of both integrators and the hot path of
every long run. It walks the schedule's pieces itself and binds its
coefficients and settings to locals once per call, keeping its counters,
step budget and carried step size in locals too; that saves each step's
and each piece's global and attribute lookups without changing any
float it produces.

Capacity breakpoints are treated as hard step boundaries: the integrator
never takes a step across one, and each smooth piece is integrated with
the piece's own one-sided capacity values, so discontinuous forcing does
not degrade the order of the method. Each piece starts from the step
size the controller proposed at the end of the previous one, so a
square wave does not pay a restart from a small step at every switch.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .capacity import SolverConfig
from .errors import ConvergenceError, DivergenceError, StiffnessError

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

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERR_FLOOR = 1e-10


@dataclass(frozen=True)
class SolverStats:
    """Step bookkeeping attached to every trajectory."""

    solver: str
    n_accepted: int = 0
    n_rejected: int = 0
    n_rhs_evals: int = 0
    smallest_step: float = 0.0
    largest_step: float = 0.0


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled solution: strictly increasing times, finite populations."""

    times: np.ndarray
    populations: np.ndarray
    meta: SolverStats

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        p = np.asarray(self.populations, dtype=float)
        if t.ndim != 1 or p.ndim != 1 or t.shape != p.shape or t.size < 1:
            raise ValueError("times and populations must be matching 1-D arrays")
        if t.size > 1 and not np.all(np.diff(t) > 0.0):
            raise ValueError("sample times must be strictly increasing")
        if not np.all(np.isfinite(p)):
            raise ValueError("populations must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "populations", p)

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def final(self) -> float:
        return float(self.populations[-1])


def _rk45(params, cap, t_end, cfg, t_eval, rhs_on, solver, shift) -> Trajectory:
    """Integrate y' = rhs_on(m, dm)(t, y) from (t0, p0) to t_end, piece by piece.

    One pass over cap.pieces: each smooth piece gets the right-hand side
    of its own M and dM/dt and starts at min(max_step, span, h), h being
    the controller's last proposal before the clip to the previous
    piece's end (a sixteenth of the span for the first piece). With
    shift, y is W = P - M/2: each piece restarts W from the carried P,
    and P = W + M/2 is reported. Each accepted step is a tuple (t0, t1,
    y0, y1, f0, f1, dk): f0/f1 are the slopes at its ends and dk the
    continuous-extension combination of its stages. Every step has
    t1 > t0: a step size that no longer moves t raises StiffnessError.
    max_iterations caps the attempted steps of the whole call, and a
    non-finite t_end raises ValueError before any step.
    """
    cfg = cfg or SolverConfig()
    t0, p0 = params.t0, params.p0
    if not math.isfinite(t_end):
        # NaN passes both comparisons below and never ends a piece
        raise ValueError(f"integration needs finite bounds, got t_end={t_end}")
    if t_end < t0:
        raise ValueError("t_end must not precede the initial time")
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
    steps: list[tuple] = []
    append = steps.append
    # (steps so far, hi, M) at each piece end; only the M/2 shift reads them
    ends: list[tuple] = []
    left = cfg.max_iterations
    n_acc = n_rej = n_pieces = 0
    h_min, h_max = math.inf, 0.0
    y, h = p0, None
    for lo, hi, m, dm in cap.pieces(t0, t_end):
        f = rhs_on(m, dm)
        if shift:
            y = y - 0.5 * m(lo)
        t = lo
        k1 = f(t, y)
        n_pieces += 1
        if not isfinite(k1) or not isfinite(y):
            raise DivergenceError(f"non-finite state at t={t}")
        span = hi - lo
        if h is None:
            h = max(span / 16.0, min_step)
        h = min(max_step, span, h)
        snap = 1e-14 * max(abs(hi), 1.0)
        err_prev = None
        while t < hi:
            # the controller's proposal, kept before the clip to the piece end
            # so that a short last step does not shrink the next piece's start
            h_next = h
            rest = hi - t
            if rest < h:
                h = rest
            if left <= 0:
                raise ConvergenceError("step budget exhausted (max_iterations)")
            left -= 1
            k2 = f(t + c2 * h, y + h * (a21 * k1))
            k3 = f(t + c3 * h, y + h * (a31 * k1 + a32 * k2))
            k4 = f(t + c4 * h, y + h * (a41 * k1 + a42 * k2 + a43 * k3))
            k5 = f(t + c5 * h, y + h * (a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4))
            t_next = t + h
            k6 = f(t_next, y + h * (a61 * k1 + a62 * k2 + a63 * k3 + a64 * k4 + a65 * k5))
            y_new = y + h * (b1 * k1 + b3 * k3 + b4 * k4 + b5 * k5 + b6 * k6)
            k7 = f(t_next, y_new)
            if not (isfinite(y_new) and isfinite(k7) and isfinite(k2 + k3 + k4 + k5 + k6)):
                raise DivergenceError(f"non-finite state near t={t_next}")
            err_abs = h * (e1 * k1 + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6 + e7 * k7)
            size, size_new = abs(y), abs(y_new)
            err = abs(err_abs) / (abs_tol + rel_tol * (size_new if size_new > size else size))
            if err <= 1.0:
                t_new = hi if hi - t_next <= snap else t_next
                dk = d1 * k1 + d3 * k3 + d4 * k4 + d5 * k5 + d6 * k6 + d7 * k7
                append((t, t_new, y, y_new, k1, k7, dk))
                n_acc += 1
                if h < h_min:
                    h_min = h
                if h > h_max:
                    h_max = h
                t, y, k1 = t_new, y_new, k7
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
                factor = safety * err ** -0.2
                h *= factor if factor > min_factor else min_factor
                if h < min_step:
                    raise StiffnessError(
                        f"step size underflow at t={t} (needed {h:.3e} < min_step)"
                    )
            if t < hi and t + h == t:
                raise StiffnessError(f"step size vanished at t={t}")
        h = h_next
        if shift:
            y = y + 0.5 * m(hi)
            ends.append((len(steps), hi, m))
    meta = SolverStats(
        solver, n_acc, n_rej, n_pieces + 6 * (n_acc + n_rej), h_min if steps else 0.0, h_max
    )
    if t_eval is None:
        pops = [p0] + [s[3] for s in steps]
        a = 0
        for b, _, m in ends:
            pops[a + 1:b + 1] = [s[3] + 0.5 * m(s[1]) for s in steps[a:b]]
            a = b
        return Trajectory(np.array([t0] + [s[1] for s in steps]), np.array(pops), meta)
    ts = _check_eval_times(t_eval, t0, t_end)
    out = _sample_steps(steps, ts)
    if shift:
        # each piece shifts a contiguous slice of ts; a sample on a piece's
        # end stays with that piece, as does any past the last end
        cuts = np.searchsorted(ts, [hi for _, hi, _ in ends[:-1]], side="right").tolist()
        for (_, _, m), a, b in zip(ends, [0, *cuts], [*cuts, ts.size]):
            if a < b:
                out[a:b] += 0.5 * m(ts[a:b])
        if ts[0] == t0:
            out[0] = p0  # W + M/2 need not round back to p0
    return Trajectory(ts, out, meta)


def _check_eval_times(t_eval, t0, t_end) -> np.ndarray:
    ts = np.asarray(t_eval, dtype=float)
    if ts.ndim != 1 or ts.size < 1:
        raise ValueError("t_eval must be a non-empty 1-D array")
    if ts.size > 1 and not np.all(np.diff(ts) > 0.0):
        raise ValueError("t_eval must be strictly increasing")
    slack = 1e-12 * max(1.0, abs(t0), abs(t_end))
    if ts[0] < t0 - slack or ts[-1] > t_end + slack:
        raise ValueError("t_eval must lie within the integration interval")
    return ts


def _sample_steps(steps: list[tuple], ts: np.ndarray) -> np.ndarray:
    """Continuous-extension dense output at ts, in one vectorized pass.

    A sample on a step end belongs to the step that ends there, and is
    that step's end value exactly; samples past the last end use the
    last step.
    """
    n = len(steps)
    cols = np.fromiter(chain.from_iterable(steps), float, 7 * n).reshape(n, 7)
    k = np.minimum(np.searchsorted(cols[:, 1], ts, side="left"), n - 1)
    t0, t1, y0, y1, f0, f1, dk = cols[k].T
    dt = t1 - t0
    theta = (ts - t0) / dt
    omt = 1.0 - theta
    delta = y1 - y0
    r3 = dt * f0 - delta
    r4 = delta - dt * f1 - r3
    y = y0 + theta * (delta + omt * (r3 + theta * (r4 + omt * (dt * dk))))
    # y0 + (y1 - y0) need not round back to y1
    return np.where(theta == 1.0, y1, y)


def integrate_logistic(params, cap, t_end, cfg=None, t_eval=None) -> Trajectory:
    """Solve dP/dt = r * (M(t) - P) * P from (t0, p0) up to t_end.

    Returns the accepted-step samples, or the dense-output values at
    t_eval when given: one vectorized continuous-extension pass over the
    accepted steps, linear in steps plus samples. The first sample is
    exactly the supplied initial condition.
    """
    r = params.r

    def rhs_on(m, dm):
        def rhs(t: float, p: float, m=m) -> float:
            return r * (m(t) - p) * p

        return rhs

    return _rk45(params, cap, t_end, cfg, t_eval, rhs_on, "logistic-rk45", shift=False)


def integrate_riccati(params, cap, t_end, cfg=None, t_eval=None) -> Trajectory:
    """Solve the shifted form W = P - M(t)/2 and report P = W + M(t)/2.

    W obeys dW/dt = r * (M^2/4 - W^2) - (1/2) dM/dt on each smooth piece
    of the schedule. P is continuous across capacity jumps while W is
    not, so each piece restarts W from the carried population (and from
    the step size the previous piece ended with). Dense output at t_eval
    is one vectorized continuous-extension pass over the accepted steps
    plus each piece's M/2 on its slice of t_eval, linear in steps plus
    samples. The first sample is exactly the supplied initial
    condition, on both routes.
    """
    r = params.r

    def rhs_on(m, dm):
        def rhs(t: float, w: float, m=m, dm=dm) -> float:
            mt = m(t)
            return r * (0.25 * mt * mt - w * w) - 0.5 * dm(t)

        return rhs

    return _rk45(params, cap, t_end, cfg, t_eval, rhs_on, "riccati-rk45", shift=True)


def adaptive_quadrature(f, a, b, mandatory_points=(), cfg=None) -> float:
    """Globally adaptive 7/15-point Gauss-Kronrod integral of f over [a, b].

    QUADPACK's QAG scheme (Piessens et al. 1983): mandatory_points cut
    [a, b] into the starting panels, so integrands with known kinks or
    jumps keep full accuracy. Each panel is rated by the 15-point Kronrod
    rule, with |K15 - G7| as its error estimate; the panel with the
    largest estimate is bisected until the summed estimate is at most
    max(abs_tol, rel_tol * |result|). Each bisection spends one unit of
    max_iterations; running out, or a panel too narrow to bisect, raises
    ConvergenceError. f is called with one float at a time.
    """
    cfg = cfg or SolverConfig()
    if b < a:
        raise ValueError("integration bounds out of order")
    if a == b:
        return 0.0
    inner = sorted({float(p) for p in mandatory_points if a < p < b})
    edges = [a, *inner, b]
    heap = []
    total = err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        value, e = _kronrod_panel(f, lo, hi)
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
        left, e_left = _kronrod_panel(f, lo, mid)
        right, e_right = _kronrod_panel(f, mid, hi)
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


def _kronrod_panel(f, lo, hi):
    """(K15 integral, |K15 - G7| error estimate) of f over [lo, hi]."""
    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fc = f(centre)
    kronrod = _KRONROD_CENTRE * fc
    gauss = _GAUSS_CENTRE * fc
    for x, wk, wg in _KRONROD_ROWS:
        d = half * x
        pair = f(centre - d) + f(centre + d)
        kronrod += wk * pair
        gauss += wg * pair
    return kronrod * half, abs((kronrod - gauss) * half)

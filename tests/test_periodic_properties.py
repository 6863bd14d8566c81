"""Properties of the periodic cycle: its Floquet multiplier, the cycle
identities, its half-peak fraction and printed grid, its two forcing
limits and the closed-form square-wave report.

Linearizing dP/dt = r (M - P) P about the cycle gives the multiplier
exp(r * integral of (M - 2P)) over one period, and mean P = mean M on
the cycle turns it into exp(-r * mass), mass being the integral of M
over the period. Here it is the slope of the one-period map at p*,
taken as a central difference of integrate_logistic.

The limits are checked by their order in the period h, not by their
constants. Fast forcing (first-order averaging; Sanders, Verhulst and
Murdock, Averaging Methods in Nonlinear Dynamical Systems, 2007): with
M = Mbar + m(t), I(t) the integral of m from 0 and Ibar its mean, the
cycle is Mbar + r Mbar (I - Ibar) + O((r Mbar h)^2). Slow forcing
(quasi-static tracking where M stays away from 0): the cycle is
M - M' / (r M) + O(h^-2).
"""
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from oscpop import (  # noqa: E402
    Constant,
    LogisticParams,
    SinusoidOffset,
    SolverConfig,
    Tabulated,
    TwoPhase,
    find_periodic_solution,
    half_peak_fraction,
    integrate_logistic,
    mean_identity_residual,
    orbit_identity_residual,
    square_deviation_identity,
    time_average,
    two_phase_deductions,
)
from oscpop.odesolve import _sample_steps  # noqa: E402

TIGHT = SolverConfig(abs_tol=1e-14, rel_tol=1e-12)
NUDGE = 1e-4  # relative offset of the two starts from p*
# relative error control only: a die-off phase takes P far below any abs_tol
RELATIVE = SolverConfig(abs_tol=1e-300, rel_tol=1e-10)


@st.composite
def cycles(draw):
    """(r, schedule) with r * mass in [0.05, 6] and r away from 1, so
    that exp(-mass) and exp(-r * mass) differ well beyond the tolerance.

    Below exp(-6) the two end values differ by less than the
    integration error allows the difference to resolve.
    """
    r = draw(st.floats(0.2, 0.8) | st.floats(1.25, 4.0))
    decay = draw(st.floats(0.05, 6.0))  # r * mass
    period = draw(st.floats(0.5, 5.0))
    mean = decay / (r * period)
    kind = draw(st.sampled_from(["sinusoid", "twophase", "table", "constant"]))
    if kind == "sinusoid":
        return r, SinusoidOffset(mean, mean * draw(st.floats(0.0, 1.5)), period)
    if kind == "twophase":
        swing = draw(st.floats(-1.6, 0.9))  # below -1 the first phase dies off
        return r, TwoPhase(mean * (1.0 + swing), mean * (1.0 - swing), period)
    if kind == "constant":
        return r, Constant(mean, declared_period=period)
    shape = np.array(draw(st.lists(st.floats(0.1, 3.0), min_size=2, max_size=12)))
    times = np.linspace(0.0, period, shape.size)
    area = float(np.sum(0.5 * (shape[1:] + shape[:-1]) * np.diff(times)))
    return r, Tabulated(times, shape * (mean * period / area), declared_period=period)


@settings(max_examples=40, deadline=None)
@given(cycle=cycles())
def test_floquet_multiplier_is_exp_of_minus_r_mass(cycle):
    r, cap = cycle
    h = cap.period
    p_star = find_periodic_solution(r, cap, TIGHT, fixed_point_tol=1e-10).p_star
    ends = [
        integrate_logistic(LogisticParams(r, p_star * (1.0 + s * NUDGE)), cap, h, TIGHT).final
        for s in (1.0, -1.0)
    ]
    slope = (ends[0] - ends[1]) / (2.0 * NUDGE * p_star)
    assert slope == pytest.approx(math.exp(-r * cap.integral(0.0, h)), rel=1e-6)


@settings(max_examples=40, deadline=None)
@given(cycle=cycles())
def test_cycle_identities_hold_to_the_orbit_error(cycle):
    # on a cycle the integral of M P - P^2 = P' / r vanishes, and with it the
    # gap between the two quadratic forms; what is left is the RK45 orbit's
    # own error, as the Gauss rule on each step adds none of its order:
    # below 3.1e-9 of the integral over 7,000 draws, the largest where a
    # mean near 0.005 meets the orbit's absolute tolerance (composite
    # Simpson on the 1,025-sample orbit reached 4.5e-9 over 2,000)
    r, cap = cycle
    sol = find_periodic_solution(r, cap)
    assert orbit_identity_residual(sol.orbit, cap) <= 1e-8
    lhs, rhs = square_deviation_identity(sol, cap)
    assert abs(lhs - rhs) <= 1e-8 * rhs


@st.composite
def healthy_cycles(draw):
    """(r, schedule) whose cycle stays well above 0: sinusoids with an
    amplitude at most 0.95 of the mean, square waves and periodic tables
    with every level at least 0.2; r in [0.05, 20], period in [0.05, 50]."""
    r, period = draw(st.floats(0.05, 20.0)), draw(st.floats(0.05, 50.0))
    level = st.floats(0.2, 5.0)
    kind = draw(st.sampled_from(["sinusoid", "twophase", "table"]))
    if kind == "sinusoid":
        mean = draw(level)
        return r, SinusoidOffset(mean, mean * draw(st.floats(-0.95, 0.95)), period)
    if kind == "twophase":
        return r, TwoPhase(draw(level), draw(level), period)
    values = np.array(draw(st.lists(level, min_size=2, max_size=12)))
    return r, Tabulated(np.linspace(0.0, period, values.size), values, declared_period=period)


@settings(max_examples=40, deadline=None)
@given(cycle=healthy_cycles())
def test_cycle_integrals_match_the_capacity_mean(cycle):
    # mean P = mean M on a cycle, exactly. The Gauss rule on each accepted
    # step meets it to the orbit's own error, below 5e-12 over 300 draws at
    # the default settings, where composite Simpson on the 1,025-sample
    # orbit missed by up to 2.5e-4 (square waves at r near 20)
    r, cap = cycle
    h = cap.period
    sol = find_periodic_solution(r, cap)
    assert time_average(sol) == pytest.approx(cap.integral(0.0, h) / h, rel=1e-8)
    assert mean_identity_residual(sol, cap) <= 1e-8


@st.composite
def half_peak_cycles(draw):
    """(r, schedule) whose cycle stays well above 0: sinusoids with an
    amplitude at most 0.95 of the mean, square waves with levels in
    [0.2, 3] and smooth periodic tables of 20 to 60 knots through two
    tones; r in [0.05, 5], period in [0.1, 50]."""
    r, period = draw(st.floats(0.05, 5.0)), draw(st.floats(0.1, 50.0))
    kind = draw(st.sampled_from(["sinusoid", "twophase", "table"]))
    if kind == "sinusoid":
        mean = draw(st.floats(0.2, 5.0))
        return r, SinusoidOffset(mean, mean * draw(st.floats(-0.95, 0.95)), period)
    if kind == "twophase":
        return r, TwoPhase(draw(st.floats(0.2, 3.0)), draw(st.floats(0.2, 3.0)), period)
    t = np.linspace(0.0, period, draw(st.integers(20, 60)))
    phase = 2.0 * math.pi * t / period
    tone = st.floats(0.0, 2.0 * math.pi)
    v = (draw(st.floats(1.9, 2.1)) + draw(st.floats(0.4, 0.5)) * np.sin(phase + draw(tone))
         + draw(st.floats(0.15, 0.25)) * np.sin(2.0 * phase + draw(tone)))
    v[-1] = v[0]
    return r, Tabulated(t, v, declared_period=period)


def _band_fraction(t, p, lo, hi):
    """Share of [t[0], t[-1]] where the piecewise-linear curve through
    (t, p) lies in the open band (lo, hi): per sample interval, the
    fractions of it where the line meets lo and hi, clipped to [0, 1],
    bound the part inside; a flat interval is inside whole or not at all."""
    p0, dp = p[:-1], np.diff(p)
    moving = dp != 0.0
    at_lo = np.divide(lo - p0, dp, out=np.zeros_like(dp), where=moving)
    at_hi = np.divide(hi - p0, dp, out=np.zeros_like(dp), where=moving)
    through = np.clip(np.maximum(at_lo, at_hi), 0.0, 1.0) - np.clip(np.minimum(at_lo, at_hi), 0.0, 1.0)
    share = np.where(moving, through, (lo < p0) & (p0 < hi))
    return float(np.sum(share * np.diff(t))) / float(t[-1] - t[0])


@settings(max_examples=40, deadline=None)
@given(cycle=half_peak_cycles())
def test_half_peak_fraction_matches_a_fine_sampling_of_the_steps(cycle):
    # the 1,025 printed samples against 2^18 samples of the RK45 steps'
    # continuous extension, the band measured alike on both: within 3.6e-5
    # over 240 draws, where a trapezoid over a 0/1 indicator on a grid of
    # at least 16 samples per piece missed by up to 1.3e-3, past 1e-4 on 118
    r, cap = cycle
    h, peak = cap.period, cap.max_value()
    sol = find_periodic_solution(r, cap)
    t = np.linspace(0.0, h, 2**18 + 1)
    fine = _band_fraction(t, _sample_steps(sol.orbit._coefficients, t), 0.5 * peak - 0.1 * peak, 0.5 * peak + 0.1 * peak)
    assert abs(half_peak_fraction(sol, cap) - fine) <= 1e-4


@st.composite
def periodic_schedules(draw):
    """A constant, a square wave, a sinusoid or a table of 2 to 60 unevenly
    spaced knots, over a period in [1e-3, 1e3]."""
    kind = draw(st.sampled_from(["constant", "twophase", "sinusoid", "table"]))
    period = draw(st.floats(1e-3, 1e3))
    if kind == "constant":
        return Constant(1.0, declared_period=period)
    if kind == "twophase":
        return TwoPhase(1.0, 3.0, period)
    if kind == "sinusoid":
        return SinusoidOffset(2.0, 1.0, period)
    gaps = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=59)))
    knots = period * np.concatenate(([0.0], np.cumsum(gaps) / gaps.sum()))
    knots[-1] = period
    values = np.array(draw(st.lists(st.floats(0.5, 3.0), min_size=knots.size, max_size=knots.size)))
    return Tabulated(knots, values, declared_period=period)


@settings(max_examples=100, deadline=None)
@given(cap=periodic_schedules())
def test_orbit_is_printed_on_one_uniform_grid(cap):
    # 1,025 equally spaced samples whatever the pieces, the switch time h/2
    # of a square wave among them
    h = cap.period
    times = find_periodic_solution(1.0, cap).orbit.times
    assert times.tobytes() == np.linspace(0.0, h, 1025).tobytes()
    if isinstance(cap, TwoPhase):
        assert times[512] == 0.5 * h


def test_many_knot_table_prints_1025_samples():
    # one sinusoid period as 2,000 knots: 1,025 samples, not 16 per knot
    # interval
    t = np.linspace(0.0, 20.0, 2001)
    cap = Tabulated(t, 2.0 + 0.9 * np.sin(2.0 * math.pi * t / 20.0), declared_period=20.0)
    assert len(find_periodic_solution(1.0, cap).orbit) == 1025


@pytest.mark.parametrize(
    "r, schedule",
    [(1.5, lambda h: SinusoidOffset(2.0, 1.0, h)), (0.7, lambda h: TwoPhase(1.0, 3.0, h)),
     (1.5, lambda h: SinusoidOffset(2.0, 1.5, h))],
    ids=["sinusoid", "twophase", "sinusoid-deep"],
)
def test_fast_forcing_error_is_second_order_in_the_period(r, schedule):
    errors = []
    for h in (0.2, 0.1, 0.05, 0.025):
        cap = schedule(h)
        sol = find_periodic_solution(r, cap, TIGHT, fixed_point_tol=1e-10)
        t, p = sol.orbit.times, sol.orbit.populations
        mbar = cap.integral(0.0, h) / h
        drift = np.array([cap.integral(0.0, s) for s in t]) - mbar * t  # I(t)
        mean_drift = float(np.sum(0.5 * (drift[1:] + drift[:-1]) * np.diff(t))) / h
        errors.append(float(np.max(np.abs(p - (mbar + r * mbar * (drift - mean_drift))))))
    # a wrong first-order term leaves an O(h) error, a ratio near 2
    assert [coarse / fine for coarse, fine in zip(errors, errors[1:])] == pytest.approx(
        [4.0, 4.0, 4.0], abs=0.25
    )


@pytest.mark.parametrize("r, mean, amplitude", [(2.0, 2.0, 1.0), (0.5, 3.0, 1.5)])
def test_slow_forcing_error_falls_as_the_period_squared(r, mean, amplitude):
    scaled = []
    for h in (50.0, 100.0, 200.0, 400.0):
        cap = SinusoidOffset(mean, amplitude, h)
        orbit = find_periodic_solution(r, cap).orbit
        m = np.array([cap.at(s) for s in orbit.times])
        dm = np.array([cap.derivative(s) for s in orbit.times])
        scaled.append(float(np.max(np.abs(orbit.populations - (m - dm / (r * m))))) * h * h)
    # a wrong M'/(r M) term leaves an O(1/h) error, so error * h^2 doubles
    assert [fine / coarse for coarse, fine in zip(scaled, scaled[1:])] == pytest.approx(
        [1.0, 1.0, 1.0], abs=0.1
    )


@settings(max_examples=40, deadline=None)
@given(
    m1=st.floats(-0.6, 1.1),
    m2=st.floats(2.0, 4.0),
    period=st.floats(0.05, 40.0),
    r=st.floats(0.3, 3.0),
)
@example(m1=-0.6, m2=4.0, period=40.0, r=3.0)  # the deepest die-off, the steepest regrowth
def test_two_phase_report_matches_the_integrated_cycle(m1, m2, period, r):
    # the report is exact steps in u = 1/P; RK45 on P is the cross-check
    cap = TwoPhase(m1, m2, period)
    rep = two_phase_deductions(LogisticParams(r, 1.0), cap)
    sol = find_periodic_solution(r, cap, RELATIVE)
    t, p = sol.orbit.times, sol.orbit.populations
    half = int(np.searchsorted(t, 0.5 * period))
    assert t[half] == 0.5 * period
    assert rep.p1 == pytest.approx(p[half], rel=1e-8)
    assert rep.p2 == pytest.approx(p[-1], rel=1e-8)
    # the Gauss rule on each step keeps the orbit's accuracy where a phase
    # regrows steeply; composite Simpson on the 1,025 samples missed by 7e-6
    assert rep.mean_population == pytest.approx(time_average(sol), rel=1e-9)

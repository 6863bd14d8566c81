"""Properties of the periodic cycle: its Floquet multiplier and its two
forcing limits.

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
from hypothesis import given, settings, strategies as st  # noqa: E402

from oscpop import (  # noqa: E402
    LogisticParams,
    SinusoidOffset,
    SolverConfig,
    Tabulated,
    TwoPhase,
    find_periodic_solution,
    integrate_logistic,
)

TIGHT = SolverConfig(abs_tol=1e-14, rel_tol=1e-12)
NUDGE = 1e-4  # relative offset of the two starts from p*


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
    kind = draw(st.sampled_from(["sinusoid", "twophase", "table"]))
    if kind == "sinusoid":
        return r, SinusoidOffset(mean, mean * draw(st.floats(0.0, 1.5)), period)
    if kind == "twophase":
        swing = draw(st.floats(-0.9, 0.9))
        return r, TwoPhase(mean * (1.0 + swing), mean * (1.0 - swing), period)
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

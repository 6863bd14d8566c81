"""Property tests of the reciprocal-space solutions in oscpop.closedform."""
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
    logistic_constant,
    quadrature_solution,
)

TIGHT = SolverConfig(abs_tol=1e-13, rel_tol=1e-11)
# r * max|M| * t stays below ~1000 for the quadrature routes: past that,
# TIGHT is not attainable (see test_closedform.py,
# test_tight_tolerance_on_a_long_horizon)
SPAN = 400.0

sinusoids = st.builds(
    SinusoidOffset,
    mean=st.floats(1.8, 2.0),
    amplitude=st.floats(0.0, 0.2),
    period=st.floats(0.5, 6.0),
)
square_waves = st.builds(
    TwoPhase, m1=st.floats(-1.0, 3.0), m2=st.floats(5.0, 6.0), period=st.floats(0.1, 50.0)
)


@st.composite
def tables(draw):
    rows = draw(st.integers(20, 120))
    times = np.linspace(0.0, SPAN, rows)
    values = draw(st.lists(st.floats(1.8, 2.2), min_size=rows, max_size=rows))
    return Tabulated(times, np.array(values))


@settings(max_examples=30, deadline=None)
@given(
    cap=st.one_of(sinusoids, square_waves, tables()),
    r=st.floats(1.0, 1.1),
    p0=st.floats(0.05, 5.0),
    t2=st.floats(390.0, SPAN),
    frac=st.floats(0.0, 1.0),
)
def test_restart_from_an_intermediate_time_reproduces_the_solution(cap, r, p0, t2, frac):
    # integral additivity in reciprocal space: the step from t0 to t2
    # equals the step to t1 followed by the step from t1 to t2. r * mean M
    # is at least 1.8 here, so r * integral of M passes 700 by t2
    t1 = frac * t2
    params = LogisticParams(r, p0)
    whole = quadrature_solution(params, cap, t2, TIGHT)
    restart = LogisticParams(r, quadrature_solution(params, cap, t1, TIGHT), t1)
    assert quadrature_solution(restart, cap, t2, TIGHT) == pytest.approx(whole, rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    m=st.floats(0.1, 2.0),
    r=st.floats(0.2, 1.2),
    p0=st.floats(0.05, 5.0),
    period=st.floats(0.5, 10.0),
    t=st.floats(0.0, SPAN),
)
def test_flat_sinusoid_reduces_to_the_constant_formula(m, r, p0, period, t):
    # a zero-amplitude sinusoid takes the quadrature route, not the
    # closed-form step, so this checks one against the other
    params = LogisticParams(r, p0)
    quad = quadrature_solution(params, SinusoidOffset(m, 0.0, period), t, TIGHT)
    exact = logistic_constant(params, m, t)
    assert quad == pytest.approx(exact, rel=1e-9)
    assert math.isfinite(quad)

"""Property tests of the whole-array passes behind the cycle solve.

The reciprocal-space quadrature rates many Kronrod panels in one call of
its integrand, which takes the integral of M from an array of lower
bounds, and the cycle integrals weigh every Gauss node of every RK45 step
in one pass. Each must give the floats, and the errors, of the
one-at-a-time computation it replaces: the schedule's integral one bound
at a time (a table's from the shared reference), and a loop over the
steps, one node at a time; the integrals only to their summation order.
"""
import math
import sys
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from oscpop import (  # noqa: E402
    Constant,
    LogisticParams,
    ScheduleRangeError,
    SinusoidOffset,
    Tabulated,
    TwoPhase,
    adaptive_quadrature,
    integrate_logistic,
)
from oscpop.periodic import _GAUSS_THETA, _GAUSS_WEIGHTS, _orbit_integrals  # noqa: E402
from reference import ReferenceTable, contd5  # noqa: E402

EPS = sys.float_info.epsilon


def _sinusoid_integral(cap, t0, t1):
    """A sinusoid's integral one bound at a time: mean times the span plus
    amplitude * period / 2 pi times the swing of the reduced-phase cosine."""
    if t1 < t0:
        raise ValueError(f"integral bounds out of order: {t0} > {t1}")
    scale = cap.period / (2.0 * math.pi)
    swing = math.cos(cap._angle(t0)) - math.cos(cap._angle(t1))
    return cap.mean * (t1 - t0) + cap.amplitude * scale * swing


def _scalar_calls(cap, starts, t1):
    """Each bound's reference integral in order, up to the first that raises."""
    if isinstance(cap, Tabulated):
        reference = ReferenceTable(cap.times, cap.values).integral
    else:
        reference = lambda t0, t1: _sinusoid_integral(cap, t0, t1)  # noqa: E731
    out = []
    for t in starts:
        try:
            out.append(reference(t, t1))
        except Exception as exc:  # the array call must raise this one
            return out, exc
    return out, None


@st.composite
def tables(draw):
    gaps = draw(st.lists(st.floats(0.01, 2.0), min_size=1, max_size=30))
    t0 = draw(st.floats(-50.0, 50.0))
    times = t0 + np.concatenate(([0.0], np.cumsum(gaps)))
    values = draw(st.lists(st.floats(-5.0, 5.0), min_size=times.size, max_size=times.size))
    return Tabulated(times, np.array(values))


@st.composite
def table_bounds(draw):
    """A table, an upper bound t1 and lower bounds around its knots.

    The bounds are knots, the range ends, points inside segments, their
    float neighbours and, now and then, points outside the range or above
    t1, so the array pass meets every rule of the one-bound reference.
    """
    cap = draw(tables())
    knots = cap.times.tolist()
    mids = (0.5 * (cap.times[1:] + cap.times[:-1])).tolist()
    strays = draw(st.booleans())

    def bound():
        t = draw(st.sampled_from(knots + mids) | st.floats(knots[0], knots[-1]))
        if strays:
            t = draw(st.sampled_from([t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)]))
            if draw(st.integers(0, 9)) == 0:
                t = draw(st.floats(knots[0] - 5.0, knots[0]) | st.floats(knots[-1], knots[-1] + 5.0))
        return t

    t1 = bound()
    starts = [bound() for _ in range(draw(st.integers(1, 40)))]
    if not strays:
        # the range ends too: the last knot is the one a segment's right
        # end gives, where the knot rule and the segment's line can differ
        starts = [min(t, t1) for t in starts + [knots[0], knots[-1]]]
    return cap, np.array(starts), t1


@st.composite
def sinusoid_bounds(draw):
    cap = SinusoidOffset(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)), draw(st.floats(0.05, 30.0)))
    t1 = draw(st.floats(-500.0, 500.0))
    below = st.floats(t1 - 300.0, t1)
    starts = draw(st.lists(below | st.floats(t1, t1 + 10.0) if draw(st.booleans()) else below,
                           min_size=1, max_size=40))
    # switch times and their neighbours, where the phase reduction wraps
    period = cap.period
    wrap = [period * math.floor(t / period) for t in starts]
    starts += [t for t in wrap if t <= t1] + [math.nextafter(t, -math.inf) for t in wrap if t <= t1]
    return cap, np.array(starts), t1


@settings(max_examples=200, deadline=None)
@given(case=table_bounds() | sinusoid_bounds())
# a segment one subnormal wide, whose slope overflows: the reference
# never forms it at a knot, and the array pass must not warn about it
@example(case=(Tabulated(np.array([0.0, 5e-324, 1.0]), np.array([1.0, 2.0, 1.0])), np.array([0.0, 5e-324, 1.0]), 1.0))
def test_array_integral_is_each_scalar_integral(case):
    cap, starts, t1 = case
    want, error = _scalar_calls(cap, starts.tolist(), t1)
    calls = [lambda: cap._integrals_to(starts, t1), lambda: [cap.integral(t, t1) for t in starts.tolist()]]
    for call in calls:
        if error is not None:
            with pytest.raises(type(error)) as raised:
                call()
            assert str(raised.value) == str(error)
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = call()
            assert all(type(x) is float for x in got)
            assert [x.hex() for x in got] == [x.hex() for x in want]


@settings(max_examples=100, deadline=None)
@given(cap=tables(), data=st.data())
def test_array_integral_out_of_range_names_the_scalar_bound(cap, data):
    lo, hi = cap.times[0], cap.times[-1]
    t1 = data.draw(st.floats(lo, hi) | st.floats(hi + 1e-9, hi + 5.0))
    bad = data.draw(st.floats(lo - 5.0, lo - 1e-9))
    starts = np.array([data.draw(st.floats(lo, min(t1, hi))) for _ in range(3)] + [bad])
    with pytest.raises(ScheduleRangeError) as raised:
        cap._integrals_to(starts, t1)
    _, error = _scalar_calls(cap, starts.tolist(), t1)
    assert str(raised.value) == str(error)


@st.composite
def logistic_runs(draw):
    """(trajectory, schedule): integrate_logistic over a span that holds
    several pieces of a constant, square-wave, sinusoid or table schedule."""
    kind = draw(st.sampled_from(["constant", "twophase", "sinusoid", "table"]))
    lo, span = draw(st.floats(-5.0, 5.0)), draw(st.floats(1.0, 10.0))
    if kind == "constant":
        cap = Constant(draw(st.floats(0.1, 3.0)))
    elif kind == "twophase":
        cap = TwoPhase(draw(st.floats(-1.0, 3.0)), draw(st.floats(0.1, 3.0)), draw(st.floats(span / 6.0, span)))
    elif kind == "sinusoid":
        cap = SinusoidOffset(draw(st.floats(0.5, 3.0)), draw(st.floats(-1.0, 1.0)), draw(st.floats(0.5, 5.0)))
    else:
        inner = draw(st.lists(st.floats(0.1, span - 0.1), max_size=6, unique=True))
        knots = np.unique(lo + np.array([0.0, *inner, span]))
        cap = Tabulated(knots, np.array(draw(st.lists(st.floats(0.1, 3.0), min_size=knots.size, max_size=knots.size))))
    params = LogisticParams(draw(st.floats(0.3, 3.0)), draw(st.floats(0.2, 3.0)), lo)
    return integrate_logistic(params, cap, lo + span), cap


def _loop_integrals(traj, cap, integrands):
    """Per integrand, its terms one step and one Gauss node at a time in
    Python floats: P from the step's continuous extension, M from the value
    of the piece the step ends in, each term weight * width * integrand."""
    steps = traj.steps.tolist()
    pieces = list(cap.pieces(steps[0][0], steps[-1][1])) if cap is not None else None
    terms, k = None, 0
    for step in steps:
        t0, t1 = step[:2]
        dt = t1 - t0
        while pieces is not None and pieces[k][1] < t1:
            k += 1
        for theta, w in zip(_GAUSS_THETA.ravel().tolist(), _GAUSS_WEIGHTS.ravel().tolist()):
            p = contd5(step, theta)
            ys = integrands(p) if cap is None else integrands(float(pieces[k][2](t0 + theta * dt)), p)
            terms = terms or [[] for _ in ys]
            for acc, y in zip(terms, ys):
                acc.append(y * (w * dt))
    return terms


@settings(max_examples=200, deadline=None)
@given(run=logistic_runs(), which=st.sampled_from(["identity", "deviation", "mean"]))
def test_orbit_integrals_are_the_per_step_loop(run, which):
    traj, cap = run

    def identity(mm, pp):
        return mm * pp - pp * pp, pp * pp

    def deviation(mm, pp):
        dev = pp - 0.5 * mm
        return dev * dev, 0.25 * mm * mm

    integrands, cap = {"identity": (identity, cap), "deviation": (deviation, cap), "mean": (lambda pp: (pp,), None)}[which]
    s, got = _orbit_integrals(traj, cap, integrands)
    assert s == 1.0
    # the terms agree to rounding (np.sin and math.sin may differ in the
    # last bit); numpy's pairwise sum is off the exact sum by at most a few
    # ulps of the terms' magnitudes per doubling of their count
    for total, acc in zip(got, _loop_integrals(traj, cap, integrands)):
        assert abs(total - math.fsum(acc)) <= 64 * EPS * math.fsum(abs(y) for y in acc)


@settings(max_examples=100, deadline=None)
@given(
    a=st.floats(-10.0, 10.0) | st.integers(-10, 10) | st.floats(-10.0, 10.0).map(np.float64),
    width=st.floats(0.1, 10.0),
    points=st.lists(st.floats(-12.0, 12.0) | st.integers(-12, 12), max_size=5),
)
def test_adaptive_quadrature_calls_f_with_floats(a, width, points):
    seen = []

    def f(x):
        seen.append(type(x))
        return math.exp(-x * x) + math.sin(3.0 * x)

    adaptive_quadrature(f, a, a + width, points)
    assert seen and set(seen) == {float}

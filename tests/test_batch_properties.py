"""Property tests of the whole-array passes behind the cycle solve.

The reciprocal-space quadrature rates many Kronrod panels in one call of
its integrand, which takes the integral of M from an array of lower
bounds, and the cycle integrals weigh every Gauss node of every RK45 step
in one pass. Each must give the floats, and the errors, of the
one-at-a-time computation it replaces: the schedule's integral one bound
at a time (a table's from the shared reference), and a loop over the
steps, one node at a time; the integrals only to their summation order.
"""
import bisect
import math
import sys
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from oscpop import (  # noqa: E402
    CapacitySchedule,
    Constant,
    LogisticParams,
    ScheduleRangeError,
    SinusoidOffset,
    Tabulated,
    TwoPhase,
    adaptive_quadrature,
    integrate_logistic,
)
from oscpop.odesolve import _GAUSS_THETA, _GAUSS_WEIGHTS  # noqa: E402
from oscpop.periodic import _node_capacity, _scaled  # noqa: E402
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
# a NaN start first, which Python's max keeps, then a start past t1
@example(case=(SinusoidOffset(1.0, 0.5, 2.0), np.array([math.nan, 0.5, 3.0, 4.0]), 1.0))
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
    # the node record's weights and P, with M from each step's piece
    _, weights, p = traj._gauss
    s, arrays = _scaled(p) if cap is None else _scaled(_node_capacity(traj, cap), p)
    assert s == 1.0
    got = [float(np.add.reduce((y * weights).ravel())) for y in integrands(*arrays)]
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


def _walk_values_per_piece(cap, t0, t1, keys, times):
    """M at times one key at a time on the walk of pieces(t0, t1): each
    key's times from the value of the first piece whose hi is at or past
    the key, the last piece's for keys past the last end."""
    pieces = [(hi, value) for _, hi, value, _ in cap.pieces(t0, t1)]
    his = [hi for hi, _ in pieces]
    m = np.empty(times.shape)
    for i, key in enumerate(keys.tolist()):
        m[..., i] = pieces[min(bisect.bisect_left(his, key), len(pieces) - 1)][1](times[..., i])
    return m


@st.composite
def table_walks(draw):
    """(table, t0, t1, keys, times): a walk between two points of a table's
    range, ascending keys, step ends among them, and times on one or four
    rows, with knots, their float neighbours and the walk's ends drawn often,
    so that keys and times land on a piece end and pieces one float wide
    occur."""
    cap = draw(tables())
    knots = cap.times.tolist()
    lo, hi = knots[0], knots[-1]

    def point():
        t = draw(st.sampled_from(knots) | st.floats(lo, hi))
        t = draw(st.sampled_from([t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)]))
        return min(max(t, lo), hi)

    t0, t1 = sorted((point(), point()))
    inner = [t for t in knots if t0 < t < t1]
    keys = sorted({min(max(point(), t0), t1) for _ in range(draw(st.integers(0, 12)))} | {t1} | set(inner[: draw(st.integers(0, len(inner)))]))
    rows = draw(st.sampled_from([(), (4,)]))
    times = np.array([[point() for _ in keys] for _ in range(rows[0] if rows else 1)]).reshape(*rows, len(keys))
    return cap, t0, t1, np.array(keys), times


# the first piece one float wide, its midpoint rounding onto its hi, so it
# takes the next segment's line
STEEP = Tabulated(np.array([0.0, 1.0, 2.0]), np.array([0.0, 5.0, 1.0]))
BELOW_KNOT = math.nextafter(1.0, 0.0)


@settings(max_examples=300, deadline=None)
@given(walk=table_walks())
@example(walk=(STEEP, BELOW_KNOT, 2.0, np.array([1.0, 1.5, 2.0]), np.array([[BELOW_KNOT, 1.0, 2.0], [0.5, 1.5, 0.25]] * 2)))
@example(walk=(STEEP, BELOW_KNOT, 2.0, np.array([BELOW_KNOT, 2.0]), np.array([0.5, 1.5])))
# a one-piece walk, inside one segment and from a knot to a point of the next
@example(walk=(STEEP, 0.25, 0.75, np.array([0.5, 0.75]), np.array([0.3, 0.6])))
@example(walk=(STEEP, 1.0, 1.5, np.array([1.0, 1.5]), np.array([[1.0, 1.5]] * 4)))
def test_table_gather_is_the_per_piece_walk(walk):
    cap, t0, t1, keys, times = walk
    got = cap._walk_values(t0, t1, keys, times)
    assert got.shape == times.shape
    assert got.tobytes() == _walk_values_per_piece(cap, t0, t1, keys, times).tobytes()
    # and the base class's per-piece pass, which every other schedule runs
    assert got.tobytes() == CapacitySchedule._walk_values(cap, t0, t1, keys, times).tobytes()

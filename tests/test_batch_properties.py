"""Property tests of the whole-array passes behind the cycle solve.

The reciprocal-space quadrature rates many Kronrod panels in one call of
its integrand, which takes the integral of M from an array of lower
bounds, and the cycle diagnostics weight every Simpson pair of an orbit
in one pass. Each must give the floats, and the errors, of the one-at-a-
time computation it replaces: the schedule's integral in Python floats,
one bound at a time, and _simpson on each smooth segment of the orbit.
"""
import bisect
import math
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from oscpop import (  # noqa: E402
    Constant,
    ScheduleRangeError,
    SinusoidOffset,
    Tabulated,
    TwoPhase,
    adaptive_quadrature,
)
from oscpop.odesolve import Trajectory, SolverStats  # noqa: E402
from oscpop.periodic import _orbit_grid, _segment_simpson, _simpson  # noqa: E402


def _table_integral(cap, t0, t1):
    """A table's integral one bound at a time in Python floats: bisect finds
    the segment, a knot gives its own sample, any other t the segment's line."""
    knots, vals, cum = cap.times.tolist(), cap.values.tolist(), cap._cum.tolist()

    def area(t):
        if not knots[0] <= t <= knots[-1]:
            raise ScheduleRangeError(f"t={t} outside sampled range [{knots[0]}, {knots[-1]}]")
        k = min(bisect.bisect_right(knots, t) - 1, len(knots) - 2)
        if t == knots[k]:
            m = vals[k]
        elif t == knots[k + 1]:
            m = vals[k + 1]
        else:
            m = (vals[k + 1] - vals[k]) / (knots[k + 1] - knots[k]) * (t - knots[k]) + vals[k]
        return cum[k] + (t - knots[k]) * 0.5 * (vals[k] + m)

    if t1 < t0:
        raise ValueError(f"integral bounds out of order: {t0} > {t1}")
    start = area(t0)
    return area(t1) - start


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
    reference = _table_integral if isinstance(cap, Tabulated) else _sinusoid_integral
    out = []
    for t in starts:
        try:
            out.append(reference(cap, t, t1))
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
def periodic_schedules(draw):
    kind = draw(st.sampled_from(["constant", "twophase", "sinusoid", "table"]))
    period = draw(st.floats(1e-3, 1e3))
    if kind == "constant":
        return Constant(1.0, period)
    if kind == "twophase":
        return TwoPhase(1.0, 3.0, period)
    if kind == "sinusoid":
        return SinusoidOffset(2.0, 1.0, period)
    inner = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=60, unique=True))
    knots = np.unique(np.concatenate(([0.0], period * np.array(sorted(inner)), [period])))
    assume(np.all(np.diff(knots) > 0.0))
    return Tabulated(knots, np.ones(knots.size), period)


@settings(max_examples=200, deadline=None)
@given(cap=periodic_schedules())
def test_orbit_grid_is_linspace_on_each_piece(cap):
    h = cap.period
    chunks = [np.array([0.0])]
    for lo, hi, _, _ in cap.pieces(0.0, h):
        n = 2 * max(8, round(1024 * (hi - lo) / (2.0 * h)))
        chunks.append(np.linspace(lo, hi, n + 1)[1:])
    want, got = np.concatenate(chunks), _orbit_grid(cap, h)
    if np.all(np.diff(want) > 0.0):
        assert got.tobytes() == want.tobytes()
    else:
        # a piece narrower than its panel count in subnormal steps, where
        # linspace scales before it steps: neither grid is increasing, so
        # the orbit's t_eval check refuses both alike
        assert not np.all(np.diff(got) > 0.0)


@st.composite
def orbits(draw):
    """(orbit, schedule): samples over a span that holds several pieces.

    The samples may or may not land on the breakpoints, so segments share
    a sample at a capacity jump or end either side of one, and segments
    come with odd and even sample counts.
    """
    kind = draw(st.sampled_from(["constant", "twophase", "sinusoid", "table"]))
    lo = draw(st.floats(-5.0, 5.0))
    span = draw(st.floats(1.0, 10.0))
    if kind == "constant":
        cap = Constant(draw(st.floats(0.1, 3.0)))
    elif kind == "twophase":
        cap = TwoPhase(draw(st.floats(-1.0, 3.0)), draw(st.floats(0.1, 3.0)), draw(st.floats(span / 6.0, span)))
    elif kind == "sinusoid":
        cap = SinusoidOffset(draw(st.floats(0.5, 3.0)), draw(st.floats(-1.0, 1.0)), draw(st.floats(0.5, 5.0)))
    else:
        knots = lo + np.concatenate(([0.0], np.sort(draw(st.lists(st.floats(0.1, span - 0.1), max_size=6, unique=True))), [span]))
        knots = np.unique(knots)
        values = draw(st.lists(st.floats(0.1, 3.0), min_size=knots.size, max_size=knots.size))
        cap = Tabulated(knots, np.array(values))
    hi = lo + span
    cuts = cap.breakpoints_between(lo, hi)
    n = draw(st.integers(3, 120))
    times = set(np.linspace(lo, hi, n).tolist())
    times.update(draw(st.lists(st.floats(lo, hi), max_size=20)))
    if draw(st.booleans()):
        times.update(cuts)
    # samples closer than 1e-6 would make _simpson's own interval products
    # underflow; the reference needs it to run cleanly
    kept = []
    for t in sorted(times):
        if lo <= t <= hi and (not kept or t - kept[-1] > 1e-6):
            kept.append(t)
    times = np.array(kept)
    pops = np.array(draw(st.lists(st.floats(0.01, 5.0), min_size=times.size, max_size=times.size)))
    return Trajectory(times, pops, SolverStats("drawn")), cap


def _reference(orbit, cap, integrands):
    # _simpson on each smooth segment's samples, with that piece's own M
    t, p = orbit.times, orbit.populations
    totals = [0.0, 0.0]
    for lo, hi, m, _ in cap.pieces(float(t[0]), float(t[-1])):
        on_piece = (lo <= t) & (t <= hi)
        if on_piece.sum() < 3:
            return None
        tt, pp = t[on_piece], p[on_piece]
        ys = integrands(np.broadcast_to(m(tt), tt.shape), pp)
        parts = [_simpson(y, tt) for y in ys]
        totals = [a + b for a, b in zip(totals, parts)]
    return totals


def _identity(mm, pp):
    return mm * pp - pp * pp, pp * pp


def _deviation(mm, pp):
    dev = pp - 0.5 * mm
    return dev * dev, 0.25 * mm * mm


@settings(max_examples=200, deadline=None)
@given(case=orbits(), integrands=st.sampled_from([_identity, _deviation]))
def test_segment_simpson_is_simpson_on_each_segment(case, integrands):
    orbit, cap = case
    want = _reference(orbit, cap, integrands)
    if want is None:
        with pytest.raises(ValueError, match="too coarse"):
            _segment_simpson(orbit, cap, integrands)
    else:
        s, got = _segment_simpson(orbit, cap, integrands)
        assert s == 1.0
        assert [x.hex() for x in got] == [x.hex() for x in want]


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

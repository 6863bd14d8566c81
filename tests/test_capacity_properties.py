"""Property tests of the smooth pieces handed out by CapacitySchedule.pieces."""
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from oscpop import Constant, SinusoidOffset, Tabulated, TwoPhase  # noqa: E402

INWARD = 1e-3  # one-sided limits are compared with M this far into a piece


def resolvable(lo, hi):
    # a square wave's phase is rounded relative to |t|, so M at points
    # within that rounding of a switch time may resolve to either side
    return hi - lo > 1e-9 * max(1.0, abs(lo), abs(hi))


@st.composite
def intervals(draw):
    """(schedule, t0, t1, bound on |dM/dt|, bound on |d2M/dt2|).

    Square-wave ends may sit on switch times and table ends on sample
    times, so pieces that start or end on a breakpoint are covered.
    """
    kind = draw(st.sampled_from(["constant", "twophase", "sinusoid", "table"]))
    t0 = draw(st.floats(-20.0, 20.0))
    t1 = t0 + draw(st.floats(0.0, 20.0))
    if kind == "constant":
        return Constant(draw(st.floats(-3.0, 3.0))), t0, t1, 0.0, 0.0
    if kind == "twophase":
        cap = TwoPhase(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)), draw(st.floats(0.1, 5.0)))
        half = 0.5 * cap.period
        if draw(st.booleans()):
            t0 = half * math.floor(t0 / half)
        if draw(st.booleans()):
            t1 = max(t0, half * math.ceil(t1 / half))
        return cap, t0, t1, 0.0, 0.0
    if kind == "sinusoid":
        cap = SinusoidOffset(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)), draw(st.floats(0.5, 5.0)))
        omega = 2.0 * math.pi / cap.period
        return cap, t0, t1, abs(cap.amplitude) * omega, abs(cap.amplitude) * omega**2
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=40))
    times = t0 + np.concatenate(([0.0], np.cumsum(gaps)))
    values = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=times.size, max_size=times.size)))
    cap = Tabulated(times, values)
    knots = times.tolist()
    lo = draw(st.sampled_from(knots) | st.floats(knots[0], knots[-1]))
    hi = draw(st.sampled_from(knots) | st.floats(knots[0], knots[-1]))
    lo, hi = min(lo, hi), max(lo, hi)
    return cap, lo, hi, float(np.max(np.abs(np.diff(values) / np.diff(times)))), 0.0


@settings(max_examples=300, deadline=None)
@given(iv=intervals())
def test_pieces_tile_the_interval_at_the_breakpoints(iv):
    cap, t0, t1, _, _ = iv
    pieces = list(cap.pieces(t0, t1))
    assert pieces[0][0] == t0
    assert pieces[-1][1] == t1
    inner = cap.breakpoints_between(t0, t1)
    assert [lo for lo, _, _, _ in pieces[1:]] == inner
    assert [hi for _, hi, _, _ in pieces[:-1]] == inner


@settings(max_examples=300, deadline=None)
@given(iv=intervals(), frac=st.floats(0.01, 0.99))
def test_piece_matches_the_schedule_inside(iv, frac):
    cap, t0, t1, _, _ = iv
    for lo, hi, value, slope in cap.pieces(t0, t1):
        x = lo + frac * (hi - lo)
        if resolvable(lo, hi) and lo < x < hi:
            assert value(x) == cap.at(x)
            assert slope(x) == cap.derivative(x)


@settings(max_examples=300, deadline=None)
@given(iv=intervals())
def test_piece_ends_give_one_sided_limits(iv):
    cap, t0, t1, dm_bound, d2m_bound = iv
    for lo, hi, value, slope in cap.pieces(t0, t1):
        if not resolvable(lo, hi):
            continue
        step = INWARD * (hi - lo)
        for end, inside in ((lo, lo + step), (hi, hi - step)):
            if not lo < inside < hi:
                continue
            reach = abs(inside - end)
            assert value(end) == pytest.approx(cap.at(inside), rel=1e-12, abs=dm_bound * reach + 1e-12)
            assert slope(end) == pytest.approx(cap.derivative(inside), rel=1e-12, abs=d2m_bound * reach + 1e-12)


@st.composite
def windows(draw):
    """(table, t0, t1) with ends inside or outside the table, on sample
    times or between them, in either order."""
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=40))
    times = draw(st.floats(-20.0, 20.0)) + np.concatenate(([0.0], np.cumsum(gaps)))
    cap = Tabulated(times, np.ones(times.size))
    ends = st.sampled_from(times.tolist()) | st.floats(float(times[0]) - 5.0, float(times[-1]) + 5.0)
    return cap, draw(ends), draw(ends)


@settings(max_examples=300, deadline=None)
@given(w=windows())
def test_table_breakpoints_are_the_sample_times_inside(w):
    cap, t0, t1 = w
    assert cap.breakpoints_between(t0, t1) == [float(b) for b in cap.times if t0 < b < t1]

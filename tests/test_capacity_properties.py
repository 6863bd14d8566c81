"""Property tests of the smooth pieces handed out by CapacitySchedule.pieces."""
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from oscpop import (  # noqa: E402
    Constant,
    NonDifferentiableError,
    ScheduleRangeError,
    SinusoidOffset,
    Tabulated,
    TwoPhase,
)
from reference import ReferenceTable, near, outcome  # noqa: E402

INWARD = 1e-3  # one-sided limits are compared with M this far into a piece


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
    return _table_interval(draw, t0, st.floats(-3.0, 3.0))


def _table_interval(draw, t0, sample):
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=40))
    times = t0 + np.concatenate(([0.0], np.cumsum(gaps)))
    values = np.array(draw(st.lists(sample, min_size=times.size, max_size=times.size)))
    cap = Tabulated(times, values)
    knots = times.tolist()
    lo = draw(st.sampled_from(knots) | st.floats(knots[0], knots[-1]))
    hi = draw(st.sampled_from(knots) | st.floats(knots[0], knots[-1]))
    lo, hi = min(lo, hi), max(lo, hi)
    with np.errstate(over="ignore"):  # a steep table's bound is inf, as on Python floats
        return cap, lo, hi, float(np.max(np.abs(np.diff(values) / np.diff(times)))), 0.0


@st.composite
def steep_tables(draw):
    """intervals' tables with samples up to +-1.5e308 among small ones, so
    that slopes pass the float range and lines are scaled by powers of two."""
    sample = st.floats(-3.0, 3.0)
    return _table_interval(draw, draw(st.floats(-20.0, 20.0)), sample.map(lambda x: x * 5e307) | sample)


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
@given(iv=intervals() | steep_tables(), frac=st.floats(0.01, 0.99))
def test_piece_matches_the_schedule_inside(iv, frac):
    cap, t0, t1, _, _ = iv
    for lo, hi, value, slope in cap.pieces(t0, t1):
        x = lo + frac * (hi - lo)
        if lo < x < hi:
            assert value(x) == cap.at(x)
            assert slope(x) == cap.derivative(x)


@settings(max_examples=300, deadline=None)
@given(iv=intervals())
def test_piece_ends_give_one_sided_limits(iv):
    cap, t0, t1, dm_bound, d2m_bound = iv
    for lo, hi, value, slope in cap.pieces(t0, t1):
        step = INWARD * (hi - lo)
        for end, inside in ((lo, lo + step), (hi, hi - step)):
            if not lo < inside < hi:
                continue
            reach = abs(inside - end)
            assert value(end) == pytest.approx(cap.at(inside), rel=1e-12, abs=dm_bound * reach + 1e-12)
            assert slope(end) == pytest.approx(cap.derivative(inside), rel=1e-12, abs=d2m_bound * reach + 1e-12)


@settings(max_examples=300, deadline=None)
@given(
    iv=intervals().filter(lambda iv: isinstance(iv[0], (SinusoidOffset, Tabulated))) | steep_tables(),
    fracs=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    shift=st.booleans(),
)
def test_stage_evaluator_gives_the_piece_value_and_slope(iv, fracs, shift):
    # one call per RK45 step returns, bit for bit, the piece's value at each
    # of the step's five stage times and, with shift, its slope after them
    cap, t0, t1, _, _ = iv
    walk, stages = cap._staged_pieces(t0, t1, shift)
    for lo, hi, value, slope in walk:
        ts = [lo + f * (hi - lo) for f in fracs] + [hi]
        expected = [value(t) for t in ts] + ([slope(t) for t in ts] if shift else [])
        assert [x.hex() for x in stages(*ts)] == [x.hex() for x in expected]


@st.composite
def near_breakpoints(draw):
    """(schedule, t0, t1, every breakpoint in (t0, t1)) with t0 on a
    breakpoint or one ulp to either side of it.

    A square wave's breakpoints are listed from the switch grid k * (period
    / 2) and a table's are its sample times; a constant or a sinusoid has
    none, so t0 is drawn near an arbitrary time for them.
    """
    kind = draw(st.sampled_from(["constant", "twophase", "sinusoid", "table"]))
    side = draw(st.sampled_from([-math.inf, None, math.inf]))

    def nudge(b):
        return b if side is None else math.nextafter(b, side)

    if kind == "twophase":
        period = draw(st.sampled_from([0.1, 0.3, 1.0 / 3.0, 0.7, 1e-3, 2.0]) | st.floats(1e-3, 5.0))
        cap = TwoPhase(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)), period)
        half = 0.5 * period
        k = draw(st.integers(-40, 40) if period > 0.5 else st.integers(-20_000, 20_000))
        t0 = nudge(k * half)
        t1 = t0 + half * draw(st.floats(0.0, 60.0))
        grid = (j * half for j in range(math.floor(t0 / half) - 2, math.ceil(t1 / half) + 3))
        return cap, t0, t1, [b for b in grid if t0 < b < t1]
    if kind == "table":
        gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=40))
        times = draw(st.floats(-20.0, 20.0)) + np.concatenate(([0.0], np.cumsum(gaps)))
        values = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=times.size, max_size=times.size)))
        knots = times.tolist()
        t0 = nudge(knots[draw(st.integers(1, len(knots) - 2))])
        t1 = draw(st.sampled_from([k for k in knots if k >= t0]) | st.floats(t0, knots[-1]))
        return Tabulated(times, values), t0, t1, [b for b in knots if t0 < b < t1]
    t0 = nudge(draw(st.floats(-40.0, 40.0)))
    t1 = t0 + draw(st.floats(0.0, 20.0))
    if kind == "constant":
        return Constant(draw(st.floats(-3.0, 3.0))), t0, t1, []
    return SinusoidOffset(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)), draw(st.floats(0.5, 5.0))), t0, t1, []


@settings(max_examples=300, deadline=None)
@given(drawn=near_breakpoints())
def test_each_breakpoint_starts_its_piece(drawn):
    # at, derivative, breakpoints_between and pieces agree on every
    # breakpoint: none is skipped, M there is the level of the piece that
    # starts there, and M is not differentiable there
    cap, t0, t1, every = drawn
    assert cap.breakpoints_between(t0, t1) == every
    for lo, _, value, _ in list(cap.pieces(t0, t1))[1:]:
        assert cap.at(lo) == value(lo)
        with pytest.raises(NonDifferentiableError):
            cap.derivative(lo)


@st.composite
def windows(draw):
    """(table, t0, t1) with ends inside or outside the table, on sample
    times, one ulp to either side of one or between them, infinite or
    NaN, in either order."""
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=40))
    times = draw(st.floats(-20.0, 20.0)) + np.concatenate(([0.0], np.cumsum(gaps)))
    cap = Tabulated(times, np.ones(times.size))
    knots = st.sampled_from(times.tolist())
    ends = (
        knots
        | knots.map(lambda t: math.nextafter(t, -math.inf))
        | knots.map(lambda t: math.nextafter(t, math.inf))
        | st.floats(float(times[0]) - 5.0, float(times[-1]) + 5.0)
        | st.sampled_from([-math.inf, math.inf, math.nan])
    )
    return cap, draw(ends), draw(ends)


@settings(max_examples=300, deadline=None)
@given(w=windows())
def test_table_breakpoints_are_the_sample_times_inside(w):
    cap, t0, t1 = w
    inside = [k for k in cap.times.tolist() if t0 < k < t1]
    first = cap.breakpoints_between(t0, t1)
    assert first == inside
    first.append(math.inf)  # a fresh list each call: closedform's _propagate extends it
    assert cap.breakpoints_between(t0, t1) == inside


@st.composite
def tables(draw):
    """A table whose samples include +0.0 and -0.0, and its probe times:
    every sample time (the last included), every midpoint, the float
    neighbours of both, NaN, times well outside, and +0.0 and -0.0."""
    gaps = draw(st.lists(st.floats(1e-3, 3.0), min_size=1, max_size=12))
    start = draw(st.sampled_from([0.0, -1.5]) | st.floats(-20.0, 20.0))
    times = start + np.concatenate(([0.0], np.cumsum(gaps)))
    sample = st.sampled_from([0.0, -0.0]) | st.floats(-3.0, 3.0)
    values = np.array(draw(st.lists(sample, min_size=times.size, max_size=times.size)))
    base = np.concatenate((times, 0.5 * (times[1:] + times[:-1])))
    probes = [*near(base).tolist(), math.nan, float(times[0]) - 1.0, float(times[-1]) + 1.0, 0.0, -0.0]
    return times, values, probes


@settings(max_examples=150, deadline=None)
@given(drawn=tables())
def test_table_queries_match_the_reference_bit_for_bit(drawn):
    times, values, probes = drawn
    cap, ref = Tabulated(times, values), ReferenceTable(times, values)
    first = float(times[0])
    for t in probes:
        assert outcome(cap.at, t) == outcome(ref.at, t)
        assert outcome(cap.derivative, t) == outcome(ref.derivative, t)
        assert outcome(cap.integral, first, t) == outcome(ref.integral, first, t)
        assert outcome(cap.integral, t, first) == outcome(ref.integral, t, first)
    ordered = sorted(t for t in probes if not math.isnan(t))
    for a, b in zip(ordered[:-1], ordered[1:]):
        assert outcome(cap.integral, a, b) == outcome(ref.integral, a, b)
        # no sample time lies strictly between neighbouring probes, so one piece
        try:
            [(lo, hi, value, slope)] = cap.pieces(a, b)
        except ScheduleRangeError as exc:
            assert f"{type(exc).__name__}: {exc}" == outcome(ref.piece, a, b)
            continue
        v0, t0, s = ref.piece(a, b)
        assert (lo, hi) == (a, b)
        for t in (a, 0.5 * (a + b), b):
            assert float(value(t)).hex() == (v0 + s * (t - t0)).hex()
            assert float(slope(t)).hex() == s.hex()
        assert value(np.array([a, b])).tobytes() == np.array([v0 + s * (a - t0), v0 + s * (b - t0)]).tobytes()


def test_table_integral_with_both_ends_outside_names_t0():
    cap = Tabulated.from_pairs([(0.0, 1.0), (1.0, 3.0), (2.5, 0.0)])
    with pytest.raises(ScheduleRangeError, match=r"^t=-1.0 outside sampled range \[0.0, 2.5\]$"):
        cap.integral(-1.0, 4.0)


@st.composite
def switch_grid_edges(draw):
    """(square wave, t) with t on either side of 2**52 half periods from 0,
    the end of the switch grid, its float neighbours, NaN and infinities."""
    period = draw(st.sampled_from([1e-300, 1e-20, 1.0 / 3.0, 2.0]) | st.floats(1e-6, 1e6))
    cap = TwoPhase(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)), period)
    edge = 2.0**52 * (0.5 * period)
    t = draw(
        st.sampled_from([edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf), math.inf, math.nan])
        | st.floats(0.0, 2.0).map(lambda x: x * edge)
    )
    return cap, draw(st.sampled_from([1.0, -1.0])) * t


@settings(max_examples=300, deadline=None)
@given(drawn=switch_grid_edges(), halves=st.floats(0.0, 3.0))
def test_every_square_wave_query_shares_one_domain(drawn, halves):
    # past the grid, at, derivative, breakpoints_between, pieces and the
    # integral raise one ValueError; inside it, each piece's integral is its
    # level times its width and integrals add up, to rounding
    cap, t = drawn
    half = 0.5 * cap.period
    if not abs(t / half) < 2.0**52:
        lo, hi = (t, 0.0) if t < 0.0 else (0.0, t)
        message = f"switch times need finite bounds, got t={t} for half period {half} (at most 2**52 of them from 0)"
        for query in (lambda: cap.at(t), lambda: cap.derivative(t), lambda: cap.breakpoints_between(lo, hi),
                      lambda: next(cap.pieces(lo, hi)), lambda: cap.integral(lo, hi)):
            with pytest.raises(ValueError) as raised:
                query()
            assert str(raised.value) == message
        return
    # an interval of up to three half periods from t towards 0 stays inside
    lo, hi = sorted((t, t - math.copysign(halves * half, t)))
    rounding = 16.0 * 2.0**-52 * max(abs(cap.m1), abs(cap.m2)) * (abs(lo) + abs(hi) + half)
    pieces = list(cap.pieces(lo, hi))
    for a, b, value, _ in pieces:
        assert cap.integral(a, b) == pytest.approx(value(a) * (b - a), rel=0.0, abs=rounding)
    assert cap.integral(lo, hi) == pytest.approx(sum(cap.integral(a, b) for a, b, _, _ in pieces), rel=0.0, abs=rounding)

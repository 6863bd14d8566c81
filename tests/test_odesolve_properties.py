"""Property tests of the RK45 dense output in oscpop.odesolve, and of the
shifted form's error against the exact reciprocal-space solution."""
import bisect
import math
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from oscpop import (  # noqa: E402
    CapacitySchedule,
    Constant,
    LogisticParams,
    SinusoidOffset,
    SolverConfig,
    Tabulated,
    TwoPhase,
    integrate_logistic,
    integrate_riccati,
    quadrature_solution,
)
from oscpop import odesolve  # noqa: E402
from oscpop.odesolve import _sample_steps, _step_coefficients  # noqa: E402
from reference import ERROR_BOUND, EXACT, contd5, near, stepping_to_the_end  # noqa: E402

INTEGRATORS = [integrate_logistic, integrate_riccati]
params = st.builds(LogisticParams, r=st.floats(0.3, 2.0), p0=st.floats(0.05, 4.0))


@st.composite
def schedules(draw):
    """(schedule, t_end, sample grid on [0, t_end]).

    Square-wave grids step by half-period / 2^j, so they land exactly on
    every switch time the integrator splits at.
    """
    kind = draw(st.sampled_from(["constant", "twophase", "sinusoid", "table"]))
    if kind == "twophase":
        cap = TwoPhase(draw(st.floats(0.5, 3.0)), draw(st.floats(0.5, 3.0)), draw(st.floats(0.5, 5.0)))
        half = 0.5 * cap.period
        per_half = draw(st.sampled_from([1, 2, 4, 8]))
        halves = draw(st.integers(1, 12))
        grid = half * (np.arange(halves * per_half + 1) / per_half)
        return cap, half * halves, grid
    t_end = draw(st.floats(0.5, 20.0))
    if kind == "constant":
        cap = Constant(draw(st.floats(0.5, 3.0)))
    elif kind == "sinusoid":
        mean = draw(st.floats(1.0, 3.0))
        cap = SinusoidOffset(mean, draw(st.floats(0.0, 0.9)) * mean, draw(st.floats(0.5, 5.0)))
    else:
        gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=39))
        times = np.concatenate(([0.0], np.cumsum(gaps)))
        values = draw(st.lists(st.floats(0.5, 3.0), min_size=times.size, max_size=times.size))
        cap = Tabulated(times, np.array(values))
        t_end = float(times[-1])
    return cap, t_end, np.linspace(0.0, t_end, draw(st.integers(1, 200)))


@pytest.mark.parametrize("integrate", INTEGRATORS)
@settings(max_examples=60, deadline=None)
@given(p=params, sched=schedules())
def test_dense_output_at_step_ends_is_the_step_value(integrate, p, sched):
    cap, t_end, _ = sched
    steps = integrate(p, cap, t_end)
    # the Riccati route reports P(t0) as given, not as W(t0) + M(t0)/2
    first = 0 if integrate is integrate_logistic else 1
    dense = integrate(p, cap, t_end, t_eval=steps.times[first:])
    assert np.array_equal(dense.populations, steps.populations[first:])


@pytest.mark.parametrize("integrate", INTEGRATORS)
@settings(max_examples=60, deadline=None)
@given(p=params, sched=schedules())
@example(p=LogisticParams(1.0, 0.1), sched=(Constant(3.0), 2.0, np.linspace(0.0, 2.0, 5)))
def test_first_sample_is_the_initial_condition(integrate, p, sched):
    cap, t_end, grid = sched
    assert integrate(p, cap, t_end).populations[0] == p.p0
    # W(t0) + M(t0)/2 need not round back to p0; the sample must
    assert integrate(p, cap, t_end, t_eval=grid).populations[0] == p.p0


@pytest.mark.parametrize("integrate", INTEGRATORS)
@settings(max_examples=60, deadline=None)
@given(p=params, sched=schedules(), data=st.data())
def test_chunked_grid_matches_one_whole_grid_call(integrate, p, sched, data):
    cap, t_end, grid = sched
    whole = integrate(p, cap, t_end, t_eval=grid).populations
    sizes = data.draw(st.lists(st.one_of(st.just(1), st.integers(1, 60)), min_size=1, max_size=12))
    cuts = np.cumsum(sizes)
    chunks = [c for c in np.split(grid, cuts[cuts < grid.size]) if c.size]
    parts = [integrate(p, cap, t_end, t_eval=c).populations for c in chunks]
    assert np.array_equal(np.concatenate(parts), whole)


def continuous_extension_loop(steps, ts):
    """Per-sample reference: bisect on the step ends, then dopri5's contd5."""
    ends = [s[1] for s in steps]
    out = []
    for t in ts.tolist():
        step = steps[min(bisect.bisect_left(ends, t), len(steps) - 1)]
        theta = (t - step[0]) / (step[1] - step[0])
        out.append(step[3] if theta == 1.0 else contd5(step, theta))
    return np.array(out)


values = st.floats(-1e3, 1e3)


# up to 10 steps and 20 extra samples: a failure among up to 30 and 40, over
# 200 drawn floats, took Hypothesis 20-40 s to shrink, each shrink step
# redrawing them all
@settings(max_examples=200, deadline=None)
@given(
    widths=st.lists(st.floats(1e-6, 2.0), min_size=1, max_size=10),
    data=st.data(),
)
def test_vectorized_sampler_matches_the_per_sample_loop(widths, data):
    ends = np.concatenate(([0.0], np.cumsum(widths))).tolist()
    steps = [
        (t0, t1, *data.draw(st.tuples(values, values, values, values, values)))
        for t0, t1 in zip(ends[:-1], ends[1:])
    ]
    extra = data.draw(st.lists(st.floats(0.0, ends[-1]), max_size=20))
    # step ends, their float neighbours, and a sample just past the last end
    probes = near(ends)
    ts = np.unique(np.concatenate((probes[probes >= 0.0], extra)))
    assert np.array_equal(_sample_steps(_step_coefficients(steps), ts), continuous_extension_loop(steps, ts))


def test_one_step_record_is_the_per_sample_loop():
    # the start, the end, their float neighbours, and samples past the end
    step = (0.5, 1.25, 0.3, 0.9, 0.7, -0.2, 0.15)
    ts = np.array([0.5, math.nextafter(0.5, 1.0), 0.8, math.nextafter(1.25, 0.0), 1.25, math.nextafter(1.25, 2.0), 2.0])
    got = _sample_steps(_step_coefficients([step]), ts)
    assert got.tobytes() == continuous_extension_loop([step], ts).tobytes()
    assert got[4] == step[3]


def _sampled(integrate, p, cap, t_end, t_eval):
    """(step rows, sample times, dense output, settled_at) of one
    integrator call, the middle two as its continuous-extension pass saw
    them, before the M/2 of the Riccati route and the initial condition
    are put in."""
    seen = []

    def coefficients(steps):
        seen.append(np.array(steps))
        return _step_coefficients(steps)

    def sample(coef, ts):
        out = _sample_steps(coef, ts)
        seen.extend((ts.copy(), out.copy()))
        return out

    with mock.patch.object(odesolve, "_step_coefficients", coefficients), mock.patch.object(odesolve, "_sample_steps", sample):
        traj = integrate(p, cap, t_end, t_eval=t_eval)
    return (*seen, traj.meta.settled_at)


def folded(ts, s, h):
    """The times an orbit that settled at the mark s samples for ts: each
    time past s at its place s - ((s - t) mod h) in the last period, each
    place once, ascending."""
    if s is None:
        return ts
    return np.unique([t if t <= s else s - (s - t) % h for t in ts.tolist()])


@pytest.mark.parametrize("integrate", INTEGRATORS)
@settings(max_examples=60, deadline=None)
@given(p=params, sched=schedules(), data=st.data())
def test_integrators_sample_by_the_per_sample_loop(integrate, p, sched, data):
    # the step ends (step mode), then the grid with some of those ends and
    # their float neighbours: the steps do not depend on the samples. Where
    # the orbit settled on its cycle, the times past the mark are sampled
    # at their places in the last period
    cap, t_end, grid = sched
    steps, ends, out, s = _sampled(integrate, p, cap, t_end, None)
    assert out.tobytes() == continuous_extension_loop(steps.tolist(), ends).tobytes()
    picked = data.draw(st.lists(st.sampled_from(ends.tolist()), max_size=10))
    ts = np.unique(np.concatenate((grid, near(picked) if picked else [])))
    ts = ts[(ts >= 0.0) & (ts <= t_end)]
    again, ts_seen, out, s_again = _sampled(integrate, p, cap, t_end, ts)
    assert again.tobytes() == steps.tobytes() and s_again == s
    assert ts_seen.tobytes() == folded(ts, s, cap.period).tobytes()
    assert out.tobytes() == continuous_extension_loop(steps.tolist(), ts_seen).tobytes()


@st.composite
def near_one(draw):
    """(schedule, t_end) with M within [-1, 2]: sinusoids, square waves,
    tables, and square waves whose low level is a die-off: over at least
    one period, r |M| runs 1 to 16 time constants in it, taking P far below
    |M|/2 and back."""
    kind = draw(st.sampled_from(["sinusoid", "twophase", "dieoff", "table"]))
    if kind == "sinusoid":
        mean = draw(st.floats(0.5, 2.0))
        cap = SinusoidOffset(mean, draw(st.floats(0.0, 0.9)) * mean, draw(st.floats(0.5, 5.0)))
    elif kind == "twophase":
        cap = TwoPhase(draw(st.floats(0.25, 2.0)), draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 16.0)))
    elif kind == "dieoff":
        cap = TwoPhase(draw(st.floats(-1.0, -0.5)), draw(st.floats(0.5, 2.0)), draw(st.floats(8.0, 16.0)))
        return cap, draw(st.floats(1.0, 2.0)) * cap.period
    else:
        gaps = draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=29))
        times = np.concatenate(([0.0], np.cumsum(gaps)))
        values = draw(st.lists(st.floats(0.5, 2.0), min_size=times.size, max_size=times.size))
        return Tabulated(times, np.array(values)), float(times[-1])
    return cap, draw(st.floats(5.0, 30.0))


@settings(max_examples=60, deadline=None)
@given(
    p=st.builds(LogisticParams, r=st.floats(0.5, 2.0), p0=st.floats(0.25, 2.0)),
    sched=near_one(),
    rel_tol=st.sampled_from([1e-6, 1e-8, 1e-10]),
)
@example(p=LogisticParams(1.0, 1.0), sched=(TwoPhase(-1.0, 2.0, 16.0), 64.0), rel_tol=1e-8)
def test_riccati_error_follows_the_tolerance_on_p(p, sched, rel_tol):
    # abs_tol a millionth of rel_tol, so the bound is relative to P even
    # where a die-off takes P far below M/2
    cap, t_end = sched
    cfg = SolverConfig(abs_tol=1e-6 * rel_tol, rel_tol=rel_tol)
    ts = np.linspace(0.0, t_end, 17)[1:]
    exact = np.array([quadrature_solution(p, cap, t, EXACT) for t in ts.tolist()])
    got = integrate_riccati(p, cap, t_end, cfg, t_eval=ts).populations
    assert (np.abs(got - exact) <= ERROR_BOUND * (cfg.abs_tol + rel_tol * np.abs(exact))).all()


@st.composite
def repeating(draw):
    """(schedule, t_end): a sinusoid, a square wave or a die-off square
    wave whose cycle mass is positive, over 10 to 200 periods."""
    kind = draw(st.sampled_from(["sinusoid", "twophase", "dieoff"]))
    if kind == "sinusoid":
        mean = draw(st.floats(0.5, 2.0))
        cap = SinusoidOffset(mean, draw(st.floats(0.0, 0.9)) * mean, draw(st.floats(0.5, 5.0)))
    elif kind == "twophase":
        cap = TwoPhase(draw(st.floats(0.25, 2.0)), draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 5.0)))
    else:
        low = draw(st.floats(-1.0, -0.5))
        cap = TwoPhase(low, draw(st.floats(0.25, 1.5)) - low, draw(st.floats(2.0, 8.0)))
    return cap, draw(st.floats(10.0, 200.0)) * cap.period


settling = dict(
    p=st.builds(LogisticParams, r=st.floats(0.5, 2.0), p0=st.floats(0.25, 2.0)),
    sched=repeating(),
    rel_tol=st.sampled_from([1e-6, 1e-8]),
)


def _config(rel_tol):
    # room for every step of the twin that steps to t_end
    return SolverConfig(abs_tol=1e-6 * rel_tol, rel_tol=rel_tol, max_iterations=10**6)


@pytest.mark.parametrize("integrate", INTEGRATORS)
@settings(max_examples=60, deadline=None)
@given(**settling)
@example(p=LogisticParams(1.0, 0.5), sched=(TwoPhase(1.0, 3.0, 2.0), 200.0), rel_tol=1e-8)
def test_samples_up_to_the_mark_are_those_of_stepping_to_the_end(integrate, p, sched, rel_tol):
    # the settle test only stops the stepping: up to the mark, every float
    # is the one a run that steps to t_end gives
    cap, t_end = sched
    cfg, grid = _config(rel_tol), np.linspace(0.0, t_end, 1001)
    got = integrate(p, cap, t_end, cfg, t_eval=grid)
    full = integrate(p, stepping_to_the_end(cap), t_end, cfg, t_eval=grid)
    s = got.meta.settled_at
    assert full.meta.settled_at is None
    if s is None:
        assert got.meta == full.meta
        s = t_end
    upto = grid <= s
    assert got.populations[upto].tobytes() == full.populations[upto].tobytes()


@pytest.mark.parametrize("integrate", INTEGRATORS)
@settings(max_examples=60, deadline=None)
@given(**settling, data=st.data())
def test_step_mode_and_samples_agree_past_the_mark(integrate, p, sched, rel_tol, data):
    # step mode lists the last period's step ends a whole number of periods
    # on; both modes read each time at the same place, bit for bit
    cap, t_end = sched
    cfg = _config(rel_tol)
    steps = integrate(p, cap, t_end, cfg)
    picked = data.draw(st.lists(st.sampled_from(steps.times.tolist()), min_size=1, max_size=20))
    ts = np.unique(np.concatenate((np.linspace(0.0, t_end, 101), picked)))
    dense = integrate(p, cap, t_end, cfg, t_eval=ts)
    assert dense.meta == steps.meta
    common, at_steps, at_ts = np.intersect1d(steps.times, ts, return_indices=True)
    assert common.size >= len(set(picked))
    assert steps.populations[at_steps].tobytes() == dense.populations[at_ts].tobytes()


@pytest.mark.parametrize("integrate", INTEGRATORS)
@settings(max_examples=60, deadline=None)
@given(**settling)
def test_stepping_stops_within_the_bound_of_the_exact_solution(integrate, p, sched, rel_tol):
    # past the mark the state is within 0.1 rel_tol of the cycle, and a
    # relative error in 1/P does not grow along the flow for r > 0
    cap, t_end = sched
    cfg = _config(rel_tol)
    ts = np.linspace(0.0, t_end, 9)[1:]
    exact = np.array([quadrature_solution(p, cap, t, EXACT) for t in ts.tolist()])
    got = integrate(p, cap, t_end, cfg, t_eval=ts).populations
    assert (np.abs(got - exact) <= ERROR_BOUND * (cfg.abs_tol + rel_tol * np.abs(exact))).all()


class PeriodicArches(CapacitySchedule):
    """A user schedule, 2 + sin t, that declares its period 2 pi."""

    period = 2.0 * math.pi

    def at(self, t):
        return 2.0 + math.sin(t)

    def derivative(self, t):
        return math.cos(t)

    def min_value(self):
        return 1.0

    def max_value(self):
        return 3.0


@st.composite
def never_repeating(draw):
    """(schedule, t_end) over at least two declared periods, where a
    declared period need not hold for all t: a table with one, a level
    without one, and a user schedule with one."""
    kind = draw(st.sampled_from(["table", "constant", "user"]))
    if kind == "table":
        period = draw(st.floats(0.5, 2.0))
        times = np.linspace(0.0, draw(st.integers(2, 20)) * period, draw(st.integers(2, 40)))
        values = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=times.size, max_size=times.size)))
        return Tabulated(times, values, period), float(times[-1])
    if kind == "constant":
        return Constant(draw(st.floats(0.5, 2.0))), draw(st.floats(1.0, 100.0))
    return PeriodicArches(), draw(st.floats(2.0, 10.0)) * PeriodicArches.period


@pytest.mark.parametrize("integrate", INTEGRATORS)
@settings(max_examples=60, deadline=None)
@given(p=params, sched=never_repeating())
def test_schedules_that_need_not_repeat_never_settle(integrate, p, sched):
    cap, t_end = sched
    assert integrate(p, cap, t_end).meta.settled_at is None

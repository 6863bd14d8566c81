"""Property tests of the RK45 dense output in oscpop.odesolve."""
import bisect

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from oscpop import (  # noqa: E402
    Constant,
    LogisticParams,
    SinusoidOffset,
    Tabulated,
    TwoPhase,
    integrate_logistic,
    integrate_riccati,
)
from oscpop.odesolve import _sample_steps  # noqa: E402
from reference import contd5, near  # noqa: E402

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


@settings(max_examples=200, deadline=None)
@given(
    widths=st.lists(st.floats(1e-6, 2.0), min_size=1, max_size=30),
    data=st.data(),
)
def test_vectorized_sampler_matches_the_per_sample_loop(widths, data):
    ends = np.concatenate(([0.0], np.cumsum(widths))).tolist()
    steps = [
        (t0, t1, *data.draw(st.tuples(values, values, values, values, values)))
        for t0, t1 in zip(ends[:-1], ends[1:])
    ]
    extra = data.draw(st.lists(st.floats(0.0, ends[-1]), max_size=40))
    # step ends, their float neighbours, and a sample just past the last end
    probes = near(ends)
    ts = np.unique(np.concatenate((probes[probes >= 0.0], extra)))
    assert np.array_equal(_sample_steps(steps, ts), continuous_extension_loop(steps, ts))

import math
import tracemalloc

import numpy as np
import pytest

from oscpop import (
    CapacitySchedule,
    Constant,
    ConvergenceError,
    DivergenceError,
    LogisticParams,
    SinusoidOffset,
    SolverConfig,
    StiffnessError,
    Tabulated,
    Trajectory,
    TwoPhase,
    adaptive_quadrature,
    integrate_logistic,
    integrate_riccati,
    logistic_constant,
    quadrature_solution,
)
from oscpop.odesolve import SolverStats
from reference import I0_1, stepping_to_the_end

TIGHT = SolverConfig(abs_tol=1e-13, rel_tol=1e-11)


def _stats():
    return SolverStats(solver="test")


class TestTrajectory:
    def test_length_and_final(self):
        tr = Trajectory(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0]), _stats())
        assert len(tr) == 3
        assert tr.final == 3.0

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.array([1.0]), _stats())

    def test_rejects_unsorted_times(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), np.array([1.0, 1.0]), _stats())

    def test_rejects_nonfinite_population(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.array([1.0, math.nan]), _stats())


class TestIntegrateLogistic:
    def test_equilibrium_is_exactly_flat(self):
        traj = integrate_logistic(LogisticParams(1.0, 1.5, 0.0), Constant(1.5), 10.0)
        assert float(np.max(np.abs(traj.populations - 1.5))) == 0.0

    def test_zero_span_returns_initial_sample(self):
        traj = integrate_logistic(LogisticParams(1.0, 0.5, 2.0), Constant(1.0), 2.0)
        assert len(traj) == 1
        assert traj.times[0] == 2.0 and traj.final == 0.5

    def test_rejects_backward_integration(self):
        with pytest.raises(ValueError):
            integrate_logistic(LogisticParams(1.0, 0.5, 0.0), Constant(1.0), -1.0)

    def test_constant_capacity_random_sweep(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            r = float(rng.uniform(0.2, 2.0))
            m = float(rng.uniform(0.3, 3.0))
            p0 = float(rng.uniform(0.05, 4.0))
            t_end = float(rng.uniform(0.5, 6.0))
            params = LogisticParams(r, p0, 0.0)
            got = integrate_logistic(params, Constant(m), t_end, TIGHT).final
            want = logistic_constant(params, m, t_end)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-11)

    def test_tolerance_controls_error(self):
        params = LogisticParams(1.0, 0.2, 0.0)
        exact = logistic_constant(params, 2.0, 5.0)
        loose = integrate_logistic(
            params, Constant(2.0), 5.0, SolverConfig(abs_tol=1e-6, rel_tol=1e-4)
        ).final
        tight = integrate_logistic(params, Constant(2.0), 5.0, TIGHT).final
        assert abs(tight - exact) < abs(loose - exact)
        assert abs(tight - exact) <= 1e-10

    def test_breakpoints_are_step_boundaries(self):
        cap = TwoPhase(1.0, 3.0, 2.0)
        traj = integrate_logistic(LogisticParams(1.0, 0.5, 0.0), cap, 4.0)
        for b in (1.0, 2.0, 3.0):
            assert b in traj.times

    @pytest.mark.parametrize("integrate", [integrate_logistic, integrate_riccati])
    def test_step_does_not_cross_a_tiny_piece(self, integrate):
        # a step end within 1e-14 of a piece end, in absolute terms, snapped
        # onto it, so a 5e-323 step crossed the whole piece [5e-324,
        # 1.75e-102] and the next step could not move t: StiffnessError
        cap = Tabulated([0.0, 5e-324, 1.75e-102, 1.0], [1.0, 1.0, 1.0, 1.0])
        traj = integrate(LogisticParams(1.0, 0.5), cap, 1.0)
        assert 1.75e-102 in traj.times
        assert traj.final == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), rel=1e-8)

    def test_two_phase_endpoint_matches_exact_chain(self):
        cap = TwoPhase(0.8, 2.2, 1.5)
        params = LogisticParams(1.3, 0.4, 0.0)
        got = integrate_logistic(params, cap, 5.0, TIGHT).final
        assert got == pytest.approx(quadrature_solution(params, cap, 5.0), rel=1e-9)

    def test_dense_output_accuracy(self):
        params = LogisticParams(1.0, 0.3, 0.0)
        cfg = SolverConfig(abs_tol=1e-12, rel_tol=1e-10, max_step=0.01)
        grid = np.linspace(0.0, 4.0, 57)
        traj = integrate_logistic(params, Constant(2.0), 4.0, cfg, t_eval=grid)
        for t, p in zip(grid, traj.populations):
            assert p == pytest.approx(logistic_constant(params, 2.0, float(t)), rel=1e-9)

    def test_dense_output_hits_requested_grid(self):
        grid = np.array([0.0, 0.7, 1.0, 2.0, 3.3])
        traj = integrate_logistic(
            LogisticParams(1.0, 0.5, 0.0), TwoPhase(1.0, 2.0, 2.0), 3.3, t_eval=grid
        )
        assert np.array_equal(traj.times, grid)
        assert traj.populations[0] == 0.5

    @pytest.mark.parametrize(
        "grid",
        [np.array([-0.5, 1.0]), np.array([0.0, 2.0, 1.0]), np.array([0.0, 5.0])],
    )
    def test_rejects_bad_eval_grid(self, grid):
        with pytest.raises(ValueError):
            integrate_logistic(LogisticParams(1.0, 0.5, 0.0), Constant(1.0), 4.0, t_eval=grid)

    def test_malformed_eval_grid_fails_before_integrating(self):
        # a run asks its schedule for its walk before its first RHS call
        class Untouched(Constant):
            def _staged_pieces(self, t0, t1, shift):
                raise AssertionError("integrated before t_eval was checked")

        with pytest.raises(ValueError, match="strictly increasing"):
            integrate_logistic(
                LogisticParams(1, 0.5), Untouched(1.0), 1e9, SolverConfig(max_iterations=5),
                t_eval=[1.0, 0.5],
            )

    @pytest.mark.parametrize("t_end", [1.0, 1e9])
    @pytest.mark.parametrize("grid", [[math.nan], [1.5, math.nan], [-math.inf], [math.inf]])
    @pytest.mark.parametrize("integrate", [integrate_logistic, integrate_riccati])
    def test_non_finite_eval_grid_fails_before_integrating(self, integrate, grid, t_end):
        # a lone NaN passes both range comparisons; it must not integrate the
        # whole span, nor, on an empty one, come back as the sample at t0
        class Untouched(Constant):
            def _staged_pieces(self, t0, t1, shift):
                raise AssertionError("integrated before t_eval was checked")

        with pytest.raises(ValueError, match="t_eval must be finite"):
            integrate(LogisticParams(1, 0.5, 1.0), Untouched(2.0), t_end, t_eval=grid)

    @pytest.mark.parametrize("grid", [[], np.zeros((2, 2)), [[0.5]]])
    @pytest.mark.parametrize("integrate", [integrate_logistic, integrate_riccati])
    def test_empty_or_nested_eval_grid_is_refused(self, integrate, grid):
        with pytest.raises(ValueError, match="t_eval must be a non-empty 1-D array"):
            integrate(LogisticParams(1.0, 0.5), Constant(1.0), 1.0, t_eval=grid)

    @pytest.mark.parametrize("t_end", [math.nan, math.inf])
    @pytest.mark.parametrize("integrate", [integrate_logistic, integrate_riccati])
    def test_non_finite_end_is_refused(self, integrate, t_end):
        with pytest.raises(ValueError, match="integration needs finite bounds"):
            integrate(LogisticParams(1.0, 0.5), Constant(1.0), t_end)

    @pytest.mark.parametrize("t_eval", [None, np.linspace(0.0, 6.0, 13)])
    def test_trajectory_keeps_the_step_record_of_p(self, t_eval):
        # one row (t0, t1, y0, y1, f0, f1, dk) per accepted step, whose ends
        # tile the span and whose end values are the step-mode samples
        params, cap = LogisticParams(1.0, 0.5), TwoPhase(1.0, 3.0, 2.0)
        traj = integrate_logistic(params, cap, 6.0, t_eval=t_eval)
        steps = traj.steps
        assert steps.shape == (traj.meta.n_accepted, 7)
        assert steps[0, 0] == 0.0 and steps[-1, 1] == 6.0
        assert np.array_equal(steps[1:, 0], steps[:-1, 1])
        assert np.array_equal(steps[:, 3], integrate_logistic(params, cap, 6.0).populations[1:])

    def test_riccati_trajectory_has_no_step_record(self):
        # its rows hold W = P - M/2, not P
        assert integrate_riccati(LogisticParams(1.0, 0.5), SinusoidOffset(2.0, 0.5, 3.0), 6.0).steps is None
        assert Trajectory(np.array([0.0]), np.array([1.0]), _stats()).steps is None

    @pytest.mark.parametrize("integrate", [integrate_logistic, integrate_riccati])
    def test_eval_grid_is_checked_on_an_empty_span(self, integrate):
        # t_end == t0 returns the initial sample, but only for a grid that
        # lies in [t0, t_end]; a reversed or out-of-range one is refused
        params = LogisticParams(1.0, 0.5, 1.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            integrate(params, Constant(1.0), 1.0, t_eval=[5.0, 2.5])
        with pytest.raises(ValueError, match="within the integration interval"):
            integrate(params, Constant(1.0), 1.0, t_eval=[2.5])
        traj = integrate(params, Constant(1.0), 1.0, t_eval=[1.0])
        assert traj.times.tolist() == [1.0] and traj.populations.tolist() == [0.5]

    @pytest.mark.parametrize("grid", [[0.0, 5e-13], [-5e-13, 0.0]], ids=["past-end", "before-start"])
    @pytest.mark.parametrize("t_end", [1e-20, 1e-300])
    @pytest.mark.parametrize("integrate", [integrate_logistic, integrate_riccati])
    def test_eval_grid_a_hair_outside_the_span_is_refused(self, integrate, t_end, grid):
        # an absolute slack of 1e-12 let these samples in, and the nearest
        # step was extrapolated to them: P = 625.5 for a true 0.5 at
        # t_end = 1e-20, an overflow at t_end = 1e-300
        with pytest.raises(ValueError, match="t_eval must lie within the integration interval"):
            integrate(LogisticParams(1.0, 0.5), Constant(1.0), t_end, t_eval=grid)

    def test_stats_populated(self):
        traj = integrate_logistic(LogisticParams(1.0, 0.5, 0.0), Constant(1.0), 4.0)
        meta = traj.meta
        assert meta.solver == "logistic-rk45"
        assert meta.n_accepted == len(traj) - 1
        assert meta.n_rhs_evals >= 6 * meta.n_accepted
        assert 0.0 < meta.smallest_step <= meta.largest_step

    def test_accepted_step_factor_has_a_floor(self):
        # M rises from 1 to 3 around t = 3, so the step [2.64, 2.85] is
        # accepted with err 0.38 after err 8.7e-10; its PI factor 0.195 is
        # lifted to the floor 0.2, so the next step is 0.2 times as wide
        class Front(CapacitySchedule):
            def at(self, t):
                return 2.0 + math.tanh(50.0 * (t - 3.0))

            def derivative(self, t):
                return 50.0 / math.cosh(50.0 * (t - 3.0)) ** 2

        steps = integrate_logistic(LogisticParams(3.0, 1.0), Front(), 12.0).steps
        widths = steps[:, 1] - steps[:, 0]
        [k] = np.flatnonzero(steps[:, 0] == 2.64)
        assert widths[k + 1] == pytest.approx(0.2 * widths[k], rel=1e-12)

    def test_stiffness_error(self):
        cap = SinusoidOffset(1.0, 0.5, 0.05)
        cfg = SolverConfig(abs_tol=1e-14, rel_tol=1e-12, min_step=0.02, max_step=0.04)
        with pytest.raises(StiffnessError):
            integrate_logistic(LogisticParams(1.0, 0.5, 0.0), cap, 1.0, cfg)

    @pytest.mark.parametrize("integrate", [integrate_logistic, integrate_riccati])
    def test_step_too_small_to_move_t_raises(self, integrate):
        # max_step is below half an ulp of t0 = 1e6, so the first accepted
        # step has zero length; the run must end before it is sampled
        cfg = SolverConfig(max_step=1e-11, min_step=1e-13)
        with pytest.raises(StiffnessError, match="vanished"):
            integrate(LogisticParams(1.0, 0.5, 1e6), Constant(1.0), 1e6 + 1.0, cfg, t_eval=[1e6 + 0.5])

    @pytest.mark.parametrize("integrate", [integrate_logistic, integrate_riccati])
    def test_overflowing_first_trial_is_a_rejected_step(self, integrate):
        # the first trial, a sixteenth of the span, overflows its stages;
        # it is rejected like any failed step and the run settles on M = 1
        cfg = SolverConfig(max_iterations=10**5)
        traj = integrate(LogisticParams(1, 0.5), Constant(1.0), 1e5, cfg)
        assert abs(traj.final - 1.0) <= 1e-8
        assert traj.meta.n_rejected > 0

    def test_stiff_overflow_ends_in_stiffness_error(self):
        # every trial overflows until the step is cut below min_step
        with pytest.raises(StiffnessError, match="underflow"):
            integrate_logistic(LogisticParams(1, 1), Constant(1e160), 1.0)

    def test_step_budget_error(self):
        cfg = SolverConfig(max_iterations=3)
        with pytest.raises(ConvergenceError):
            integrate_logistic(LogisticParams(1.0, 0.5, 0.0), SinusoidOffset(2.0, 1.0, 0.5), 50.0, cfg)

    @pytest.mark.parametrize("integrate", [integrate_logistic, integrate_riccati])
    def test_step_budget_spans_every_piece(self, integrate):
        # 71 switches: a budget that restarted at each piece would let a run
        # with one attempt fewer than the whole call needs succeed
        params, cap, t_end = LogisticParams(1.0, 0.5), TwoPhase(1.0, 3.0, 0.7), 25.0
        meta = integrate(params, cap, t_end).meta
        attempts = meta.n_accepted + meta.n_rejected
        assert integrate(params, cap, t_end, SolverConfig(max_iterations=attempts)).meta == meta
        with pytest.raises(ConvergenceError):
            integrate(params, cap, t_end, SolverConfig(max_iterations=attempts - 1))

    def test_dense_output_is_fourth_order_between_step_ends(self):
        # tolerances of 1 accept every step, so each run takes fixed steps
        # of max_step; a cubic Hermite's midpoint error falls only 16x per
        # halving, the continuous extension's about 32x
        params, cap = LogisticParams(1.5, 0.2), Constant(2.0)
        errors = []
        for h in (0.2, 0.1, 0.05, 0.025):
            cfg = SolverConfig(abs_tol=1.0, rel_tol=1.0, max_step=h)
            ends = integrate_logistic(params, cap, 4.0, cfg).times
            mids = 0.5 * (ends[:-1] + ends[1:])
            dense = integrate_logistic(params, cap, 4.0, cfg, t_eval=mids).populations
            exact = np.array([logistic_constant(params, 2.0, t) for t in mids])
            errors.append(float(np.max(np.abs(dense - exact))))
        assert all(coarse >= 24.0 * fine for coarse, fine in zip(errors, errors[1:]))


class TestIntegrateRiccati:
    def test_matches_logistic_route_constant(self):
        params = LogisticParams(1.0, 0.4, 0.0)
        a = integrate_riccati(params, Constant(2.0), 5.0, TIGHT).final
        assert a == pytest.approx(logistic_constant(params, 2.0, 5.0), rel=1e-9)

    def test_matches_logistic_route_two_phase(self):
        cap = TwoPhase(1.0, 3.0, 2.0)
        params = LogisticParams(1.2, 0.8, 0.0)
        grid = np.linspace(0.0, 6.0, 25)
        cfg = SolverConfig(abs_tol=1e-12, rel_tol=1e-10, max_step=0.01)
        a = integrate_logistic(params, cap, 6.0, cfg, t_eval=grid).populations
        b = integrate_riccati(params, cap, 6.0, cfg, t_eval=grid).populations
        assert float(np.max(np.abs(a - b))) <= 1e-8

    def test_matches_logistic_route_sinusoid(self):
        # nonzero dM/dt exercises the shift term in the transformed equation
        cap = SinusoidOffset(2.0, 0.7, 3.0)
        params = LogisticParams(0.9, 1.1, 0.0)
        a = integrate_logistic(params, cap, 7.0, TIGHT).final
        b = integrate_riccati(params, cap, 7.0, TIGHT).final
        assert b == pytest.approx(a, rel=1e-8)

    def test_matches_logistic_route_tabulated(self):
        cap = Tabulated.from_pairs([(0.0, 1.0), (1.0, 2.5), (2.0, 0.8), (3.0, 1.9)])
        params = LogisticParams(1.0, 0.6, 0.0)
        a = integrate_logistic(params, cap, 3.0, TIGHT).final
        b = integrate_riccati(params, cap, 3.0, TIGHT).final
        assert b == pytest.approx(a, rel=1e-8)

    def test_population_continuous_at_jump(self):
        # the shifted variable jumps with the capacity; population must not
        cap = TwoPhase(1.0, 3.0, 2.0)
        params = LogisticParams(1.0, 0.5, 0.0)
        grid = np.array([1.0 - 1e-7, 1.0, 1.0 + 1e-7])
        traj = integrate_riccati(params, cap, 2.0, TIGHT, t_eval=grid)
        spread = float(np.max(traj.populations) - np.min(traj.populations))
        assert spread <= 1e-5

    @pytest.mark.parametrize(
        "cap, cut",
        [(TwoPhase(1.0, 3.0, 2.0), 1.0), (Tabulated.from_pairs([(0.0, 1.0), (0.1, 2.7), (1.1, 0.9), (2.0, 1.9)]), 1.1)],
        ids=["switch", "knot"],
    )
    def test_sample_on_a_piece_end_takes_the_ending_pieces_shift(self, cap, cut):
        # the sample on a square-wave switch or a table knot is W at the end
        # of the piece that ends there plus that piece's M/2: the value a run
        # ending at the cut reports, bit for bit, as the pieces up to it and
        # their steps are the same. P stays near 0.01, so P = W + M/2 is
        # exact and an ulp of the knot's two lines shows in it
        params = LogisticParams(0.5, 0.01, 0.0)
        short = integrate_riccati(params, cap, cut, TIGHT)
        grid = np.array([0.5 * cut, cut, 0.5 * (cut + 2.0), 2.0])
        long = integrate_riccati(params, cap, 2.0, TIGHT, t_eval=grid)
        assert long.populations[1] == short.final

    def test_divergence_error(self):
        with pytest.raises(DivergenceError):
            integrate_riccati(LogisticParams(1.0, 1.0, 0.0), Constant(1e160), 1.0)

    def test_zero_span(self):
        traj = integrate_riccati(LogisticParams(1.0, 0.7, 1.0), Constant(2.0), 1.0)
        assert len(traj) == 1 and traj.final == 0.7


@pytest.mark.parametrize("integrate", [integrate_logistic, integrate_riccati])
def test_step_mode_keeps_one_record_per_step(integrate):
    # one record per accepted step peaks near 215 B per step here, step
    # rows and sampling temporaries included; keeping each step as a tuple
    # of Python floats beside its array row peaked at 350-400 B per step.
    # The sinusoid's twin steps to t_end, where the sinusoid itself settles
    # on its cycle by t = 21
    cap = stepping_to_the_end(SinusoidOffset(2.0, 0.5, 3.0))
    tracemalloc.start()
    try:
        traj = integrate(LogisticParams(1.0, 0.5), cap, 200.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.meta.n_accepted > 3000
    assert peak / traj.meta.n_accepted < 280


class TestAdaptiveQuadrature:
    def test_cubic_is_exact(self):
        got = adaptive_quadrature(lambda x: x**3, 0.0, 1.0)
        assert got == pytest.approx(0.25, abs=1e-14)

    def test_bessel_reference_value(self):
        # independent special-function route for the same integral
        got = adaptive_quadrature(lambda s: math.exp(-math.cos(s)), 0.0, math.pi, (), TIGHT)
        assert got == pytest.approx(math.pi * I0_1, rel=1e-11)

    def test_kink_with_mandatory_point(self):
        f = lambda x: abs(x - 0.3)
        got = adaptive_quadrature(f, 0.0, 1.0, (0.3,), TIGHT)
        assert got == pytest.approx(0.5 * 0.3**2 + 0.5 * 0.7**2, rel=1e-12)

    def test_jump_integrand_with_breakpoints(self):
        cap = TwoPhase(1.0, 3.0, 2.0)
        pts = cap.breakpoints_between(0.0, 5.0)
        got = adaptive_quadrature(lambda t: cap.at(t), 0.0, 5.0, pts, TIGHT)
        assert got == pytest.approx(cap.integral(0.0, 5.0), rel=1e-12)

    def test_mandatory_points_outside_range_ignored(self):
        got = adaptive_quadrature(lambda x: x, 0.0, 1.0, (-1.0, 5.0))
        assert got == pytest.approx(0.5, abs=1e-13)

    def test_empty_interval(self):
        assert adaptive_quadrature(math.sin, 2.0, 2.0) == 0.0

    def test_rejects_reversed_bounds(self):
        with pytest.raises(ValueError):
            adaptive_quadrature(math.sin, 1.0, 0.0)

    @pytest.mark.parametrize(
        "a, b", [(0.0, math.nan), (math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0), (math.inf, math.inf)]
    )
    def test_rejects_non_finite_bounds(self, a, b):
        calls = []

        def f(x):
            calls.append(x)
            return math.sin(x)

        with pytest.raises(ValueError, match="finite bounds"):
            adaptive_quadrature(f, a, b)
        assert calls == []

    def test_panel_too_narrow_to_bisect(self):
        # one ulp wide, a panel's midpoint rounds onto an end, and a jump
        # inside it keeps the estimate above any tolerance
        cfg = SolverConfig(abs_tol=1e-300, rel_tol=1e-300)
        with pytest.raises(ConvergenceError, match="too narrow to bisect"):
            adaptive_quadrature(lambda x: 0.0 if x == 1.0 else 1e300, 1.0, math.nextafter(1.0, 2.0), (), cfg)

    def test_budget_exhaustion(self):
        cfg = SolverConfig(abs_tol=1e-15, rel_tol=1e-15, max_iterations=1)
        with pytest.raises(ConvergenceError):
            adaptive_quadrature(lambda s: math.exp(-math.cos(s)), 0.0, math.pi, (), cfg)

    @pytest.mark.parametrize("degree", [0, 1, 7, 13, 14, 18, 22])
    def test_polynomials_up_to_degree_22_are_exact(self, degree):
        # one 15-point Kronrod panel integrates degree <= 22 exactly; the
        # loose tolerance accepts that panel without bisecting it
        rng = np.random.default_rng(degree)
        poly = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, degree + 1))
        a, b = -0.8, 1.3
        exact = poly.integ()(b) - poly.integ()(a)
        scale = float(np.sum(np.abs(poly.coef))) * 1.3**degree * (b - a)
        for cfg in (SolverConfig(abs_tol=1e3, rel_tol=1e3), None):
            got = adaptive_quadrature(lambda x: float(poly(x)), a, b, (), cfg)
            assert got == pytest.approx(exact, abs=1e-14 * scale)

    def test_narrow_peak_far_from_mandatory_points(self):
        # a Lorentzian of width 1e-3 inside [0, 2.5]; only the panel that
        # holds it needs refining, which a global error queue finds
        c, w = 0.6173, 1e-3
        f = lambda x: 1.0 / (1.0 + ((x - c) / w) ** 2)
        exact = w * (math.atan((3.0 - c) / w) - math.atan((0.0 - c) / w))
        calls = []
        counted = lambda x: calls.append(x) or f(x)
        got = adaptive_quadrature(counted, 0.0, 3.0, (2.5,), TIGHT)
        assert got == pytest.approx(exact, rel=1e-10)
        assert len(calls) < 2000

    def test_tolerance_scales_error(self):
        exact = math.pi * I0_1
        loose = adaptive_quadrature(
            lambda s: math.exp(-math.cos(s)),
            0.0,
            math.pi,
            (),
            SolverConfig(abs_tol=1e-4, rel_tol=1e-4),
        )
        assert loose == pytest.approx(exact, abs=2e-4)

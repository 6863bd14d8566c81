import math
import tracemalloc

import numpy as np
import pytest

from oscpop import (
    CapacitySchedule,
    Constant,
    ExponentOverflowError,
    LogisticParams,
    PoleError,
    SinusoidOffset,
    SolverConfig,
    Tabulated,
    TwoPhase,
    integrate_logistic,
    logistic_constant,
    quadrature_solution,
    reciprocal_solution,
    two_phase_trajectory,
)
from oscpop.closedform import _propagate, _weights

TIGHT = SolverConfig(abs_tol=1e-13, rel_tol=1e-11)


class TestLogisticParams:
    def test_accepts_zero_initial_population(self):
        p = LogisticParams(1.0, 0.0)
        assert p.p0 == 0.0 and p.t0 == 0.0

    @pytest.mark.parametrize(
        "r,p0,t0",
        [(0.0, 1.0, 0.0), (-1.0, 1.0, 0.0), (math.inf, 1.0, 0.0), (1.0, -0.1, 0.0), (1.0, 1.0, math.inf)],
    )
    def test_rejects_bad_parameters(self, r, p0, t0):
        with pytest.raises(ValueError):
            LogisticParams(r, p0, t0)


class TestLogisticConstant:
    def test_known_value(self):
        # r=1, m=1, p0=1/2 at t=ln 3: algebra gives exactly 3/4
        p = logistic_constant(LogisticParams(1.0, 0.5, 0.0), 1.0, math.log(3.0))
        assert p == pytest.approx(0.75, abs=1e-14)

    def test_initial_condition_recovered(self):
        params = LogisticParams(0.8, 1.3, 2.0)
        assert logistic_constant(params, 2.0, 2.0) == pytest.approx(1.3, abs=0.0)

    def test_fixed_points_stay_fixed(self):
        for m in (0.5, 1.0, 7.3):
            params = LogisticParams(1.2, m, 0.0)
            for t in (0.1, 1.0, 50.0):
                assert logistic_constant(params, m, t) == pytest.approx(m, rel=1e-15)
        zero = LogisticParams(1.2, 0.0, 0.0)
        assert logistic_constant(zero, 3.0, 10.0) == 0.0

    def test_monotone_approach_to_capacity(self):
        # float saturation reaches the capacity exactly in the far tail,
        # so monotonicity is weak and the bound inclusive
        below = LogisticParams(1.0, 0.2, 0.0)
        above = LogisticParams(1.0, 5.0, 0.0)
        ts = np.linspace(0.1, 10.0, 40)
        from_below = [logistic_constant(below, 2.0, float(t)) for t in ts]
        from_above = [logistic_constant(above, 2.0, float(t)) for t in ts]
        assert all(a <= b for a, b in zip(from_below, from_below[1:]))
        assert all(p <= 2.0 for p in from_below)
        assert all(a >= b for a, b in zip(from_above, from_above[1:]))
        assert all(p >= 2.0 for p in from_above)
        assert from_below[-1] == pytest.approx(2.0, rel=1e-7)
        assert from_above[-1] == pytest.approx(2.0, rel=1e-7)

    def test_matches_textbook_form_in_safe_range(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            r = float(rng.uniform(0.2, 2.0))
            m = float(rng.uniform(0.2, 4.0))
            p0 = float(rng.uniform(0.05, 5.0))
            t = float(rng.uniform(0.0, 3.0))
            naive = m * p0 / (p0 + (m - p0) * math.exp(-r * m * t))
            stable = logistic_constant(LogisticParams(r, p0, 0.0), m, t)
            assert stable == pytest.approx(naive, rel=1e-12)

    def test_extreme_exponent_no_overflow(self):
        # growth exponent r*m*t = 800 would overflow exp(+x) forms
        p = logistic_constant(LogisticParams(1.0, 0.5, 0.0), 2.0, 400.0)
        assert p == pytest.approx(2.0, rel=1e-15)
        p = logistic_constant(LogisticParams(1.0, 5.0, 0.0), 2.0, 400.0)
        assert p == pytest.approx(2.0, rel=1e-15)

    def test_zero_capacity_limit(self):
        # m = 0 collapses to algebraic decay p0 / (1 + r p0 (t - t0))
        params = LogisticParams(2.0, 3.0, 0.0)
        assert logistic_constant(params, 0.0, 0.5) == pytest.approx(0.75, abs=1e-15)
        assert logistic_constant(params, 0.0, 0.0) == 3.0

    def test_negative_capacity_decay(self):
        p = logistic_constant(LogisticParams(1.0, 0.5, 0.0), -1.0, 5.0)
        assert 0.0 < p < 0.01

    def test_pole_detected(self):
        # m=-1, p0=2, r=1: denominator vanishes at t = -ln(3/2)
        params = LogisticParams(1.0, 2.0, 0.0)
        with pytest.raises(PoleError):
            logistic_constant(params, -1.0, -math.log(1.5))

    def test_pole_sides_blow_up_with_opposite_signs(self):
        params = LogisticParams(1.0, 2.0, 0.0)
        t_pole = -math.log(1.5)
        after = logistic_constant(params, -1.0, t_pole + 1e-4)
        before = logistic_constant(params, -1.0, t_pole - 1e-4)
        assert after > 1e3 and before < -1e3

    def test_zero_capacity_pole_backward(self):
        # p0=2, r=1, m=0: 1 + r p0 (t-t0) vanishes at t = -1/2
        params = LogisticParams(1.0, 2.0, 0.0)
        with pytest.raises(PoleError):
            logistic_constant(params, 0.0, -0.5)


class TestTwoPhaseClosedForm:
    def test_one_cycle_frozen_values(self):
        # r=1, p0=1/2, phases of length ln 3 at m1=1 then m2=2:
        # mid-cycle 3/4, end of cycle 27/16, both exact fractions
        cap = TwoPhase(1.0, 2.0, 2.0 * math.log(3.0))
        params = LogisticParams(1.0, 0.5, 0.0)
        p_half = quadrature_solution(params, cap, 0.5 * cap.period)
        p_full = quadrature_solution(params, cap, cap.period)
        assert p_half == pytest.approx(0.75, abs=1e-14)
        assert p_full == pytest.approx(1.6875, abs=1e-14)

    def test_trajectory_matches_single_point_eval(self):
        cap = TwoPhase(1.0, 3.0, 2.0)
        params = LogisticParams(1.2, 0.8, 0.0)
        traj = two_phase_trajectory(params, cap, 6.0, 0.25)
        for t, p in zip(traj.times, traj.populations):
            assert p == quadrature_solution(params, cap, float(t))

    def test_fine_square_wave_keeps_nothing_per_piece(self):
        # 200,000 switch times before t = 100: a list entry per piece would
        # take tens of megabytes, the walk itself only its samples
        cap, params = TwoPhase(1.0, 3.0, 1e-3), LogisticParams(1.0, 0.5)
        tracemalloc.start()
        try:
            p = quadrature_solution(params, cap, 100.0)
            traj = two_phase_trajectory(params, cap, 100.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p == traj.final == pytest.approx(2.0, rel=1e-3)
        assert peak < 200_000

    def test_trajectory_continuous_across_switches(self):
        cap = TwoPhase(0.5, 2.5, 1.0)
        params = LogisticParams(2.0, 1.1, 0.0)
        eps = 1e-9
        for t_switch in (0.5, 1.0, 1.5, 2.0):
            left = quadrature_solution(params, cap, t_switch - eps)
            right = quadrature_solution(params, cap, t_switch + eps)
            assert left == pytest.approx(right, rel=1e-6)

    def test_trajectory_agrees_with_integrator(self):
        cap = TwoPhase(1.0, 3.0, 2.0)
        params = LogisticParams(1.2, 0.8, 0.0)
        exact = quadrature_solution(params, cap, 6.0)
        numeric = integrate_logistic(params, cap, 6.0, TIGHT).final
        assert numeric == pytest.approx(exact, rel=1e-9)

    def test_initial_time_inside_a_phase(self):
        # t0 in mid-phase: chaining must anchor on the schedule, not on t0
        cap = TwoPhase(1.0, 3.0, 2.0)
        params = LogisticParams(1.0, 0.9, 0.3)
        exact = quadrature_solution(params, cap, 4.7)
        numeric = integrate_logistic(params, cap, 4.7, TIGHT).final
        assert numeric == pytest.approx(exact, rel=1e-9)

    def test_zero_population_is_absorbing_after_deep_die_off(self):
        # the die-off phase on [20, 40) passes decay exponent 700 by t = 27,
        # so P reads 0 and stays 0 through the next growth phase, where
        # exp(-x) underflows to zero (no inf * 0)
        params = LogisticParams(1.0, 0.5, 0.0)
        cap = TwoPhase(100.0, -100.0, 40.0)
        assert quadrature_solution(params, cap, 30.0) == 0.0
        assert quadrature_solution(params, cap, 50.0) == 0.0
        traj = two_phase_trajectory(params, cap, 60.0, 5.0)
        assert np.all(traj.populations[6:] == 0.0)

    def test_trajectory_sampling_grid(self):
        cap = TwoPhase(1.0, 2.0, 1.0)
        traj = two_phase_trajectory(LogisticParams(1.0, 0.5, 0.0), cap, 2.0, 0.4)
        assert np.allclose(traj.times, [0.0, 0.4, 0.8, 1.2, 1.6, 2.0])

    def test_rejects_bad_sampling(self):
        cap = TwoPhase(1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            two_phase_trajectory(LogisticParams(1.0, 0.5, 0.0), cap, 2.0, 0.0)
        with pytest.raises(ValueError):
            two_phase_trajectory(LogisticParams(1.0, 0.5, 1.0), cap, 0.5, 0.1)
        with pytest.raises(ValueError, match="t_end must be finite"):
            two_phase_trajectory(LogisticParams(1.0, 0.5, 0.0), cap, math.inf, 0.1)


class TestQuadratureSolution:
    def test_constant_capacity_reduces_to_closed_form(self):
        params = LogisticParams(1.0, 0.5, 0.0)
        cap = Constant(1.0)
        for t in np.linspace(0.0, 6.0, 25):
            exact = logistic_constant(params, 1.0, float(t))
            quad = quadrature_solution(params, cap, float(t), TIGHT)
            assert quad == pytest.approx(exact, rel=1e-9)

    def test_two_phase_matches_integrator(self):
        # square waves take the closed-form step; the integrator is the
        # independent route
        cap = TwoPhase(1.0, 3.0, 2.0)
        params = LogisticParams(0.9, 0.6, 0.0)
        for t in (0.7, 1.0, 1.9, 2.5, 4.0):
            numeric = integrate_logistic(params, cap, t, TIGHT).final
            quad = quadrature_solution(params, cap, t, TIGHT)
            assert quad == pytest.approx(numeric, rel=1e-9)

    def test_sinusoid_matches_integrator(self):
        cap = SinusoidOffset(2.0, 0.5, 3.0)
        params = LogisticParams(1.0, 1.0, 0.0)
        numeric = integrate_logistic(params, cap, 4.0, TIGHT).final
        quad = quadrature_solution(params, cap, 4.0, TIGHT)
        assert quad == pytest.approx(numeric, rel=1e-8)

    def test_subnormal_level_is_the_zero_level(self):
        # r * m * tau is subnormal on the 5e-324 level, where expm1(-x) / m
        # kept no digit: P(24) read 0.6438099 for level 0's 0.3399539
        r, p0, period = 0.8275370579085838, 1.1480107280426515, 0.6433341043372951
        params = LogisticParams(r, p0)
        tiny, zero = TwoPhase(5e-324, period, r), TwoPhase(0.0, period, r)
        assert quadrature_solution(params, tiny, 24.0) == quadrature_solution(params, zero, 24.0)
        assert quadrature_solution(params, zero, 24.0) == pytest.approx(0.3399539, abs=1e-7)

    def test_long_horizon_past_the_exponent_bound(self):
        # r * integral of M is ~720 at t = 360, yet P stays O(1)
        params = LogisticParams(1.0, 0.5)
        cap = SinusoidOffset(2.0, 0.5, 3.0)
        numeric = integrate_logistic(params, cap, 360.0, SolverConfig(max_iterations=100_000)).final
        assert quadrature_solution(params, cap, 360.0) == pytest.approx(numeric, rel=1e-8)

    def test_tight_tolerance_on_a_long_horizon(self):
        # the error target is global, so the panel next to t = 374 is not
        # held to a width-proportional share (~3e-15 on an integral of
        # ~0.16) below the noise that rounding the abscissae near t leaves
        # in the weight (~r M ulp(t) ~ 3e-13 relative)
        params = LogisticParams(2.0, 1.0)
        cap = SinusoidOffset(3.0, 0.0, 1.0)
        assert quadrature_solution(params, cap, 374.0, TIGHT) == pytest.approx(3.0, rel=1e-9)

    def test_short_horizon_sinusoid_meets_the_tolerance(self):
        # a closed-form case once accepted 1.3e-7 off, against rel_tol 1e-8,
        # after one 3-point vs 5-point comparison agreed by chance
        params = LogisticParams(1.0535658911839574, 0.8395341664910148)
        cap = SinusoidOffset(2.4697327316602875, 0.6998981940009735, 2.707583727239136)
        ref = integrate_logistic(params, cap, 3.5, SolverConfig(abs_tol=1e-15, rel_tol=1e-13)).final
        assert quadrature_solution(params, cap, 3.5) == pytest.approx(ref, rel=1e-9)

    def test_user_schedule_written_for_floats(self):
        # a subclass outside the package, whose integral takes floats only:
        # a plain bounds test and math.cos, both of which refuse an array
        class FloatSinusoid(CapacitySchedule):
            mean, amplitude, period = 2.0, 0.5, 3.0

            def at(self, t):
                return self.mean + self.amplitude * math.sin(2.0 * math.pi * t / self.period)

            def integral(self, t0, t1):
                assert type(t0) is float and type(t1) is float
                if t1 < t0:
                    raise ValueError("bounds out of order")
                w = 2.0 * math.pi / self.period
                return self.mean * (t1 - t0) + self.amplitude / w * (math.cos(w * t0) - math.cos(w * t1))

            def derivative(self, t):
                w = 2.0 * math.pi / self.period
                return self.amplitude * w * math.cos(w * t)

            def min_value(self):
                return self.mean - self.amplitude

            def max_value(self):
                return self.mean + self.amplitude

        params = LogisticParams(1.0, 1.0, 0.0)
        for t in (4.0, 40.0):
            want = quadrature_solution(params, SinusoidOffset(2.0, 0.5, 3.0), t, TIGHT)
            assert quadrature_solution(params, FloatSinusoid(), t, TIGHT) == pytest.approx(want, rel=1e-9)

    def test_negative_capacity_below_float_range_is_a_domain_error(self):
        # M < 0 throughout: P decays like exp(-800), below the float range
        params = LogisticParams(1.0, 0.5)
        with pytest.raises(ExponentOverflowError):
            quadrature_solution(params, SinusoidOffset(-1.0, 0.5, 3.0), 800.0)

    @pytest.mark.parametrize("cap, t", [
        (SinusoidOffset(1e308, 5e307, 3.0), 2.0),
        (Tabulated([0.0, 1.0, 2.0, 3.0], [8e307] * 4), 3.0),
    ])
    def test_capacity_integral_past_the_float_range_is_a_domain_error(self, cap, t):
        # the integral of M over [0, t] overflows, and a weight
        # exp(-1e-308 * inf) read 0: P was about 1e308 where RK45 gives 10.6
        # and 11.0
        with pytest.raises(ExponentOverflowError, match="capacity integral leaves the float range"):
            quadrature_solution(LogisticParams(1e-308, 1.0), cap, t)

    def test_a_boundary_layer_narrower_than_the_floats_near_t_is_a_domain_error(self):
        # the weight falls from 1 to 0 within 4 / (r max|M|) ~ 2.7e-308 of
        # t = 3, where floats are 4.4e-16 apart: P read 2.25e15 for about 1e308
        with pytest.raises(ExponentOverflowError, match="boundary layer"):
            quadrature_solution(LogisticParams(1.0, 1.0), SinusoidOffset(1e308, 5e307, 3.0), 3.0)

    @pytest.mark.parametrize("t", [3.0, 1e6])
    def test_a_boundary_layer_of_enough_floats_keeps_the_constant_solution(self, t):
        # zero-amplitude sinusoids take the quadrature route; a layer 2**17
        # float spacings wide keeps logistic_constant's value to the node
        # rounding, and one of 2**15 raises
        params = LogisticParams(1.0, 0.5)
        for floats in (2.0**17, 2.0**15):
            m = 4.0 / (floats * math.ulp(t))
            if floats > 2.0**16:
                got = quadrature_solution(params, SinusoidOffset(m, 0.0, 3.0), t)
                assert got == pytest.approx(logistic_constant(params, m, t), rel=2e-5)
            else:
                with pytest.raises(ExponentOverflowError, match="boundary layer"):
                    quadrature_solution(params, SinusoidOffset(m, 0.0, 3.0), t)
        # at t0 there is no quadrature and no layer to resolve
        assert quadrature_solution(params, SinusoidOffset(1e308, 0.0, 3.0), 0.0) == 0.5

    def test_an_infinite_integral_weighs_zero_where_any_finite_one_would(self):
        # r * (the largest float) > 745: the true weight underflows to 0
        got = quadrature_solution(LogisticParams(1e-305, 1.0), SinusoidOffset(1e308, 5e307, 3.0), 3.0)
        assert got == pytest.approx(1e308, rel=2e-3)

    def test_zero_initial_population_stays_zero(self):
        params = LogisticParams(1.0, 0.0, 0.0)
        assert quadrature_solution(params, Constant(2.0), 3.0) == 0.0

    def test_initial_time_recovers_p0(self):
        params = LogisticParams(1.0, 0.7, 1.5)
        assert quadrature_solution(params, Constant(2.0), 1.5) == pytest.approx(0.7)

    def test_rejects_backward_time(self):
        params = LogisticParams(1.0, 0.7, 0.0)
        with pytest.raises(ValueError):
            quadrature_solution(params, Constant(1.0), -0.5)


class TestOnePassOverTimes:
    # t0 inside a cycle, times on switch times and table knots, p0 = 0
    @pytest.mark.parametrize(
        "cap, params, dt",
        [
            (Constant(2.0), LogisticParams(1.0, 0.5), 0.5),
            (Constant(-0.5), LogisticParams(1.3, 2.0, 0.25), 0.75),
            (TwoPhase(1.0, 3.0, 2.0), LogisticParams(1.2, 0.8, 0.5), 0.5),
            (TwoPhase(-1.0, 3.0, 2.0), LogisticParams(1.3, 2.5, 1.5), 0.25),
            (TwoPhase(1.0, 3.0, 2.0), LogisticParams(1.0, 0.0, 0.3), 0.5),
            (SinusoidOffset(2.0, 0.5, 3.0), LogisticParams(1.0, 0.5, 0.7), 0.75),
            (Tabulated(np.linspace(0.0, 6.0, 13), 2.0 + np.sin(np.linspace(0.0, 6.0, 13))),
             LogisticParams(1.0, 1.5, 0.25), 0.25),
        ],
    )
    def test_each_value_is_the_single_time_value(self, cap, params, dt):
        times = (params.t0 + dt * np.arange(20)).tolist()
        alone = [reciprocal_solution(params, cap, t) for t in times]
        assert _propagate(params, cap, times, None).tobytes() == np.array(alone).tobytes()


class TestBatchWeights:
    # the quadrature's weights check a whole batch of nodes at once, and
    # must give each node's one-area floats, or raise the one-area error of
    # the first node that fails, in order
    TINY_R = 1e-310  # exp(-r * the largest float) > 0: an infinite area is unknown

    @staticmethod
    def _loop(r, areas):
        return [_weights(r, [a])[0] for a in areas]

    @pytest.mark.parametrize(
        "r, areas",
        [
            (1.0, [0.5, -1.0, 0.0, -0.0, 3.0]),
            # an infinite area at an ordinary rate: the weight is 0, no error
            (1.0, [1.0, math.inf, 2.0]),
            (TINY_R, [1.0, -1e300, 1e300]),
        ],
    )
    def test_the_loops_floats(self, r, areas):
        got = _weights(r, areas)
        assert all(type(w) is float for w in got)
        assert [w.hex() for w in got] == [w.hex() for w in self._loop(r, areas)]

    @pytest.mark.parametrize(
        "r, areas, message",
        [
            # one failing kind alone in its batch, then each before the other
            (1.0, [1.0, math.nan, 2.0], "the capacity integral leaves the float range"),
            (TINY_R, [1.0, math.inf, 2.0], "the capacity integral leaves the float range"),
            (1.0, [1.0, -701.0, 2.0], "weight exponent 701 > 700"),
            (1.0, [1.0, math.nan, -701.0], "the capacity integral leaves the float range"),
            (1.0, [1.0, -701.0, math.nan], "weight exponent 701 > 700"),
            (TINY_R, [1.0, math.inf, -math.inf], "the capacity integral leaves the float range"),
            (TINY_R, [1.0, -math.inf, math.inf], "weight exponent inf > 700"),
            (1.0, [-750.0, math.nan], "weight exponent 750 > 700"),
            # +inf beside -inf: the sum is NaN, the first failing exponent decides
            (1.0, [math.inf, -800.0], "weight exponent 800 > 700"),
        ],
    )
    def test_the_first_failing_node_raises(self, r, areas, message):
        for call in (_weights, self._loop):
            with pytest.raises(ExponentOverflowError) as raised:
                call(r, areas)
            assert str(raised.value) == message


class TestReciprocalSolution:
    def test_known_value(self):
        # reciprocal of the frozen 3/4 value is exactly 4/3
        params = LogisticParams(1.0, 0.5, 0.0)
        z = reciprocal_solution(params, Constant(1.0), math.log(3.0), TIGHT)
        assert z == pytest.approx(4.0 / 3.0, rel=1e-9)

    def test_product_with_population_is_one(self):
        cap = SinusoidOffset(1.5, 0.5, 2.0)
        params = LogisticParams(0.8, 0.4, 0.0)
        for t in (0.5, 1.0, 2.7):
            p = quadrature_solution(params, cap, t, TIGHT)
            z = reciprocal_solution(params, cap, t, TIGHT)
            assert p * z == pytest.approx(1.0, rel=1e-12)

    def test_zero_population_has_infinite_reciprocal(self):
        params = LogisticParams(1.0, 0.0, 0.0)
        assert reciprocal_solution(params, Constant(1.0), 2.0) == math.inf

    def test_zero_population_stays_infinite_on_long_horizons(self):
        params = LogisticParams(1.0, 0.0, 0.0)
        assert reciprocal_solution(params, SinusoidOffset(2.0, 0.5, 3.0), 800.0) == math.inf

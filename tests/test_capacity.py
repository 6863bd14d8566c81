import bisect
import math
import warnings

import numpy as np
import pytest

from oscpop import (
    CapacitySchedule,
    Constant,
    ConvergenceError,
    LogisticParams,
    NonDifferentiableError,
    ScheduleRangeError,
    SinusoidOffset,
    SolverConfig,
    Tabulated,
    TwoPhase,
    integrate_logistic,
    integrate_riccati,
    load_capacity_csv,
    parse_schedule,
)
from oscpop.capacity import TWO_PI
from oscpop.periodic import orbit_identity_residual
from reference import ReferenceTable, near, outcome


class TestSolverConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert cfg.abs_tol > 0 and cfg.rel_tol > 0
        assert cfg.min_step < cfg.max_step

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": 0.0},
            {"rel_tol": -1e-8},
            {"min_step": 0.0},
            {"min_step": 2.0, "max_step": 1.0},
            {"max_iterations": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs", [{"abs_tol": math.inf}, {"rel_tol": math.inf}, {"rel_tol": math.nan}]
    )
    def test_rejects_non_finite_tolerances(self, kwargs):
        # an infinite tolerance accepts every step, and the state diverges
        with pytest.raises(ValueError, match="tolerances must be positive and finite"):
            SolverConfig(**kwargs)


class TestBaseSchedule:
    @pytest.mark.parametrize(
        "call",
        [lambda s: s.at(0.0), lambda s: s.integral(0.0, 1.0), lambda s: s.derivative(0.0), lambda s: s.min_value()],
        ids=["at", "integral", "derivative", "min_value"],
    )
    def test_queries_are_left_to_subclasses(self, call):
        with pytest.raises(NotImplementedError):
            call(CapacitySchedule())


class TestConstant:
    def test_value_everywhere(self):
        cap = Constant(2.5)
        for t in (-10.0, 0.0, 3.7, 1e6):
            assert cap.at(t) == 2.5

    def test_integral_linear(self):
        cap = Constant(-1.5)
        assert cap.integral(2.0, 6.0) == -6.0
        assert cap.integral(3.0, 3.0) == 0.0

    def test_integral_rejects_reversed_bounds(self):
        with pytest.raises(ValueError):
            Constant(1.0).integral(1.0, 0.0)

    def test_derivative_zero(self):
        assert Constant(4.0).derivative(1.23) == 0.0

    def test_extrema_are_the_level(self):
        assert (Constant(-1.5).min_value(), Constant(-1.5).max_value()) == (-1.5, -1.5)

    def test_period_declaration(self):
        assert Constant(1.0).period is None
        assert Constant(1.0, declared_period=2.5).period == 2.5
        with pytest.raises(ValueError):
            Constant(1.0, declared_period=-1.0)


class TestTwoPhase:
    def test_left_closed_pieces(self):
        cap = TwoPhase(1.0, 3.0, 2.0)
        assert cap.at(0.0) == 1.0
        assert cap.at(0.999) == 1.0
        assert cap.at(1.0) == 3.0  # switch time belongs to the new piece
        assert cap.at(1.999) == 3.0
        assert cap.at(2.0) == 1.0

    def test_rejects_a_period_whose_half_underflows(self):
        # the switch times are multiples of period / 2
        with pytest.raises(ValueError, match="half the period"):
            TwoPhase(1.0, 3.0, 5e-324)
        assert TwoPhase(1.0, 3.0, 1e-323).breakpoints_between(0.0, 2e-323) == [5e-324, 1e-323, 1.5e-323]

    def test_periodic_extension_negative_times(self):
        cap = TwoPhase(1.0, 3.0, 2.0)
        assert cap.at(-2.0) == cap.at(0.0)
        assert cap.at(-0.5) == cap.at(1.5)

    def test_integral_one_cycle(self):
        cap = TwoPhase(1.0, 3.0, 2.0)
        # one full cycle: 1*1 + 3*1
        assert cap.integral(0.0, 2.0) == pytest.approx(4.0, abs=1e-14)

    def test_integral_partial_pieces(self):
        cap = TwoPhase(2.0, 5.0, 4.0)
        assert cap.integral(1.0, 3.0) == pytest.approx(2.0 * 1.0 + 5.0 * 1.0, abs=1e-12)
        assert cap.integral(0.5, 0.75) == pytest.approx(0.5, abs=1e-14)

    def test_integral_additivity_sweep(self):
        rng = np.random.default_rng(42)
        cap = TwoPhase(0.7, 2.9, 1.7)
        for _ in range(200):
            a, b, c = np.sort(rng.uniform(-20.0, 20.0, size=3))
            whole = cap.integral(float(a), float(c))
            split = cap.integral(float(a), float(b)) + cap.integral(float(b), float(c))
            assert abs(whole - split) <= 1e-12 * max(1.0, abs(whole))

    def test_first_period_integral_of_an_overflowing_sum(self):
        # no whole cycle was 0 * (m1 + m2) * half, nan once m1 + m2 overflows
        cap = TwoPhase(1e308, 1e308, 1.0)
        assert cap.integral(0.0, 0.25) == 2.5e307
        assert cap.integral(0.5, 0.75) == 2.5e307

    def test_whole_cycles_of_an_overflowing_sum(self):
        # k * (m1 + m2) * half was inf for a true 5e307
        cap = TwoPhase(1e308, 1e308, 1.0)
        assert cap.integral(0.5, 1.0) == 5e307
        assert cap.integral(0.0, 1.0) == 1e308
        assert cap.integral(1.0, 1.75) == 7.5e307

    @pytest.mark.parametrize("period", [0.1, 0.3, 1.0 / 3.0, 0.7, 1e-3])
    def test_switch_times_start_their_pieces(self, period):
        # at and derivative took t % period, which at most of these switch
        # times gave the previous piece's level and a slope of 0.0
        cap = TwoPhase(1.0, 3.0, period)
        pieces = list(cap.pieces(0.0, 2000.0 * period))[1:4000]
        assert len(pieces) == 3999
        for k, (lo, _, value, _) in enumerate(pieces, start=1):
            assert lo == k * (0.5 * period)
            assert cap.at(lo) == value(lo) == (3.0 if k % 2 else 1.0)
            with pytest.raises(NonDifferentiableError):
                cap.derivative(lo)

    @pytest.mark.parametrize("period, t0, t1, switch", [
        (0.1, 7.8, 7.9, 7.800000000000001),
        (1.0 / 3.0, 10.999999999999998, 11.1, 11.0),
    ])
    def test_switch_an_ulp_after_the_start(self, period, t0, t1, switch):
        # floor(t0 / half) rounded up past this switch, which was skipped
        cap = TwoPhase(1.0, 3.0, period)
        assert math.nextafter(t0, math.inf) == switch
        assert cap.breakpoints_between(t0, t1)[0] == switch
        (lo, hi, first, _), (start, _, second, _) = list(cap.pieces(t0, t1))[:2]
        assert (lo, hi, start) == (t0, switch, switch)
        assert first(t0) == cap.at(t0) and second(switch) == cap.at(switch) != cap.at(t0)

    def test_switches_closer_than_the_floats_are_a_usage_error(self):
        # 2e20 switches from 0, where neighbouring k * half round to one
        # float: the walk skipped the empty pieces; now the grid ends at
        # 2**52 half periods, before the first piece and the first step
        cap = TwoPhase(1.0, 3.0, 1e-20)
        with pytest.raises(ValueError, match=r"at most 2\*\*52"):
            next(cap.pieces(1.0, 1.0 + 1e-15))
        with pytest.raises(ValueError, match=r"at most 2\*\*52"):
            integrate_logistic(LogisticParams(1.0, 0.5, 1.0), cap, 1.0 + 1e-15)

    def test_a_walk_past_the_switch_grid_fails_before_its_first_piece(self):
        # 2e301 switches from 0 to 10: the walk ran until killed
        with pytest.raises(ValueError, match=r"got t=10.0 for half period 5e-301"):
            next(TwoPhase(1.0, 3.0, 1e-300).pieces(0.0, 10.0))

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 1e10])
    def test_switch_index_past_the_float_range(self, t):
        # 1e10 / 5e-301 overflows: math.floor raised OverflowError, and the
        # integral still raises it
        cap = TwoPhase(1.0, 3.0, 1e-300)
        for query in (cap.at, cap.derivative, lambda t: cap.breakpoints_between(t, t + 1.0),
                      lambda t: list(cap.pieces(-1.0, t)), lambda t: cap.integral(t, t)):
            with pytest.raises(ValueError, match="switch times need finite bounds"):
                query(t)

    def test_derivative_flat_inside_pieces(self):
        cap = TwoPhase(1.0, 3.0, 2.0)
        assert cap.derivative(0.4) == 0.0
        assert cap.derivative(1.6) == 0.0

    def test_derivative_undefined_at_switch(self):
        cap = TwoPhase(1.0, 3.0, 2.0)
        for t in (0.0, 1.0, 2.0, -1.0, 7.0):
            with pytest.raises(NonDifferentiableError):
                cap.derivative(t)

    @pytest.mark.parametrize("t", [-1e-17, -1.1e-308])
    def test_just_below_a_switch_at_negative_time(self, t):
        # t % period rounds up to period here; t still lies in the m2 half
        cap = TwoPhase(1.0, 3.0, 2.0)
        assert cap.at(t) == 3.0
        assert cap.derivative(t) == 0.0

    def test_breakpoints_strictly_interior(self):
        cap = TwoPhase(1.0, 3.0, 2.0)
        assert cap.breakpoints_between(0.0, 2.0) == [1.0]
        assert cap.breakpoints_between(0.0, 4.0) == [1.0, 2.0, 3.0]
        assert cap.breakpoints_between(1.0, 2.0) == []
        assert cap.breakpoints_between(0.9, 1.1) == [1.0]

    def test_piece_value_one_sided(self):
        cap = TwoPhase(1.0, 3.0, 2.0)
        (_, _, left, left_slope), (_, _, right, _) = cap.pieces(0.0, 2.0)
        # evaluating at the right edge of a piece must use that piece
        assert left(1.0) == 1.0
        assert right(1.0) == 3.0
        assert left_slope(1.0) == 0.0

    def test_extrema(self):
        cap = TwoPhase(3.0, -1.0, 2.0)
        assert cap.min_value() == -1.0
        assert cap.max_value() == 3.0

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            TwoPhase(1.0, 2.0, 0.0)


class TestSinusoidOffset:
    def test_values(self):
        cap = SinusoidOffset(2.0, 0.5, 4.0)
        assert cap.at(0.0) == pytest.approx(2.0, abs=1e-15)
        assert cap.at(1.0) == pytest.approx(2.5, abs=1e-15)
        assert cap.at(3.0) == pytest.approx(1.5, abs=1e-15)

    def test_integral_half_cycle(self):
        # mean 0, amplitude 1, period 2*pi: integral of sin over [0, pi] is 2
        cap = SinusoidOffset(0.0, 1.0, 2.0 * math.pi)
        assert cap.integral(0.0, math.pi) == pytest.approx(2.0, abs=1e-12)

    def test_integral_full_cycle_is_mean_mass(self):
        cap = SinusoidOffset(1.7, 0.9, 3.0)
        assert cap.integral(0.0, 3.0) == pytest.approx(1.7 * 3.0, abs=1e-12)

    def test_integral_matches_dense_trapezoid(self):
        cap = SinusoidOffset(1.2, 0.8, 2.5)
        ts = np.linspace(0.3, 4.1, 200_001)
        vals = np.array([cap.at(float(t)) for t in ts])
        approx = float(np.trapezoid(vals, ts))
        assert cap.integral(0.3, 4.1) == pytest.approx(approx, abs=1e-9)

    def test_derivative_matches_finite_difference(self):
        cap = SinusoidOffset(2.0, 0.5, 3.0)
        rng = np.random.default_rng(7)
        eps = 1e-6
        for t in rng.uniform(-5.0, 5.0, size=50):
            fd = (cap.at(float(t) + eps) - cap.at(float(t) - eps)) / (2.0 * eps)
            assert cap.derivative(float(t)) == pytest.approx(fd, abs=1e-7)

    def test_periodicity_large_times(self):
        # phase reduction keeps values consistent far from the origin
        cap = SinusoidOffset(1.0, 0.5, 2.0)
        t = 0.37
        shifted = t + 1_000_000 * 2.0
        assert cap.at(shifted) == pytest.approx(cap.at(t), abs=1e-9)

    def test_extrema(self):
        cap = SinusoidOffset(1.0, -2.0, 5.0)
        assert cap.min_value() == -1.0
        assert cap.max_value() == 3.0

    @pytest.mark.parametrize("cap", [SinusoidOffset(2.0, 0.7, 3.0), SinusoidOffset(-1.3, 2.5, 0.37)])
    def test_piece_closures_are_bit_equal_far_out(self, cap):
        # the property test samples |t| <= 40; these reach where phase
        # reduction rounds: far from the origin, just below zero, and one
        # ulp below a period multiple
        below = [math.nextafter(k * cap.period, -math.inf) for k in (1, 7, -4)]
        (_, _, value, slope), = cap.pieces(-2e6, 2e6)
        for t in (1e6 + 0.3, -(1e6 + 0.3), -1e-17, *below):
            assert value(t) == cap.at(t)
            assert slope(t) == cap.derivative(t)


class TestTabulated:
    def make(self):
        return Tabulated.from_pairs([(0.0, 1.0), (1.0, 3.0), (2.5, 0.0)])

    def test_interpolates(self):
        cap = self.make()
        assert cap.at(0.0) == 1.0
        assert cap.at(0.5) == 2.0
        assert cap.at(1.0) == 3.0
        assert cap.at(1.75) == pytest.approx(1.5, abs=1e-15)

    def test_out_of_range_raises(self):
        cap = self.make()
        with pytest.raises(ScheduleRangeError):
            cap.at(-0.001)
        with pytest.raises(ScheduleRangeError):
            cap.at(2.5001)
        with pytest.raises(ScheduleRangeError):
            cap.integral(0.0, 3.0)

    @pytest.mark.parametrize("integrate", [integrate_logistic, integrate_riccati])
    def test_integrators_do_not_extrapolate(self, integrate):
        cap = self.make()
        for params, t_end in ((LogisticParams(1.0, 0.5), 6.0), (LogisticParams(1.0, 0.5, -1.0), 2.0)):
            with pytest.raises(ScheduleRangeError):
                integrate(params, cap, t_end)
        with pytest.raises(ScheduleRangeError):
            list(cap.pieces(0.0, 2.6))
        assert integrate(LogisticParams(1.0, 0.5), cap, 2.5).final > 0.0

    def test_integral_exact_trapezoids(self):
        cap = self.make()
        # piecewise-linear areas: [0,1] -> 2, [1,2.5] -> 1.5*1.5 = 2.25
        assert cap.integral(0.0, 2.5) == pytest.approx(4.25, abs=1e-14)
        assert cap.integral(0.5, 1.0) == pytest.approx(0.5 * (2.0 + 3.0) * 0.5, abs=1e-14)

    def test_integral_from_a_knot_of_an_overflowing_segment(self):
        # the partial area at a knot was 0 * inf = nan where v_k + v_k overflows
        cap = Tabulated([0.0, 1.0, 2.0], [1.5e308, 1.5e308, 1e308])
        assert cap.integral(0.0, 2.0) == math.inf
        # and a knot still gives the zero of the sign 0 * v_k takes
        assert math.copysign(1.0, Tabulated([0.0, 1.0, 2.0], [-0.0, -0.0, -1.0]).integral(0.0, 1.0)) == -1.0

    def test_integrals_of_a_huge_table_are_finite_where_representable(self):
        # a sum of two samples and the running area from the first knot
        # overflowed: inf for a true 1.5e308, nan for the rest
        cap = Tabulated([0.0, 1.0, 2.0], [1.5e308, 1.5e308, 1e308])
        assert cap.integral(0.0, 1.0) == 1.5e308
        assert cap.integral(1.0, 2.0) == 1.25e308
        assert cap.integral(0.5, 1.5) == 1.4375e308
        assert cap.integral(1.5, 2.0) == 5.625e307
        assert cap.integral(0.0, 2.0) == math.inf  # 2.75e308

    def test_a_segment_whose_samples_differ_past_the_float_range_is_finite(self):
        # np.interp's slope (v1 - v0) / gap and the piece's slope overflowed:
        # -inf for a true 0 and 3.75e307, and nan for a piece at its knot
        cap = Tabulated([0.0, 1.0, 2.0], [1.5e308, -1.5e308, 1e308])
        assert [cap.at(t) for t in (0.5, 0.25, 1.5)] == [0.0, 7.5e307, -2.5e307]
        assert cap.integral(0.0, 0.5) == 3.75e307
        assert cap._integrals_to(np.array([0.0, 0.25]), 0.5) == [3.75e307, 9.375e306]
        assert cap.integral(0.25, 1.75) == -7.03125e307
        values = [value(t) for lo, hi, value, _ in cap.pieces(0.0, 2.0) for t in (lo, 0.5 * (lo + hi), hi)]
        assert values == [1.5e308, 0.0, -1.5e308, -1.5e308, -2.5e307, 1e308]
        # the knots keep their samples, and a slope in range is finite
        assert [cap.at(t) for t in (0.0, 1.0, 2.0)] == [1.5e308, -1.5e308, 1e308]
        assert Tabulated([0.0, 2.0], [1.5e308, -1.5e308]).derivative(1.0) == -1.5e308

    def test_a_segment_whose_slope_alone_passes_the_float_range_is_finite(self):
        # the last segment's difference -1e308 is finite but its slope over
        # the 0.5 gap is not: at(2.75) was -inf for a true 5e307, and the
        # piece's value at its own left knot nan
        cap = Tabulated([0.0, 1.0, 2.5, 3.0], [1.0, -1.5e308, 1e308, 2.0])
        assert cap.at(2.75) == 5e307
        for lo, _, value, _ in cap.pieces(0.0, 3.0):
            assert math.isfinite(value(lo))
        assert integrate_logistic(LogisticParams(1e-307, 0.5), cap, 3.0).final > 0.0

    def test_a_segment_steeper_than_twice_the_float_range_is_finite(self):
        # the slope -2e309 needs a scale past 2, the halving of a sample
        # difference past the float range: at(0.05) was -inf for a true 0
        cap = Tabulated([0.0, 0.1], [1e308, -1e308])
        assert abs(cap.at(0.05)) <= 1e293
        assert cap.integral(0.0, 0.05) == pytest.approx(2.5e306, rel=1e-15)

    def test_a_slope_past_every_finite_scale_is_infinite_between_the_knots(self):
        # 1e308 over a subnormal gap needs a scale past 2**1023, the largest
        # finite one: between the knots M and its slope are +inf, not nan
        cap = Tabulated([0.0, 1e-310], [0.0, 1e308])
        assert cap.at(5e-311) == cap.derivative(5e-311) == math.inf
        assert [cap.at(0.0), cap.at(1e-310)] == [0.0, 1e308]

    def test_a_gap_past_the_float_range_reads_the_right_knot_where_the_line_is_nan(self):
        # 9e307 - -1e308 overflows, so the line from the left knot gives
        # 0 * inf; like np.interp, M is then read from the right knot
        cap = Tabulated([-1e308, 1e308], [1.0, 2.0])
        assert cap.at(9e307) == ReferenceTable(cap.times, cap.values).at(9e307) == 2.0
        assert cap.integral(-1e308, 9e307) == math.inf  # a true 2.8e308

    @pytest.mark.parametrize("shift", [False, True])
    def test_stage_evaluator_of_a_segment_whose_samples_differ_past_the_float_range(self, shift):
        # the RK45 loop's one call per step gives what the piece's value and
        # slope give at each stage time, on a scaled line too
        cap = Tabulated([0.0, 1.0, 2.0], [1.5e308, -1.5e308, 1e308])
        walk, stages = cap._staged_pieces(0.0, 2.0, shift)
        for lo, hi, value, slope in walk:
            ts = [lo + f * (hi - lo) for f in (0.2, 0.3, 0.8, 8 / 9)] + [hi]
            expected = [value(t) for t in ts] + ([slope(t) for t in ts] if shift else [])
            assert [x.hex() for x in stages(*ts)] == [x.hex() for x in expected]

    def test_integral_matches_dense_trapezoid(self):
        cap = self.make()
        ts = np.linspace(0.2, 2.3, 100_001)
        vals = np.array([cap.at(float(t)) for t in ts])
        assert cap.integral(0.2, 2.3) == pytest.approx(float(np.trapezoid(vals, ts)), abs=1e-8)

    def test_derivative_inside_segments(self):
        cap = self.make()
        assert cap.derivative(0.5) == pytest.approx(2.0, abs=1e-15)
        assert cap.derivative(2.0) == pytest.approx(-2.0, abs=1e-15)

    def test_derivative_undefined_at_samples(self):
        cap = self.make()
        for t in (0.0, 1.0, 2.5):
            with pytest.raises(NonDifferentiableError):
                cap.derivative(t)

    def test_breakpoints_are_sample_times(self):
        cap = self.make()
        assert cap.breakpoints_between(0.0, 2.5) == [1.0]
        assert cap.breakpoints_between(-1.0, 5.0) == [0.0, 1.0, 2.5]

    def test_piece_evaluation_at_kink(self):
        cap = self.make()
        (_, _, left, left_slope), (_, _, _, right_slope) = cap.pieces(0.0, 2.5)
        assert left(1.0) == pytest.approx(3.0, abs=1e-15)
        assert left_slope(1.0) == pytest.approx(2.0, abs=1e-15)
        assert right_slope(1.0) == pytest.approx(-2.0, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            Tabulated.from_pairs([(0.0, 1.0)])
        with pytest.raises(ValueError):
            Tabulated.from_pairs([(0.0, 1.0), (0.0, 2.0)])
        with pytest.raises(ValueError):
            Tabulated.from_pairs([(0.0, 1.0), (1.0, math.nan)])
        with pytest.raises(ValueError, match="1-D arrays of equal length"):
            Tabulated(np.array([[0.0, 1.0], [2.0, 3.0]]), np.array([[1.0, 2.0], [1.0, 2.0]]))

    def test_declared_period(self):
        cap = Tabulated.from_pairs([(0.0, 1.0), (2.0, 1.0)], declared_period=2.0)
        assert cap.period == 2.0
        assert self.make().period is None


def _ragged_table():
    rng = np.random.default_rng(7)
    times = np.concatenate(([0.1], 0.1 + np.cumsum(rng.uniform(0.01, 0.7, 60))))
    return Tabulated(times, rng.uniform(-0.5, 3.0, times.size))


class TestTabulatedLookup:
    """Every Tabulated query matches a reference that locates segments
    with np.searchsorted, bit for bit, on and next to every sample time."""

    @staticmethod
    def probes(cap):
        ts = cap.times
        return near(np.concatenate((ts, 0.5 * (ts[1:] + ts[:-1])))).tolist()

    @pytest.fixture(params=["three-row", "ragged"])
    def cap(self, request):
        if request.param == "three-row":
            return Tabulated.from_pairs([(0.0, 1.0), (1.0, 3.0), (2.5, 0.0)])
        return _ragged_table()

    def test_point_queries_match_reference(self, cap):
        ref, lo, hi = ReferenceTable(cap.times, cap.values), cap.times[0], cap.times[-1]
        inside = [t for t in self.probes(cap) if lo <= t <= hi]
        for t in inside:
            assert cap.at(t) == ref.at(t)
            assert cap.integral(lo, t) == ref.integral(lo, t)
            # a sample time raises NonDifferentiableError on both
            assert outcome(cap.derivative, t) == outcome(ref.derivative, t)

    def test_piece_queries_match_reference(self, cap):
        ref, lo, hi = ReferenceTable(cap.times, cap.values), cap.times[0], cap.times[-1]
        inside = [t for t in self.probes(cap) if lo <= t <= hi]
        for a, b in zip(inside[:-1], inside[1:]):
            assert cap.integral(a, b) == ref.integral(a, b)
            # no sample time lies strictly between neighbouring probes
            [(_, _, value, slope)] = cap.pieces(a, b)
            v0, t0, s = ref.piece(a, b)
            for t in (a, b):
                assert value(t) == v0 + s * (t - t0)
                assert slope(t) == s

    def test_walks_match_reference(self, cap):
        # multi-piece walks between probes: each piece is cut at the knots and
        # takes the line of its midpoint's segment, one-float-wide ends included
        ref = ReferenceTable(cap.times, cap.values)
        inside = [t for t in self.probes(cap) if cap.times[0] <= t <= cap.times[-1]]
        for a in inside[::5]:
            for b in [b for b in inside[::7] if b >= a]:
                pieces = list(cap.pieces(a, b))
                cuts = cap.breakpoints_between(a, b)
                assert [(lo, hi) for lo, hi, *_ in pieces] == list(zip([a, *cuts], [*cuts, b]))
                for lo, hi, value, slope in pieces:
                    v0, t0, s = ref.piece(lo, hi)
                    for t in (lo, hi):
                        assert value(t) == v0 + s * (t - t0)
                        assert slope(t) == s

    def test_one_ulp_outside_the_range_raises(self, cap):
        lo, hi = cap.times[0], cap.times[-1]
        for t in (np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)):
            for query in (cap.at, cap.derivative):
                with pytest.raises(ScheduleRangeError):
                    query(float(t))
        with pytest.raises(ScheduleRangeError):
            cap.integral(float(np.nextafter(lo, -np.inf)), hi)
        with pytest.raises(ScheduleRangeError):
            cap.integral(lo, float(np.nextafter(hi, np.inf)))

    def test_nan_time_is_out_of_range(self, cap):
        for query in (cap.at, cap.derivative):
            with pytest.raises(ScheduleRangeError):
                query(math.nan)


FAR = 1e6 + 0.3


def _wide_table(seed):
    # a ragged table whose end rows reach past +-FAR
    rng = np.random.default_rng(seed)
    inner = np.cumsum(rng.uniform(0.01, 0.7, 40)) - 10.0
    times = np.concatenate(([-FAR - 1.0], inner, [FAR + 1.0]))
    return Tabulated(times, rng.uniform(-0.5, 3.0, times.size))


class TestArrayPieceValues:
    """A piece's value on a float64 array equals its scalar calls
    elementwise, bit for bit, so the vectorized cycle diagnostics and
    sampled Riccati output print what the per-sample loops printed. A
    platform whose np.sin differs from math.sin fails here."""

    @staticmethod
    def probes(cap):
        multiples = [k * cap.period for k in (-4, -1, 0, 1, 7, 1000)] if cap.period else []
        knots = cap.times.tolist() if isinstance(cap, Tabulated) else []
        rng = np.random.default_rng(3)
        spread = rng.uniform(-50.0, 50.0, 2000)
        ts = near([FAR, -FAR, -1e-17, 0.3, *multiples, *knots, *spread])
        if knots:
            ts = ts[(ts >= knots[0]) & (ts <= knots[-1])]
        return ts

    @pytest.fixture(
        params=["constant", "twophase", "sinusoid", "sinusoid-short", "table"],
    )
    def cap(self, request):
        return {
            "constant": Constant(1.7, 2.0),
            "twophase": TwoPhase(1.0, 3.0, 2.5),
            "sinusoid": SinusoidOffset(2.0, 0.7, 3.0),
            "sinusoid-short": SinusoidOffset(-1.3, 2.5, 0.37),
            "table": _wide_table(11),
        }[request.param]

    def test_array_value_equals_scalar_calls(self, cap):
        ts = self.probes(cap)
        lo, hi = float(ts[0]), float(ts[-1])
        if isinstance(cap, TwoPhase):
            # a square wave has ~1.6M pieces over +-FAR; check the central ones
            # and the ones holding the far probes
            windows = [(-50.0, 50.0), (FAR - 3.0, FAR + 3.0), (-FAR - 3.0, -FAR + 3.0)]
        else:
            windows = [(lo, hi)]
        checked = 0
        for a, b in windows:
            for p_lo, p_hi, value, _ in cap.pieces(a, b):
                inside = ts[(ts >= p_lo) & (ts <= p_hi)]
                if inside.size == 0:
                    continue
                got = np.broadcast_to(value(inside), inside.shape)
                assert got.tolist() == [value(t) for t in inside.tolist()]
                one = inside[:1]
                assert np.broadcast_to(value(one), one.shape).tolist() == [value(float(one[0]))]
                checked += inside.size
        assert checked >= 2000

    @pytest.mark.parametrize(
        "times, values",
        [
            ([0.0, 1.0, 2.0], [1.5e308, 1.5e308, 1e308]),  # areas overflow
            ([-1e308, 1e308], [1.0, 2.0]),  # the gap overflows
            ([0.0, 1.0, 2.0], [1.5e308, -1.5e308, 1e308]),  # slopes overflow
            ([0.0, 1.0, 2.5, 3.0], [1.0, -1.5e308, 1e308, 2.0]),  # a slope alone overflows
        ],
    )
    def test_overflowing_table_is_quiet(self, times, values):
        # overflow gives inf or nan quietly, as on Python floats, so that
        # -W error::RuntimeWarning passes; an array call keeps the scalar values
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cap = Tabulated(times, values)
            for lo, hi, value, _ in cap.pieces(times[0], times[-1]):
                ts = np.array([lo, 0.5 * lo + 0.5 * hi, hi])
                np.testing.assert_array_equal(value(ts), [value(t) for t in ts.tolist()])

    @pytest.mark.parametrize("seed", range(40))
    def test_tabulated_at_matches_np_interp(self, seed):
        rng = np.random.default_rng(seed)
        times = np.cumsum(rng.uniform(1e-3, 2.0, rng.integers(2, 60))) - 5.0
        values = rng.uniform(-3.0, 3.0, times.size) * 10.0 ** rng.integers(-3, 4)
        cap, ref = Tabulated(times, values), ReferenceTable(times, values)
        probes = near(np.concatenate((times, 0.5 * (times[1:] + times[:-1]))))
        for t in probes[(probes >= times[0]) & (probes <= times[-1])].tolist():
            assert cap.at(t) == ref.at(t)


class SineAt(CapacitySchedule):
    """A user schedule, 2 + 0.5 sin(2 pi t / 3), whose at takes floats only
    and which keeps the base class's pieces."""

    period = 3.0

    def at(self, t):
        return 2.0 + 0.5 * math.sin(TWO_PI * t / 3.0)

    def derivative(self, t):
        return 0.5 * (TWO_PI / 3.0) * math.cos(TWO_PI * t / 3.0)

    def min_value(self):
        return 1.5

    def max_value(self):
        return 2.5


class TestFloatOnlyUserSchedule:
    # the dense output and the cycle diagnostics call a piece's value on an
    # array, which raised TypeError through an at that takes floats only

    def test_riccati_samples_agree_with_the_logistic_form(self):
        params, ts = LogisticParams(1.0, 0.5), np.linspace(0.0, 6.0, 61)
        riccati = integrate_riccati(params, SineAt(), 6.0, t_eval=ts).populations
        logistic = integrate_logistic(params, SineAt(), 6.0, t_eval=ts).populations
        np.testing.assert_allclose(riccati, logistic, rtol=1e-6, atol=0.0)

    def test_orbit_identity_residual_reads_the_orbit(self):
        orbit = integrate_logistic(LogisticParams(1.0, 0.5), SineAt(), 6.0, t_eval=np.linspace(0.0, 6.0, 61))
        assert math.isfinite(orbit_identity_residual(orbit, SineAt()))

    def test_an_array_is_mapped_as_python_floats_quietly(self):
        # a user at whose float product overflows gives inf quietly, as on
        # Python floats, with no RuntimeWarning from an array mapping
        class Huge(SineAt):
            def at(self, t):
                return 1e308 * (2.0 + math.sin(t))

        (_, _, value, _), = Huge().pieces(0.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert value(np.array([0.25, 0.5])).tolist() == [math.inf, math.inf]

    def test_a_type_error_of_at_on_a_scalar_propagates(self):
        (_, _, value, _), = SineAt().pieces(0.0, 1.0)
        with pytest.raises(TypeError):
            value("0.5")


class CountingTwoPhase(TwoPhase):
    pieces_drawn = 0

    def _staged_pieces(self, t0, t1, shift):
        walk, stages = super()._staged_pieces(t0, t1, shift)

        def counted():
            for piece in walk:
                type(self).pieces_drawn += 1
                yield piece

        return counted(), stages


class TestPieces:
    @staticmethod
    def count_lookups(monkeypatch, call):
        """Calls of np.searchsorted and of bisect's searches made by call()."""
        calls = []
        for owner, name in ((np, "searchsorted"), (bisect, "bisect_left"), (bisect, "bisect_right")):
            original = getattr(owner, name)

            def counted(*args, original=original, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        call()
        monkeypatch.undo()
        return len(calls)

    def test_table_walk_locates_its_ends_once(self, monkeypatch):
        small = Tabulated.from_pairs([(0.0, 1.0), (1.0, 3.0), (2.5, 0.0)])
        times = np.linspace(0.0, 100.0, 2000)
        large = Tabulated(times, np.sin(times))
        counts = [
            self.count_lookups(monkeypatch, lambda: list(cap.pieces(cap.times[0] + 0.1, cap.times[-1])))
            for cap in (small, large)
        ]
        assert counts[0] == counts[1] <= 2
        # M on the walk in one pass: the same two searches for the ends, and
        # one more that puts every key on its piece
        walks = [(cap, cap.times[0] + 0.1, cap.times[-1]) for cap in (small, large)]
        keys = [np.linspace(t0, t1, 7) for _, t0, t1 in walks]
        gathers = [
            self.count_lookups(monkeypatch, lambda: cap._walk_values(t0, t1, k, k))
            for (cap, t0, t1), k in zip(walks, keys)
        ]
        assert gathers[0] == gathers[1] <= 3

    @staticmethod
    def small_and_large():
        """The 3-knot and the 2,000-knot table of the walk's lookup test."""
        times = np.linspace(0.0, 100.0, 2000)
        return Tabulated.from_pairs([(0.0, 1.0), (1.0, 3.0), (2.5, 0.0)]), Tabulated(times, np.sin(times))

    def test_table_derivative_makes_one_lookup(self, monkeypatch):
        tables = self.small_and_large()
        assert [self.count_lookups(monkeypatch, lambda: cap.derivative(0.05)) for cap in tables] == [1, 1]

    def test_table_breakpoints_make_two_lookups(self, monkeypatch):
        tables = self.small_and_large()
        counts = [self.count_lookups(monkeypatch, lambda: cap.breakpoints_between(0.1, 2.0)) for cap in tables]
        assert counts == [2, 2]

    def test_table_walk_checks_its_end_before_the_first_piece(self):
        # the end was checked when its piece came due, so a walk past the
        # last knot yielded the pieces inside first; like a square wave past
        # its switch grid, it now fails before any piece
        cap = Tabulated.from_pairs([(0.0, 1.0), (1.0, 3.0), (2.5, 0.0)])
        with pytest.raises(ScheduleRangeError, match="t=3.0 outside"):
            next(cap.pieces(0.0, 3.0))

    @pytest.mark.parametrize("shift", [False, True])
    @pytest.mark.parametrize("cap, levels", [
        (Constant(2.0), True),
        (TwoPhase(1.0, 3.0, 2.0), True),
        (SinusoidOffset(2.0, 0.5, 3.0), False),
        (Tabulated.from_pairs([(0.0, 1.0), (1.0, 3.0), (2.5, 0.0)]), False),
        (SineAt(), False),
    ], ids=["constant", "twophase", "sinusoid", "table", "user"])
    def test_only_a_walk_of_levels_has_no_stage_evaluator(self, cap, levels, shift):
        # the solvers read M once per piece exactly where stages is None, and
        # every schedule's pieces is the walk of its one _staged_pieces
        walk, stages = cap._staged_pieces(0.0, 2.0, shift)
        assert stages is None if levels else callable(stages)
        assert "pieces" not in vars(type(cap))
        assert [piece[:2] for piece in walk] == [piece[:2] for piece in cap.pieces(0.0, 2.0)]

    def test_pieces_are_resolved_lazily(self):
        # 20,000 pieces on [0, 100]; a budget of 50 steps reaches a few
        # dozen, so only those may be resolved
        CountingTwoPhase.pieces_drawn = 0
        cap = CountingTwoPhase(1.0, 3.0, 0.01)
        with pytest.raises(ConvergenceError):
            integrate_logistic(LogisticParams(1.0, 0.5), cap, 100.0, SolverConfig(max_iterations=50))
        assert 0 < CountingTwoPhase.pieces_drawn <= 50


PAIRS = [(0.0, 1.0), (1.0, 2.0)]


@pytest.mark.parametrize("make, message", [
    (lambda: Constant(1.0, -1.0), "declared_period must be positive"),
    (lambda: Constant(1.0, math.nan), "declared_period must be positive"),
    (lambda: Constant(1.0, math.inf), "schedule parameter declared_period must be finite, got inf"),
    (lambda: Constant(math.nan), "schedule parameter m must be finite, got nan"),
    (lambda: TwoPhase(1.0, 2.0, 0.0), "period must be positive"),
    (lambda: TwoPhase(1.0, 2.0, math.inf), "schedule parameter period must be finite, got inf"),
    (lambda: TwoPhase(1.0, 2.0, 5e-324), "half the period must be positive, got 5e-324"),
    (lambda: TwoPhase(math.inf, 2.0, 1.0), "schedule parameter m1 must be finite, got inf"),
    (lambda: SinusoidOffset(1.0, 1.0, -2.0), "period must be positive"),
    (lambda: SinusoidOffset(1.0, 1.0, math.inf), "schedule parameter period must be finite, got inf"),
    (lambda: Tabulated.from_pairs(PAIRS, -1.0), "declared_period must be positive"),
    (lambda: Tabulated.from_pairs(PAIRS, math.nan), "declared_period must be positive"),
    (lambda: Tabulated.from_pairs(PAIRS, math.inf), "schedule parameter declared_period must be finite, got inf"),
])
def test_one_bad_parameter_names_itself(make, message):
    # one period check for every schedule, before the finiteness check
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


class TestCsvLoading:
    def test_basic_file(self, tmp_path):
        path = tmp_path / "cap.csv"
        path.write_text("t,M\n0,1.0\n1,2.0\n2,1.5\n")
        cap = load_capacity_csv(path)
        assert cap.at(0.5) == 1.5
        assert cap.at(2.0) == 1.5

    def test_extra_columns_ignored_case_insensitive(self, tmp_path):
        path = tmp_path / "sim.csv"
        path.write_text("T,P,m\n0,0.5,1.0\n1,0.8,2.0\n")
        cap = load_capacity_csv(path)
        assert cap.at(0.0) == 1.0
        assert cap.at(1.0) == 2.0

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,value\n0,1\n1,2\n")
        with pytest.raises(ValueError):
            load_capacity_csv(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("t,M\n0,1\nx,2\n")
        with pytest.raises(ValueError):
            load_capacity_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [("", "empty schedule file"), ("\n , \n", "empty schedule file"),
         ("t,M\n0,1\n", "need at least two data rows")],
    )
    def test_too_few_rows_rejected(self, tmp_path, text, message):
        path = tmp_path / "short.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_capacity_csv(path)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # spreadsheet exports lead with a UTF-8 byte-order mark, which must
        # not become part of the first header cell
        text = "t,M\n0,1.0\n1,2.5\n2,1.5\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        want, got = load_capacity_csv(plain), load_capacity_csv(marked)
        assert got.times.tobytes() == want.times.tobytes()
        assert got.values.tobytes() == want.values.tobytes()
        assert parse_schedule(f"table:{marked},2").values.tobytes() == want.values.tobytes()


class TestParseSchedule:
    def test_constant(self):
        cap = parse_schedule("constant:2.5")
        assert isinstance(cap, Constant) and cap.m == 2.5

    def test_twophase(self):
        cap = parse_schedule("twophase:1,3,2")
        assert isinstance(cap, TwoPhase)
        assert (cap.m1, cap.m2, cap.period) == (1.0, 3.0, 2.0)

    def test_sinusoid(self):
        cap = parse_schedule("sinusoid:2,0.5,4")
        assert isinstance(cap, SinusoidOffset)
        assert (cap.mean, cap.amplitude, cap.period) == (2.0, 0.5, 4.0)

    def test_table(self, tmp_path):
        path = tmp_path / "cap.csv"
        path.write_text("t,M\n0,1\n1,2\n")
        cap = parse_schedule(f"table:{path}")
        assert isinstance(cap, Tabulated)

    @pytest.mark.parametrize(
        "text",
        ["constant", "unknown:1", "constant:a", "constant:1,2", "twophase:1,2", "sinusoid:1,2,3,4"],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_schedule(text)

    @pytest.mark.parametrize(
        "text, name",
        [
            ("constant:nan", "m"),
            ("constant:-inf", "m"),
            ("twophase:1,3,inf", "period"),
            ("twophase:nan,3,2", "m1"),
            ("twophase:1,-inf,2", "m2"),
            ("sinusoid:inf,1,2", "mean"),
            ("sinusoid:1,nan,2", "amplitude"),
            ("sinusoid:1,1,inf", "period"),
        ],
    )
    def test_rejects_non_finite_parameters(self, text, name):
        with pytest.raises(ValueError, match=f"parameter {name} must be finite"):
            parse_schedule(text)

    def test_rejects_non_finite_declared_period(self):
        with pytest.raises(ValueError, match="declared_period must be finite"):
            Constant(1.0, declared_period=math.inf)

    @pytest.mark.parametrize("period, message", [
        (math.inf, "declared_period must be finite"),
        (math.nan, "declared_period must be positive"),
        (-1.0, "declared_period must be positive"),
    ])
    def test_table_rejects_bad_declared_period(self, period, message):
        with pytest.raises(ValueError, match=message):
            Tabulated.from_pairs([(0.0, 1.0), (2.0, 1.0)], declared_period=period)

    def test_table_with_declared_period(self, tmp_path):
        path = tmp_path / "cap.csv"
        path.write_text("t,M\n0,1\n1,2\n2,1\n")
        cap = parse_schedule(f"table: {path} , 2")
        plain = parse_schedule(f"table:{path}")
        assert cap.period == 2.0 and plain.period is None
        assert cap.times.tobytes() == plain.times.tobytes()
        assert cap.values.tobytes() == plain.values.tobytes()
        assert cap.integral(0.0, 2.0) == plain.integral(0.0, 2.0) == 3.0

    def test_table_with_declared_period_is_built_once(self, tmp_path, monkeypatch):
        # the pairs are read once and the table built once, with its period
        path = tmp_path / "cap.csv"
        path.write_text("t,M\n0,1\n0.5,2.5\n2,1\n")
        want = Tabulated.from_pairs([(0.0, 1.0), (0.5, 2.5), (2.0, 1.0)], 2.0)
        builds = []
        build = Tabulated.__post_init__

        def counted(self):
            builds.append(self.declared_period)
            build(self)

        monkeypatch.setattr(Tabulated, "__post_init__", counted)
        cap = parse_schedule(f"table:{path},2")
        assert builds == [2.0]
        for name in ("times", "values", "_cum", "_lines"):
            assert getattr(cap, name).tobytes() == getattr(want, name).tobytes()
        assert (cap.declared_period, cap._shift, cap._rows, cap._knots) == (2.0, want._shift, want._rows, want._knots)

    def test_table_path_with_a_comma(self, tmp_path):
        # only a float after the last comma is a period
        path = tmp_path / "cap,v2.csv"
        path.write_text("t,M\n0,1\n1,2\n")
        assert parse_schedule(f"table:{path}").period is None
        assert parse_schedule(f"table:{path},1").period == 1.0

    @pytest.mark.parametrize("tail", ["inf", "nan", "-1", "0"])
    def test_table_rejects_bad_period(self, tmp_path, tail):
        path = tmp_path / "cap.csv"
        path.write_text("t,M\n0,1\n1,2\n")
        with pytest.raises(ValueError, match="declared_period"):
            parse_schedule(f"table:{path},{tail}")

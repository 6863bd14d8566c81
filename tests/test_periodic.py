import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from oscpop import (
    CapacitySchedule,
    Constant,
    ConvergenceError,
    ExponentOverflowError,
    LogisticParams,
    NoPeriodicSolutionError,
    PeriodicSolution,
    SinusoidOffset,
    SolverConfig,
    Tabulated,
    Trajectory,
    TwoPhase,
    find_periodic_solution,
    half_peak_fraction,
    integrate_riccati,
    mean_identity_residual,
    orbit_identity_residual,
    period_map,
    quadrature_solution,
    square_deviation_identity,
    time_average,
    two_phase_deductions,
)
from oscpop import odesolve, periodic
from oscpop.cli import main

EPS = sys.float_info.epsilon


def mobius_fixed_point(r: float, m1: float, m2: float, period: float) -> float:
    """Reciprocal-space fixed point of the square-wave cycle.

    Each constant phase acts on z = 1/P as an affine map
    z -> z * exp(-r m tau) + (1 - exp(-r m tau)) / m, so the cycle start
    solves a two-map composition in closed form.
    """
    half = 0.5 * period
    rho1, rho2 = math.exp(-r * m1 * half), math.exp(-r * m2 * half)
    c1, c2 = (1.0 - rho1) / m1, (1.0 - rho2) / m2
    z_star = (rho2 * c1 + c2) / (1.0 - rho1 * rho2)
    return 1.0 / z_star


def scaled_orbit(orbit: Trajectory, c: float) -> Trajectory:
    """The orbit with P, and the P columns of its step record, times c."""
    steps = orbit.steps.copy()
    steps[:, 2:] *= c  # y0, y1, f0, f1, dk
    return Trajectory(orbit.times, orbit.populations * c, orbit.meta, steps)


class TestPeriodMap:
    def test_equilibrium_is_fixed(self):
        cap = Constant(2.0, declared_period=1.5)
        assert period_map(1.0, cap, 2.0) == pytest.approx(2.0, abs=1e-10)

    def test_monotone_in_start_value(self):
        cap = TwoPhase(1.0, 3.0, 2.0)
        ps = [0.5, 1.0, 2.0, 4.0]
        images = [period_map(1.0, cap, p) for p in ps]
        assert all(a < b for a, b in zip(images, images[1:]))

    def test_requires_declared_period(self):
        with pytest.raises(ValueError):
            period_map(1.0, Constant(2.0), 1.0)

    def test_requires_positive_start(self):
        with pytest.raises(ValueError):
            period_map(1.0, TwoPhase(1.0, 2.0, 1.0), 0.0)


class TestFindPeriodicSolution:
    def test_two_phase_matches_affine_composition(self):
        r, m1, m2, h = 1.2, 1.0, 3.0, 2.0
        sol = find_periodic_solution(r, TwoPhase(m1, m2, h))
        assert sol.p_star == pytest.approx(mobius_fixed_point(r, m1, m2, h), rel=1e-13)
        assert sol.residual <= sol.fixed_point_tol

    def test_two_phase_oracle_sweep(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            r = float(rng.uniform(0.5, 2.0))
            m1 = float(rng.uniform(0.5, 2.0))
            m2 = float(rng.uniform(2.0, 4.0))
            h = float(rng.uniform(0.5, 4.0))
            sol = find_periodic_solution(r, TwoPhase(m1, m2, h))
            assert sol.p_star == pytest.approx(mobius_fixed_point(r, m1, m2, h), rel=1e-13)

    @pytest.mark.parametrize("m1, m2, h", [(100.0, 120.0, 20.0), (1.0, 3.0, 400.0)])
    def test_slow_switching_cycle_matches_affine_composition(self, m1, m2, h):
        # r * mass is far past the exponent bound; the cycle weight only
        # underflows there, so the cycle is still found
        sol = find_periodic_solution(1.0, TwoPhase(m1, m2, h))
        assert sol.p_star == pytest.approx(mobius_fixed_point(1.0, m1, m2, h), rel=1e-13)

    def test_constant_cycle_is_equilibrium(self):
        sol = find_periodic_solution(1.3, Constant(2.0, declared_period=1.0))
        assert sol.p_star == pytest.approx(2.0, rel=1e-8)
        assert float(np.max(np.abs(sol.orbit.populations - 2.0))) <= 1e-7

    def test_cycle_across_a_subnormal_knot(self):
        # M = 1 throughout; a 5e-323 step crossed the piece [5e-324,
        # 1.75e-102] by an absolute end snap, and the next could not move t
        cap = Tabulated([0.0, 5e-324, 1.75e-102, 1.0], [1.0, 1.0, 1.0, 1.0], declared_period=1.0)
        assert find_periodic_solution(1.0, cap).p_star == 1.0

    def test_sinusoid_cycle_reproducible(self):
        cap = SinusoidOffset(2.0, 0.8, 3.0)
        a = find_periodic_solution(1.0, cap)
        b = find_periodic_solution(1.0, cap)
        assert a.p_star == b.p_star
        assert a.period == 3.0
        assert a.orbit.times[0] == 0.0 and a.orbit.times[-1] == 3.0

    def test_tabulated_schedule_cycle(self):
        h = 2.0
        ts = np.linspace(0.0, h, 41)
        vs = 2.0 + 0.5 * np.sin(2.0 * math.pi * ts / h)
        cap = Tabulated(ts, vs, declared_period=h)
        sol = find_periodic_solution(1.0, cap)
        assert sol.residual <= 1e-8
        assert time_average(sol) == pytest.approx(cap.integral(0.0, h) / h, rel=1e-7)

    def test_tightening_tolerance_tightens_residual(self):
        cap = TwoPhase(1.0, 3.0, 2.0)
        loose = find_periodic_solution(1.0, cap, fixed_point_tol=1e-5)
        tight = find_periodic_solution(1.0, cap, fixed_point_tol=1e-10)
        assert tight.residual <= 1e-10
        assert loose.p_star == pytest.approx(tight.p_star, rel=1e-4)

    def test_zero_mean_capacity_has_no_cycle(self):
        with pytest.raises(NoPeriodicSolutionError):
            find_periodic_solution(1.0, SinusoidOffset(0.0, 1.0, 2.0 * math.pi))

    def test_negative_mean_capacity_has_no_cycle(self):
        with pytest.raises(NoPeriodicSolutionError):
            find_periodic_solution(1.0, TwoPhase(-3.0, 1.0, 2.0))

    def test_unrepresentable_weight_is_a_domain_error(self):
        # mean capacity is positive, but the die-off phase drives the
        # reciprocal-space weight to exp(1000)
        with pytest.raises(ExponentOverflowError):
            find_periodic_solution(1.0, TwoPhase(101.0, -100.0, 20.0))

    @pytest.mark.parametrize(
        "cap",
        [
            TwoPhase(33.13377201188973, 0.08853049708031088, 0.05126131047585376),  # u(h) = 0
            SinusoidOffset(0.12547141870543327, 700.0, 1.3104843637962589),  # p* = 0
        ],
    )
    def test_cycle_start_underflow_is_a_domain_error(self, cap):
        with pytest.raises(ExponentOverflowError, match="unrepresentable"):
            find_periodic_solution(5e-324, cap)

    def test_requires_declared_period(self):
        with pytest.raises(ValueError):
            find_periodic_solution(1.0, Constant(2.0))

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            find_periodic_solution(0.0, TwoPhase(1.0, 2.0, 1.0))

    @pytest.mark.parametrize("cap", [TwoPhase(1.0, 3.0, 1e-320), SinusoidOffset(2.0, 1.0, 1e-319)])
    def test_a_period_too_short_for_the_print_grid_fails_before_any_work(self, cap, monkeypatch):
        # np.linspace(0, h, 1025) repeats subnormal floats at such periods;
        # the cycle start's quadrature ran first, then the orbit refused the
        # grid with "t_eval must be strictly increasing"
        def refuse(*args, **kwargs):
            raise AssertionError("worked before the print grid was checked")

        monkeypatch.setattr("oscpop.periodic._propagate", refuse)
        monkeypatch.setattr("oscpop.periodic.integrate_logistic", refuse)
        with pytest.raises(ValueError, match=rf"period {cap.period} is too short for 1025 strictly increasing"):
            find_periodic_solution(1.0, cap)

    @pytest.mark.parametrize("tol", [1e-17, 1e-300, math.nextafter(EPS, 0.0)])
    def test_rejects_tolerance_below_float_epsilon(self, tol):
        # raised before the schedule is read: Constant(2.0) declares no period
        with pytest.raises(ValueError, match="fixed_point_tol must be at least float64 epsilon"):
            find_periodic_solution(1.0, Constant(2.0), fixed_point_tol=tol)
        assert find_periodic_solution(1.0, Constant(2.0, 1.0), fixed_point_tol=EPS).residual == 0.0

    @pytest.mark.parametrize("h", [0.1, 2.0, 30.0])
    @pytest.mark.parametrize("cap_of, r", [
        (lambda h: Constant(1.5, h), 1.0),
        (lambda h: TwoPhase(1.0, 3.0, h), 1.0),
        (lambda h: TwoPhase(0.5, 2.5, h), 2.0),
    ], ids=["constant", "twophase-1-3", "twophase-0.5-2.5"])
    def test_orbit_samples_match_the_exact_cycle(self, cap_of, r, h):
        # the orbit runs at the solver's own step size, with no cap tied
        # to the sample grid; every sample must still hold the exact value
        cap = cap_of(h)
        sol = find_periodic_solution(r, cap)
        start = LogisticParams(r, sol.p_star)
        exact = np.array([quadrature_solution(start, cap, t) for t in sol.orbit.times])
        assert np.max(np.abs(sol.orbit.populations - exact) / exact) <= 1e-8

    def test_table_cycle_whose_running_area_overflows_solves(self):
        # both knots 1e308: a sum of two samples overflowed, the mass of the
        # period read inf, and the cycle was a domain error
        cap = Tabulated([0.0, 1.0], [1e308, 1e308], declared_period=1.0)
        sol = find_periodic_solution(1e-308, cap)
        assert sol.p_star == pytest.approx(1e308, rel=1e-15) and sol.residual < 1e-15


class TestCycleIdentities:
    def test_mean_population_equals_mean_capacity(self):
        # the growth-weighted balance forces the two time averages to agree
        for cap in (
            TwoPhase(1.0, 3.0, 2.0),
            SinusoidOffset(2.0, 0.8, 3.0),
            SinusoidOffset(1.5, 1.4, 1.0),
        ):
            sol = find_periodic_solution(1.0, cap)
            mean_m = cap.integral(0.0, cap.period) / cap.period
            assert time_average(sol) == pytest.approx(mean_m, rel=1e-6, abs=1e-8)

    def test_diagnostics_share_one_gauss_node_pass(self, monkeypatch, capsys):
        # the identity and the mean read the orbit's one node record, so
        # the continuous extension runs at the 4-point Gauss nodes once per
        # orbit: after a solve, and in one periodic CLI run
        gauss = 0.5 + 0.5 * np.polynomial.legendre.leggauss(4)[0]
        passes = []
        real = odesolve._extension

        def counted(cols, theta):
            if np.shape(theta) == (4, 1) and np.allclose(np.ravel(theta), gauss, rtol=0.0, atol=1e-15):
                passes.append(np.shape(cols))
            return real(cols, theta)

        # a module that imports the name binds its own reference
        for module in (odesolve, periodic):
            if hasattr(module, "_extension"):
                monkeypatch.setattr(module, "_extension", counted)
        cap = SinusoidOffset(2.0, 0.8, 3.0)
        sol = find_periodic_solution(1.0, cap)
        assert passes == []
        orbit_identity_residual(sol.orbit, cap)
        time_average(sol)
        assert len(passes) == 1
        assert not any(array.flags.writeable for array in sol.orbit._gauss)  # shared by every reader
        passes.clear()
        assert main(["periodic", "--schedule", "sinusoid:2,0.8,3", "--r", "1"]) == 0
        capsys.readouterr()
        assert len(passes) == 1

    def test_identity_residual_small_on_cycle(self):
        sol = find_periodic_solution(1.2, TwoPhase(1.0, 3.0, 2.0))
        assert mean_identity_residual(sol, TwoPhase(1.0, 3.0, 2.0)) <= 1e-7

    def test_identity_residual_detects_perturbation(self):
        cap = SinusoidOffset(2.0, 0.8, 3.0)
        sol = find_periodic_solution(1.0, cap)
        base = orbit_identity_residual(sol.orbit, cap)
        bumped = scaled_orbit(sol.orbit, 1.05)
        assert orbit_identity_residual(bumped, cap) > max(100.0 * base, 1e-3)

    def test_square_deviation_form_agrees(self):
        cap = TwoPhase(1.0, 3.0, 2.0)
        sol = find_periodic_solution(1.0, cap)
        lhs, rhs = square_deviation_identity(sol, cap)
        # lhs - rhs equals the vanishing balance integral, so the two
        # quadratic forms agree to the cycle tolerance
        assert lhs == pytest.approx(rhs, rel=1e-6)
        assert rhs == pytest.approx(0.25 * (1.0 + 9.0) * 1.0, rel=1e-12)

    @pytest.mark.parametrize("k", [511, 1021])
    def test_huge_cycles_are_exact_rescalings(self, k):
        # the diagnostics are homogeneous in (M, P): an orbit and schedule
        # scaled by 2**k give the unscaled answers times 2**k, bit for bit,
        # though squares of the scaled values (k = 511) or their sums
        # (k = 1021) overflow; the continuous extension is linear in the
        # step record's y0, y1, f0, f1 and dk, so they scale with P
        cap = SinusoidOffset(2.0, 0.5, 3.0)
        sol = find_periodic_solution(1.0, cap)
        c = math.ldexp(1.0, k)
        big_cap = SinusoidOffset(2.0 * c, 0.5 * c, 3.0)
        big = replace(sol, p_star=sol.p_star * c, orbit=scaled_orbit(sol.orbit, c))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert mean_identity_residual(big, big_cap) == mean_identity_residual(sol, cap)
            assert time_average(big) == time_average(sol) * c
            lhs, rhs = square_deviation_identity(big, big_cap)
        assert [lhs, rhs] == [v * c * c for v in square_deviation_identity(sol, cap)]

    def test_huge_cycle_solves_and_reports(self):
        cap = TwoPhase(1e200, 1e200, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sol = find_periodic_solution(1.0, cap)
            assert (sol.p_star, time_average(sol)) == (1e200, 1e200)
            assert mean_identity_residual(sol, cap) == 0.0

    @pytest.mark.parametrize(
        "r, cap",
        [
            (1.0, SinusoidOffset(2.0, 0.5, 1e-150)),
            (1e-150, SinusoidOffset(2.0, 0.5, 1e150)),
            (1.0, SinusoidOffset(2.0, 0.5, 1e-158)),
            (1.0, TwoPhase(1.0, 3.0, 1e-300)),
            (1e-158, SinusoidOffset(2.0, 0.5, 1e158)),
        ],
        ids=["period-1e-150", "period-1e150", "period-1e-158", "twophase-1e-300", "period-1e158"],
    )
    def test_extreme_periods_keep_the_mean(self, r, cap):
        # the cycle integrals weigh each step by its own width, so no product
        # of two sample gaps leaves the float range (the composite Simpson
        # weights did, from a period of 1e-158 down)
        sol = find_periodic_solution(r, cap)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert time_average(sol) == pytest.approx(2.0, rel=1e-9)
            assert orbit_identity_residual(sol.orbit, cap) <= 1e-9

    def test_diagnostics_need_the_step_record(self):
        cap = SinusoidOffset(2.0, 0.8, 3.0)
        sol = find_periodic_solution(1.0, cap)
        bare = replace(sol, orbit=Trajectory(sol.orbit.times, sol.orbit.populations, sol.orbit.meta))
        riccati = integrate_riccati(LogisticParams(1.0, sol.p_star), cap, 3.0)
        for diagnostic in (
            lambda: orbit_identity_residual(bare.orbit, cap),
            lambda: orbit_identity_residual(riccati, cap),
            lambda: mean_identity_residual(bare, cap),
            lambda: square_deviation_identity(bare, cap),
            lambda: time_average(bare),
        ):
            with pytest.raises(ValueError, match=r"step record \(Trajectory\.steps\)"):
                diagnostic()


    def test_schedule_without_extrema(self):
        # the diagnostics take their scale from the orbit's M and P, so a
        # schedule that defines neither min_value nor max_value gives the
        # answers of the same schedule with them
        class Bare(CapacitySchedule):
            period = 3.0

            def at(self, t):
                return 2.0 + 0.5 * np.sin(2.0 * np.pi * t / 3.0)

        class WithExtrema(Bare):
            def min_value(self):
                return 1.5

            def max_value(self):
                return 2.5

        sol = find_periodic_solution(1.0, SinusoidOffset(2.0, 0.5, 3.0))
        with pytest.raises(NotImplementedError):
            Bare().max_value()
        residual = orbit_identity_residual(sol.orbit, Bare())
        assert residual == orbit_identity_residual(sol.orbit, WithExtrema()) < 1e-9
        assert square_deviation_identity(sol, Bare()) == square_deviation_identity(sol, WithExtrema())

    def test_diagnostics_read_the_walk_the_orbit_was_integrated_on(self):
        # an override of the public pieces steers neither the solve nor the
        # diagnostics: both read the schedule's own walk, so the flat 5.0
        # below changes no bit of any answer
        class FlatPieces(SinusoidOffset):
            def pieces(self, t0, t1):
                yield t0, t1, (lambda t: 5.0), (lambda t: 0.0)

        plain, flat = SinusoidOffset(2.0, 0.5, 3.0), FlatPieces(2.0, 0.5, 3.0)
        sol, sol_flat = find_periodic_solution(1.0, plain), find_periodic_solution(1.0, flat)
        assert sol_flat.p_star == sol.p_star
        residual = orbit_identity_residual(sol.orbit, plain)
        assert residual < 1e-9
        assert orbit_identity_residual(sol_flat.orbit, flat) == residual
        assert square_deviation_identity(sol_flat, flat) == square_deviation_identity(sol, plain)


class TestHalfPeakFraction:
    def test_equilibrium_far_from_half_peak(self):
        cap = Constant(2.0, declared_period=1.0)
        sol = find_periodic_solution(1.0, cap)
        assert half_peak_fraction(sol, cap, band=0.10) == 0.0

    def test_wide_band_captures_everything(self):
        cap = Constant(2.0, declared_period=1.0)
        sol = find_periodic_solution(1.0, cap)
        assert half_peak_fraction(sol, cap, band=0.60) == 1.0

    def test_fraction_bounded(self):
        cap = SinusoidOffset(1.0, 0.9, 2.0)
        sol = find_periodic_solution(2.0, cap)
        frac = half_peak_fraction(sol, cap)
        assert 0.0 <= frac <= 1.0

    @pytest.mark.parametrize("band", [0.0, -0.1, math.nan, math.inf])
    def test_rejects_bad_band(self, band):
        cap = Constant(2.0, declared_period=1.0)
        sol = find_periodic_solution(1.0, cap)
        with pytest.raises(ValueError, match="band must be positive and finite"):
            half_peak_fraction(sol, cap, band=band)


class OffsetSinusoid(SinusoidOffset):
    """A sinusoid whose batch integrals, and so the cycle start's
    quadrature, read 1% high, while its orbit integrates the true M."""

    def _integrals_to(self, starts, t1):
        return [1.01 * x for x in super()._integrals_to(starts, t1)]


class TestPeriodicSolutionValidation:
    def test_orbit_that_fails_to_close_is_a_convergence_error(self):
        with pytest.raises(ConvergenceError, match="orbit closure residual .* exceeds tolerance"):
            find_periodic_solution(1.0, OffsetSinusoid(2.0, 0.5, 3.0))

    def test_orbit_without_mass_has_no_identity_residual(self):
        sol = find_periodic_solution(1.0, TwoPhase(1.0, 3.0, 2.0))
        with pytest.raises(ValueError, match="orbit has no positive mass"):
            orbit_identity_residual(scaled_orbit(sol.orbit, 0.0), TwoPhase(1.0, 3.0, 2.0))

    def test_rejects_zero_cycle_population(self):
        sol = find_periodic_solution(1.0, TwoPhase(1.0, 3.0, 2.0))
        with pytest.raises(ValueError, match="cycle population must be positive"):
            replace(sol, p_star=0.0)

    def test_rejects_orbit_short_of_the_period(self):
        sol = find_periodic_solution(1.0, TwoPhase(1.0, 3.0, 2.0))
        with pytest.raises(ValueError, match="orbit must span exactly one period"):
            replace(sol, period=1.5)

    def test_rejects_open_orbit(self):
        sol = find_periodic_solution(1.0, TwoPhase(1.0, 3.0, 2.0))
        broken = Trajectory(
            sol.orbit.times, sol.orbit.populations + np.linspace(0.0, 1.0, len(sol.orbit)),
            sol.orbit.meta,
        )
        with pytest.raises(ValueError):
            PeriodicSolution(
                sol.p_star, sol.period, broken, sol.residual, sol.growth_rate,
                sol.fixed_point_tol,
            )

    def test_rejects_overclaimed_residual(self):
        sol = find_periodic_solution(1.0, TwoPhase(1.0, 3.0, 2.0))
        with pytest.raises(ValueError):
            PeriodicSolution(
                sol.p_star, sol.period, sol.orbit, 1e-3, sol.growth_rate, 1e-8
            )


class TestTwoPhaseDeductions:
    def test_slow_switching_saturates(self):
        cap = TwoPhase(1.0, 3.0, 40.0)
        rep = two_phase_deductions(LogisticParams(1.0, 0.5, 0.0), cap)
        assert rep.saturated
        assert rep.p1 == pytest.approx(1.0, rel=1e-6)
        assert rep.p2 == pytest.approx(3.0, rel=1e-6)
        assert rep.mean_population == pytest.approx(2.0, rel=1e-6)

    def test_very_slow_switching_saturates(self):
        # a 10,000-long phase is one exact step, with no solver budget to spend
        rep = two_phase_deductions(LogisticParams(1.0, 0.5), TwoPhase(1.0, 3.0, 20000.0))
        assert rep.saturated
        assert max(rep.plateau_gaps) <= 1e-9

    def test_fast_switching_hovers_at_mean(self):
        cap = TwoPhase(1.0, 3.0, 0.05)
        rep = two_phase_deductions(LogisticParams(1.0, 0.5, 0.0), cap)
        assert not rep.saturated
        assert rep.p1 == pytest.approx(2.0, abs=0.05)
        assert rep.p2 == pytest.approx(2.0, abs=0.05)
        assert rep.plateau_gaps[0] > 0.5

    def test_runs_no_integrator(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the square-wave report integrated an orbit")

        monkeypatch.setattr("oscpop.periodic.integrate_logistic", refuse)
        monkeypatch.setattr("oscpop.odesolve._rk45", refuse)
        rep = two_phase_deductions(LogisticParams(0.9, 0.5), TwoPhase(-0.5, 3.0, 5.0))
        assert rep.p2 == pytest.approx(mobius_fixed_point(0.9, -0.5, 3.0, 5.0), rel=1e-12)
        assert rep.mean_population == pytest.approx(1.25, rel=1e-15)

    @pytest.mark.parametrize("r", [1e-8, 1e-15, 1e-100])
    def test_mean_is_the_mean_capacity_at_any_rate(self, r):
        # ln(P(h)/p*)/r would divide rounding error by r: 3e84 at r = 1e-100
        for cap in (TwoPhase(1.0, 3.0, 2.0), TwoPhase(-0.5, 3.0, 5.0), TwoPhase(0.7, 2.9, 0.37)):
            rep = two_phase_deductions(LogisticParams(r, 1.0), cap)
            assert rep.mean_population == pytest.approx(0.5 * (cap.m1 + cap.m2), rel=1e-15)

    def test_phase_end_below_the_float_range(self):
        # u* ~ 1/(r mass) times a die-off factor e^699 overflows; the
        # orbit cannot close there either
        cap = TwoPhase(-46.6, 46.6 + 1e-13, 30.0)
        with pytest.raises(ExponentOverflowError, match="phase-one population"):
            two_phase_deductions(LogisticParams(1.0, 1.0), cap)

    def test_takes_no_solver_config(self):
        # regime_tol is keyword-only, so a config passed where the solver
        # settings went is an error, not a tolerance
        with pytest.raises(TypeError):
            two_phase_deductions(LogisticParams(1.0, 0.5), TwoPhase(1.0, 3.0, 2.0), SolverConfig())

    def test_overflowing_period_mass_is_a_domain_error(self):
        # the integral of M over a period, 4e308, is inf
        with pytest.raises(ExponentOverflowError, match="capacity integral over one period"):
            two_phase_deductions(LogisticParams(1.0, 0.5), TwoPhase(1e308, 1e308, 4.0))

    def test_report_whose_level_sum_overflows(self):
        # m1 + m2 overflows, but the mass of a period, 1e308, does not
        report = two_phase_deductions(LogisticParams(1.0, 0.5), TwoPhase(1e308, 1e308, 1.0))
        assert (report.p1, report.p2, report.mean_population) == (1e308, 1e308, 1e308)
        assert report.plateau_gaps == (0.0, 0.0) and report.saturated

    def test_independent_of_initial_condition(self):
        cap = TwoPhase(1.0, 3.0, 2.0)
        a = two_phase_deductions(LogisticParams(1.0, 0.2, 0.0), cap)
        b = two_phase_deductions(LogisticParams(1.0, 5.0, 7.3), cap)
        assert a.p1 == b.p1 and a.p2 == b.p2

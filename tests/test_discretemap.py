import math
import tracemalloc
import warnings

import numpy as np
import pytest

import oscpop.discretemap
from oscpop import (
    BifurcationRecord,
    ScanConfig,
    bifurcation_scan,
    detect_attractor,
    iterate_map,
    normalized_state,
)


class TestIterateMap:
    def test_includes_initial_value(self):
        out = iterate_map(1.0, 1.0, 0.5, 0)
        assert out.shape == (1,) and out[0] == 0.5

    def test_first_steps_by_hand(self):
        # r=1, m=1, p0=1/2: 0.5 -> 0.75 -> 0.9375
        out = iterate_map(1.0, 1.0, 0.5, 2)
        assert out[1] == pytest.approx(0.75, abs=0.0)
        assert out[2] == pytest.approx(0.9375, abs=0.0)

    def test_capacity_is_fixed_point(self):
        out = iterate_map(0.7, 2.3, 2.3, 50)
        assert np.all(out == 2.3)

    def test_zero_is_fixed_point(self):
        out = iterate_map(1.5, 2.0, 0.0, 10)
        assert np.all(out == 0.0)

    def test_divergence_reported_not_raised(self):
        out = iterate_map(1.0, 3.5, 5.0, 60)
        assert not np.all(np.isfinite(out))

    def test_bit_identical_to_a_python_float_loop(self):
        # (1, 3.5, 5) overflows to -inf, and p0 = inf turns into nan
        for r, m, p0 in ((0.7, 2.3, 0.4), (1.0, 2.9, 1.95), (1.3, -0.5, 0.2), (1.0, 3.5, 5.0), (1.0, 1.0, math.inf)):
            p, want = p0, [p0]
            for _ in range(300):
                p = p + r * (m - p) * p
                want.append(p)
            assert iterate_map(r, m, p0, 300).tobytes() == np.array(want).tobytes()

    def test_holds_the_orbit_only_in_its_result(self):
        n = 200_000
        tracemalloc.start()
        try:
            out = iterate_map(1.0, 2.7, 0.9, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (n + 1,) and peak < 1.5 * out.nbytes

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            iterate_map(1.0, 1.0, 0.5, -1)

    def test_scale_covariance_exact_for_binary_factors(self):
        # (r, m, p) -> (r/c, c m, c p) relabels units; for power-of-two c
        # the float arithmetic commutes with the scaling exactly
        base = iterate_map(0.9, 1.7, 0.3, 200)
        for c in (2.0, 4.0, 0.5):
            scaled = iterate_map(0.9 / c, c * 1.7, c * 0.3, 200)
            assert np.array_equal(scaled, c * base)


class TestNormalizedState:
    def test_formula(self):
        assert normalized_state(2.0, 1.5, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_single_step_conjugate_to_quadratic_map(self):
        # x = r P / (1 + rho) turns one update into x -> (1+rho) x (1-x)
        rng = np.random.default_rng(23)
        for _ in range(1000):
            r = float(rng.uniform(0.05, 2.0))
            m = float(rng.uniform(0.1, 10.0))
            rho = r * m
            x0 = float(rng.uniform(0.01, 0.99))
            p0 = x0 * (1.0 + rho) / r
            p1 = float(iterate_map(r, m, p0, 1)[1])
            assert normalized_state(r, m, p1) == pytest.approx(
                (1.0 + rho) * x0 * (1.0 - x0), rel=1e-12, abs=1e-14
            )


class TestHasEscaped:
    def test_tame_orbit(self):
        rec = detect_attractor(1.0, 1.5, 0.5, transient=100)
        assert not rec.diverged
        assert rec.detected_period == 1

    def test_nonfinite_escapes(self):
        for p0 in (math.nan, math.inf):
            rec = detect_attractor(1.0, 1.0, p0)
            assert rec.diverged and rec.detected_period is None
            assert not np.isfinite(iterate_map(1.0, 1.0, p0, 1)[1])

    def test_large_normalized_value_escapes(self):
        # x = r p / (1 + rho) with r=1, m=1: -5 -> -35 takes x from -2.5 to
        # -17.5, a finite value past the bound
        escaped = iterate_map(1.0, 1.0, -5.0, 1)[1]
        assert escaped == -35.0
        for transient in (0, 10):
            rec = detect_attractor(1.0, 1.0, -5.0, transient=transient)
            assert rec.diverged and rec.detected_period is None
            assert rec.attractor.tolist() == [-5.0]


class TestDetectAttractor:
    def test_fixed_point_regime(self):
        rec = detect_attractor(1.0, 1.5, 0.4)
        assert rec.detected_period == 1
        assert not rec.diverged
        assert rec.attractor.shape == (1,)
        assert rec.attractor[0] == pytest.approx(1.5, abs=1e-9)

    def test_two_cycle_regime(self):
        rec = detect_attractor(1.0, 2.2, 0.9)
        assert rec.detected_period == 2
        a, b = rec.attractor
        assert a != pytest.approx(b, abs=1e-6)
        # the two branch values swap under one update
        step_a = a + 1.0 * (2.2 - a) * a
        assert step_a == pytest.approx(b, rel=1e-9)

    def test_four_cycle_regime(self):
        rec = detect_attractor(1.0, 2.47, 0.9, transient=30_000)
        assert rec.detected_period == 4
        assert rec.attractor.shape == (4,)

    def test_chaotic_regime_reports_no_period(self):
        rec = detect_attractor(1.0, 2.7, 0.9)
        assert rec.detected_period is None
        assert not rec.diverged
        assert rec.attractor.size == 512

    def test_divergent_orbit_flagged(self):
        rec = detect_attractor(1.0, 3.5, 5.0)
        assert rec.diverged
        assert rec.detected_period is None

    def test_control_value_recorded(self):
        rec = detect_attractor(0.5, 3.0, 1.0)
        assert rec.control == 1.5

    @pytest.mark.parametrize("r", [0.0, -0.0])
    def test_rejects_zero_r(self, r):
        # q = r p is 0 whatever p, so q / r would report nan
        with pytest.raises(ValueError, match="r must be nonzero"):
            detect_attractor(r, 2.0, 0.5)

    @pytest.mark.parametrize("transient", [0, 3])
    def test_seed_is_reported_as_given(self, transient):
        # the orbit runs in q = r p and is reported as q / r, but r p0 / r is
        # not p0 at these r and p0: the window's first row, and the value
        # before an escape at step 1, are the seed itself
        r, m = 0.7, 2.9 / 0.7
        for p0 in (0.2, 1e3):
            assert r * p0 / r != p0
        tame = detect_attractor(r, m, 0.2, transient=0, window=8)
        assert tame.detected_period is None and tame.attractor[0] == 0.2
        gone = detect_attractor(r, m, 1e3, transient=transient, window=8)
        assert gone.diverged and gone.attractor.tolist() == [1e3]


class TestScanConfig:
    def test_defaults(self):
        cfg = ScanConfig()
        assert cfg.transient == 10_000 and cfg.window == 512

    @pytest.mark.parametrize(
        "kwargs",
        [{"transient": -1}, {"window": 2}, {"match_tol": 0.0}],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ScanConfig(**kwargs)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_rejects_non_finite_match_tol(self, tol):
        # an infinite tolerance would match any two window values
        with pytest.raises(ValueError, match=f"match_tol must be positive and finite, got {tol}"):
            ScanConfig(match_tol=tol)


class TestBifurcationScan:
    def test_first_doubling_near_two(self):
        # grid offset from the transition, where convergence slows down
        res = bifurcation_scan(1.9025, 2.0975, 40)
        assert res.doubling_1_to_2 is not None
        assert res.doubling_1_to_2 == pytest.approx(2.0, abs=0.01)

    def test_grid_on_the_critical_point_still_brackets(self):
        # landing exactly on the doubling leaves that record unresolved;
        # the locator must bridge across it
        res = bifurcation_scan(1.9, 2.1, 41)
        assert any(rec.detected_period is None for rec in res.records)
        assert res.doubling_1_to_2 == pytest.approx(2.0, abs=0.01)

    @pytest.mark.parametrize(
        "target, below, old",
        [(2.0, d, 1) for d in (0.00095, 0.001, 0.00105)]
        + [(math.sqrt(6.0), d, 2) for d in (0.00038, 0.0004, 0.00042)],
    )
    def test_point_just_below_a_doubling_is_not_read_doubled(self, target, below, old):
        # the orbit is still spiralling onto the old cycle after the
        # default transient; each lag-2*old step is within match_tol
        rho = target - below
        rec = detect_attractor(1.0, rho, 0.5 * (1.0 + rho))
        assert rec.detected_period in (old, None)
        res = bifurcation_scan(rho - 0.02, rho + 0.01, 4)
        found = res.doubling_1_to_2 if old == 1 else res.doubling_2_to_4
        hi = min(rec.control for rec in res.records if rec.control > target)
        assert found is not None and 2.0 * found - hi < target

    def test_descending_grid_reads_the_doubling_in_control_order(self):
        # the records run from 2.2 down to 1.8; the doubling between the
        # last period-1 and the first period-2 control is the same
        res = bifurcation_scan(2.2, 1.8, 40)
        assert [rec.control for rec in res.records] == np.linspace(2.2, 1.8, 40).tolist()
        below = max(rec.control for rec in res.records if rec.detected_period == 1)
        above = min(rec.control for rec in res.records if rec.detected_period == 2)
        assert res.doubling_1_to_2 == 0.5 * (below + above)
        assert res.doubling_1_to_2 == pytest.approx(2.0, abs=0.01)

    def test_second_doubling_near_sqrt_six(self):
        cfg = ScanConfig(transient=30_000)
        res = bifurcation_scan(2.40, 2.50, 41, cfg)
        assert res.doubling_2_to_4 is not None
        assert res.doubling_2_to_4 == pytest.approx(math.sqrt(6.0), abs=0.01)

    def test_records_cover_grid(self):
        res = bifurcation_scan(1.5, 1.8, 7)
        assert len(res.records) == 7
        assert res.records[0].control == pytest.approx(1.5)
        assert res.records[-1].control == pytest.approx(1.8)
        assert all(rec.detected_period == 1 for rec in res.records)

    def test_branch_count_monotone_through_cascade(self):
        cfg = ScanConfig(transient=30_000)
        res = bifurcation_scan(1.81, 2.41, 13, cfg)
        sizes = [rec.attractor.size for rec in res.records]
        assert sizes[0] == 1 and sizes[-1] == 2
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))

    def test_no_transition_outside_range(self):
        res = bifurcation_scan(1.0, 1.5, 11)
        assert res.doubling_1_to_2 is None
        assert res.doubling_2_to_4 is None

    def test_r_scaling_leaves_control_physics_alone(self):
        # rho is the only control: scans at different fixed r agree on
        # the doubling location
        a = bifurcation_scan(1.9025, 2.0975, 40, r_fixed=1.0)
        b = bifurcation_scan(1.9025, 2.0975, 40, r_fixed=0.25)
        assert a.doubling_1_to_2 == pytest.approx(b.doubling_1_to_2, abs=1e-12)

    @pytest.mark.parametrize("r_fixed", [0.7, 0.3])
    def test_control_is_the_grid_point_at_any_r(self, r_fixed):
        # r_fixed * (rho / r_fixed) is rho again only up to rounding: at
        # r = 0.7 it is an ulp off at 3 of these 20 points
        grid = np.linspace(2.5, 3.3, 20).tolist()
        records = bifurcation_scan(2.5, 3.3, 20, r_fixed=r_fixed).records
        assert [rec.control for rec in records] == grid

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            bifurcation_scan(1.0, 2.0, 1)
        with pytest.raises(ValueError):
            bifurcation_scan(1.0, 2.0, 10, r_fixed=0.0)

    @pytest.mark.parametrize(
        "rho_start, rho_stop, r_fixed",
        [(1.0, 2.0, 1e-308), (1.0, 2.0, 1e-320), (0.0, 0.1, 1e-309)],
        ids=["m", "subnormal-r", "seed-only"],
    )
    def test_grid_past_the_float_range_is_refused_before_any_step(self, monkeypatch, rho_start, rho_stop, r_fixed):
        # rho / r_fixed, or only the seed (1 + rho) / (2 r_fixed) where rho is
        # near 0, overflows: a ValueError naming r_fixed, not a warning and
        # rows of inf
        monkeypatch.setattr(oscpop.discretemap, "_attractors", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="r_fixed = .* past the float range"):
                bifurcation_scan(rho_start, rho_stop, 3, None, r_fixed)

    def test_scan_range_wider_than_the_float_range_is_refused(self, monkeypatch):
        # rho_stop - rho_start overflows, so the grid holds nan and inf; the
        # error names the range, not r_fixed
        monkeypatch.setattr(oscpop.discretemap, "_attractors", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"scan range rho_stop - rho_start = 1.7e\+308 - -1.7e\+308 passes"):
                bifurcation_scan(-1.7e308, 1.7e308, 3)


def _same_record(a, b):
    return (
        a.control == b.control
        and a.detected_period == b.detected_period
        and a.diverged == b.diverged
        and np.array_equal(a.attractor, b.attractor)
    )


class TestScanGridIndependence:
    def test_record_does_not_depend_on_the_rest_of_the_grid(self):
        # every point starts at the critical point, so a record is the
        # same whether its neighbours are near or far
        fine = bifurcation_scan(2.4, 3.0, 40)
        for k in (0, 7, 25, 33, 39):
            rho = fine.records[k].control
            alone = bifurcation_scan(rho, rho + 0.1, 2)
            assert _same_record(alone.records[0], fine.records[k]), k

    def test_grid_split_into_column_chunks_matches_one_pass(self, monkeypatch):
        whole = bifurcation_scan(1.9, 3.4, 10)
        monkeypatch.setattr(oscpop.discretemap, "_COLUMNS", 3)
        chunked = bifurcation_scan(1.9, 3.4, 10)
        assert len(chunked.records) == 10
        assert all(map(_same_record, whole.records, chunked.records))
        assert chunked.doubling_1_to_2 == whole.doubling_1_to_2

    def test_diverging_scan_flags_every_point_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = bifurcation_scan(3.2, 3.6, 9)
            assert not np.all(np.isfinite(iterate_map(1.0, 3.5, 5.0, 60)))
            assert detect_attractor(1.0, 1.0, math.inf).diverged
        assert all(rec.diverged and rec.detected_period is None for rec in res.records)
        assert all(rec.attractor.size >= 1 for rec in res.records)

    def test_orbit_on_a_repelling_cycle_is_not_an_attractor(self):
        # at rho = 3 the critical orbit 1/2 -> 1 -> 0 lands exactly on the
        # repelling fixed point 0, and p0 = M sits on the repelling P = M
        for r in (1.0, 0.25):
            last = bifurcation_scan(2.9, 3.0, 2, r_fixed=r).records[-1]
            assert last.detected_period is None and not last.diverged
        assert detect_attractor(1.0, 3.0, 3.0).detected_period is None

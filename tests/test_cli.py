import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oscpop
from oscpop import Constant, LogisticParams, TwoPhase, integrate_logistic, quadrature_solution
from oscpop import cli
from oscpop.cli import _fmt, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_commands() -> list[list[str]]:
    """The oscpop invocations of the README's "Command line" block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("oscpop ")]


class TestFormatting:
    def test_twelve_significant_digits(self):
        assert _fmt(math.pi) == "3.14159265359"
        assert _fmt(1.0) == "1"
        assert _fmt(0.1) == "0.1"

    def test_negative_zero_normalized(self):
        assert _fmt(-0.0) == "0"

    def test_roundtrip_precision(self):
        x = 2.8887684466751413
        assert float(_fmt(x)) == pytest.approx(x, rel=1e-11)


class TestSimulate:
    def test_stdout_csv(self, capsys):
        code, out, err = run(
            capsys,
            "simulate", "--schedule", "constant:2", "--r", "1", "--p0", "0.5",
            "--t-end", "2", "--dt", "0.5",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,P,M"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.5 and float(first[2]) == 2.0

    def test_values_match_library(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--schedule", "twophase:1,3,2", "--r", "1.2", "--p0", "0.8",
            "--t-end", "4", "--dt", "1", "--rel-tol", "1e-10", "--abs-tol", "1e-12",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        cap = TwoPhase(1.0, 3.0, 2.0)
        params = LogisticParams(1.2, 0.8, 0.0)
        grid = np.array([float(r[0]) for r in rows])
        traj = integrate_logistic(params, cap, 4.0, t_eval=grid)
        for row, want in zip(rows, traj.populations):
            assert float(row[1]) == pytest.approx(want, rel=1e-6)

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        code, out, _ = run(
            capsys,
            "simulate", "--schedule", "constant:1", "--r", "1", "--p0", "1",
            "--t-end", "1", "--dt", "0.5", "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("t,P,M\n")

    def test_output_dir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OSCPOP_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run(
            capsys,
            "simulate", "--schedule", "constant:1", "--r", "1", "--p0", "1",
            "--t-end", "1", "--dt", "0.5", "--output", "nested/run.csv",
        )
        assert code == 0
        assert (tmp_path / "nested" / "run.csv").exists()

    def test_absolute_output_ignores_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OSCPOP_OUTPUT_DIR", str(tmp_path / "elsewhere"))
        target = tmp_path / "direct.csv"
        code, _, _ = run(
            capsys,
            "simulate", "--schedule", "constant:1", "--r", "1", "--p0", "1",
            "--t-end", "1", "--dt", "0.5", "--output", str(target),
        )
        assert code == 0
        assert target.exists()

    def test_deterministic_output(self, capsys):
        argv = (
            "simulate", "--schedule", "sinusoid:1,0.25,3", "--r", "0.7", "--p0", "0.4",
            "--t-end", "5", "--dt", "0.1",
        )
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestClosedForm:
    def test_difference_column_small(self, capsys):
        code, out, _ = run(
            capsys,
            "closed-form", "--schedule", "constant:1", "--r", "1", "--p0", "0.5",
            "--t-end", "3", "--dt", "0.5",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,P_closed,P_numeric,abs_diff"
        for line in lines[1:]:
            assert float(line.split(",")[3]) <= 1e-6

    def test_long_horizon_past_the_exponent_bound(self, capsys):
        # r * integral of M reaches ~800 at t = 400 while P stays O(1)
        code, out, err = run(
            capsys,
            "closed-form", "--schedule", "sinusoid:2,0.6,3", "--r", "1", "--p0", "0.5",
            "--t-end", "400", "--dt", "20",
        )
        assert code == 0, err
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 21
        assert all(float(row[3]) <= 1e-5 * float(row[2]) for row in rows)


class TestTwoPhaseCommand:
    def test_report_and_csv(self, tmp_path, capsys):
        target = tmp_path / "square.csv"
        code, out, err = run(
            capsys,
            "two-phase", "--schedule", "twophase:1,3,40", "--r", "1", "--p0", "0.5",
            "--t-end", "80", "--dt", "5", "--output", str(target),
        )
        assert code == 0
        assert "saturated              = True" in out
        assert "phase1_end_population" in out
        body = target.read_text().splitlines()
        t, p, m = body[1].split(",")
        assert float(p) == pytest.approx(
            quadrature_solution(LogisticParams(1.0, 0.5, 0.0), TwoPhase(1.0, 3.0, 40.0), float(t)),
            rel=1e-9,
        )

    def test_slow_switching_report(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "two-phase", "--schedule", "twophase:1,3,400", "--r", "1", "--p0", "0.5",
            "--t-end", "800", "--dt", "100", "--output", str(tmp_path / "slow.csv"),
        )
        assert code == 0
        assert "saturated              = True" in out

    def test_fast_switching_warns(self, tmp_path, capsys):
        code, out, err = run(
            capsys,
            "two-phase", "--schedule", "twophase:1,3,0.05", "--r", "1", "--p0", "0.5",
            "--t-end", "1", "--dt", "0.01", "--output", str(tmp_path / "fast.csv"),
        )
        assert code == 0
        assert "do not saturate" in err

    def test_requires_square_wave_schedule(self, capsys):
        code, _, err = run(
            capsys,
            "two-phase", "--schedule", "constant:2", "--r", "1", "--p0", "0.5",
            "--t-end", "1", "--dt", "0.5",
        )
        assert code == 2
        assert "twophase" in err


class TestPeriodicCommand:
    def test_summary_fields(self, tmp_path, capsys):
        target = tmp_path / "orbit.csv"
        code, out, _ = run(
            capsys,
            "periodic", "--schedule", "twophase:1,3,2", "--r", "1.2",
            "--output", str(target),
        )
        assert code == 0
        fields = dict(
            line.split("=") for line in out.strip().splitlines() if "=" in line
        )
        fields = {k.strip(): float(v) for k, v in fields.items()}
        assert fields["p_star"] == pytest.approx(2.88876844519, rel=1e-10)
        assert fields["period"] == 2.0
        assert fields["mean_population"] == pytest.approx(2.0, rel=1e-6)
        assert fields["mean_identity_residual"] <= 1e-7
        assert target.read_text().startswith("t,P\n")


    def test_slow_switching_cycle(self, capsys):
        code, _, err = run(
            capsys, "periodic", "--schedule", "twophase:1,3,400", "--r", "1",
        )
        assert code == 0
        fields = dict(line.split("=") for line in err.strip().splitlines() if "=" in line)
        fields = {k.strip(): float(v) for k, v in fields.items()}
        assert fields["p_star"] == pytest.approx(3.0, rel=1e-10)


class TestBifurcationCommand:
    def test_scan_report(self, capsys):
        code, out, err = run(
            capsys,
            "bifurcation", "--rho-min", "1.9025", "--rho-max", "2.0975",
            "--steps", "40",
        )
        assert code == 0
        assert out.startswith("rho,branch_value\n")
        assert "doubling_1_to_2 = 2" in err
        assert "doubling_2_to_4 = not-found" in err

    def test_zero_unit_control_scans_like_any_other(self, capsys):
        # at rho = -1 the normalized coordinate r p / (1 + rho) divides by
        # 0; the critical orbit sits at 0 there and never escapes
        code, out, err = run(capsys, "bifurcation", "--rho-min", "-1", "--rho-max", "0", "--steps", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[1:513] == ["-1,0"] * 512
        assert lines[513] == "-0.5,4.94065645841e-324"
        assert len(lines) == 1026 and all(line.startswith("0,") for line in lines[514:])
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "56e3ed382feadaa92c6ef9e39526bf40d3200fda048563aadf909fabfc831b18"
        )
        assert err == "doubling_1_to_2 = not-found\ndoubling_2_to_4 = not-found\n"


class TestExitCodes:
    def test_usage_error_unknown_schedule(self, capsys):
        code, _, err = run(
            capsys,
            "simulate", "--schedule", "bogus:1", "--r", "1", "--p0", "1",
            "--t-end", "1", "--dt", "0.5",
        )
        assert code == 2
        assert "error" in err

    def test_usage_error_missing_argument(self, capsys):
        code, _, _ = run(capsys, "simulate", "--schedule", "constant:1")
        assert code == 2

    def test_usage_error_bad_grid(self, capsys):
        code, _, _ = run(
            capsys,
            "simulate", "--schedule", "constant:1", "--r", "1", "--p0", "1",
            "--t-end", "1", "--dt", "-0.5",
        )
        assert code == 2

    def test_domain_error(self, capsys):
        code, _, err = run(
            capsys,
            "periodic", "--schedule", f"sinusoid:0,1,{2 * math.pi}", "--r", "1",
        )
        assert code == 3
        assert "NoPeriodicSolutionError" in err

    def test_schedule_error_reported_before_solver_flags(self, capsys):
        code, _, err = run(
            capsys,
            "simulate", "--schedule", "bogus:1", "--r", "1", "--p0", "1",
            "--t-end", "1", "--dt", "0.5", "--abs-tol", "-1",
        )
        assert code == 2
        assert "bogus" in err and "tolerances" not in err

    def test_unrepresentable_cycle_weight_is_domain_error(self, capsys):
        code, _, err = run(
            capsys, "periodic", "--schedule", "twophase:101,-100,20", "--r", "1",
        )
        assert code == 3
        assert "ExponentOverflowError" in err

    def test_numerics_error(self, capsys):
        code, _, err = run(
            capsys,
            "closed-form", "--schedule", f"sinusoid:1,0.5,{2 * math.pi}", "--r", "1",
            "--p0", "1", "--t-end", "6", "--dt", "1",
            "--max-iterations", "1", "--abs-tol", "1e-14", "--rel-tol", "1e-14",
        )
        assert code == 4
        assert "ConvergenceError" in err

    @pytest.mark.parametrize(
        "schedule, message",
        [
            ("twophase:1,3,inf", "period must be finite"),
            ("constant:nan", "m must be finite"),
            ("sinusoid:1,nan,2", "amplitude must be finite"),
        ],
    )
    def test_non_finite_schedule_parameter_is_usage_error(self, capsys, schedule, message):
        code, out, err = run(
            capsys,
            "simulate", "--schedule", schedule, "--r", "1", "--p0", "1",
            "--t-end", "4", "--dt", "1",
        )
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bifurcation", "--rho-min", "1", "--rho-max", "inf", "--steps", "5"], "rho_stop must be finite"),
            (["bifurcation", "--rho-min", "nan", "--rho-max", "2", "--steps", "5"], "rho_start must be finite"),
            (["bifurcation", "--rho-min", "1", "--rho-max", "2", "--steps", "5", "--r", "inf"],
             "r_fixed must be finite"),
            (["periodic", "--schedule", "sinusoid:1,0.5,3", "--r", "1", "--fixed-point-tol", "nan"],
             "fixed_point_tol must be positive and finite, got nan"),
            (["periodic", "--schedule", "sinusoid:1,0.5,3", "--r", "1", "--fixed-point-tol", "inf"],
             "fixed_point_tol must be positive and finite, got inf"),
            (["periodic", "--schedule", "sinusoid:1,0.5,3", "--r", "1", "--fixed-point-tol", "-1"],
             "fixed_point_tol must be positive and finite, got -1.0"),
            (["periodic", "--schedule", "sinusoid:1,0.5,3", "--r", "1", "--fixed-point-tol", "1e-17"],
             "fixed_point_tol must be at least float64 epsilon 2.220446049250313e-16, got 1e-17"),
            (["periodic", "--schedule", "sinusoid:1,0.5,3", "--r", "1", "--fixed-point-tol", "1e-300"],
             "fixed_point_tol must be at least float64 epsilon 2.220446049250313e-16, got 1e-300"),
            (["two-phase", "--schedule", "twophase:1,3,2", "--r", "1", "--p0", "1", "--t-end", "4",
              "--dt", "1", "--regime-tol", "nan"], "regime_tol must be positive and finite, got nan"),
            (["two-phase", "--schedule", "twophase:1,3,2", "--r", "1", "--p0", "1", "--t-end", "4",
              "--dt", "1", "--regime-tol", "0"], "regime_tol must be positive and finite, got 0.0"),
        ],
        ids=["rho-max-inf", "rho-min-nan", "scan-r-inf", "fixed-point-tol-nan", "fixed-point-tol-inf",
             "fixed-point-tol-negative", "fixed-point-tol-1e-17", "fixed-point-tol-1e-300",
             "regime-tol-nan", "regime-tol-zero"],
    )
    def test_bad_scan_bound_or_tolerance_is_usage_error(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestVerifyCommand:
    def test_battery_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed", "7")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1].endswith("checks passed")

    def test_checks_run_under_python_optimize(self):
        # assert statements vanish under -O; the battery must still fail
        code = (
            "import sys\n"
            "from oscpop.capacity import Tabulated\n"
            "from oscpop.cli import main\n"
            "at = Tabulated.at\n"
            "Tabulated.at = lambda self, t: at(self, t) + 1e-3\n"
            "sys.exit(main(['verify', '--seed', '0']))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(oscpop.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        failed = [line for line in proc.stdout.splitlines() if line.startswith("FAIL")]
        assert len(failed) == 1
        assert re.fullmatch(r"FAIL tabulated_roundtrip_exact: \S.*", failed[0])
        assert proc.stdout.endswith("12/13 checks passed\n")

    def test_error_checks_look_functions_up_when_run(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "integrate_riccati", lambda *args, **kwargs: None)
        code, out, _ = run(capsys, "verify", "--seed", "0")
        assert code == 1
        assert re.search(r"^FAIL divergence_error_raised: \S", out, re.MULTILINE)


class TestReadmeCommands:
    @pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
    def test_runs_and_repeats_byte_for_byte(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first[0] == 0, first[2]
        assert second == first

    def test_block_lists_every_command(self):
        assert [argv[0] for argv in readme_commands()] == [
            "simulate", "closed-form", "two-phase", "periodic", "bifurcation", "verify",
        ]


class TestImports:
    def test_no_scipy_at_runtime(self):
        code = (
            "import sys, oscpop, oscpop.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(oscpop.__file__).resolve().parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "[]"

    def test_public_names(self):
        assert oscpop.__all__ == [
            "__version__",
            "CapacitySchedule",
            "Constant",
            "TwoPhase",
            "SinusoidOffset",
            "Tabulated",
            "SolverConfig",
            "load_capacity_csv",
            "parse_schedule",
            "LogisticParams",
            "logistic_constant",
            "two_phase_trajectory",
            "quadrature_solution",
            "reciprocal_solution",
            "Trajectory",
            "SolverStats",
            "integrate_logistic",
            "integrate_riccati",
            "adaptive_quadrature",
            "PeriodicSolution",
            "TwoPhaseReport",
            "period_map",
            "find_periodic_solution",
            "orbit_identity_residual",
            "mean_identity_residual",
            "square_deviation_identity",
            "time_average",
            "half_peak_fraction",
            "two_phase_deductions",
            "normalized_state",
            "iterate_map",
            "detect_attractor",
            "BifurcationRecord",
            "ScanConfig",
            "ScanResult",
            "bifurcation_scan",
            "OscPopError",
            "DomainError",
            "NumericsError",
            "ScheduleRangeError",
            "NonDifferentiableError",
            "PoleError",
            "NoPeriodicSolutionError",
            "ExponentOverflowError",
            "ConvergenceError",
            "StiffnessError",
            "DivergenceError",
        ]
        assert all(hasattr(oscpop, name) for name in oscpop.__all__)

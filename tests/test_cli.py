import argparse
import collections
import hashlib
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import oscpop
from oscpop import (
    Constant,
    LogisticParams,
    ScanConfig,
    SolverConfig,
    Tabulated,
    TwoPhase,
    find_periodic_solution,
    integrate_logistic,
    load_capacity_csv,
    quadrature_solution,
)
from oscpop import cli, verify
from oscpop.cli import _fmt, main
from reference import ERROR_BOUND


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    @pytest.mark.parametrize(
        "schedule, r, t_end, dt, rows, m0",
        [
            ("constant:2", "1", "2", "0.5", 5, 2.0),
            # the last segment's slope, -1e308 over a gap of 0.5, passes the
            # float range though its sample difference does not: M runs
            # down to -1.5e308, and every P and M printed is finite
            ("table:{tmp}/steep.csv", "1e-307", "3", "0.25", 13, 1.0),
        ],
        ids=["constant", "steep-table"],
    )
    def test_stdout_csv(self, capsys, tmp_path, schedule, r, t_end, dt, rows, m0):
        (tmp_path / "steep.csv").write_text("t,M\n0,1\n1,-1.5e308\n2.5,1e308\n3,2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(
                capsys,
                "simulate", "--schedule", schedule.replace("{tmp}", str(tmp_path)), "--r", r, "--p0", "0.5",
                "--t-end", t_end, "--dt", dt,
            )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,P,M"
        assert len(lines) == rows + 1
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.5 and float(first[2]) == m0
        assert all(math.isfinite(float(v)) for line in lines[1:] for v in line.split(","))

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

    def test_long_square_wave_run_finishes(self, capsys):
        # exit 4 when the step budget capped the attempted steps of the whole
        # run (at t = 417.761); the orbit settles on its cycle by t = 14
        code, out, err = run(
            capsys,
            "simulate", "--schedule", "twophase:1,3,2", "--r", "1", "--p0", "0.5",
            "--t-end", "700", "--dt", "1",
        )
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 701 and rows[-1][0] == "700"
        want = quadrature_solution(LogisticParams(1.0, 0.5), TwoPhase(1.0, 3.0, 2.0), 700.0)
        assert float(rows[-1][1]) == pytest.approx(want, rel=1e-7)

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


    def test_settled_run_is_near_the_closed_form(self, capsys):
        # the RK45 column of this argv (pinned in tests/cli_bytes.json)
        # settles on its cycle at t = 15; each row past it stays within the
        # bound of the closed form that rows before it keep
        code, out, err = run(
            capsys,
            "closed-form", "--schedule", "sinusoid:2,0.5,3", "--r", "1", "--p0", "0.5",
            "--t-end", "20", "--dt", "0.5",
        )
        assert code == 0, err
        cfg = SolverConfig()
        rows = [[float(v) for v in line.split(",")] for line in out.strip().splitlines()[1:]]
        assert len(rows) == 41
        assert all(diff <= ERROR_BOUND * (cfg.abs_tol + cfg.rel_tol * closed) for _, closed, _, diff in rows)

    @pytest.mark.parametrize(
        "schedule, p0, t0, t_end, dt",
        [
            ("constant:2", "0.5", "0", "5", "0.5"),
            ("constant:-0.5", "1.5", "0.25", "4", "0.75"),
            # t0 inside a cycle, samples on every switch time
            ("twophase:1,3,2", "0.8", "0.5", "9", "0.5"),
            ("twophase:-1,3,2", "2.5", "1.5", "9", "0.25"),
            ("twophase:1,3,2", "0", "0.3", "6", "0.5"),
            ("sinusoid:2,0.5,3", "0.5", "0.7", "12", "0.7"),
            ("sinusoid:0.3,1,2", "0", "0", "4", "0.5"),
            # samples on the table's knots
            ("table", "1.5", "0.25", "5.5", "0.25"),
        ],
    )
    def test_csv_is_quadrature_solution_at_each_point(self, capsys, tmp_path, schedule, p0, t0, t_end, dt):
        if schedule == "table":
            knots = np.linspace(0.0, 6.0, 13)
            rows = [f"{float(t)!r},{float(m)!r}" for t, m in zip(knots, 2.0 + np.sin(knots))]
            path = tmp_path / "table.csv"
            path.write_text("t,M\n" + "\n".join(rows) + "\n")
            schedule = f"table:{path}"
        code, out, err = run(
            capsys,
            "closed-form", "--schedule", schedule, "--r", "1.1", "--p0", p0, "--t0", t0,
            "--t-end", t_end, "--dt", dt,
        )
        assert code == 0, err
        cap, params = oscpop.parse_schedule(schedule), LogisticParams(1.1, float(p0), float(t0))
        grid = cli._time_grid(params.t0, float(t_end), float(dt))
        numeric = integrate_logistic(params, cap, float(grid[-1]), t_eval=grid).populations
        want = ["t,P_closed,P_numeric,abs_diff"]
        for t, p_num in zip(grid, numeric):
            p_closed = quadrature_solution(params, cap, float(t))
            want.append(",".join(_fmt(v) for v in (t, p_closed, p_num, abs(p_closed - p_num))))
        assert out == "\n".join(want) + "\n"


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

    @pytest.mark.parametrize(
        "t_end, dt, message",
        [("0", "1", "--t-end must exceed --t0"), ("-1", "1", "--t-end must exceed --t0"),
         ("4", "-1", "--dt must be positive"), ("4", "nan", "--dt must be positive"),
         ("inf", "1", "--t-end must be finite")],
    )
    def test_grid_rule_is_the_one_of_simulate(self, capsys, t_end, dt, message):
        grid = ["--r", "1", "--p0", "0.5", "--t-end", t_end, "--dt", dt]
        for command in ("two-phase", "simulate"):
            code, out, err = run(capsys, command, "--schedule", "twophase:1,3,2", *grid)
            assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("field", [f.name for f in fields(SolverConfig)])
    def test_solver_flag_is_a_usage_error(self, capsys, field):
        # the trajectory and the report are exact steps, so no solver setting
        # has anything to change
        argv = ["two-phase", "--schedule", "twophase:-0.5,3,5", "--r", "0.9", "--p0", "0.5",
                "--t-end", "20", "--dt", "0.5"]
        plain = run(capsys, *argv)
        assert plain[0] == 0
        assert "mean_population        = 1.25\n" in plain[2]  # stderr, beside the CSV on stdout
        flag = "--" + field.replace("_", "-")
        code, out, err = run(capsys, *argv, flag, "3")
        assert (code, out) == (2, "")
        assert "unrecognized arguments" in err and flag in err

    def test_subnormal_level_reads_as_the_zero_level(self, capsys):
        # the 5e-324 level printed P(24) = 0.64380994186 and plateaus of
        # 0.643334104337, where level 0 prints 0.339953907066
        tail = ["0.6433341043372951,0.8275370579085838", "--r", "0.8275370579085838",
                "--p0", "1.1480107280426515", "--t-end", "24", "--dt", "24"]
        tiny = run(capsys, "two-phase", "--schedule", f"twophase:5e-324,{tail[0]}", *tail[1:])
        zero = run(capsys, "two-phase", "--schedule", f"twophase:0,{tail[0]}", *tail[1:])
        assert tiny[0] == zero[0] == 0
        assert tiny[1].replace(",4.94065645841e-324", ",0") == zero[1]
        assert "24,0.339953907066," in tiny[1]
        assert tiny[2] == zero[2]

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

    @pytest.fixture
    def sinusoid_table(self, tmp_path, capsys):
        # one period of sinusoid:2,0.5,6 sampled every 0.05, as simulate writes it
        path = tmp_path / "cap.csv"
        code, _, _ = run(
            capsys,
            "simulate", "--schedule", "sinusoid:2,0.5,6", "--r", "1", "--p0", "1",
            "--t-end", "6", "--dt", "0.05", "--output", str(path),
        )
        assert code == 0
        return path

    def test_table_cycle_with_declared_period(self, sinusoid_table, capsys):
        code, _, err = run(capsys, "periodic", "--schedule", f"table:{sinusoid_table},6", "--r", "1")
        assert code == 0
        summary = {k.strip(): v.strip() for k, v in (line.split("=") for line in err.splitlines())}
        table = load_capacity_csv(sinusoid_table)
        sol = find_periodic_solution(1.0, Tabulated(table.times, table.values, 6.0))
        assert summary["p_star"] == _fmt(sol.p_star)
        assert float(summary["p_star"]) == pytest.approx(1.7757, abs=1e-4)
        assert float(summary["mean_population"]) == pytest.approx(2.0, abs=1e-3)

    @pytest.mark.parametrize("period", ["inf", "nan", "-1"])
    def test_table_rejects_bad_period(self, sinusoid_table, capsys, period):
        code, out, err = run(capsys, "periodic", "--schedule", f"table:{sinusoid_table},{period}", "--r", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "declared_period" in err

    def test_table_with_a_byte_order_mark(self, sinusoid_table, tmp_path, capsys):
        # a spreadsheet export's leading byte-order mark: the same floats, so
        # the same bytes, as the file without it, with and without a period
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + sinusoid_table.read_bytes())
        for tail, command in (("", ["simulate", "--p0", "1", "--t-end", "6", "--dt", "0.5"]), (",6", ["periodic"])):
            outputs = []
            for path in (sinusoid_table, marked):
                outputs.append(run(capsys, command[0], "--schedule", f"table:{path}{tail}", "--r", "1", *command[1:]))
            assert outputs[0][0] == 0 and outputs[1] == outputs[0]

    def test_table_without_period_has_no_cycle(self, sinusoid_table, capsys):
        code, _, err = run(capsys, "periodic", "--schedule", f"table:{sinusoid_table}", "--r", "1")
        assert (code, err) == (2, "error: schedule declares no period\n")


class TestLibraryDefaults:
    """The CLI passes only the flags given, so each default lives in the library."""

    @staticmethod
    def actions(command):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return {a.dest: a for a in sub.choices[command]._actions}

    @pytest.mark.parametrize("command", ["simulate", "closed-form", "periodic"])
    def test_one_flag_per_solver_field(self, command):
        actions = self.actions(command)
        for f in fields(SolverConfig):
            action = actions[f.name]
            assert action.option_strings == ["--" + f.name.replace("_", "-")]
            assert action.type is type(f.default)
            assert action.default is None

    def test_one_flag_per_scan_field(self):
        actions = self.actions("bifurcation")
        for f in fields(ScanConfig):
            action = actions[f.name]
            assert action.option_strings == ["--" + f.name.replace("_", "-")]
            assert action.type is type(f.default)
            assert action.default is None

    @pytest.mark.parametrize("field, value", [("transient", "500"), ("window", "64"), ("match_tol", "1e-3")])
    def test_every_scan_flag_reaches_the_scan(self, capsys, field, value):
        # the grid straddles the 1 -> 2 doubling, where orbits settle slowly,
        # so each setting moves the records; its default moves nothing
        argv = ["bifurcation", "--rho-min", "1.98", "--rho-max", "2.02", "--steps", "9"]
        flag = "--" + field.replace("_", "-")
        default = str(getattr(ScanConfig(), field))
        assert run(capsys, *argv, flag, default) == run(capsys, *argv)
        assert run(capsys, *argv, flag, value) != run(capsys, *argv)

    def test_two_phase_takes_no_solver_flag(self):
        actions = self.actions("two-phase")
        assert not {f.name for f in fields(SolverConfig)} & set(actions)
        flags = {o for a in actions.values() for o in a.option_strings} - {"-h", "--help"}
        assert flags == {"--schedule", "--r", "--p0", "--t0", "--t-end", "--dt", "--output", "--regime-tol"}

    # a setting each solver command reads: a tighter tolerance or step cap
    # moves the floats, a one-step budget or a coarse step floor fails
    SOLVER_SETTINGS = {"abs_tol": "1e-14", "rel_tol": "1e-12", "max_step": "0.01",
                       "min_step": "0.1", "max_iterations": "1"}

    @pytest.mark.parametrize("argv", [
        ["simulate", "--schedule", "twophase:1,3,2", "--r", "1.2", "--p0", "0.8", "--t-end", "10", "--dt", "0.1"],
        ["closed-form", "--schedule", "sinusoid:2,0.5,3", "--r", "1", "--p0", "0.5", "--t-end", "5", "--dt", "0.5"],
        ["periodic", "--schedule", "sinusoid:2,0.5,3", "--r", "1"],
    ], ids=lambda argv: argv[0])
    def test_every_solver_flag_reaches_a_solver(self, capsys, argv):
        assert set(self.SOLVER_SETTINGS) == {f.name for f in fields(SolverConfig)}
        plain = run(capsys, *argv)
        assert plain[0] == 0
        for field, value in self.SOLVER_SETTINGS.items():
            assert run(capsys, *argv, "--" + field.replace("_", "-"), value) != plain, field

    @pytest.mark.parametrize("command, dest", [("periodic", "fixed_point_tol"), ("two-phase", "regime_tol")])
    def test_cycle_tolerances_default_to_the_library(self, command, dest):
        assert self.actions(command)[dest].default is None

    @pytest.mark.parametrize("argv, flag", [
        (["periodic", "--schedule", "sinusoid:2,0.8,3", "--r", "1"], ["--fixed-point-tol", "1e-8"]),
        (["two-phase", "--schedule", "twophase:1,3,4", "--r", "1", "--p0", "0.5", "--t-end", "8", "--dt", "1"],
         ["--regime-tol", "0.05"]),
    ])
    def test_default_flag_prints_the_same_bytes(self, capsys, argv, flag):
        assert run(capsys, *argv) == run(capsys, *argv, *flag)


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

    def test_descending_range_reports_the_doubling(self, capsys):
        code, out, err = run(capsys, "bifurcation", "--rho-min", "2.2", "--rho-max", "1.8", "--steps", "40")
        assert code == 0
        # one row per value of a record's cycle: period 1 below the doubling,
        # period 2 above it
        rows = collections.Counter(float(line.split(",")[0]) for line in out.splitlines()[1:])
        below = max(rho for rho, count in rows.items() if count == 1)
        above = min(rho for rho, count in rows.items() if count == 2)
        first = err.splitlines()[0]
        assert first.startswith("doubling_1_to_2 = ")
        found = float(first.removeprefix("doubling_1_to_2 = "))
        assert found == pytest.approx(0.5 * (below + above), abs=1e-9)
        assert found == pytest.approx(2.0, abs=0.01)

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
    def test_memory_error_without_a_message_is_one_usage_line(self, capsys, monkeypatch):
        # numpy's allocation failures carry a message (see
        # test_nonfinite_times.py); a bare MemoryError gets a stock one
        def exhausted(args):
            raise MemoryError

        monkeypatch.setattr(cli, "_cmd_verify", exhausted)
        assert run(capsys, "verify") == (2, "", "error: out of memory: request too large\n")

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

    def test_huge_cycle_reports_finite_diagnostics(self, capsys):
        # squares of P = 1e200 overflowed: mean_identity_residual = nan with
        # exit 0, and a traceback under -W error::RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, "periodic", "--schedule", "twophase:1e200,1e200,1", "--r", "1")
        assert code == 0
        assert "mean_identity_residual = 0\n" in err
        assert "nan" not in err and "inf" not in err

    @pytest.mark.parametrize("argv, where", [
        (["periodic", "--schedule", "twophase:1e308,1e308,4", "--r", "1"], " over one period"),
        (["two-phase", "--schedule", "twophase:1e308,1e308,4", "--r", "1", "--p0", "1", "--t-end", "2", "--dt", "0.5"],
         " over one period"),
        (["closed-form", "--schedule", "sinusoid:1e308,5e307,3", "--r", "1e-308", "--p0", "1", "--t-end", "3",
          "--dt", "1"], ""),
    ], ids=["periodic", "two-phase", "closed-form"])
    def test_overflowing_period_mass_is_domain_error(self, capsys, argv, where):
        # the mass of a period, 4e308, is past the float range: the integral
        # was nan, reported as a bad initial population the user never gave;
        # so is the sinusoid's integral over [0, 3] in the quadrature
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == f"ExponentOverflowError: the capacity integral{where} leaves the float range\n"

    def test_samples_on_switch_times_take_the_new_level(self, capsys):
        # every sample is a switch time; three M cells held the old level
        code, out, _ = run(
            capsys, "simulate", "--schedule", "twophase:1,3,0.3", "--r", "1", "--p0", "0.5",
            "--t-end", "1.5", "--dt", "0.15",
        )
        assert code == 0
        assert [row.split(",")[2] for row in out.splitlines()[1:]] == ["1", "3"] * 5 + ["1"]

    @pytest.mark.parametrize("command", ["simulate", "two-phase"])
    def test_switch_index_past_the_float_range_is_usage_error(self, capsys, command):
        # t0 / (period / 2) overflows: a traceback (OverflowError), exit 1
        code, out, err = run(
            capsys, command, "--schedule", "twophase:1,3,1e-300", "--r", "1", "--p0", "0.5",
            "--t0", "1e10", "--t-end", "10000000001", "--dt", "1",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: switch times need finite bounds, got t=10000000000.0")

    @pytest.mark.parametrize(
        "schedule, r",
        [("twophase:1e308,1e308,1", "1"), ("table:{tmp}/flat.csv,1", "1e-308")],
        ids=["twophase", "flat-table"],
    )
    def test_cycle_whose_level_sum_overflows_solves(self, capsys, tmp_path, schedule, r):
        # m1 + m2, or the sum of two table samples, overflows, but the mass
        # 1e308 and p* = 1e308 do not: the square wave's whole-cycle term
        # was inf, and the command exited 3
        (tmp_path / "flat.csv").write_text("t,M\n0,1e308\n1,1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, "periodic", "--schedule", schedule.replace("{tmp}", str(tmp_path)), "--r", r)
        assert code == 0
        assert "p_star                 = 1e+308\n" in err
        assert "mean_population        = 1e+308\n" in err
        assert "nan" not in out + err and "inf" not in out + err

    def test_square_wave_report_whose_level_sum_overflows(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(
                capsys, "two-phase", "--schedule", "twophase:1e308,1e308,1", "--r", "1", "--p0", "1",
                "--t-end", "2", "--dt", "0.5",
            )
        assert code == 0
        assert "mean_condition_gap" not in err  # the report has no such line
        assert "mean_population        = 1e+308\n" in err
        assert "nan" not in out + err and "inf" not in out + err

    @pytest.mark.parametrize(
        "schedule",
        [
            "sinusoid:2,0.5,1e-159", "sinusoid:2,0.5,1e-300", "sinusoid:2,0.5,1e-308", "sinusoid:2,0.5,1e-310",
            "twophase:1,3,1e-300", "twophase:1,3,1e-309",
        ],
    )
    def test_cycle_of_a_tiny_period_reports_its_mean(self, capsys, schedule):
        # the cycle integrals weigh each RK45 step by its own width; composite
        # Simpson on the orbit samples divided by products of two sample gaps,
        # which left the float range here, and the command exited 2
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, "periodic", "--schedule", schedule, "--r", "1")
        assert code == 0
        assert "mean_population        = 2\n" in err
        assert "nan" not in out + err and "inf" not in out + err

    def test_subnormal_square_wave_period_is_usage_error(self, capsys):
        # half of 5e-324 rounds to 0, the spacing of the switch times
        code, _, err = run(
            capsys,
            "simulate", "--schedule", "twophase:1,3,5e-324", "--r", "1", "--p0", "0.5",
            "--t-end", "10", "--dt", "1",
        )
        assert code == 2
        assert "half the period must be positive" in err

    @pytest.mark.parametrize(
        "argv",
        [
            # u(h) underflows to 0
            ["two-phase", "--schedule",
             "twophase:33.13377201188973,0.08853049708031088,0.05126131047585376",
             "--r", "5e-324", "--p0", "0.007321679144811101", "--t-end", "51.11324948079499",
             "--dt", "0.20610181242256045"],
            # p* underflows to 0
            ["periodic", "--schedule", "sinusoid:0.12547141870543327,700,1.3104843637962589",
             "--r", "5e-324", "--max-step", "0.0030027310082997236"],
        ],
        ids=["two-phase", "periodic"],
    )
    def test_subnormal_rate_cycle_is_domain_error(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert "ExponentOverflowError" in err and "unrepresentable" in err

    def test_long_piece_is_not_a_divergence(self, capsys):
        # the first trial step of each long piece overflows and is rejected
        code, out, err = run(
            capsys,
            "simulate", "--schedule", "constant:1", "--r", "1", "--p0", "0.5",
            "--t-end", "30000", "--dt", "7500",
        )
        assert code == 0, err
        t, p, _ = out.splitlines()[-1].split(",")
        assert float(t) == 30000.0 and float(p) == pytest.approx(1.0, abs=1e-8)
        code, out, err = run(
            capsys,
            "periodic", "--schedule", "twophase:1,3,20000", "--r", "1",
            "--max-iterations", "1000000", "--output", "-",
        )
        assert code == 0, err
        assert "p_star                 = 3" in err.splitlines()

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

    @pytest.mark.parametrize("p0", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--schedule", "constant:1"],
            ["closed-form", "--schedule", "sinusoid:2,0.5,3"],
            ["two-phase", "--schedule", "twophase:1,3,2"],
        ],
        ids=["simulate", "closed-form", "two-phase"],
    )
    def test_non_finite_p0_is_usage_error(self, capsys, argv, p0):
        # P = inf is u = 0, which the library admits but a start given on the
        # command line may not be: it is refused before any numerics run
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv, "--r", "1", f"--p0={p0}", "--t-end", "4", "--dt", "1")
        assert (code, out, err) == (2, "", f"error: --p0 must be finite, got {float(p0)}\n")

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
            (["simulate", "--schedule", "sinusoid:2,0.5,3", "--r", "1", "--p0", "0.5", "--t-end", "10",
              "--dt", "1", "--rel-tol", "inf"], "tolerances must be positive and finite, got abs_tol=1e-10, rel_tol=inf"),
            (["simulate", "--schedule", "sinusoid:2,0.5,3", "--r", "1", "--p0", "0.5", "--t-end", "10",
              "--dt", "1", "--abs-tol", "inf"], "tolerances must be positive and finite, got abs_tol=inf, rel_tol=1e-08"),
            (["bifurcation", "--rho-min", "1", "--rho-max", "3.5", "--steps", "6", "--match-tol", "inf"],
             "match_tol must be positive and finite, got inf"),
        ],
        ids=["rho-max-inf", "rho-min-nan", "scan-r-inf", "fixed-point-tol-nan", "fixed-point-tol-inf",
             "fixed-point-tol-negative", "fixed-point-tol-1e-17", "fixed-point-tol-1e-300",
             "regime-tol-nan", "regime-tol-zero", "rel-tol-inf", "abs-tol-inf", "match-tol-inf"],
    )
    def test_bad_scan_bound_or_tolerance_is_usage_error(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_scan_grid_past_the_float_range_is_usage_error(self, capsys):
        # at r = 1e-320 every rho / r overflows: one stderr line and exit 2,
        # not rows of inf under rho = inf and a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "bifurcation", "--rho-min", "1", "--rho-max", "2", "--steps", "3", "--r", "1e-320")
        assert (code, out) == (2, "")
        assert err.startswith("error: r_fixed = ") and err.count("\n") == 1


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

    @pytest.mark.parametrize(
        "error, reason",
        [(AssertionError("planted"), "planted"), (ValueError("planted"), "ValueError: planted")],
    )
    def test_failed_check_is_reported_and_exits_1(self, capsys, monkeypatch, error, reason):
        def broken(rng, tmp, main):
            raise error

        battery = list(verify._BATTERY)
        name = battery[0][0]
        battery[0] = (name, broken)
        monkeypatch.setattr(verify, "_BATTERY", battery)
        code, out, _ = run(capsys, "verify", "--seed", "0")
        lines = out.splitlines()
        assert code == 1
        assert lines[0] == f"FAIL {name}: {reason}"
        assert all(line.startswith("PASS ") for line in lines[1:-1])
        assert lines[-1] == "12/13 checks passed"

    def test_error_checks_look_functions_up_when_run(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "integrate_riccati", lambda *args, **kwargs: None)
        code, out, _ = run(capsys, "verify", "--seed", "0")
        assert code == 1
        assert re.search(r"^FAIL divergence_error_raised: \S", out, re.MULTILINE)


class TestImports:
    def test_no_scipy_at_runtime(self):
        code = (
            # oscpop.verify imports every library module; import oscpop alone loads none
            "import sys, oscpop.cli, oscpop.verify; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(oscpop.__file__).resolve().parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "[]"

    # what simulate and closed-form run: no periodic, no discretemap
    INTEGRATION = {"oscpop.capacity", "oscpop.closedform", "oscpop.errors", "oscpop.odesolve", "oscpop.settings"}
    EVERY = {f"oscpop.{path.stem}" for path in Path(oscpop.__file__).parent.glob("*.py")} - {"oscpop.__init__"}

    @pytest.mark.parametrize(
        "argv, loaded",
        [
            ([], set()),
            (["bifurcation", "--rho-min", "1", "--rho-max", "3", "--steps", "3"],
             {"oscpop.cli", "oscpop.discretemap", "oscpop.errors", "oscpop.settings"}),
            (["simulate", "--schedule", "sinusoid:1,0.5,3", "--r", "1", "--p0", "0.5", "--t-end", "1",
              "--dt", "0.5"], {"oscpop.cli", *INTEGRATION}),
            (["closed-form", "--schedule", "sinusoid:1,0.5,3", "--r", "1", "--p0", "0.5", "--t-end", "1",
              "--dt", "0.5"], {"oscpop.cli", *INTEGRATION}),
            (["verify"], EVERY),
        ],
        ids=["import", "bifurcation", "simulate", "closed-form", "verify"],
    )
    def test_cold_start_loads_only_what_the_command_runs(self, argv, loaded):
        # a fresh interpreter per case: import oscpop, then run main on argv if given;
        # `from oscpop import cli` asks the package for the submodule by name.
        # No command loads numpy.random: verify draws from Python's random
        code = (
            "import contextlib, io, sys\n"
            "import oscpop\n"
            "exit_code = 0\n"
            "if sys.argv[1:]:\n"
            "    from oscpop import cli\n"
            "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "        exit_code = cli.main(sys.argv[1:])\n"
            "print('numpy.random' in sys.modules)\n"
            "print(*sorted(m for m in sys.modules if m.startswith('oscpop.')))\n"
            "sys.exit(exit_code)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(oscpop.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        numpy_random, _, modules = proc.stdout.partition("\n")
        assert numpy_random == "False"
        assert set(modules.split()) == loaded

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

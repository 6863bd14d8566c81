"""Non-finite horizons, sample spacings and growth rates are rejected
with ValueError, and a square wave with more switch times than the step
budget can reach ends in ConvergenceError.

Without these guards a NaN horizon on a schedule without breakpoints
fails inside the RK45 step loop and an infinite one diverges there, a
NaN sample grid or an infinite horizon sends
TwoPhase.breakpoints_between into a loop that grows a list until memory
runs out, and r = inf does the same to the panel points of the
reciprocal-space quadrature, which double a distance that stays 0; a
schedule that listed every switch time before its first piece would
exhaust memory on a 1e-5 period over t = 100. Every call here therefore
runs in a child process with a time limit and a 1 GiB address-space
limit, so a regression fails the test instead of exhausting the machine.
"""
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import oscpop

LIBRARY_CALLS = """
import json, math
from oscpop import (Constant, LogisticParams, SinusoidOffset, TwoPhase, find_periodic_solution,
                    integrate_logistic, integrate_riccati, quadrature_solution,
                    two_phase_trajectory)
cap, params = TwoPhase(1.0, 3.0, 2.0), LogisticParams(1.0, 1.0)
flat, wave = Constant(1.0), SinusoidOffset(2.0, 0.5, 3.0)
calls = {
    "logistic_params_inf_r": lambda: LogisticParams(math.inf, 1.0),
    "periodic_inf_r": lambda: find_periodic_solution(math.inf, SinusoidOffset(1.0, 0.5, 3.0)),
    "breakpoints_nan_end": lambda: cap.breakpoints_between(0.0, math.nan),
    "breakpoints_inf_start": lambda: cap.breakpoints_between(-math.inf, 1.0),
    "integrate_logistic": lambda: integrate_logistic(params, cap, math.inf),
    "integrate_riccati": lambda: integrate_riccati(params, cap, math.inf),
    "quadrature_solution": lambda: quadrature_solution(params, cap, math.inf),
    "logistic_nan_constant": lambda: integrate_logistic(params, flat, math.nan),
    "riccati_nan_sinusoid": lambda: integrate_riccati(params, wave, math.nan),
    "logistic_inf_sinusoid": lambda: integrate_logistic(params, wave, math.inf),
    "riccati_inf_constant": lambda: integrate_riccati(params, flat, math.inf),
    "two_phase_inf_dt": lambda: two_phase_trajectory(params, cap, 4.0, math.inf),
    "two_phase_inf_t_end": lambda: two_phase_trajectory(params, cap, math.inf, 1.0),
    "two_phase_nan_t_end": lambda: two_phase_trajectory(params, cap, math.nan, 1.0),
    "switch_period_1e-5": lambda: integrate_logistic(LogisticParams(1.0, 0.5), TwoPhase(1.0, 3.0, 1e-5), 100.0),
    "switch_period_1e-7": lambda: integrate_logistic(LogisticParams(1.0, 0.5), TwoPhase(1.0, 3.0, 1e-7), 100.0),
}
out = {}
for name, call in calls.items():
    try:
        call()
        out[name] = "returned"
    except Exception as exc:
        out[name] = f"{type(exc).__name__}: {exc}"
print(json.dumps(out))
"""

CLI_RUNS = """
import contextlib, io, json, sys
from oscpop.cli import main
out = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:
        code = f"{type(exc).__name__} escaped main"
    out.append([code, err.getvalue()])
print(json.dumps(out))
"""

GRID = ["--r", "1", "--p0", "1"]
CLI_CASES = [
    (["two-phase", "--schedule", "twophase:1,3,2", *GRID, "--t-end", "4", "--dt", "inf"], "dt_sample"),
    (["two-phase", "--schedule", "twophase:1,3,2", *GRID, "--t-end", "inf", "--dt", "1"], "t_end"),
    (["simulate", "--schedule", "twophase:1,3,2", *GRID, "--t-end", "4", "--dt", "inf"], "--dt"),
    (["simulate", "--schedule", "constant:1", *GRID, "--t-end", "inf", "--dt", "1"], "--t-end"),
    (["simulate", "--schedule", "constant:1", *GRID, "--t-end", "4", "--dt", "inf"], "--dt"),
    (["closed-form", "--schedule", "constant:1", *GRID, "--t-end", "nan", "--dt", "1"], "--t-end"),
    (["closed-form", "--schedule", "sinusoid:1,0.5,3", *GRID, "--t-end", "inf", "--dt", "1"], "--t-end"),
    (["periodic", "--schedule", "sinusoid:1,0.5,3", "--output", "-", "--r", "inf"], "growth rate r"),
    (["simulate", "--schedule", "constant:1", "--p0", "1", "--t-end", "4", "--dt", "1", "--r", "inf"],
     "growth rate r"),
]
DENSE_SWITCHES = ["simulate", "--schedule", "twophase:1,3,1e-5", "--r", "1", "--p0", "0.5", "--t-end", "100",
                  "--dt", "10"]


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_bounded(code: str, *args: str):
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(oscpop.__file__).resolve().parents[1]),
        OPENBLAS_NUM_THREADS="1",
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_memory,
    )
    assert proc.returncode == 0 and proc.stdout, f"child exited {proc.returncode}: {proc.stderr}"
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def library_errors():
    return run_bounded(LIBRARY_CALLS)


@pytest.fixture(scope="module")
def cli_results():
    return run_bounded(CLI_RUNS, json.dumps([argv for argv, _ in CLI_CASES] + [DENSE_SWITCHES]))


@pytest.mark.parametrize(
    "call, message",
    [
        ("logistic_params_inf_r", "growth rate r must be finite"),
        ("periodic_inf_r", "growth rate r must be finite"),
        ("breakpoints_nan_end", "finite bounds"),
        ("breakpoints_inf_start", "finite bounds"),
        ("integrate_logistic", "finite bounds"),
        ("integrate_riccati", "finite bounds"),
        ("quadrature_solution", "finite bounds"),
        ("logistic_nan_constant", "finite bounds"),
        ("riccati_nan_sinusoid", "finite bounds"),
        ("logistic_inf_sinusoid", "finite bounds"),
        ("riccati_inf_constant", "finite bounds"),
        ("two_phase_inf_dt", "dt_sample must be finite"),
        ("two_phase_inf_t_end", "t_end must be finite"),
        ("two_phase_nan_t_end", "t_end must be finite"),
    ],
)
def test_library_rejects_non_finite_times(library_errors, call, message):
    assert library_errors[call].startswith("ValueError: ")
    assert message in library_errors[call]


@pytest.mark.parametrize("call", ["switch_period_1e-5", "switch_period_1e-7"])
def test_library_budget_outlasts_dense_switching(library_errors, call):
    assert library_errors[call] == "ConvergenceError: step budget exhausted (max_iterations)"


def _case_id(i: int) -> str:
    argv = CLI_CASES[i][0]
    return " ".join([argv[0], argv[2], *argv[-4:]])


@pytest.mark.parametrize("case", range(len(CLI_CASES)), ids=_case_id)
def test_cli_exits_2_naming_the_argument(cli_results, case):
    code, err = cli_results[case]
    assert code == 2
    assert err == f"error: {CLI_CASES[case][1]} must be finite\n"


def test_cli_exits_4_when_switches_outrun_the_budget(cli_results):
    assert cli_results[-1] == [4, "ConvergenceError: step budget exhausted (max_iterations)\n"]

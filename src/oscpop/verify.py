"""The invariant battery behind ``oscpop verify``.

Each check is called with a seeded generator, a scratch directory and
the CLI's main; it passes by returning and fails by raising. The CLI
imports this module only for ``verify``, so the other commands never
load it.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import tempfile
from collections.abc import Callable

import numpy as np

from .capacity import Constant, SinusoidOffset, SolverConfig, TwoPhase, parse_schedule
from .closedform import LogisticParams, logistic_constant, quadrature_solution
from .discretemap import normalized_state
from .errors import DivergenceError, NoPeriodicSolutionError, NumericsError, PoleError, StiffnessError
from .odesolve import adaptive_quadrature, integrate_logistic, integrate_riccati
from .periodic import find_periodic_solution


def _require(ok: bool, message: str) -> None:
    """Fail the running check with message; unlike assert, kept under python -O."""
    if not ok:
        raise AssertionError(message)


def _raises(error: type[Exception], call):
    """A check that passes when call() raises error. call is a lambda, so the
    functions it names are looked up in this module only when the check runs."""

    def check(rng, tmp, main):
        try:
            result = call()
        except error:
            return
        raise AssertionError(f"{error.__name__} not raised; the call returned {type(result).__name__}")

    return check


def _run(main, argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of main(argv), with stderr discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _check_constant_equilibrium(rng, tmp, main):
    cap = Constant(1.5)
    traj = integrate_logistic(LogisticParams(1.0, 1.5, 0.0), cap, 10.0)
    drift = float(np.max(np.abs(traj.populations - 1.5)))
    _require(drift <= 1e-9, f"max |P - 1.5| = {drift:.3g} > 1e-9")


def _check_closed_form_reduction(rng, tmp, main):
    # a zero-amplitude sinusoid takes the quadrature route, not the closed form
    cap = SinusoidOffset(1.0, 0.0, 2.0 * math.pi)
    cfg = SolverConfig(abs_tol=1e-12, rel_tol=1e-10)
    params = LogisticParams(1.0, 0.5, 0.0)
    for t in np.linspace(0.1, 8.0, 25):
        exact = logistic_constant(params, 1.0, float(t))
        quad = quadrature_solution(params, cap, float(t), cfg)
        _require(abs(quad - exact) <= 1e-8 * abs(exact), f"P({t:.6g}) = {quad!r}, closed form {exact!r}")


def _check_cross_solver_sinusoid(rng, tmp, main):
    cap = SinusoidOffset(2.0, 0.5, 2.0 * math.pi)
    cfg = SolverConfig(abs_tol=1e-12, rel_tol=1e-10, max_step=0.02)
    params = LogisticParams(1.0, 1.0, 0.0)
    grid = np.linspace(0.0, 4.0 * math.pi, 40)
    a = integrate_logistic(params, cap, float(grid[-1]), cfg, t_eval=grid).populations
    b = integrate_riccati(params, cap, float(grid[-1]), cfg, t_eval=grid).populations
    gap = float(np.max(np.abs(a - b) / np.abs(a)))
    _require(gap <= 1e-6, f"largest relative gap between the routes {gap:.3g} > 1e-6")


def _check_conjugacy(rng, tmp, main):
    # one block draw: the same floats, in the same order, as 3,000 scalar draws
    for r, m, x0 in rng.uniform([0.05, 0.1, 0.01], [2.0, 10.0, 0.99], size=(1000, 3)).tolist():
        rho = r * m
        p0 = x0 * (1.0 + rho) / r
        p1 = p0 + r * (m - p0) * p0
        lhs = normalized_state(r, m, p1)
        rhs = (1.0 + rho) * x0 * (1.0 - x0)
        _require(abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs)), f"x1 = {lhs!r}, quadratic map {rhs!r}")


def _check_capacity_additivity(rng, tmp, main):
    caps = [
        Constant(float(rng.uniform(-1, 3))),
        TwoPhase(float(rng.uniform(0, 2)), float(rng.uniform(2, 4)), 3.0),
        SinusoidOffset(1.0, float(rng.uniform(0.1, 2.0)), 4.0),
    ]
    for cap in caps:
        a, b, c = sorted(rng.uniform(-5, 5, size=3))
        whole = cap.integral(float(a), float(c))
        split = cap.integral(float(a), float(b)) + cap.integral(float(b), float(c))
        _require(abs(whole - split) <= 1e-10 * max(1.0, abs(whole)), f"{cap}: {whole!r} whole, {split!r} split")


def _check_tabulated_roundtrip(rng, tmp, main):
    path = os.path.join(tmp, "table_check.csv")
    code, _ = _run(
        main,
        [
            "simulate",
            "--schedule",
            "sinusoid:1,0.5,6.283185307179586",
            "--r",
            "1",
            "--p0",
            "1",
            "--t-end",
            "6",
            "--dt",
            "0.5",
            "--output",
            path,
        ]
    )
    _require(code == 0, f"simulate exited {code}")
    cap = parse_schedule(f"table:{path}")
    with open(path) as fh:
        rows = fh.read().strip().splitlines()[1:]
    for row in rows:
        t_text, _, m_text = row.split(",")
        m = cap.at(float(t_text))
        _require(m == float(m_text), f"M({t_text}) = {m!r}, file has {m_text}")


def _check_csv_deterministic(rng, tmp, main):
    argv = [
        "simulate",
        "--schedule",
        "sinusoid:1,0.25,3",
        "--r",
        "0.7",
        "--p0",
        "0.4",
        "--t-end",
        "5",
        "--dt",
        "0.1",
    ]
    (code1, first), (code2, second) = _run(main, argv), _run(main, argv)
    _require(code1 == code2 == 0, f"simulate exited {code1}, then {code2}")
    _require(first == second, f"the two runs printed different CSV ({len(first)} and {len(second)} characters)")


def _check_exit_codes(rng, tmp, main):
    for expected, argv in (
        (0, ["simulate", "--schedule", "constant:1", "--r", "1", "--p0", "1",
             "--t-end", "1", "--dt", "0.5", "--output", os.path.join(tmp, "ok.csv")]),
        (2, ["simulate", "--schedule", "bogus:1", "--r", "1", "--p0", "1",
             "--t-end", "1", "--dt", "0.5"]),
        (3, ["periodic", "--schedule", "sinusoid:0,1,6.283185307179586", "--r", "1",
             "--output", os.path.join(tmp, "cycle.csv")]),
        (4, ["closed-form", "--schedule", "sinusoid:1,0.5,6.283185307179586", "--r", "1",
             "--p0", "1", "--t-end", "6", "--dt", "1", "--max-iterations", "1",
             "--abs-tol", "1e-14", "--rel-tol", "1e-14",
             "--output", os.path.join(tmp, "cf.csv")]),
    ):
        code, _ = _run(main, argv)
        _require(code == expected, f"{argv[0]} {argv[2]}: expected exit {expected}, got {code}")


_BATTERY = [
    ("constant_equilibrium_flat", _check_constant_equilibrium),
    ("closed_form_reduction", _check_closed_form_reduction),
    ("cross_solver_agreement_sinusoid", _check_cross_solver_sinusoid),
    ("pole_error_raised", _raises(
        PoleError, lambda: logistic_constant(LogisticParams(1.0, 2.0, 0.0), -1.0, math.log(2.0 / 3.0)))),
    ("no_periodic_solution_raised", _raises(
        NoPeriodicSolutionError, lambda: find_periodic_solution(1.0, SinusoidOffset(0.0, 1.0, 2.0 * math.pi)))),
    ("stiffness_error_raised", _raises(StiffnessError, lambda: integrate_logistic(
        LogisticParams(1.0, 0.5, 0.0), SinusoidOffset(1.0, 0.5, 0.05), 1.0,
        SolverConfig(abs_tol=1e-14, rel_tol=1e-12, min_step=0.02, max_step=0.04)))),
    ("divergence_error_raised", _raises(
        DivergenceError, lambda: integrate_riccati(LogisticParams(1.0, 1.0, 0.0), Constant(1e160), 1.0))),
    ("quadrature_budget_error_raised", _raises(NumericsError, lambda: adaptive_quadrature(
        lambda s: math.exp(-math.cos(s)), 0.0, math.pi, (),
        SolverConfig(abs_tol=1e-14, rel_tol=1e-14, max_iterations=1)))),
    ("conjugacy_identity_1000_draws", _check_conjugacy),
    ("capacity_integral_additivity", _check_capacity_additivity),
    ("tabulated_roundtrip_exact", _check_tabulated_roundtrip),
    ("csv_output_deterministic", _check_csv_deterministic),
    ("cli_exit_codes_0_2_3_4", _check_exit_codes),
]


def run_battery(seed: int, main: Callable[[list[str]], int]) -> int:
    """Run every check, print one PASS or FAIL line each and a count; the
    exit code is 0 when all pass, else 1. main is the CLI entry point that
    the CLI checks run."""
    rng = np.random.default_rng(seed)
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, check in _BATTERY:
            try:
                check(rng, tmp, main)
            except Exception as exc:  # report and keep going
                failures += 1
                reason = exc if isinstance(exc, AssertionError) else f"{type(exc).__name__}: {exc}"
                print(f"FAIL {name}: {reason}")
            else:
                print(f"PASS {name}")
    print(f"{len(_BATTERY) - failures}/{len(_BATTERY)} checks passed")
    return 0 if failures == 0 else 1

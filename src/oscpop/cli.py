"""Command-line front end.

Commands: simulate, closed-form, two-phase, periodic, bifurcation,
verify. CSV goes to --output (stdout by default); human-readable
summaries go to stdout when the CSV is in a file, otherwise to stderr.
Exit codes: 0 success, 2 usage or parse error, 3 domain error, 4
numerical non-convergence.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np

from .capacity import (
    Constant,
    SinusoidOffset,
    SolverConfig,
    TwoPhase,
    parse_schedule,
)
from .closedform import (
    LogisticParams,
    _propagate,
    _sample_grid,
    logistic_constant,
    quadrature_solution,
    two_phase_trajectory,
)
from .discretemap import ScanConfig, bifurcation_scan, normalized_state
from .errors import (
    DivergenceError,
    DomainError,
    NoPeriodicSolutionError,
    NumericsError,
    PoleError,
    StiffnessError,
)
from .odesolve import adaptive_quadrature, integrate_logistic, integrate_riccati
from .periodic import (
    find_periodic_solution,
    half_peak_fraction,
    mean_identity_residual,
    time_average,
    two_phase_deductions,
)

OUTPUT_DIR_ENV = "OSCPOP_OUTPUT_DIR"


def _fmt(value: float) -> str:
    v = float(value)
    if v == 0.0:
        v = 0.0  # normalize negative zero for byte-stable output
    return format(v, ".12g")


def _resolve_output(target: str) -> str:
    if target == "-":
        return target
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(target):
        return os.path.join(base, target)
    return target


def _emit(header: list[str], rows, destination: str, report: str | None = None) -> None:
    target = _resolve_output(destination)
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if target == "-":
        sys.stdout.write(text)
        if report:
            sys.stderr.write(report)
    else:
        Path(target).parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w", newline="") as fh:
            fh.write(text)
        if report:
            sys.stdout.write(report)


def _given(args, names) -> dict:
    # the flags among names that were given; the library's defaults stand for the rest
    return {k: getattr(args, k) for k in names if getattr(args, k) is not None}


def _config(args, settings: type):
    # a settings dataclass from the flags of its fields that were given
    return settings(**_given(args, [f.name for f in fields(settings)]))


def _params(args) -> LogisticParams:
    # LogisticParams admits p0 = inf (u = 0) for internal use only
    if not math.isfinite(args.p0):
        raise ValueError(f"--p0 must be finite, got {args.p0}")
    return LogisticParams(args.r, args.p0, args.t0)


def _time_grid(t0: float, t_end: float, dt: float) -> np.ndarray:
    if not dt > 0.0:
        raise ValueError("--dt must be positive")
    if t_end <= t0:
        raise ValueError("--t-end must exceed --t0")
    for flag, value in (("--t-end", t_end), ("--dt", dt)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite")
    return _sample_grid(t0, t_end, dt)


def _add_config_options(p: argparse.ArgumentParser, settings: type) -> None:
    # one flag per field of a settings dataclass, typed like its default
    for f in fields(settings):
        p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, type=type(f.default), default=None)


def _add_model_options(p: argparse.ArgumentParser, with_grid: bool = True) -> None:
    p.add_argument("--schedule", required=True, help="constant:M | twophase:M1,M2,period | sinusoid:mean,amp,period | table:path.csv[,period]")
    p.add_argument("--r", type=float, required=True, help="growth rate")
    if with_grid:
        p.add_argument("--p0", type=float, required=True, help="initial population")
        p.add_argument("--t0", type=float, default=0.0)
        p.add_argument("--t-end", dest="t_end", type=float, required=True)
        p.add_argument("--dt", type=float, required=True, help="sample spacing")
    p.add_argument("--output", default="-", help="CSV destination, '-' for stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscpop",
        description="Logistic growth under time-varying carrying capacity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="adaptive integration, CSV of t,P,M")
    _add_model_options(p)
    _add_config_options(p, SolverConfig)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "closed-form", help="quadrature solution vs. integrator, CSV of t,P_closed,P_numeric,abs_diff"
    )
    _add_model_options(p)
    _add_config_options(p, SolverConfig)
    p.set_defaults(func=_cmd_closed_form)

    p = sub.add_parser("two-phase", help="piecewise-exact square-wave trajectory plus cycle report")
    _add_model_options(p)
    p.add_argument("--regime-tol", dest="regime_tol", type=float, default=None, help="saturated when each plateau gap is below this fraction of its level")
    p.set_defaults(func=_cmd_two_phase)

    p = sub.add_parser("periodic", help="periodic cycle: orbit CSV plus summary")
    _add_model_options(p, with_grid=False)
    _add_config_options(p, SolverConfig)
    p.add_argument("--fixed-point-tol", dest="fixed_point_tol", type=float, default=None, help="relative closure tolerance |P(h) - p*| / p* of the cycle")
    p.set_defaults(func=_cmd_periodic)

    p = sub.add_parser("bifurcation", help="discrete-map attractor scan over rho = r*M")
    p.add_argument("--rho-min", dest="rho_min", type=float, required=True)
    p.add_argument("--rho-max", dest="rho_max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--r", type=float, default=1.0, help="fixed growth rate")
    _add_config_options(p, ScanConfig)
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_bifurcation)

    p = sub.add_parser("verify", help="run the built-in invariant battery")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


def _cmd_simulate(args) -> int:
    cap = parse_schedule(args.schedule)
    params = _params(args)
    cfg = _config(args, SolverConfig)
    grid = _time_grid(params.t0, args.t_end, args.dt)
    traj = integrate_logistic(params, cap, float(grid[-1]), cfg, t_eval=grid)
    rows = [(t, p, cap.at(float(t))) for t, p in zip(traj.times, traj.populations)]
    _emit(["t", "P", "M"], rows, args.output)
    return 0


def _cmd_closed_form(args) -> int:
    cap = parse_schedule(args.schedule)
    params = _params(args)
    cfg = _config(args, SolverConfig)
    grid = _time_grid(params.t0, args.t_end, args.dt)
    traj = integrate_logistic(params, cap, float(grid[-1]), cfg, t_eval=grid)
    rows = []
    # quadrature_solution at each grid point, from one pass over the grid
    for t, u, p_num in zip(grid, _propagate(params, cap, grid.tolist(), cfg), traj.populations):
        p_closed = float(1.0 / u)
        rows.append((t, p_closed, p_num, abs(p_closed - p_num)))
    _emit(["t", "P_closed", "P_numeric", "abs_diff"], rows, args.output)
    return 0


def _cmd_two_phase(args) -> int:
    cap = parse_schedule(args.schedule)
    params = _params(args)
    if not isinstance(cap, TwoPhase):
        raise ValueError("two-phase command requires a twophase: schedule")
    _time_grid(params.t0, args.t_end, args.dt)  # the grid rule of every sampling command
    traj = two_phase_trajectory(params, cap, args.t_end, args.dt)
    rows = [(t, p, cap.at(float(t))) for t, p in zip(traj.times, traj.populations)]
    report = two_phase_deductions(params, cap, **_given(args, ["regime_tol"]))
    lines = [
        f"phase1_end_population  = {_fmt(report.p1)}",
        f"phase2_end_population  = {_fmt(report.p2)}",
        f"mean_population        = {_fmt(report.mean_population)}",
        f"mean_condition_gap     = {_fmt(report.mean_condition_gap)}",
        f"plateau_gap_m1         = {_fmt(report.plateau_gaps[0])}",
        f"plateau_gap_m2         = {_fmt(report.plateau_gaps[1])}",
        f"saturated              = {report.saturated}",
    ]
    _emit(["t", "P", "M"], rows, args.output, report="\n".join(lines) + "\n")
    if not report.saturated:
        sys.stderr.write(
            "warning: phases do not saturate at this switching rate; "
            "plateau values are not meaningful capacity estimates\n"
        )
    return 0


def _cmd_periodic(args) -> int:
    cap = parse_schedule(args.schedule)
    cfg = _config(args, SolverConfig)
    sol = find_periodic_solution(args.r, cap, cfg, **_given(args, ["fixed_point_tol"]))
    mean_pop = time_average(sol)
    residual = mean_identity_residual(sol, cap)
    peak = cap.max_value()
    rows = list(zip(sol.orbit.times, sol.orbit.populations))
    lines = [
        f"p_star                 = {_fmt(sol.p_star)}",
        f"period                 = {_fmt(sol.period)}",
        f"closure_residual       = {_fmt(sol.residual)}",
        f"mean_population        = {_fmt(mean_pop)}",
        f"mean_identity_residual = {_fmt(residual)}",
        f"half_peak_capacity     = {_fmt(0.5 * peak)}",
        f"mean_minus_half_peak   = {_fmt(mean_pop - 0.5 * peak)}",
        f"half_peak_fraction     = {_fmt(half_peak_fraction(sol, cap))}",
    ]
    _emit(["t", "P"], rows, args.output, report="\n".join(lines) + "\n")
    return 0


def _cmd_bifurcation(args) -> int:
    scan = _config(args, ScanConfig)
    result = bifurcation_scan(args.rho_min, args.rho_max, args.steps, scan, r_fixed=args.r)
    rows = []
    for rec in result.records:
        for value in rec.attractor:
            rows.append((rec.control, value))
    lines = [
        f"doubling_1_to_2 = {_fmt(result.doubling_1_to_2) if result.doubling_1_to_2 is not None else 'not-found'}",
        f"doubling_2_to_4 = {_fmt(result.doubling_2_to_4) if result.doubling_2_to_4 is not None else 'not-found'}",
    ]
    _emit(["rho", "branch_value"], rows, args.output, report="\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# verify battery


def _require(ok: bool, message: str) -> None:
    """Fail the running check with message; unlike assert, kept under python -O."""
    if not ok:
        raise AssertionError(message)


def _raises(error: type[Exception], call):
    """A check that passes when call() raises error. call is a lambda, so the
    functions it names are looked up in this module only when the check runs."""

    def check(rng, tmp):
        try:
            result = call()
        except error:
            return
        raise AssertionError(f"{error.__name__} not raised; the call returned {type(result).__name__}")

    return check


def _run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of main(argv), with stderr discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _check_constant_equilibrium(rng, tmp):
    cap = Constant(1.5)
    traj = integrate_logistic(LogisticParams(1.0, 1.5, 0.0), cap, 10.0)
    drift = float(np.max(np.abs(traj.populations - 1.5)))
    _require(drift <= 1e-9, f"max |P - 1.5| = {drift:.3g} > 1e-9")


def _check_closed_form_reduction(rng, tmp):
    # a zero-amplitude sinusoid takes the quadrature route, not the closed form
    cap = SinusoidOffset(1.0, 0.0, 2.0 * math.pi)
    cfg = SolverConfig(abs_tol=1e-12, rel_tol=1e-10)
    params = LogisticParams(1.0, 0.5, 0.0)
    for t in np.linspace(0.1, 8.0, 25):
        exact = logistic_constant(params, 1.0, float(t))
        quad = quadrature_solution(params, cap, float(t), cfg)
        _require(abs(quad - exact) <= 1e-8 * abs(exact), f"P({t:.6g}) = {quad!r}, closed form {exact!r}")


def _check_cross_solver_sinusoid(rng, tmp):
    cap = SinusoidOffset(2.0, 0.5, 2.0 * math.pi)
    cfg = SolverConfig(abs_tol=1e-12, rel_tol=1e-10, max_step=0.02)
    params = LogisticParams(1.0, 1.0, 0.0)
    grid = np.linspace(0.0, 4.0 * math.pi, 40)
    a = integrate_logistic(params, cap, float(grid[-1]), cfg, t_eval=grid).populations
    b = integrate_riccati(params, cap, float(grid[-1]), cfg, t_eval=grid).populations
    gap = float(np.max(np.abs(a - b) / np.abs(a)))
    _require(gap <= 1e-6, f"largest relative gap between the routes {gap:.3g} > 1e-6")


def _check_conjugacy(rng, tmp):
    for _ in range(1000):
        r = float(rng.uniform(0.05, 2.0))
        m = float(rng.uniform(0.1, 10.0))
        rho = r * m
        x0 = float(rng.uniform(0.01, 0.99))
        p0 = x0 * (1.0 + rho) / r
        p1 = p0 + r * (m - p0) * p0
        lhs = normalized_state(r, m, p1)
        rhs = (1.0 + rho) * x0 * (1.0 - x0)
        _require(abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs)), f"x1 = {lhs!r}, quadratic map {rhs!r}")


def _check_capacity_additivity(rng, tmp):
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


def _check_tabulated_roundtrip(rng, tmp):
    path = os.path.join(tmp, "table_check.csv")
    code, _ = _run(
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


def _check_csv_deterministic(rng, tmp):
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
    (code1, first), (code2, second) = _run(argv), _run(argv)
    _require(code1 == code2 == 0, f"simulate exited {code1}, then {code2}")
    _require(first == second, f"the two runs printed different CSV ({len(first)} and {len(second)} characters)")


def _check_exit_codes(rng, tmp):
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
        code, _ = _run(argv)
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


def _cmd_verify(args) -> int:
    rng = np.random.default_rng(args.seed)
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, check in _BATTERY:
            try:
                check(rng, tmp)
            except Exception as exc:  # report and keep going
                failures += 1
                reason = exc if isinstance(exc, AssertionError) else f"{type(exc).__name__}: {exc}"
                print(f"FAIL {name}: {reason}")
            else:
                print(f"PASS {name}")
    print(f"{len(_BATTERY) - failures}/{len(_BATTERY)} checks passed")
    return 0 if failures == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except NumericsError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a grid or window too large to allocate is a usage error
        print(f"error: out of memory: {str(exc) or 'request too large'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

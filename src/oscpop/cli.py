"""Command-line front end.

Commands: simulate, closed-form, two-phase, periodic, bifurcation,
verify. CSV goes to --output (stdout by default); human-readable
summaries go to stdout when the CSV is in a file, otherwise to stderr.
Exit codes: 0 success, 2 usage or parse error, 3 domain error, 4
numerical non-convergence.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from dataclasses import fields
from pathlib import Path

# only what every command needs: each command imports its solvers when it runs
from .errors import DomainError, NumericsError
from .settings import ScanConfig, SolverConfig

OUTPUT_DIR_ENV = "OSCPOP_OUTPUT_DIR"
_NEGATIVE_NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


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
    from .closedform import LogisticParams

    # LogisticParams admits p0 = inf (u = 0) for internal use only
    if not math.isfinite(args.p0):
        raise ValueError(f"--p0 must be finite, got {args.p0}")
    return LogisticParams(args.r, args.p0, args.t0)


def _time_grid(t0: float, t_end: float, dt: float) -> np.ndarray:
    from .closedform import _sample_grid

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

    p = sub.add_parser(
        "closed-form", help="quadrature solution vs. integrator, CSV of t,P_closed,P_numeric,abs_diff"
    )
    _add_model_options(p)
    _add_config_options(p, SolverConfig)

    p = sub.add_parser("two-phase", help="piecewise-exact square-wave trajectory plus cycle report")
    _add_model_options(p)
    p.add_argument("--regime-tol", dest="regime_tol", type=float, default=None, help="saturated when each plateau gap is below this fraction of its level")

    p = sub.add_parser("periodic", help="periodic cycle: orbit CSV plus summary")
    _add_model_options(p, with_grid=False)
    _add_config_options(p, SolverConfig)
    p.add_argument("--fixed-point-tol", dest="fixed_point_tol", type=float, default=None, help="relative closure tolerance |P(h) - p*| / p* of the cycle")

    p = sub.add_parser("bifurcation", help="discrete-map attractor scan over rho = r*M")
    p.add_argument("--rho-min", dest="rho_min", type=float, required=True)
    p.add_argument("--rho-max", dest="rho_max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--r", type=float, default=1.0, help="fixed growth rate")
    _add_config_options(p, ScanConfig)
    p.add_argument("--output", default="-")

    p = sub.add_parser("verify", help="run the built-in invariant battery")
    p.add_argument("--seed", type=int, default=0)

    # argparse's private _negative_number_matcher decides whether an argument
    # that starts with '-' is a value; on Python 3.10 and 3.11 it takes only
    # -1 and -1.5, so "--t0 -1e3" read -1e3 as a flag. Here anything that
    # starts like a negative float, -d, -.d, -inf or -nan, is a value
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def _integrate_on_grid(args):
    # simulate's and closed-form's schedule, parameters, settings, grid and RK45 trajectory on it
    from .capacity import parse_schedule
    from .odesolve import integrate_logistic

    cap = parse_schedule(args.schedule)
    params = _params(args)
    cfg = _config(args, SolverConfig)
    grid = _time_grid(params.t0, args.t_end, args.dt)
    return cap, params, cfg, grid, integrate_logistic(params, cap, float(grid[-1]), cfg, t_eval=grid)


def _cmd_simulate(args) -> int:
    cap, _, _, _, traj = _integrate_on_grid(args)
    rows = [(t, p, cap.at(float(t))) for t, p in zip(traj.times, traj.populations)]
    _emit(["t", "P", "M"], rows, args.output)
    return 0


def _cmd_closed_form(args) -> int:
    from .closedform import _propagate

    cap, params, cfg, grid, traj = _integrate_on_grid(args)
    rows = []
    # quadrature_solution at each grid point, from one pass over the grid
    for t, u, p_num in zip(grid, _propagate(params, cap, grid.tolist(), cfg), traj.populations):
        p_closed = float(1.0 / u)
        rows.append((t, p_closed, p_num, abs(p_closed - p_num)))
    _emit(["t", "P_closed", "P_numeric", "abs_diff"], rows, args.output)
    return 0


def _cmd_two_phase(args) -> int:
    from .capacity import TwoPhase, parse_schedule
    from .closedform import two_phase_trajectory
    from .periodic import two_phase_deductions

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
    from .capacity import parse_schedule
    from .periodic import find_periodic_solution, half_peak_fraction, mean_identity_residual, time_average

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
    from .discretemap import bifurcation_scan

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


def _cmd_verify(args) -> int:
    from .verify import run_battery

    return run_battery(args.seed, main)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # one parser per process: verify runs main several times
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # looked up when it runs, so a replaced command function is the one called
    command = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
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

"""Output checks for the cli_cold workload.

A CLI op passes when it exits 0, prints the same bytes as every earlier
run of the same argv, and its CSV header and values match a reference
computed in process by calling the library directly (no argparse, no
formatting, no subprocess).
"""
from __future__ import annotations

import numpy as np

from .ops import build_schedule, grid

HEADERS = {
    "simulate": "t,P,M",
    "closed-form": "t,P_closed,P_numeric,abs_diff",
    "two-phase": "t,P,M",
    "periodic": "t,P",
    "bifurcation": "rho,branch_value",
}
# printed with 12 significant digits
VALUE_RTOL = 1e-11


def reference_rows(op: dict) -> np.ndarray:
    """The rows the CLI should print for op, from direct library calls."""
    import oscpop.capacity as capacity
    import oscpop.closedform as closedform
    import oscpop.discretemap as discretemap
    import oscpop.odesolve as odesolve
    import oscpop.periodic as periodic

    cmd = op["command"]
    if cmd == "bifurcation":
        res = discretemap.bifurcation_scan(op["rho_start"], op["rho_stop"], op["steps"])
        return np.array([(rec.control, v) for rec in res.records for v in rec.attractor])
    cap = build_schedule(capacity, op["schedule"])
    if cmd == "periodic":
        sol = periodic.find_periodic_solution(op["r"], cap)
        return np.column_stack((sol.orbit.times, sol.orbit.populations))
    params = closedform.LogisticParams(op["r"], op["p0"])
    if cmd == "two-phase":
        traj = closedform.two_phase_trajectory(params, cap, op["t_end"], op["dt"])
        return np.array([(t, p, cap.at(float(t))) for t, p in zip(traj.times, traj.populations)])
    times = grid(op["t_end"], op["dt"])
    traj = odesolve.integrate_logistic(params, cap, float(times[-1]), t_eval=times)
    if cmd == "simulate":
        return np.array([(t, p, cap.at(float(t))) for t, p in zip(times, traj.populations)])
    closed = np.array([closedform.quadrature_solution(params, cap, float(t)) for t in times])
    return np.column_stack((times, closed, traj.populations, np.abs(closed - traj.populations)))


def check_output(op: dict, stdout: bytes) -> list[str]:
    """Problems with the stdout of a successful CLI op; empty when correct."""
    text = stdout.decode()
    lines = text.splitlines()
    if op["command"] == "verify":
        if not lines:
            return ["verify printed nothing"]
        passed, _, total = lines[-1].partition(" ")[0].partition("/")
        if any(not line.startswith("PASS ") for line in lines[:-1]) or passed != total:
            return [f"verify reported failures: {lines[-1]!r}"]
        return []
    want_header = HEADERS[op["command"]]
    if not lines or lines[0] != want_header:
        return [f"{op['command']}: header {lines[:1]!r}, expected {want_header!r}"]
    try:
        got = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    except ValueError as exc:
        return [f"{op['command']}: unparsable CSV ({exc})"]
    want = reference_rows(op)
    if got.shape != want.shape:
        return [f"{op['command']}: {got.shape} CSV values, reference has {want.shape}"]
    if not np.allclose(got, want, rtol=VALUE_RTOL, atol=0.0):
        worst = float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)))
        return [f"{op['command']}: CSV values differ from the reference (rel {worst:.2e})"]
    return []

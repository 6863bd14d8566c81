"""One op per workload, and its output check.

``run`` issues the op against oscpop and returns the raw results; only it
is timed. ``check`` then compares those results with the oracles. Every
call goes through a module attribute (``periodic.find_periodic_solution``
rather than a name imported once), so a tracer's wrappers see it.
"""
from __future__ import annotations

import math

import numpy as np

from . import oracles
from .inputs import HORIZON_DT, QUADRATURE_POINTS


def build_schedule(capacity, s: dict):
    kind = s["kind"]
    if kind == "constant":
        return capacity.Constant(s["m"], s["period"])
    if kind == "twophase":
        return capacity.TwoPhase(s["m1"], s["m2"], s["period"])
    if kind == "sinusoid":
        return capacity.SinusoidOffset(s["mean"], s["amplitude"], s["period"])
    return capacity.Tabulated(s["times"], s["values"], s["period"])


def grid(t_end: float, dt: float) -> np.ndarray:
    """0, dt, 2 dt, ... up to t_end, as the CLI's sample grid."""
    n = int(math.floor(t_end / dt + 1e-9))
    return dt * np.arange(n + 1)


def quadrature_times(grid: np.ndarray) -> np.ndarray:
    idx = np.linspace(0, grid.size - 1, QUADRATURE_POINTS + 1).round().astype(int)[1:]
    return grid[idx]


class Ops:
    """Issues ops through oscpop's modules, imported on creation."""

    def __init__(self) -> None:
        import oscpop.capacity
        import oscpop.closedform
        import oscpop.discretemap
        import oscpop.odesolve
        import oscpop.periodic

        self.capacity = oscpop.capacity
        self.closedform = oscpop.closedform
        self.discretemap = oscpop.discretemap
        self.odesolve = oscpop.odesolve
        self.periodic = oscpop.periodic

    # ------------------------------------------------------------ run

    def run(self, workload: str, spec: dict):
        runs = {"cycles": self._run_cycles, "horizon": self._run_horizon, "scan": self._run_scan}
        return runs[workload](spec)

    def _run_cycles(self, spec):
        periodic = self.periodic
        cap = build_schedule(self.capacity, spec["schedule"])
        sol = periodic.find_periodic_solution(spec["r"], cap)
        out = {
            "sol": sol,
            "identity": periodic.orbit_identity_residual(sol.orbit, cap),
            "mean": periodic.time_average(sol),
        }
        if spec["schedule"]["kind"] == "twophase":
            params = self.closedform.LogisticParams(spec["r"], spec["p0"])
            out["report"] = periodic.two_phase_deductions(params, cap)
        return out

    def _run_horizon(self, spec):
        cap = build_schedule(self.capacity, spec["schedule"])
        params = self.closedform.LogisticParams(spec["r"], spec["p0"])
        t_grid = grid(spec["t_end"], HORIZON_DT)
        t_end = float(t_grid[-1])
        out = {"grid": t_grid}
        out["logistic"] = self.odesolve.integrate_logistic(params, cap, t_end, t_eval=t_grid).populations
        if spec["check"] == "quadrature":
            times = quadrature_times(t_grid)
            quad = self.closedform.quadrature_solution
            out["quad_times"] = times
            out["quad"] = np.array([quad(params, cap, float(t)) for t in times])
        elif spec["check"] == "riccati":
            out["riccati"] = self.odesolve.integrate_riccati(params, cap, t_end, t_eval=t_grid).populations
        return out

    def _run_scan(self, spec):
        return self.discretemap.bifurcation_scan(spec["rho_start"], spec["rho_stop"], spec["steps"])

    # ---------------------------------------------------------- check

    @staticmethod
    def check(workload: str, spec: dict, out) -> tuple[list[str], str | None]:
        """(problems, defect) for an op's output.

        problems lists wrong results. defect names a known defect the
        output shows within oscpop's claimed accuracy: the op failed, but
        the output is not wrong.
        """
        if workload == "cycles":
            sol = out["sol"]
            problems = oracles.check_cycle(
                spec, sol.p_star, sol.orbit.times, sol.orbit.populations, out["mean"], out["identity"]
            )
            if "report" in out:
                problems += oracles.check_plateaus(spec, out["report"].p1, out["report"].p2)
            return problems, None
        if workload == "horizon":
            problems = oracles.check_dense(spec, out["grid"], out["logistic"], "integrate_logistic")
            if "quad" in out:
                problems += oracles.check_points(spec, out["quad_times"], out["quad"], "quadrature_solution")
            if "riccati" in out:
                problems += oracles.check_dense(spec, out["grid"], out["riccati"], "integrate_riccati")
            return problems, None
        records = out.records
        problems, misses = oracles.check_scan(
            spec,
            np.array([rec.control for rec in records]),
            [rec.detected_period for rec in records],
            [rec.attractor for rec in records],
            [rec.diverged for rec in records],
            out.doubling_1_to_2,
            out.doubling_2_to_4,
        )
        return problems, ("DoublingBracketMiss" if misses else None)

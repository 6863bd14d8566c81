"""Tracing from outside the package.

``Tracer.install`` replaces functions and schedule methods of oscpop with
benchmark-owned wrappers, on every module attribute that is bound to
them, so calls between oscpop modules go through the wrappers too.
Coarse calls (solver entry points, cycle solves, scans, the CLI's main)
become spans kept in memory: name, layer, start, end, parent and op id.
Fine-grained calls (schedule methods, quadrature integrands) run millions
of times, so they are folded into per-name totals instead; the time each
one spends directly under a span is kept on that span as ``leaf_s``.
Self times are then derived from the spans (``span_self_times``).
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

_clock = time.perf_counter

# (module, name, layer) of every entry point the workloads reach; every
# other binding of the same function object in oscpop is wrapped as well.
SPAN_FUNCTIONS = (
    ("oscpop.odesolve", "integrate_logistic", "odesolve"),
    ("oscpop.odesolve", "integrate_riccati", "odesolve"),
    ("oscpop.odesolve", "adaptive_quadrature", "odesolve"),
    ("oscpop.closedform", "quadrature_solution", "closedform"),
    ("oscpop.closedform", "two_phase_trajectory", "closedform"),
    ("oscpop.periodic", "period_map", "periodic"),
    ("oscpop.periodic", "find_periodic_solution", "periodic"),
    ("oscpop.periodic", "orbit_identity_residual", "periodic"),
    ("oscpop.periodic", "mean_identity_residual", "periodic"),
    ("oscpop.periodic", "time_average", "periodic"),
    ("oscpop.periodic", "half_peak_fraction", "periodic"),
    ("oscpop.periodic", "two_phase_deductions", "periodic"),
    ("oscpop.discretemap", "bifurcation_scan", "discretemap"),
    ("oscpop.discretemap", "detect_attractor", "discretemap"),
    ("oscpop.cli", "main", "cli"),
)
LEAF_FUNCTIONS = (
    ("oscpop.closedform", "logistic_constant", "closedform"),
    ("oscpop.capacity", "parse_schedule", "capacity"),
    ("oscpop.capacity", "load_capacity_csv", "capacity"),
)
SCHEDULE_CLASSES = ("CapacitySchedule", "Constant", "TwoPhase", "SinusoidOffset", "Tabulated")
SCHEDULE_METHODS = (
    "at",
    "integral",
    "derivative",
    "breakpoints_between",
    "piece_value",
    "piece_derivative",
    "min_value",
    "max_value",
)
DIAGNOSTICS = frozenset(
    (
        "periodic.orbit_identity_residual",
        "periodic.mean_identity_residual",
        "periodic.time_average",
        "periodic.half_peak_fraction",
    )
)


# exceptions counted where they leave a layer: (layer, type name) -> counter
FAILURE_COUNTERS = {
    ("odesolve", "ConvergenceError"): "convergence_errors",
    ("closedform", "ExponentOverflowError"): "overflow_errors",
}


def span_self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of each span: its duration minus the time covered by its
    child spans and by the leaf calls made directly under it."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child[s["id"]] - s["leaf_s"] for s in spans}


class Tracer:
    """Spans, leaf totals and counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        # open frames: [span or None, start, time covered by children]
        self._stack: list[list] = []
        self._restore: list[tuple] = []

    # ----------------------------------------------------------- frames

    def _enter(self, span: dict | None) -> list:
        frame = [span, _clock(), 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list) -> float:
        end = _clock()
        self._stack.pop()
        dur = end - frame[1]
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur
            if frame[0] is None and parent[0] is not None:
                parent[0]["leaf_s"] += dur
        if frame[0] is not None:
            frame[0]["end"] = end
        return dur

    def _open_span(self, name: str) -> dict:
        parent = next((f[0]["id"] for f in reversed(self._stack) if f[0] is not None), None)
        span = {"id": len(self.spans), "name": name, "parent": parent, "op": self.op,
                "start": 0.0, "end": 0.0, "leaf_s": 0.0, "ok": True}
        self.spans.append(span)
        return span

    # --------------------------------------------------------- wrappers

    def _span_wrapper(self, fn, name: str):
        layer = name.split(".")[0]
        prepare = {"odesolve.adaptive_quadrature": self._count_integrand}.get(name)
        observe = {
            "odesolve.integrate_logistic": self._count_trajectory,
            "odesolve.integrate_riccati": self._count_trajectory,
            "periodic.find_periodic_solution": self._note_residual,
            "discretemap.bifurcation_scan": self._count_scan,
        }.get(name)

        def wrapper(*args, **kwargs):
            if prepare is not None:
                args = prepare(args)
            span = self._open_span(name)
            frame = self._enter(span)
            span["start"] = frame[1]
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._leave(frame)
                span["ok"] = False
                counter = FAILURE_COUNTERS.get((layer, type(exc).__name__))
                if counter is not None:
                    self.counts[counter] += 1
                raise
            self._leave(frame)
            if observe is not None:
                observe(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf_wrapper(self, fn, name: str):
        totals = self.leaves[name]

        def wrapper(*args, **kwargs):
            frame = self._enter(None)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = self._leave(frame)
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur - frame[2]

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every traced function and method; undo with uninstall()."""
        import oscpop  # noqa: F401  (loads every submodule)

        targets = {}
        for table, make in ((SPAN_FUNCTIONS, self._span_wrapper), (LEAF_FUNCTIONS, self._leaf_wrapper)):
            for module, attr, layer in table:
                fn = getattr(importlib.import_module(module), attr)
                targets[id(fn)] = (fn, make(fn, f"{layer}.{attr}"))
        for name, module in list(sys.modules.items()):
            if name != "oscpop" and not name.startswith("oscpop."):
                continue
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])
        capacity = importlib.import_module("oscpop.capacity")
        for cls_name in SCHEDULE_CLASSES:
            cls = getattr(capacity, cls_name)
            for meth in SCHEDULE_METHODS:
                if meth in vars(cls):
                    original = vars(cls)[meth]
                    self._restore.append((cls, meth, original))
                    setattr(cls, meth, self._leaf_wrapper(original, f"capacity.{meth}"))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # ------------------------------------------------- result observers

    def _count_integrand(self, args: tuple) -> tuple:
        # every call in oscpop passes the integrand first; count its evaluations
        return (self._leaf_wrapper(args[0], "closedform.integrand"), *args[1:])

    def _count_trajectory(self, traj, args, kwargs) -> None:
        meta = traj.meta
        self.counts["integrate_calls"] += 1
        self.counts["steps_accepted"] += meta.n_accepted
        self.counts["steps_rejected"] += meta.n_rejected
        self.counts["rhs_evals"] += meta.n_rhs_evals
        t_eval = kwargs.get("t_eval", args[4] if len(args) > 4 else None)
        if t_eval is not None:
            self.counts["dense_samples"] += len(t_eval)

    def _note_residual(self, sol, args, kwargs) -> None:
        self.maxima["closure_residual"] = max(self.maxima["closure_residual"], sol.residual)

    def _count_scan(self, result, args, kwargs) -> None:
        cfg = kwargs.get("cfg", args[3] if len(args) > 3 else None)
        if cfg is None:
            from oscpop.discretemap import ScanConfig

            cfg = ScanConfig()
        self.counts["scan_points"] += len(result.records)
        self.counts["map_iterations"] += len(result.records) * (cfg.transient + cfg.window)
        for got, want in ((result.doubling_1_to_2, 2.0), (result.doubling_2_to_4, 6.0 ** 0.5)):
            if got is not None:
                self.maxima["doubling_abs_err"] = max(self.maxima["doubling_abs_err"], abs(got - want))

    # ------------------------------------------------------------ output

    def summary(self) -> dict:
        return {
            "spans": self.spans,
            "leaves": {k: list(v) for k, v in self.leaves.items()},
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }

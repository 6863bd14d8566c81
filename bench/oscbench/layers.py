"""Metric names and units, and the per-layer metrics of a traced pass.

Each name here matches an entry of BENCHMARK.json; the self-tests check
that the two lists agree.
"""
from __future__ import annotations

from collections import defaultdict

from .tracer import DIAGNOSTICS, span_self_times

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("import.wall_ms", "ms"),
    ("import.modules", "count"),
    ("import.scipy_modules", "count"),
    ("cli.main_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("cli.csv_bytes", "bytes"),
    ("capacity.calls", "count"),
    ("capacity.self_ms", "ms"),
    ("odesolve.integrate_calls", "count"),
    ("odesolve.steps_accepted", "count"),
    ("odesolve.steps_rejected", "count"),
    ("odesolve.rhs_evals", "count"),
    ("odesolve.accept_ratio", "ratio"),
    ("odesolve.us_per_step", "us"),
    ("odesolve.dense_samples", "count"),
    ("odesolve.quad_calls", "count"),
    ("odesolve.quad_evals", "count"),
    ("odesolve.quad_self_ms", "ms"),
    ("odesolve.convergence_errors", "count"),
    ("closedform.quadrature_calls", "count"),
    ("closedform.self_ms", "ms"),
    ("closedform.overflow_errors", "count"),
    ("periodic.solves", "count"),
    ("periodic.period_maps", "count"),
    ("periodic.period_maps_per_solve", "count"),
    ("periodic.self_ms", "ms"),
    ("periodic.orbit_ms", "ms"),
    ("periodic.diagnostics_ms", "ms"),
    ("periodic.closure_residual_max", "ratio"),
    ("discretemap.scans", "count"),
    ("discretemap.points", "count"),
    ("discretemap.attractor_calls", "count"),
    ("discretemap.scan_ms", "ms"),
    ("discretemap.ns_per_iteration", "ns"),
    ("discretemap.doubling_abs_err", "abs"),
    ("trace.overhead", "ratio"),
)

# counted work repeats exactly across runs with the same seed
COUNTERS = tuple(name for name, unit in PER_LAYER if unit in ("count", "bytes"))

INTEGRATORS = ("odesolve.integrate_logistic", "odesolve.integrate_riccati")


def merge(summaries: list[dict]) -> dict:
    """One summary from the traces of several processes (cli_cold ops)."""
    spans, leaves = [], defaultdict(lambda: [0, 0.0, 0.0])
    counts, maxima = defaultdict(int), defaultdict(float)
    for op, summary in enumerate(summaries):
        base = len(spans)
        for s in summary["spans"]:
            parent = None if s["parent"] is None else s["parent"] + base
            spans.append({**s, "id": s["id"] + base, "parent": parent, "op": op})
        for name, (calls, total, self_) in summary["leaves"].items():
            acc = leaves[name]
            acc[0] += calls
            acc[1] += total
            acc[2] += self_
        for name, n in summary["counts"].items():
            counts[name] += n
        for name, v in summary["maxima"].items():
            maxima[name] = max(maxima[name], v)
    return {"spans": spans, "leaves": dict(leaves), "counts": dict(counts), "maxima": dict(maxima)}


def per_layer(summary: dict, *, overhead: float, csv_bytes: int) -> dict[str, float]:
    """Every PER_LAYER metric but import.* from one (merged) trace summary.

    The import probe runs in fresh interpreters of its own. A layer the
    pass did not touch reads 0.
    """
    spans = summary["spans"]
    leaves = summary["leaves"]
    counts = defaultdict(int, summary["counts"])
    maxima = defaultdict(float, summary["maxima"])
    self_s = span_self_times(spans)
    by_id = {s["id"]: s for s in spans}

    calls = defaultdict(int)
    dur = defaultdict(float)
    layer_self = defaultdict(float)
    for s in spans:
        calls[s["name"]] += 1
        dur[s["name"]] += s["end"] - s["start"]
        layer_self[s["name"].split(".")[0]] += self_s[s["id"]]
    for name, (_, _, self_) in leaves.items():
        layer_self[name.split(".")[0]] += self_

    def parent_name(s):
        return None if s["parent"] is None else by_id[s["parent"]]["name"]

    def self_of(name):
        return sum(self_s[s["id"]] for s in spans if s["name"] == name)

    ms = 1e3
    accepted, rejected = counts["steps_accepted"], counts["steps_rejected"]
    ok_integrate_s = sum(
        s["end"] - s["start"] for s in spans if s["name"] in INTEGRATORS and s["ok"]
    )
    orbit_s = sum(
        s["end"] - s["start"]
        for s in spans
        if s["name"] == "odesolve.integrate_logistic" and parent_name(s) == "periodic.find_periodic_solution"
    )
    diagnostics_s = sum(
        s["end"] - s["start"] for s in spans if s["name"] in DIAGNOSTICS and parent_name(s) not in DIAGNOSTICS
    ) + self_of("periodic.two_phase_deductions")
    cli_main_s = sum(s["end"] - s["start"] for s in spans if s["name"] == "cli.main" and s["parent"] is None)
    solves = calls["periodic.find_periodic_solution"]
    iterations = counts["map_iterations"]

    return {
        "cli.main_ms": cli_main_s * ms,
        "cli.self_ms": layer_self["cli"] * ms,
        "cli.csv_bytes": csv_bytes,
        "capacity.calls": sum(n for name, (n, _, _) in leaves.items() if name.startswith("capacity.")),
        "capacity.self_ms": layer_self["capacity"] * ms,
        "odesolve.integrate_calls": sum(calls[name] for name in INTEGRATORS),
        "odesolve.steps_accepted": accepted,
        "odesolve.steps_rejected": rejected,
        "odesolve.rhs_evals": counts["rhs_evals"],
        "odesolve.accept_ratio": accepted / (accepted + rejected) if accepted + rejected else 0.0,
        "odesolve.us_per_step": ok_integrate_s * 1e6 / accepted if accepted else 0.0,
        "odesolve.dense_samples": counts["dense_samples"],
        "odesolve.quad_calls": calls["odesolve.adaptive_quadrature"],
        "odesolve.quad_evals": leaves.get("closedform.integrand", (0, 0.0, 0.0))[0],
        "odesolve.quad_self_ms": self_of("odesolve.adaptive_quadrature") * ms,
        "odesolve.convergence_errors": counts["convergence_errors"],
        "closedform.quadrature_calls": calls["closedform.quadrature_solution"],
        "closedform.self_ms": layer_self["closedform"] * ms,
        "closedform.overflow_errors": counts["overflow_errors"],
        "periodic.solves": solves,
        "periodic.period_maps": calls["periodic.period_map"],
        "periodic.period_maps_per_solve": calls["periodic.period_map"] / solves if solves else 0.0,
        "periodic.self_ms": layer_self["periodic"] * ms,
        "periodic.orbit_ms": orbit_s * ms,
        "periodic.diagnostics_ms": diagnostics_s * ms,
        "periodic.closure_residual_max": maxima["closure_residual"],
        "discretemap.scans": calls["discretemap.bifurcation_scan"],
        "discretemap.points": counts["scan_points"],
        "discretemap.attractor_calls": calls["discretemap.detect_attractor"],
        "discretemap.scan_ms": dur["discretemap.bifurcation_scan"] * ms,
        # computed: points x (transient + window), not counted in the loop
        "discretemap.ns_per_iteration": dur["discretemap.bifurcation_scan"] * 1e9 / iterations if iterations else 0.0,
        "discretemap.doubling_abs_err": maxima["doubling_abs_err"],
        "trace.overhead": overhead,
    }

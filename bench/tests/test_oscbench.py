"""Self-tests of the benchmark's own helpers.

    python3 -m pytest bench/tests -q
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest

from oscbench import clicheck, inputs, layers, oracles
from oscbench.ops import Ops
from oscbench.stats import quartile_spread, tail
from oscbench.tracer import Tracer, span_self_times

ROOT = Path(__file__).resolve().parents[2]


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


# ------------------------------------------------------ input generation


@pytest.mark.parametrize("workload", ["cycles", "horizon", "scan"])
def test_inputs_are_deterministic_in_the_seed(workload):
    a = inputs.cycle_ops(workload, 7, 3)
    b = inputs.cycle_ops(workload, 7, 3)
    assert all(_same(x, y) for x, y in zip(a, b))
    assert [op["stratum"] for op in a] == [name for name, _ in inputs.STRATA[workload]]
    other = inputs.cycle_ops(workload, 8, 3)
    assert not all(_same(x, y) for x, y in zip(a, other))


def test_cli_inputs_are_deterministic_in_the_seed(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = inputs.cli_ops(5, tmp_path / "a")
    b = inputs.cli_ops(5, tmp_path / "b")
    assert [op["command"] for op in a] == ["simulate", "closed-form", "two-phase", "periodic", "bifurcation", "verify"]
    strip = [[arg.replace(str(tmp_path / "a"), "") for arg in op["argv"]] for op in a]
    assert strip == [[arg.replace(str(tmp_path / "b"), "") for arg in op["argv"]] for op in b]
    table = "capacity_table.csv"
    assert (tmp_path / "a" / table).read_bytes() == (tmp_path / "b" / table).read_bytes()


# ------------------------------------------------------------ statistics


def test_tail_is_the_highest_percentile_with_ten_beyond():
    t = tail(list(range(100, 0, -1)))
    assert t == {"value": 90, "percentile": 90.0, "beyond": 10, "samples": 100}
    t = tail([float(x) for x in range(11)])
    assert t["value"] == 0.0 and t["beyond"] == 10 and t["percentile"] == pytest.approx(100 / 11)
    xs = list(np.random.default_rng(0).uniform(size=57))
    t = tail(xs)
    assert sum(x > t["value"] for x in xs) == 10
    assert t["percentile"] == pytest.approx(100 * 47 / 57)


def test_tail_without_ten_beyond_reports_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == {"value": 3.0, "percentile": 100.0, "beyond": 0, "samples": 3}


def test_scale_takes_each_op_at_the_speed_of_the_reference_jobs_around_it():
    from oscbench.calibrate import scale

    # the host runs at half speed from the third op on
    refs = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]
    latencies = [0.1, 0.1, 0.2, 0.2, 0.2, 0.2]
    assert scale(latencies, refs, 1.0) == pytest.approx([0.1, 0.1, 0.2 / 1.5, 0.1, 0.1, 0.1])
    with pytest.raises(ValueError):
        scale(latencies, refs[:-1], 1.0)


def test_tally_reports_at_the_reference_speed():
    from oscbench.worker import Tally

    t = Tally(0.5)
    for latency, label, error in ((0.6, "a", None), (0.2, "a", None), (0.4, "b", None),
                                  (1.0, "c", "ConvergenceError"), (0.2, "a", None), (0.8, "c", "ConvergenceError")):
        t.add(latency, label, error, [])
    t.add(1.8, "b", None, ["wrong value"])
    t.refs = [1.0] * 8  # the host at half the reference speed throughout
    t.cycles = 3
    # every op at its stratum's median: a 3 x 0.1 s, b 2 x 0.55 s, c 2 x 0.45 s
    assert t.ops_per_s == pytest.approx(4 / 2.3)
    report = t.report()
    assert (report["attempted"], report["failed"], report["wrong"]) == (7, 3, 1)
    assert report["latency_p50_ms"] == pytest.approx(150.0)
    # four successful ops resolve no percentile with ten beyond: the maximum
    assert report["latency_tail_ms"] == pytest.approx(300.0)
    assert report["latency_tail"] == {"value": pytest.approx(300.0), "percentile": 100.0, "beyond": 0, "samples": 4}
    assert report["success_ratio"] == pytest.approx(4 / 7)
    assert report["failures"] == {"ConvergenceError": 2}
    assert report["host_slowdown"] == pytest.approx(2.0)
    assert report["raw"]["latency_p50_ms"] == pytest.approx(300.0)
    assert report["raw"]["stratum_ms"]["a"] == pytest.approx([600.0, 200.0, 200.0])


def test_time_cap_stops_after_a_whole_cycle():
    from oscbench.worker import run_in_process

    tally = run_in_process("cycles", 1, Ops(), 3, cap_s=0.0)
    assert tally.cycles == 1 and tally.attempted == len(inputs.CYCLES_STRATA)


def test_quartile_spread():
    assert quartile_spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9]) == pytest.approx((7.5 - 2.5) / 5)


# -------------------------------------------------------------- tracing


def _span(i, parent, start, end, leaf=0.0):
    return {"id": i, "name": f"x.s{i}", "parent": parent, "op": 0, "start": start, "end": end,
            "leaf_s": leaf, "ok": True}


def test_self_times_on_a_hand_built_tree():
    spans = [
        _span(0, None, 0.0, 10.0, leaf=1.0),
        _span(1, 0, 1.0, 4.0, leaf=0.5),
        _span(2, 1, 2.0, 3.0),
        _span(3, 0, 5.0, 9.0),
        _span(4, None, 20.0, 21.0),
    ]
    assert span_self_times(spans) == pytest.approx({0: 2.0, 1: 1.5, 2: 1.0, 3: 4.0, 4: 1.0})


def test_tracer_spans_and_leaves_account_for_all_time():
    tracer = Tracer()
    leaf = tracer._leaf_wrapper(lambda x: sum(range(x)), "x.leaf")
    inner = tracer._span_wrapper(lambda: [leaf(2000) for _ in range(3)], "x.inner")
    outer = tracer._span_wrapper(lambda: (inner(), leaf(5000), inner()), "x.outer")
    outer()
    spans = tracer.spans
    assert [s["name"] for s in spans] == ["x.outer", "x.inner", "x.inner"]
    assert [s["parent"] for s in spans] == [None, 0, 0]
    calls, total, self_ = tracer.leaves["x.leaf"]
    assert calls == 7 and total == pytest.approx(self_)
    selfs = span_self_times(spans)
    whole = spans[0]["end"] - spans[0]["start"]
    assert sum(selfs.values()) + total == pytest.approx(whole)


def test_tracer_install_wraps_cross_module_bindings_and_restores_them():
    import oscpop.odesolve
    import oscpop.periodic

    original = oscpop.periodic.integrate_logistic
    tracer = Tracer()
    tracer.install()
    try:
        assert oscpop.periodic.integrate_logistic is not original
        assert oscpop.odesolve.integrate_logistic.__wrapped__ is original
        sol = oscpop.periodic.find_periodic_solution(1.0, oscpop.capacity.TwoPhase(1.0, 3.0, 0.1))
    finally:
        tracer.uninstall()
    assert oscpop.periodic.integrate_logistic is original
    names = [s["name"] for s in tracer.spans]
    assert names[0] == "periodic.find_periodic_solution"
    assert names.count("periodic.period_map") + 1 == names.count("odesolve.integrate_logistic")
    assert tracer.maxima["closure_residual"] == sol.residual
    metrics = layers.per_layer(tracer.summary(), overhead=0.5, csv_bytes=0)
    assert metrics["periodic.solves"] == 1
    assert metrics["odesolve.rhs_evals"] > 0 and metrics["capacity.calls"] > 0


def test_traced_counters_repeat_exactly():
    from oscbench.worker import run_in_process

    def traced_counters():
        tracer = Tracer()
        tracer.install()
        try:
            run_in_process("horizon", 5, Ops(), 1, tracer=tracer)
        finally:
            tracer.uninstall()
        metrics = layers.per_layer(tracer.summary(), overhead=1.0, csv_bytes=0)
        return {name: metrics[name] for name in layers.COUNTERS if name in metrics}

    first = traced_counters()
    assert first["odesolve.convergence_errors"] == 2 and first["closedform.overflow_errors"] == 1
    assert traced_counters() == first


def test_per_layer_reads_zero_for_an_empty_trace():
    metrics = layers.per_layer({"spans": [], "leaves": {}, "counts": {}, "maxima": {}}, overhead=1.0, csv_bytes=0)
    assert set(metrics) == {name for name, _ in layers.PER_LAYER} - {
        "import.wall_ms", "import.modules", "import.scipy_modules"}
    assert all(v == 0 for k, v in metrics.items() if k != "trace.overhead")


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(layers.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)


# --------------------------------------------------------------- oracles


def _spec(workload, stratum, seed=3):
    return next(op for op in inputs.cycle_ops(workload, seed, 0) if op["stratum"] == stratum)


def test_reference_matches_closed_form_logistic():
    m, r, p0 = 2.0, 1.3, 0.1
    t = np.linspace(0.0, 12.0, 50)
    want = m * p0 / (p0 + (m - p0) * np.exp(-r * m * t))
    got = oracles.trajectory({"kind": "constant", "m": m}, r, p0, t)
    assert oracles.rel_error(got, want) < 1e-13


def test_cycle_oracle_accepts_the_library_and_rejects_perturbations():
    spec = _spec("cycles", "twophase_fast")
    out = Ops().run("cycles", spec)
    assert Ops.check("cycles", spec, out) == ([], None)
    sol = out["sol"]
    args = (sol.p_star, sol.orbit.times, sol.orbit.populations, out["mean"], out["identity"])
    assert oracles.check_cycle(spec, *args) == []
    bad_p = (sol.p_star * (1 + 1e-4),) + args[1:]
    assert oracles.check_cycle(spec, *bad_p)
    bad_mean = args[:3] + (out["mean"] * (1 + 1e-3), out["identity"])
    assert oracles.check_cycle(spec, *bad_mean)
    orbit = sol.orbit.populations.copy()
    orbit[len(orbit) // 2] *= 1 + 1e-4
    assert oracles.check_cycle(spec, sol.p_star, sol.orbit.times, orbit, out["mean"], out["identity"])
    report = out["report"]
    assert oracles.check_plateaus(spec, report.p1, report.p2) == []
    assert oracles.check_plateaus(spec, report.p1 * (1 + 1e-4), report.p2)


def test_horizon_oracle_accepts_the_library_and_rejects_perturbations():
    spec = _spec("horizon", "sinusoid_quadrature")
    spec["t_end"] = 30.0  # keep the self-test quick
    out = Ops().run("horizon", spec)
    assert Ops.check("horizon", spec, out) == ([], None)
    pops = out["logistic"].copy()
    pops[-7] *= 1 + 1e-3
    assert oracles.check_dense(spec, out["grid"], pops, "x")
    quad = out["quad"].copy()
    quad[3] *= 1 + 1e-3
    assert oracles.check_points(spec, out["quad_times"], quad, "x")


def test_scan_oracle_accepts_the_library_and_rejects_perturbations():
    spec = {"rho_start": 1.9, "rho_stop": 2.5, "steps": 13}
    res = Ops().run("scan", spec)
    assert Ops.check("scan", spec, res) == ([], None)
    recs = res.records
    controls = np.array([rec.control for rec in recs])
    periods = [rec.detected_period for rec in recs]
    attractors = [rec.attractor for rec in recs]
    diverged = [rec.diverged for rec in recs]
    d12, d24 = res.doubling_1_to_2, res.doubling_2_to_4
    assert oracles.check_scan(spec, controls, periods, attractors, diverged, d12, d24) == ([], [])
    for bad in ((d12 + 0.01, d24), (d12, None)):
        assert oracles.check_scan(spec, controls, periods, attractors, diverged, *bad)[0]
    moved = [a * (1 + 1e-3) for a in attractors]
    assert oracles.check_scan(spec, controls, periods, moved, diverged, d12, d24)[0]
    assert oracles.transition_bracket([1.0, 2.0, 3.0, 4.0], [1, None, 2, 2], 1, 2) == (1.0, 3.0)


@pytest.mark.parametrize("stratum, target", [("near_first_doubling", 2.0),
                                             ("near_second_doubling", math.sqrt(6.0))])
def test_near_doubling_strata_show_the_bracket_defect(stratum, target):
    # a grid point just below the doubling reads the doubled period at the initial commit
    spec = next(op for op in inputs.cycle_ops("scan", 1, 0) if op["stratum"] == stratum)
    res = Ops().run("scan", spec)
    assert Ops.check("scan", spec, res) == ([], "DoublingBracketMiss")
    controls = np.array([rec.control for rec in res.records])
    periods = [rec.detected_period for rec in res.records]
    before = 1 if target == 2.0 else 2
    lo, hi = oracles.transition_bracket(controls, periods, before, 2 * before)
    assert not lo <= target <= hi


def _csv(header, rows):
    lines = [header] + [",".join(format(float(v), ".12g") for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def test_cli_oracle_rejects_wrong_header_values_and_failed_checks(tmp_path):
    ops = {op["command"]: op for op in inputs.cli_ops(4, tmp_path)}
    op = ops["two-phase"]
    rows = clicheck.reference_rows(op)
    assert clicheck.check_output(op, _csv("t,P,M", rows)) == []
    assert clicheck.check_output(op, _csv("t,P", rows))
    bad = rows.copy()
    bad[5, 1] *= 1 + 1e-6
    assert clicheck.check_output(op, _csv("t,P,M", bad))
    assert clicheck.check_output(op, _csv("t,P,M", rows[:-1]))
    verify = ops["verify"]
    assert clicheck.check_output(verify, b"PASS a\nPASS b\n2/2 checks passed\n") == []
    assert clicheck.check_output(verify, b"PASS a\nFAIL b: x\n1/2 checks passed\n")


def test_cli_tally_counts_documented_exits_as_failed_and_others_as_wrong(tmp_path):
    from oscbench.worker import tally_cli

    ops = inputs.cli_ops(4, tmp_path)
    verify = [op["command"] for op in ops].index("verify")
    passed = b"PASS a\nPASS b\n2/2 checks passed\n"
    failed = b"PASS a\nFAIL b: x\n1/2 checks passed\n"
    tally, _ = tally_cli(ops, [(verify, 1.0, 0, passed), (0, 1.0, 4, b""), (1, 1.0, 3, b"")], [1.0] * 4)
    report = tally.report()
    assert (report["attempted"], report["failed"], report["wrong"]) == (3, 2, 0)
    assert report["failures"] == {"exit 4": 1, "exit 3": 1}
    # verify exits 1 when a check fails: a wrong result, so the run is not correct
    tally, _ = tally_cli(ops, [(verify, 1.0, 1, failed)], [1.0] * 2)
    assert tally.report()["wrong"] == 1 and "reported failures" in tally.problems[0]
    # an uncaught traceback also exits 1
    tally, _ = tally_cli(ops, [(0, 1.0, 1, b"")], [1.0] * 2)
    assert tally.report()["wrong"] == 1
    tally, _ = tally_cli(ops, [(verify, 1.0, 0, passed), (verify, 1.0, 0, failed)], [1.0] * 3)
    assert tally.report()["wrong"] == 1

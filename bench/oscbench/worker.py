"""One workload run in a fresh interpreter.

    python -m oscbench.worker --workload NAME --seed N --seconds S
                              --trace 0|1 [--setup-only]

Prints ``READY`` once the first op can be issued (the runner times the
set-up from spawning this process to that line), then, unless
--setup-only, one JSON line with the run's results. Single caller,
closed loop: one op at a time, no threads. The package is imported
from the src/ directory of the repository that holds this file.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from . import calibrate, clicheck, inputs, layers
from .stats import median, tail

ROOT = Path(__file__).resolve().parents[2]

# Seconds of --seconds that buy one cycle of each workload. --seconds
# buys a fixed number of whole cycles, so runs with a given seed do the
# same work however fast the code is, the percentile behind
# latency_tail_ms stays put, and traced counters repeat exactly. At
# --seconds 20 this gives 4, 15, 16 and 6 cycles: enough successful ops
# for the tail to sit above the median, and runs of 20-40 s on the 2-vCPU
# virtual machine the benchmark was defined on.
NOMINAL_CYCLE_S = {"cli_cold": 5.0, "cycles": 1.3, "horizon": 1.25, "scan": 3.3}
# share of --seconds given to each pass of a traced run
TRACE_SHARE = 0.25
# no new cycle starts past this multiple of --seconds, so a much slower
# program or host cannot stretch a run without bound
CAP_FACTOR = 2.0
CLI_TIMEOUT_S = 60.0
# exit codes oscpop.cli documents: bad input, DomainError, NumericsError
DOCUMENTED_EXITS = (2, 3, 4)
MAX_PROBLEMS = 5


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))


class Tally:
    """Outcome of every op in one pass, in the order the ops ran.

    refs holds the time of the reference job (see calibrate) before the
    first op and after each op. The reported times are taken at the
    reference host speed; the raw ones are kept in the details.
    """

    def __init__(self, ref_s: float) -> None:
        self.ref_s = ref_s
        self.refs: list[float] = []
        self.latencies: list[float] = []  # raw seconds of every op, failed ones included
        self.labels: list[str] = []
        self.ok: list[bool] = []
        self.failures: Counter = Counter()  # documented errors and known defects, by kind
        self.wrong = 0  # output failed its check, or an unexpected error
        self.problems: list[str] = []
        self.failed_strata: Counter = Counter()
        self.cycles = 0

    def add(self, latency: float, label: str, error: str | None, problems: list[str]) -> None:
        self.latencies.append(latency)
        self.labels.append(label)
        self.ok.append(error is None and not problems)
        if error is not None:
            self.failures[error] += 1
            self.failed_strata[label] += 1
        elif problems:
            self.wrong += 1
            self.failed_strata[label] += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(f"{label}: {problems[0]}")

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.attempted - sum(self.ok)

    def scaled(self) -> list[float]:
        return calibrate.scale(self.latencies, self.refs, self.ref_s)

    @property
    def ops_per_s(self) -> float:
        """Successful ops over the time of all ops, at the reference host speed.

        Each op counts at its stratum's median time, so that a burst of
        host noise during one long op does not move the whole run.
        """
        by_stratum: dict[str, list[float]] = {}
        for label, x in zip(self.labels, self.scaled()):
            by_stratum.setdefault(label, []).append(x)
        total = sum(len(xs) * median(xs) for xs in by_stratum.values())
        return sum(self.ok) / total if total > 0 else 0.0

    def report(self) -> dict:
        scaled = self.scaled()
        ok_ms = [x * 1e3 for x, ok in zip(scaled, self.ok) if ok] or [0.0]
        raw_ok_ms = [x * 1e3 for x, ok in zip(self.latencies, self.ok) if ok] or [0.0]
        stratum_ms: dict[str, list[float]] = {}
        for label, x in zip(self.labels, self.latencies):
            stratum_ms.setdefault(label, []).append(x * 1e3)
        latency_tail = tail(ok_ms)
        raw_total = sum(self.latencies)
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "wrong": self.wrong,
            "failures": dict(self.failures),
            "failed_strata": dict(self.failed_strata),
            "problems": self.problems,
            "cycles": self.cycles,
            "ops_per_s": self.ops_per_s,
            "latency_p50_ms": median(ok_ms),
            "latency_tail_ms": latency_tail["value"],
            "latency_tail": latency_tail,
            "success_ratio": sum(self.ok) / self.attempted if self.attempted else 0.0,
            "host_slowdown": median(self.refs) / self.ref_s if self.refs else 0.0,
            "raw": {
                "op_wall_s": raw_total,
                "ops_per_s": sum(self.ok) / raw_total if raw_total > 0 else 0.0,
                "latency_p50_ms": median(raw_ok_ms),
                "latency_tail_ms": tail(raw_ok_ms)["value"],
                "reference_ms": [x * 1e3 for x in self.refs],
                "stratum_ms": stratum_ms,
            },
        }


# ------------------------------------------------------------ in process


def _over(started: float, cap_s: float | None) -> bool:
    return cap_s is not None and time.perf_counter() - started > cap_s


def run_in_process(workload: str, seed: int, runner, cycles: int, tracer=None,
                   cap_s: float | None = None) -> Tally:
    from oscpop.errors import OscPopError

    tally = Tally(calibrate.KERNEL_REF_S)
    tally.refs.append(calibrate.kernel())
    started = time.perf_counter()
    for cycle in range(cycles):
        if cycle and _over(started, cap_s):
            break
        for spec in inputs.cycle_ops(workload, seed, cycle):
            if tracer is not None:
                tracer.op = tally.attempted
            error, out, unexpected = None, None, None
            t0 = time.perf_counter()
            try:
                out = runner.run(workload, spec)
            except OscPopError as exc:
                error = type(exc).__name__
            except Exception as exc:  # not a documented failure: the output is wrong
                unexpected = f"unexpected {type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            tally.refs.append(calibrate.kernel())
            if unexpected:
                problems, defect = [unexpected], None
            else:
                problems, defect = ([], None) if error else runner.check(workload, spec, out)
            tally.add(latency, spec["stratum"], error or defect, problems)
        tally.cycles += 1
    return tally


# -------------------------------------------------------------- cli_cold


def run_cli(ops: list[dict], env: dict, cycles: int,
            trace_dir: Path | None = None, cap_s: float | None = None) -> tuple[Tally, list[dict], int]:
    """Run the six commands round-robin as fresh subprocesses.

    With trace_dir, each op runs under the traced launcher, which leaves
    its trace there. Returns the tally, the traces and the CSV bytes.
    """
    runs = []  # (op index, latency, returncode, stdout)
    refs = [calibrate.spawn(ROOT)]
    started = time.perf_counter()
    done = 0
    while done < cycles and not (done and _over(started, cap_s)):
        done += 1
        for i, op in enumerate(ops):
            if trace_dir is None:
                cmd = [sys.executable, "-m", "oscpop.cli", *op["argv"]]
            else:
                trace_path = trace_dir / f"op{len(runs)}.json"
                cmd = [sys.executable, "-m", "oscbench.cli_launcher", str(trace_path), *op["argv"]]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=CLI_TIMEOUT_S)
            runs.append((i, time.perf_counter() - t0, proc.returncode, proc.stdout))
            refs.append(calibrate.spawn(ROOT))

    tally, csv_bytes = tally_cli(ops, runs, refs)
    tally.cycles = done
    traces = []
    if trace_dir is not None:
        for k in range(len(runs)):
            path = trace_dir / f"op{k}.json"
            if path.exists():
                traces.append(json.loads(path.read_text()))
    return tally, traces, csv_bytes


def tally_cli(ops: list[dict], runs: list[tuple], refs: list[float]) -> tuple[Tally, int]:
    """Tally (op index, latency, exit code, stdout) runs; return it and the CSV bytes.

    refs are the reference job's times around the runs, as in Tally.

    A documented exit code is a failed op. Any other non-zero code, a
    verify run that reports a FAIL, or output that differs from the
    reference or from an earlier run of the same argv is wrong.
    """
    tally = Tally(calibrate.SPAWN_REF_S)
    tally.refs = list(refs)
    first: dict[int, bytes] = {}
    verdict: dict[int, list[str]] = {}
    csv_bytes = 0
    for i, latency, code, stdout in runs:
        op = ops[i]
        label = op["command"]
        if code in DOCUMENTED_EXITS:
            tally.add(latency, label, f"exit {code}", [])
            continue
        problems = []
        if code == 0 or label == "verify":
            if i not in first:
                first[i] = stdout
                verdict[i] = clicheck.check_output(op, stdout)
            problems += verdict[i] if stdout == first[i] else ["output bytes differ between identical runs"]
        if code != 0:
            problems.append(f"undocumented exit code {code}")
        tally.add(latency, label, None, problems)
        if label != "verify" and code == 0:
            csv_bytes += len(stdout)
    return tally, csv_bytes


# ------------------------------------------------------------------ main


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    out_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)

    # ---- set-up: import plus input generation
    if args.workload == "cli_cold":
        ops = inputs.cli_ops(args.seed, out_dir)
        runner = None
    else:
        import oscpop
        from .ops import Ops

        src = (ROOT / "src").resolve()
        if src not in Path(oscpop.__file__).resolve().parents:
            print(f"oscpop imported from {oscpop.__file__}, not from {src}", file=sys.stderr)
            return 3
        runner = Ops()
        inputs.cycle_ops(args.workload, args.seed, 0)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    # `verify` writes temporary files; keep them inside the checkout
    tmp = out_dir / "tmp"
    tmp.mkdir(exist_ok=True)
    cli_env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp)}
    trace_env = {**cli_env, "PYTHONPATH": os.pathsep.join((str(ROOT / "bench"), str(ROOT / "src")))}
    if not args.trace:
        n, cap_s = cycles_for(args.workload, args.seconds), CAP_FACTOR * args.seconds
        if runner is None:
            tally, _, _ = run_cli(ops, cli_env, n, cap_s=cap_s)
            rss = _peak_rss_mb(resource.RUSAGE_CHILDREN)  # the largest CLI process
        else:
            tally = run_in_process(args.workload, args.seed, runner, n, cap_s=cap_s)
            rss = _peak_rss_mb(resource.RUSAGE_SELF)
        print(json.dumps({**tally.report(), "peak_rss_mb": rss}))
        return 0

    from .tracer import Tracer

    n = cycles_for(args.workload, TRACE_SHARE * args.seconds)
    if runner is None:
        plain, _, _ = run_cli(ops, cli_env, n)
        trace_dir = out_dir / "traces"
        trace_dir.mkdir(exist_ok=True)
        traced, traces, csv_bytes = run_cli(ops, trace_env, n, trace_dir=trace_dir)
        summary = layers.merge(traces)
    else:
        plain = run_in_process(args.workload, args.seed, runner, n)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_in_process(args.workload, args.seed, runner, n, tracer=tracer)
        finally:
            tracer.uninstall()
        summary, csv_bytes = tracer.summary(), 0
    (out_dir / "spans.json").write_text(json.dumps(summary))
    overhead = traced.ops_per_s / plain.ops_per_s if plain.ops_per_s else 0.0
    print(json.dumps({
        **traced.report(),
        "wrong": plain.wrong + traced.wrong,
        "untraced_ops_per_s": plain.ops_per_s,
        "per_layer": layers.per_layer(summary, overhead=overhead, csv_bytes=csv_bytes),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

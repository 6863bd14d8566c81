"""oscpop benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {cli_cold,cycles,horizon,scan}
                         --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics of a separate traced pass with --trace 1. The line before it,
and .bench_out/result-<workload>-seed<N>-trace<T>.json, hold the details:
run environment, tail percentile and sample count, failures by kind.
Exits non-zero without a result when the package or a run fails.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import signal
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from oscbench import calibrate, layers  # noqa: E402
from oscbench.inputs import WORKLOADS  # noqa: E402
from oscbench.stats import median  # noqa: E402

SETUP_SAMPLES = 3  # fresh set-ups per run; setup_s is their median
IMPORT_SAMPLES = 3
BUDGET_S = 170.0  # whole run, well inside the 180 s limit


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("run exceeded its time budget")
        return left


def _worker_cmd(args, *extra: str) -> list[str]:
    return [
        sys.executable, "-m", "oscbench.worker",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]


def _run_worker(cmd: list[str], env: dict, deadline: Deadline) -> tuple[float, str]:
    """Spawn a worker; return (seconds until READY, its remaining stdout)."""
    t0 = time.perf_counter()
    # own process group, so a kill on timeout also ends the CLI processes it runs
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=deadline.left()):
                raise TimeoutError("worker set-up exceeded the time budget")
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=deadline.left())
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit {proc.returncode}): {' '.join(cmd[2:])}")
    return setup, rest


def _wall(cmd: list[str], env: dict, deadline: Deadline) -> tuple[float, str]:
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                         check=True, timeout=deadline.left()).stdout
    return time.perf_counter() - t0, out


def import_probe(deadline: Deadline) -> dict[str, float]:
    """import oscpop in fresh interpreters, less a bare interpreter start."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    count = (
        "import sys; before = set(sys.modules); import oscpop; "
        "added = set(sys.modules) - before; "
        "print(len(added), sum(m == 'scipy' or m.startswith('scipy.') for m in added))"
    )
    bare, full = [], []
    for _ in range(IMPORT_SAMPLES):
        bare.append(_wall([sys.executable, "-c", "pass"], env, deadline)[0])
        full.append(_wall([sys.executable, "-c", "import oscpop"], env, deadline)[0])
    modules, scipy_modules = map(int, _wall([sys.executable, "-c", count], env, deadline)[1].split())
    return {
        "import.wall_ms": (median(full) - median(bare)) * 1e3,
        "import.modules": modules,
        "import.scipy_modules": scipy_modules,
    }


def environment() -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "oscpop" / "__init__.py").is_file():
        print(f"no oscpop package under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    # turn SIGTERM into SystemExit so the worker cleanup below still runs
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = Deadline(BUDGET_S)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(ROOT / "bench"), str(ROOT / "src")))}
    try:
        # set-ups alternate with the subprocess reference job, as CLI ops do
        setup_refs = [calibrate.spawn(ROOT)]
        setups = []
        for _ in range(SETUP_SAMPLES):
            setups.append(_run_worker(_worker_cmd(args, "--setup-only"), env, deadline)[0])
            setup_refs.append(calibrate.spawn(ROOT))
        run_setup, out = _run_worker(_worker_cmd(args), env, deadline)
        run = json.loads(out.strip().splitlines()[-1])
        imports = import_probe(deadline) if args.trace else {}
    except (RuntimeError, TimeoutError, OSError, subprocess.SubprocessError, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values = {**imports, **run["per_layer"]}
        names = layers.PER_LAYER
    else:
        values = {**run, "setup_s": median(calibrate.scale(setups, setup_refs, calibrate.SPAWN_REF_S))}
        names = layers.END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "setup_raw_s": [*setups, run_setup],
        "setup_reference_s": setup_refs,
        **{k: v for k, v in run.items() if k != "per_layer"},
    }
    result = {
        "correct": run["wrong"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"details": details, "result": result}, indent=1)
    )
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

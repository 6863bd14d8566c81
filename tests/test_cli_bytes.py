"""The CLI's bytes, pinned from one change to the next.

tests/cli_bytes.json records, for each argv below, its exit code and the
SHA-256 of its stdout, its stderr and every file it writes. Each argv
runs in process through ``main(argv)``, in order, in one temporary
directory: OSCPOP_OUTPUT_DIR points into it, ``{tmp}`` in an argv
stands for it, and COLUMNS=80 fixes argparse's help width. A change that
moves bytes re-records the file in the same diff, which then shows the
argvs that moved:

    PYTHONPATH=src python tests/test_cli_bytes.py
"""
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from oscpop.cli import main

RECORD = Path(__file__).with_name("cli_bytes.json")
README = Path(__file__).resolve().parents[1] / "README.md"

# input tables the argvs below read: a flat cycle of 1e308, four knots of
# 8e307, whose integral over [0, 3] passes the float range, and a table
# whose last segment's slope passes the float range
TABLES = {
    "flat.csv": "t,M\n0,1e308\n1,1e308\n",
    "knots4.csv": "t,M\n0,8e307\n1,8e307\n2,8e307\n3,8e307\n",
    "steep.csv": "t,M\n0,1\n1,-1.5e308\n2.5,1e308\n3,2\n",
}


def _readme() -> list[str]:
    block = README.read_text().split("## Command line", 1)[1].split("```", 2)[1]
    return [" ".join(line.split()[1:]) for line in block.splitlines() if line.startswith("oscpop ")]


def argvs() -> list[str]:
    """Every recorded argv, in the order it runs."""
    helps = ["--help"] + [
        f"{command} --help"
        for command in ("simulate", "closed-form", "two-phase", "periodic", "bifurcation", "verify")
    ]
    # verify at two seeds, and worked runs: table cycles read from
    # simulate's own output (one a 2,001-knot table), samples on switch
    # times, a steep table, a solver flag given to two-phase, and cycles of
    # huge levels or of a tiny period
    ci = [
        "verify --seed 0",
        "verify --seed 3",
        "simulate --schedule sinusoid:2,0.5,6 --r 1 --p0 1 --t-end 6 --dt 0.05 --output {tmp}/cap.csv",
        "periodic --schedule sinusoid:2,0.8,3 --r 1",
        "closed-form --schedule sinusoid:2,0.5,3 --r 1 --p0 0.5 --t-end 20 --dt 0.5",
        "bifurcation --rho-min 2.6 --rho-max 3 --steps 40",
        "two-phase --schedule twophase:-0.5,3,5 --r 0.9 --p0 0.5 --t-end 20 --dt 0.5",
        "periodic --schedule table:{tmp}/cap.csv,6 --r 1",
        "simulate --schedule sinusoid:2,0.9,20 --r 1 --p0 1 --t-end 20 --dt 0.01 --output {tmp}/knots.csv",
        "periodic --schedule table:{tmp}/knots.csv,20 --r 1",
        "simulate --schedule twophase:1,3,0.3 --r 1 --p0 0.5 --t-end 1.5 --dt 0.15",
        "simulate --schedule table:{tmp}/steep.csv --r 1e-307 --p0 0.5 --t-end 3 --dt 0.25",
        "two-phase --schedule twophase:-0.5,3,5 --r 0.9 --p0 0.5 --t-end 20 --dt 0.5 --max-iterations 3",
        "periodic --schedule twophase:1e200,1e200,1 --r 1",
        "periodic --schedule twophase:1e308,1e308,1 --r 1",
        "periodic --schedule twophase:1e308,1e308,4 --r 1",
        "periodic --schedule sinusoid:2,0.5,1e-300 --r 1",
    ]
    # the exit-code argvs of verify's battery
    exits = [
        "simulate --schedule constant:1 --r 1 --p0 1 --t-end 1 --dt 0.5 --output ok.csv",
        "simulate --schedule bogus:1 --r 1 --p0 1 --t-end 1 --dt 0.5",
        "periodic --schedule sinusoid:0,1,6.283185307179586 --r 1 --output cycle.csv",
        "closed-form --schedule sinusoid:1,0.5,6.283185307179586 --r 1 --p0 1 --t-end 6 --dt 1"
        " --max-iterations 1 --abs-tol 1e-14 --rel-tol 1e-14 --output cf.csv",
    ]
    # a square wave of period 1e-300, capacity integrals past the float
    # range, and a cycle whose period is too short for its print grid
    edges = [
        "two-phase --schedule twophase:1,3,1e-300 --r 1 --p0 0.5 --t-end 10 --dt 1",
        "simulate --schedule twophase:1,3,1e-300 --r 1 --p0 0.5 --t-end 10 --dt 1",
        "closed-form --schedule twophase:1,3,1e-300 --r 1 --p0 0.5 --t-end 10 --dt 1",
        "closed-form --schedule sinusoid:1e308,5e307,3 --r 1e-308 --p0 1 --t-end 3 --dt 1",
        "periodic --schedule table:{tmp}/flat.csv,1 --r 1e-308",
        "closed-form --schedule table:{tmp}/knots4.csv --r 1e-308 --p0 1 --t-end 3 --dt 1",
        "periodic --schedule twophase:1,3,1e-320 --r 1",
    ]
    # scans whose orbits escape: past rho = 3, below rho = -1 (the grid
    # holds rho = -1, where 1 + rho = 0), and at r != 1
    escapes = [
        "bifurcation --rho-min 2.9 --rho-max 3.4 --steps 40",
        "bifurcation --rho-min -1.5 --rho-max -0.5 --steps 21",
        "bifurcation --rho-min 2.5 --rho-max 3.3 --steps 20 --r 0.7",
    ]
    return _readme() + helps + ci + exits + edges + escapes


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): _digest(p.read_bytes()) for p in sorted(root.rglob("*")) if p.is_file()}


def observe(root: Path) -> list[dict]:
    """Run every argv in order under root and hash what each produced.

    The caller sets OSCPOP_OUTPUT_DIR to root / "out" and COLUMNS to 80.
    """
    for name, text in TABLES.items():
        (root / name).write_text(text)
    entries = []
    for argv in argvs():
        before = _files(root)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv.replace("{tmp}", str(root)).split())
        written = {name: h for name, h in _files(root).items() if before.get(name) != h}
        entries.append({
            "argv": argv,
            "exit": code,
            "stdout": _digest(out.getvalue().encode()),
            "stderr": _digest(err.getvalue().encode()),
            "files": written,
        })
    return entries


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_bytes")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("OSCPOP_OUTPUT_DIR", str(root / "out"))
        mp.setenv("COLUMNS", "80")
        return {e["argv"]: e for e in observe(root)}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORD.read_text())


def test_the_record_lists_every_argv_in_order(recorded):
    assert [e["argv"] for e in recorded] == argvs()


@pytest.mark.parametrize("argv", argvs())
def test_argv_bytes_match_the_record(observed, recorded, argv):
    assert observed[argv] == next((e for e in recorded if e["argv"] == argv), None)


@pytest.mark.parametrize("rho_min", ["-1.5e0", "-15e-1", "-.15E1"])
def test_negative_flag_value_in_exponent_form(recorded, rho_min):
    # a flag's value may be any float literal: argparse on Python 3.10 and
    # 3.11 took -1.5e0 for a flag and exited 2 with "expected one argument"
    pinned = "bifurcation --rho-min -1.5 --rho-max -0.5 --steps 21"
    argv = pinned.replace("-1.5", rho_min, 1)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv.split())
    got = {"exit": code, "stdout": _digest(out.getvalue().encode()), "stderr": _digest(err.getvalue().encode())}
    assert got == {key: next(e for e in recorded if e["argv"] == pinned)[key] for key in got}


def test_readme_block_lists_every_command():
    assert [argv.split()[0] for argv in _readme()] == [
        "simulate", "closed-form", "two-phase", "periodic", "bifurcation", "verify",
    ]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.environ.update(OSCPOP_OUTPUT_DIR=os.path.join(tmp, "out"), COLUMNS="80")
        record = observe(Path(tmp))
    RECORD.write_text(json.dumps(record, indent=1) + "\n")
    print(f"{len(record)} argvs recorded in {RECORD}", file=sys.stderr)

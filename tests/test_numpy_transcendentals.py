"""No numpy transcendental function in src/ outside an allow-list.

numpy picks a SIMD kernel for exp, log and the like from the CPU it runs
on, and those kernels need not round like math's functions or like each
other: on an AVX-512 machine np.exp and math.exp disagree in the last
bit on some inputs where with X86_V4 disabled they agree. The byte pins
would then hold on one machine and break on another, so the library
evaluates these functions with math on Python floats. Each numpy use
kept is listed with the reason it rounds like math on every SIMD level.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "oscpop"

TRANSCENDENTALS = frozenset({
    "exp", "expm1", "exp2", "log", "log1p", "log2", "log10", "power", "float_power",
    "sin", "cos", "tan", "arcsin", "arccos", "arctan", "arctan2", "sinh", "cosh", "tanh",
})

# (file, enclosing function, numpy function): why that use may stay
ALLOWED = {
    ("capacity.py", "SinusoidOffset.at", "sin"): (
        "reached only for an array of times, where math.sin raises TypeError; numpy "
        "dispatches no float64 sin kernel, so np.sin calls the C library's sin as "
        "math.sin does at every SIMD level"
    ),
}


def numpy_transcendentals(source: str, filename: str) -> list[tuple[str, str, str, int]]:
    """(file, enclosing function, numpy function, line) of each np.<function>
    among TRANSCENDENTALS in source."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif (
                isinstance(child, ast.Attribute)
                and isinstance(child.value, ast.Name)
                and child.value.id == "np"
                and child.attr in TRANSCENDENTALS
            ):
                found.append((filename, scope, child.attr, child.lineno))
            visit(child, inner)

    visit(ast.parse(source, filename), "")
    return found


def test_no_numpy_transcendental_outside_the_allow_list():
    uses = [
        use
        for path in sorted(SRC.glob("*.py"))
        for use in numpy_transcendentals(path.read_text(), path.name)
    ]
    assert [use for use in uses if use[:3] not in ALLOWED] == []
    # an allow-list entry whose use is gone goes too
    assert {use[:3] for use in uses} == set(ALLOWED)


def test_a_planted_use_is_found():
    planted = "import numpy as np\n\nclass Step:\n    def grow(self, x):\n        return np.exp(x)\n"
    assert numpy_transcendentals(planted, "planted.py") == [("planted.py", "Step.grow", "exp", 5)]

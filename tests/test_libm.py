"""The C library the byte pins belong to.

math.exp, math.expm1, math.sin and math.cos come from the platform's C
library, which does not round them correctly, and src/ reaches them in
every closed form and every sinusoid value, integral and slope. So
tests/cli_bytes.json and the tests/test_*_pinned.py rows hold for the
libm they were recorded with: glibc 2.36 on x86-64, which picks its FMA
code path on a CPU with FMA. Each pin below is an argument at which that
libm misrounds, with its result and the correctly rounded one (from
200-bit arithmetic). The last pin of each function is misrounded only on
the FMA path, which rounds it differently from glibc's path without FMA,
so a CPU without FMA fails here too.

This test fails with one message naming the libm where the byte pins
would fail for that reason. Whether np.sin rounds as math.sin does on
arrays is checked by tests/test_capacity.py's TestArrayPieceValues.
"""
import math
import platform

LIBM = "glibc 2.36 on x86-64, FMA code path"

# (function, x, that libm's result, the correctly rounded result), as float.hex
PINS = [
    ("exp", "-0x1.48485aa2f205ap+8", "0x1.4f0f392a3d676p-474", "0x1.4f0f392a3d677p-474"),
    ("exp", "0x1.14d290ea7ad14p+8", "0x1.4af3f2d9baaf9p+399", "0x1.4af3f2d9baafap+399"),
    ("exp", "-0x1.c5a97ef5579fap+7", "0x1.af20ddfa33375p-328", "0x1.af20ddfa33376p-328"),
    ("expm1", "0x1.dcb96f0f3ac10p-2", "0x1.2f8f8484de8c4p-1", "0x1.2f8f8484de8c5p-1"),
    ("expm1", "0x1.41e414e1bd3f0p-1", "0x1.c014ca28a15d2p-1", "0x1.c014ca28a15d3p-1"),
    ("expm1", "0x1.7ec7169736468p-2", "0x1.d02241d10e2a2p-2", "0x1.d02241d10e2a1p-2"),
    ("sin", "0x1.68b89b8a21107p+2", "-0x1.349900688e980p-1", "-0x1.349900688e97fp-1"),
    ("sin", "0x1.bd5e62f2acf40p+1", "-0x1.536a2a7463072p-2", "-0x1.536a2a7463073p-2"),
    ("sin", "0x1.7a417f1bd5fd7p+2", "-0x1.7518e5424dc8cp-2", "-0x1.7518e5424dc8bp-2"),
    ("cos", "0x1.1481c60811d13p-4", "0x1.fed574f30ef5ap-1", "0x1.fed574f30ef59p-1"),
    ("cos", "0x1.22cc2d06a908fp+0", "0x1.af66e8fb94064p-2", "0x1.af66e8fb94063p-2"),
    ("cos", "0x1.414383f8f5fa4p+2", "0x1.35cd26cbe8faep-2", "0x1.35cd26cbe8fadp-2"),
]


def test_each_pin_is_a_one_ulp_misrounding():
    for name, x, libm, correct in PINS:
        libm, correct = float.fromhex(libm), float.fromhex(correct)
        assert math.nextafter(correct, libm) == libm != correct, (name, x)


def test_math_rounds_as_the_libm_of_the_byte_pins():
    moved = []
    for name, x, libm, correct in PINS:
        got = getattr(math, name)(float.fromhex(x))
        if got != float.fromhex(libm):
            moved.append(f"{name}({x}) = {got.hex()}, not {libm} (correctly rounded {correct})")
    libc = " ".join(filter(None, platform.libc_ver())) or "an unnamed C library"
    assert not moved, (
        f"math here ({libc}, {platform.machine()}) rounds differently from {LIBM}, the libm "
        f"tests/cli_bytes.json and the pinned rows were recorded with, so byte pins that reach "
        f"exp, expm1, sin or cos fail for that reason: " + "; ".join(moved)
    )

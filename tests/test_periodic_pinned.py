"""Exact outputs of the cycle solve, its diagnostics and the quadrature
solution, pinned as float.hex.

The reciprocal-space quadrature and the orbit diagnostics may be
restructured for speed, for instance by rating many Kronrod panels or
weighting many Gauss nodes in one pass, but every float they produce
must stay the same; a change that moves them re-records the pins and
names the test that checks the new floats' accuracy. Each cycle case pins the start value p*, the affine map's offset
u(h), the closure residual, the orbit length, the identity residual, the
square-deviation pair, the time average and five orbit samples; the
quadrature cases pin quadrature_solution at three times each.
"""
import math

import numpy as np
import pytest

from oscpop import (
    LogisticParams,
    SinusoidOffset,
    SolverConfig,
    Tabulated,
    TwoPhase,
    find_periodic_solution,
    orbit_identity_residual,
    quadrature_solution,
    reciprocal_solution,
    square_deviation_identity,
    time_average,
)


def _periodic_table():
    # one smooth closed loop through 50 samples of a period of 5
    t = np.linspace(0.0, 5.0, 50)
    phase = 2.0 * math.pi * t / 5.0
    v = 2.0 + 0.45 * np.sin(phase + 1.0) + 0.2 * np.sin(2.0 * phase + 2.0)
    v[-1] = v[0]
    return Tabulated(t, v, 5.0)


def _ragged_table():
    # two incommensurate tones plus jitter, sampled every 0.1 over [0, 40]
    rng = np.random.default_rng(7)
    t = np.linspace(0.0, 40.0, 401)
    v = 2.0 + 0.5 * np.sin(1.1 * t) + 0.3 * np.sin(0.37 * t + 2.0) + 0.05 * rng.standard_normal(t.size)
    return Tabulated(t, v)


# (schedule, r)
CYCLES = {
    "table": (_periodic_table(), 1.0),
    "sinusoid": (SinusoidOffset(2.0, 0.8, 3.0), 0.9),
    "twophase": (TwoPhase(1.0, 3.0, 2.0), 1.1),
    "dieoff": (TwoPhase(-0.5, 3.0, 5.0), 0.9),
}
# find_periodic_solution's quadrature settings at the default tolerances
INNER = SolverConfig(abs_tol=1e-12, rel_tol=1e-10)
FRACS = (0.1, 0.3, 0.5, 0.7, 0.9)

# p*, u(h), closure residual, orbit samples, identity residual,
# (integral of (P - M/2)^2, integral of M^2/4), time average, and the
# populations at FRACS of the orbit's sample indices
PINNED_CYCLES = {
    "table": (
        "0x1.23412fb4ed662p+1", "0x1.c201496862eebp-2", "0x1.190bd1ec8eeb7p-42", 1025,
        "0x1.7ba00227c8b39p-42", ("0x1.49a90f56acb8bp+2", "0x1.49a90f56aad4ep+2"),
        "0x1.0000000000f42p+1",
        ["0x1.37a4946f2f097p+1", "0x1.123d33a3c598dp+1", "0x1.f24d1dd2089bdp+0",
         "0x1.976d8d8c84e00p+0", "0x1.e1f00146cf909p+0"],
    ),
    "sinusoid": (
        "0x1.99bba317ac2b7p+0", "0x1.3e7389f631af9p-1", "0x1.046dffd570246p-33", 1025,
        "0x1.46cb73759b3efp-38", ("0x1.9eb851eba4c98p+1", "0x1.9eb851eb851ebp+1"),
        "0x1.fffffffffd745p+0",
        ["0x1.d893a85ee9e5ep+0", "0x1.3bb6daae465d2p+1", "0x1.313d74fab2ee3p+1",
         "0x1.cb0d2a82bd909p+0", "0x1.82961afa115dcp+0"],
    ),
    "twophase": (
        "0x1.6dc69c457f63cp+1", "0x1.61f0b3f9e6aa1p-2", "0x1.576f34d81c999p-38", 1025,
        "0x1.cfb42bdd97b3ep-42", ("0x1.3ffffffffe114p+1", "0x1.4000000000000p+1"),
        "0x1.0000000005891p+1",
        ["0x1.0bdb610814c5dp+1", "0x1.819ddad6eabd3p+0", "0x1.46b0fe09ef357p+0",
         "0x1.19c9e804a54cep+1", "0x1.5e1e598f8bfaep+1"],
    ),
    "dieoff": (
        "0x1.798a2bb75db36p+1", "0x1.59ec051b6cdbfp-2", "0x1.4adb9ef8d28d9p-38", 1025,
        "0x1.d76c8ba895797p-41", ("0x1.71fffffffd1f3p+2", "0x1.7200000000000p+2"),
        "0x1.4000000008f6dp+0",
        ["0x1.14431df2dc313p+0", "0x1.8b129f2df9655p-2", "0x1.897cc2c8c52f3p-3",
         "0x1.816e8fcab36bdp+0", "0x1.680bc3b3b91dap+1"],
    ),
}

# (schedule, params, times)
QUADRATURE = {
    "sinusoid": (SinusoidOffset(2.0, 0.9, 3.0), LogisticParams(1.0, 0.5), (7.3, 101.1, 290.0)),
    "table": (_ragged_table(), LogisticParams(1.2, 1.5, 0.3), (3.7, 17.2, 39.5)),
}
PINNED_QUADRATURE = {
    "sinusoid": ["0x1.4c6a75f74abd8p+1", "0x1.b9e3a5fe28545p+0", "0x1.d52c6397e1ec6p+0"],
    "table": ["0x1.c175594b88785p+0", "0x1.0dfcfea11c24ap+1", "0x1.6abf91f05b59cp+0"],
}


@pytest.mark.parametrize("case", sorted(CYCLES))
def test_cycle_outputs_are_bit_identical(case):
    cap, r = CYCLES[case]
    p_star, offset, residual, n, identity, (lhs, rhs), mean, samples = PINNED_CYCLES[case]
    sol = find_periodic_solution(r, cap)
    u = reciprocal_solution(LogisticParams(r, math.inf), cap, cap.period, INNER)
    assert u.hex() == offset
    assert sol.p_star == -math.expm1(-r * cap.integral(0.0, cap.period)) / u
    assert sol.p_star.hex() == p_star
    assert sol.residual.hex() == residual
    assert len(sol.orbit) == n
    assert orbit_identity_residual(sol.orbit, cap).hex() == identity
    assert [x.hex() for x in square_deviation_identity(sol, cap)] == [lhs, rhs]
    assert time_average(sol).hex() == mean
    picks = [int(f * (n - 1)) for f in FRACS]
    assert [float(sol.orbit.populations[i]).hex() for i in picks] == samples


@pytest.mark.parametrize("case", sorted(QUADRATURE))
def test_quadrature_solutions_are_bit_identical(case):
    cap, params, times = QUADRATURE[case]
    assert [quadrature_solution(params, cap, t).hex() for t in times] == PINNED_QUADRATURE[case]

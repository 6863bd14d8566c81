"""Exact outputs of both integrators, pinned as float.hex.

The RK45 step loop may be restructured for speed, but every float it
produces must stay the same: the final value, five dense samples and the
full SolverStats are compared bit for bit with the values recorded before
the loop was last changed.

The pins were last moved when dense output became Dormand-Prince's
continuous extension and each smooth piece began to start from the step
size the previous piece ended with. The one-piece sinusoid cases kept
their step loop, so only their dense samples moved; the multi-piece
square-wave and table cases were re-pinned in full. The constant and
die-off cases, whose level pieces the step loop reads M of once per
piece, were added with the values of the loop that called a right-hand
side closure per stage. The steep-table and user-subclass cases were
added with the values of the loop that called each piece's value (and
slope) once per stage time, before it evaluated M once per step. The
user-subclass rows moved when the base class's pieces began to read at
and derivative one float inside each piece at its ends;
test_user_schedule_is_near_a_tight_run checks their floats.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from oscpop import (
    CapacitySchedule,
    Constant,
    LogisticParams,
    NonDifferentiableError,
    SinusoidOffset,
    SolverConfig,
    StiffnessError,
    Tabulated,
    TwoPhase,
    integrate_logistic,
    integrate_riccati,
)
from oscpop.odesolve import SolverStats


def _table():
    rng = np.random.default_rng(11)
    times = np.concatenate(([0.2], 0.2 + np.cumsum(rng.uniform(0.05, 0.4, 59))))
    return Tabulated(times, rng.uniform(0.5, 3.0, times.size))


class Arches(CapacitySchedule):
    """A user schedule, 2 + |sin t|, with kinks at the multiples of pi: it
    defines only at, derivative, breakpoints_between and its bounds, so
    the solvers reach it through the base class's pieces."""

    def at(self, t):
        if isinstance(t, np.ndarray):
            return np.array([self.at(x) for x in t.tolist()])
        return 2.0 + abs(math.sin(t))

    def derivative(self, t):
        return math.cos(t) if math.sin(t) >= 0.0 else -math.cos(t)

    def breakpoints_between(self, t0, t1):
        k = math.floor(t0 / math.pi) + 1
        return [j * math.pi for j in range(k, math.ceil(t1 / math.pi) + 1) if t0 < j * math.pi < t1]

    def min_value(self):
        return 2.0

    def max_value(self):
        return 3.0


class Square(CapacitySchedule):
    """TwoPhase(1, 3, 2) as a user schedule with the built-ins' own rules:
    at is left-closed and derivative raises on a switch time."""

    def at(self, t):
        return 3.0 if math.floor(t) % 2 else 1.0

    def derivative(self, t):
        if t == math.floor(t):
            raise NonDifferentiableError(f"capacity jumps at t={t}")
        return 0.0

    def breakpoints_between(self, t0, t1):
        return [float(k) for k in range(math.floor(t0) + 1, math.ceil(t1)) if t0 < k < t1]


# (schedule, params, t_end); the table runs over its whole sampled range
CASES = {
    "sinusoid": (SinusoidOffset(2.0, 1.5, 3.0), LogisticParams(1.3, 0.4), 40.0),
    "twophase": (TwoPhase(1.0, 3.0, 0.7), LogisticParams(1.1, 0.6), 25.0),
    "table": (_table(), LogisticParams(0.9, 1.7, 0.2), None),
    # one piece that does not start at 0, and a square wave with a negative level
    "constant": (Constant(2.5), LogisticParams(1.2, 0.3, 1.5), 12.0),
    "dieoff": (TwoPhase(-0.5, 3.0, 5.0), LogisticParams(0.9, 0.5), 20.0),
    # a table whose middle segment's sample difference overflows, so its
    # line runs through the halved samples; r * M stays within about 15
    "steep": (Tabulated([0.0, 1.0, 2.5, 4.0], [1.0, -1.5e308, 1e308, 2.0]), LogisticParams(1e-307, 0.5), None),
    "arches": (Arches(), LogisticParams(0.8, 0.4, 0.3), 15.0),
}
FRACS = (0.13, 0.37, 0.5, 0.81, 1.0)

# case, integrator, pieces, samples without t_eval, final, dense samples at
# FRACS of the span, n_accepted, n_rejected, n_rhs_evals, smallest and
# largest step
PINNED = [
    ("sinusoid", integrate_logistic, 1, 957, "0x1.a1196aebdb45fp+1",
     ["0x1.43e4558d0a6bdp+0", "0x1.05b1454dfe2c1p+0", "0x1.9140d2fa1cbeap+0",
      "0x1.123f117bf3405p+0", "0x1.a1196aebdb45fp+1"],
     956, 13, 5815, "0x1.9e2c47cc18000p-8", "0x1.52eaa66edeebap-4"),
    ("sinusoid", integrate_riccati, 1, 1045, "0x1.a1196aedd4e6dp+1",
     ["0x1.43e45595673c2p+0", "0x1.05b1456aa9f5dp+0", "0x1.9140d2f505ad2p+0",
      "0x1.123f117811ffap+0", "0x1.a1196aedd4e6dp+1"],
     1044, 9, 6319, "0x1.47c70e76cb000p-6", "0x1.3828493533b3dp-4"),
    ("twophase", integrate_logistic, 72, 662, "0x1.00b4513adfec3p+1",
     ["0x1.e3692c2e5bd5fp+0", "0x1.f8c19b4b46f51p+0", "0x1.1b14b2b0d8ebfp+1",
      "0x1.26de44e0a3b50p+1", "0x1.00b4513adfec3p+1"],
     661, 36, 4254, "0x1.7add788138000p-12", "0x1.c000000000000p-3"),
    ("twophase", integrate_riccati, 72, 734, "0x1.00b45139fba7cp+1",
     ["0x1.e3692cc106371p+0", "0x1.f8c19b41a7522p+0", "0x1.1b14b2b31e9e4p+1",
      "0x1.26de44e237e23p+1", "0x1.00b45139fba7cp+1"],
     733, 37, 4692, "0x1.ceaf879109800p-10", "0x1.c000000000000p-3"),
    ("table", integrate_logistic, 59, 291, "0x1.83d6a083b4d0bp+0",
     ["0x1.d27d5191a6deep+0", "0x1.806980d4c6383p+0", "0x1.afa1f07fd4a52p+0",
      "0x1.d574d538bf58ep+0", "0x1.83d6a083b4d0bp+0"],
     290, 28, 1967, "0x1.e4c8254af0000p-12", "0x1.b205ff8df6a85p-4"),
    ("table", integrate_riccati, 59, 326, "0x1.83d6a07c987abp+0",
     ["0x1.d27d5182718efp+0", "0x1.806980c944292p+0", "0x1.afa1f07718dfdp+0",
      "0x1.d574d56f2ac8cp+0", "0x1.83d6a07c987abp+0"],
     325, 23, 2147, "0x1.5d913908d4000p-11", "0x1.834420e0cd0c0p-4"),
    ("constant", integrate_logistic, 1, 83, "0x1.3ffffffff28a1p+1",
     ["0x1.1d2b3abc24ee9p+1", "0x1.3ffac9db1c13ep+1", "0x1.3fffe9c5f3946p+1",
      "0x1.3fffffffc339fp+1", "0x1.3ffffffff28a1p+1"],
     82, 2, 505, "0x1.378a3139b9aeep-5", "0x1.0ebcccffa1d65p+0"),
    ("constant", integrate_riccati, 1, 93, "0x1.3ffffffffa3d1p+1",
     ["0x1.1d2b3abbbfaf0p+1", "0x1.3ffac9dc2bea8p+1", "0x1.3fffe9c6c0f08p+1",
      "0x1.3fffffffb63e2p+1", "0x1.3ffffffffa3d1p+1"],
     92, 3, 571, "0x1.3f1ce3a60b062p-5", "0x1.fe76c0cab6f3dp-1"),
    ("dieoff", integrate_logistic, 8, 397, "0x1.798a2baf8f9a0p+1",
     ["0x1.015d1794620d4p-3", "0x1.a180c103f6b74p-3", "0x1.7984032199f67p+1",
      "0x1.fc7d8b7389618p-2", "0x1.798a2baf8f9a0p+1"],
     396, 9, 2438, "0x1.16483869b2000p-8", "0x1.e096f88eb44cdp-4"),
    ("dieoff", integrate_riccati, 8, 390, "0x1.798a2bb210e08p+1",
     ["0x1.015d17f989808p-3", "0x1.a180c10a3ba88p-3", "0x1.798403242c570p+1",
      "0x1.fc7d8b71a72d8p-2", "0x1.798a2bb210e08p+1"],
     389, 8, 2390, "0x1.3251520b25400p-6", "0x1.1b4d42a55aa6cp-3"),
    ("steep", integrate_logistic, 3, 171, "0x1.81537e34cda65p-7",
     ["0x1.0d837db048f00p-4", "0x1.7a07d29c856aep-20", "0x1.79e386b613b26p-22",
      "0x1.c1872fdafe84dp-10", "0x1.81537e34cda65p-7"],
     170, 6, 1059, "0x1.faeac55778a00p-10", "0x1.0c5edbef89dfbp-3"),
    ("arches", integrate_logistic, 5, 236, "0x1.69b463667848bp+1",
     ["0x1.56ac6006fd0d4p+1", "0x1.601dd704d6897p+1", "0x1.618a8e239fdcdp+1",
      "0x1.52a5d6eefec5ep+1", "0x1.69b463667848bp+1"],
     235, 4, 1439, "0x1.4e9e594672800p-8", "0x1.d5a05d2e769adp-4"),
    ("arches", integrate_riccati, 5, 258, "0x1.69b463687154ap+1",
     ["0x1.56ac60041d6acp+1", "0x1.601dd7049c0f4p+1", "0x1.618a8e1d78532p+1",
      "0x1.52a5d6ef03251p+1", "0x1.69b463687154ap+1"],
     257, 8, 1595, "0x1.1a69081b75800p-5", "0x1.a1cfacb79f45bp-4"),
]


@pytest.mark.parametrize(
    "case, integrate, n_pieces, n_samples, final, dense, n_acc, n_rej, n_rhs, h_min, h_max",
    PINNED,
    ids=[f"{row[0]}-{row[1].__name__}" for row in PINNED],
)
def test_outputs_are_bit_identical(case, integrate, n_pieces, n_samples, final, dense, n_acc, n_rej, n_rhs, h_min, h_max):
    cap, params, t_end = CASES[case]
    if t_end is None:
        t_end = float(cap.times[-1])
    assert len(list(cap.pieces(params.t0, t_end))) == n_pieces
    stats = SolverStats(
        solver=integrate.__name__.replace("integrate_", "") + "-rk45",
        n_accepted=n_acc,
        n_rejected=n_rej,
        n_rhs_evals=n_rhs,
        smallest_step=float.fromhex(h_min),
        largest_step=float.fromhex(h_max),
    )
    assert n_rhs == n_pieces + 6 * (n_acc + n_rej)

    steps = integrate(params, cap, t_end)
    assert len(steps) == n_samples
    assert steps.final.hex() == final
    assert steps.meta == stats

    ts = params.t0 + (t_end - params.t0) * np.array(FRACS)
    sampled = integrate(params, cap, t_end, t_eval=ts)
    assert [float(p).hex() for p in sampled.populations] == dense
    assert sampled.meta == stats


def test_shifted_form_fails_where_m_squared_overflows():
    # W' holds M^2 / 4, past the float range wherever a sample difference
    # is, so the shifted form cannot step the steep table's first piece
    cap, params, _ = CASES["steep"]
    with pytest.raises(StiffnessError, match=r"^step size underflow at t=0.0 \(needed 8.192e-14 < min_step\)$"):
        integrate_riccati(params, cap, 4.0)


# every case in both forms, but the one the shifted form cannot step
STEPPED = [
    (case, integrate)
    for case in sorted(CASES)
    for integrate in (integrate_logistic, integrate_riccati)
    if (case, integrate) != ("steep", integrate_riccati)
]


@pytest.mark.parametrize("p0", [None, 0.0])
@pytest.mark.parametrize("case, integrate", STEPPED, ids=[f"{c}-{f.__name__}" for c, f in STEPPED])
def test_step_samples_are_dense_output_at_the_step_ends(case, integrate, p0):
    # without t_eval the samples are t0 and the step ends, and each is what
    # t_eval at those times gives, bit for bit, with the same SolverStats
    cap, params, t_end = CASES[case]
    if t_end is None:
        t_end = float(cap.times[-1])
    if p0 is not None:
        params = replace(params, p0=p0)
    steps = integrate(params, cap, t_end)
    sampled = integrate(params, cap, t_end, t_eval=steps.times)
    assert steps.populations[0] == params.p0
    assert steps.times.tobytes() == sampled.times.tobytes()
    assert steps.populations.tobytes() == sampled.populations.tobytes()
    assert steps.meta == sampled.meta


@pytest.mark.parametrize("integrate", [integrate_logistic, integrate_riccati])
def test_user_square_wave_is_the_built_in_one(integrate):
    # the base class's pieces read a user schedule inside each piece, so a
    # left-closed at and a derivative that raises on a switch give the
    # square wave's own floats; the value and slope at each switch were the
    # next piece's, and integrate_riccati raised at t = 0
    params = LogisticParams(1.0, 0.5)
    got, want = integrate(params, Square(), 20.0), integrate(params, TwoPhase(1.0, 3.0, 2.0), 20.0)
    assert got.times.tobytes() == want.times.tobytes()
    assert got.populations.tobytes() == want.populations.tobytes()
    assert got.meta == want.meta


@pytest.mark.parametrize("integrate", [integrate_logistic, integrate_riccati])
def test_user_schedule_is_near_a_tight_run(integrate):
    # the arches rows at the default tolerances end within 1e-9 of a run at
    # rel_tol 1e-13; integrate_riccati was 2.1e-9 off when it read the
    # slope of the next piece at each kink
    cap, params, t_end = CASES["arches"]
    tight = integrate_logistic(params, cap, t_end, cfg=SolverConfig(abs_tol=1e-15, rel_tol=1e-13)).final
    assert integrate(params, cap, t_end).final == pytest.approx(tight, rel=1e-9, abs=0.0)

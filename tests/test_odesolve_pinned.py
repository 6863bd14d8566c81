"""Exact outputs of both integrators, pinned as float.hex.

The RK45 step loop may be restructured for speed, but every float it
produces must stay the same: the final value, five dense samples and the
full SolverStats are compared bit for bit with the values recorded before
the loop was last changed.
"""
import numpy as np
import pytest

from oscpop import LogisticParams, SinusoidOffset, Tabulated, TwoPhase, integrate_logistic, integrate_riccati
from oscpop.odesolve import SolverStats


def _table():
    rng = np.random.default_rng(11)
    times = np.concatenate(([0.2], 0.2 + np.cumsum(rng.uniform(0.05, 0.4, 59))))
    return Tabulated(times, rng.uniform(0.5, 3.0, times.size))


# (schedule, params, t_end); the table runs over its whole sampled range
CASES = {
    "sinusoid": (SinusoidOffset(2.0, 1.5, 3.0), LogisticParams(1.3, 0.4), 40.0),
    "twophase": (TwoPhase(1.0, 3.0, 0.7), LogisticParams(1.1, 0.6), 25.0),
    "table": (_table(), LogisticParams(0.9, 1.7, 0.2), None),
}
FRACS = (0.13, 0.37, 0.5, 0.81, 1.0)

# case, integrator, pieces, samples without t_eval, final, dense samples at
# FRACS of the span, n_accepted, n_rejected, n_rhs_evals, smallest and
# largest step
PINNED = [
    ("sinusoid", integrate_logistic, 1, 957, "0x1.a1196aebdb45fp+1",
     ["0x1.43e456805d76cp+0", "0x1.05b141d23222bp+0", "0x1.9140d3607767bp+0",
      "0x1.123f113df1118p+0", "0x1.a1196aebdb45fp+1"],
     956, 13, 5815, "0x1.9e2c47cc18000p-8", "0x1.52eaa66edeebap-4"),
    ("sinusoid", integrate_riccati, 1, 1045, "0x1.a1196aedd4e6dp+1",
     ["0x1.43e45379afb20p+0", "0x1.05b135565f613p+0", "0x1.9140d3030c86ep+0",
      "0x1.123f0ac25147bp+0", "0x1.a1196aedd4e6dp+1"],
     1044, 9, 6319, "0x1.47c70e76cb000p-6", "0x1.3828493533b3dp-4"),
    ("twophase", integrate_logistic, 72, 702, "0x1.00b45139fc7adp+1",
     ["0x1.e3692b421f131p+0", "0x1.f8c196e69b729p+0", "0x1.1b14ad1b79a21p+1",
      "0x1.26de3e2888c4fp+1", "0x1.00b45139fc7adp+1"],
     701, 0, 4278, "0x1.4e061c67b7400p-9", "0x1.c000000000000p-3"),
    ("twophase", integrate_riccati, 72, 744, "0x1.00b45138fc151p+1",
     ["0x1.e3692a48d694cp+0", "0x1.f8c19a5087dbdp+0", "0x1.1b14ae943556cp+1",
      "0x1.26de43155858ep+1", "0x1.00b45138fc151p+1"],
     743, 1, 4536, "0x1.1f48491648000p-10", "0x1.c000000000000p-3"),
    ("table", integrate_logistic, 59, 370, "0x1.83d6a084a3901p+0",
     ["0x1.d27d5334e3b12p+0", "0x1.80697fb9efc0bp+0", "0x1.afa1f0718f03fp+0",
      "0x1.d574ce7175f3ep+0", "0x1.83d6a084a3901p+0"],
     369, 3, 2291, "0x1.b4f46512dc000p-11", "0x1.b46aedba22e16p-4"),
    ("table", integrate_riccati, 59, 408, "0x1.83d6a07e67970p+0",
     ["0x1.d27d52d8c8095p+0", "0x1.80698088bafabp+0", "0x1.afa1f06f3096cp+0",
      "0x1.d574d2340aadep+0", "0x1.83d6a07e67970p+0"],
     407, 4, 2525, "0x1.1f2a8a1720000p-15", "0x1.76ad3c23fb1c4p-4"),
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

"""Property tests of the vectorized scan against the one-point detector."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import oscpop.discretemap  # noqa: E402
from oscpop import ScanConfig, bifurcation_scan, detect_attractor, iterate_map  # noqa: E402


@settings(max_examples=40, deadline=None)
@given(
    lo=st.floats(0.3, 3.6),
    hi=st.floats(0.3, 3.6),
    steps=st.integers(2, 12),
    r=st.sampled_from([1.0, 0.25, 0.7, 1.9]),
    transient=st.integers(0, 3000),
    window=st.integers(4, 600),
)
def test_scan_record_equals_detect_attractor_from_the_critical_point(lo, hi, steps, r, transient, window):
    # rho > 3 diverges and [2.6, 3] is mostly chaotic, so every record
    # kind is compared, bit for bit
    cfg = ScanConfig(transient=transient, window=window)
    res = bifurcation_scan(lo, hi, steps, cfg, r_fixed=r)
    for rho, rec in zip(np.linspace(lo, hi, steps), res.records):
        rho = float(rho)
        want = detect_attractor(r, rho / r, 0.5 * (1.0 + rho) / r, transient=transient, window=window)
        assert rec.control == want.control
        assert rec.detected_period == want.detected_period
        assert rec.diverged == want.diverged
        assert np.array_equal(rec.attractor, want.attractor)


@np.errstate(divide="ignore", invalid="ignore")
def _scalar_attractor(r, m, p0, transient, window, match_tol, escape_bound):
    # step-by-step reference on Python floats; the normalized coordinate
    # divides by a numpy float, so that at rho = -1 it is inf or nan
    unit = np.float64(1.0 + r * m)
    p = last = p0
    for _ in range(transient):
        p = p + r * (m - p) * p
        if not np.isfinite(p) or abs(r * p / unit) > escape_bound:
            return [last], None, True
        last = p
    w = [p]
    for _ in range(1, window):
        p = p + r * (m - p) * p
        if not np.isfinite(p) or abs(r * p / unit) > escape_bound:
            return w, None, True
        w.append(p)
    w = np.array(w)
    x = r * w / unit
    for period in range(1, window // 2 + 1):
        first = x[window % period :][:period]
        if (
            np.max(np.abs(x[period:] - x[:-period])) <= match_tol
            and np.max(np.abs(first - x[-period:])) <= match_tol
        ):
            if abs(np.prod(unit * (1.0 - 2.0 * x[-period:]))) > 1.0:
                break
            order = np.argsort(x[-period:])
            keep = np.concatenate(([True], np.diff(x[-period:][order]) > match_tol))
            return w[-period:][order][keep], period, False
    return w, None, False


@settings(max_examples=60, deadline=None)
@given(
    r=st.floats(0.05, 2.0),
    rho=st.floats(0.3, 3.6),
    x0=st.floats(-0.2, 1.2),
    transient=st.integers(0, 2000),
    window=st.integers(4, 400),
)
def test_detect_attractor_equals_scalar_loop(r, rho, x0, transient, window):
    m = rho / r
    p0 = x0 * (1.0 + rho) / r
    rec = detect_attractor(r, m, p0, transient=transient, window=window)
    values, period, diverged = _scalar_attractor(r, m, p0, transient, window, ScanConfig().match_tol, 10.0)
    assert (rec.detected_period, rec.diverged) == (period, diverged)
    assert np.array_equal(rec.attractor, values)


# At r = 1 the critical orbits of these controls land on exact
# floating-point cycles of 160 and 480 steps, longer than one 128-step
# block, within the default transient
LONG_CYCLES = (2.80095, 2.647325)
EDGES = (-1.0, 3.2, *LONG_CYCLES)
# the grids below reach every way a default scan can end a column:
RETIRING = (0.5, 2.4, 30, 1.0)  # exact cycles retired by the array steps
LONG = (*LONG_CYCLES, 2, 1.0)  # exact cycles longer than a block, on Python floats
ESCAPING = (2.5, 3.3, 20, 0.7)  # chaos and divergence at r != 1
ZERO_UNIT = (-1.0, 0.0, 3, 1.0)  # rho = -1, where 1 + rho = 0


@settings(max_examples=15, deadline=None)
@given(
    lo=st.one_of(st.sampled_from(EDGES), st.floats(-1.0, 3.6)),
    hi=st.one_of(st.sampled_from(EDGES), st.floats(-1.0, 3.6)),
    steps=st.integers(2, 30),
    r=st.sampled_from([1.0, 0.7]),
)
@example(*RETIRING)
@example(*LONG)
@example(*ESCAPING)
@example(*ZERO_UNIT)
def test_default_scan_records_equal_scalar_loop(lo, hi, steps, r):
    cfg = ScanConfig()
    res = bifurcation_scan(lo, hi, steps, r_fixed=r)
    for rho, rec in zip(np.linspace(lo, hi, steps).tolist(), res.records):
        values, period, diverged = _scalar_attractor(
            r, rho / r, 0.5 * (1.0 + rho) / r, cfg.transient, cfg.window, cfg.match_tol, 10.0
        )
        assert rec.attractor.tobytes() == np.asarray(values, dtype=float).tobytes()
        assert (rec.detected_period, rec.diverged) == (period, diverged)


def test_default_scan_examples_reach_every_path(monkeypatch):
    dm = oscpop.discretemap
    seen = {"array_steps": 0, "orbits": 0}
    iterate, orbit = dm._iterate, dm._orbit

    def counted_iterate(r, m, rows):
        seen["array_steps"] += rows.shape[0] - 1
        iterate(r, m, rows)

    def counted_orbit(*args):
        seen["orbits"] += 1
        return orbit(*args)

    monkeypatch.setattr(dm, "_iterate", counted_iterate)
    monkeypatch.setattr(dm, "_orbit", counted_orbit)
    records = bifurcation_scan(*RETIRING[:3], r_fixed=RETIRING[3]).records
    # no point diverges, yet most leave the array steps within two blocks
    # and the rest finish on Python floats
    assert not any(rec.diverged for rec in records)
    assert seen["array_steps"] <= 2 * dm._BLOCK and 0 < seen["orbits"] <= dm._NARROW
    assert LONG[2] <= dm._NARROW
    for rho in LONG_CYCLES:
        bits = iterate_map(1.0, rho, 0.5 * (1.0 + rho), 10_511).view(np.int64)
        q = next(q for q in range(1, 1000) if bits[-1] == bits[-1 - q])
        assert q > dm._BLOCK and np.array_equal(bits[10_000 - q : 10_000], bits[10_000 : 10_000 + q])
    records = bifurcation_scan(*ESCAPING[:3], r_fixed=ESCAPING[3]).records
    assert any(rec.diverged for rec in records)
    assert any(rec.detected_period is None and not rec.diverged for rec in records)

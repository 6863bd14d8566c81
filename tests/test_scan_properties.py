"""Property tests of the vectorized scan against the one-point detector."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from oscpop import ScanConfig, bifurcation_scan, detect_attractor  # noqa: E402


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


def _scalar_attractor(r, m, p0, transient, window, match_tol, escape_bound):
    # step-by-step reference on Python floats
    unit = 1.0 + r * m
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

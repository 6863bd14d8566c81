"""Property tests of the vectorized scan against the one-point detector."""
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import oscpop.discretemap  # noqa: E402
from oscpop import ScanConfig, bifurcation_scan, detect_attractor, iterate_map  # noqa: E402


# where the escape checks differ: below rho = -1; near it, where an
# escaped orbit may come back (rho = -1 itself gives 1 + rho = 0); and past
# rho = 3, where orbits escape
REGIONS = [(0.3, 3.6), (-3.0, -1.0), (-1.25, -0.75), (3.0, 3.6)]


def _rhos(region):
    rho = st.floats(*region)
    return st.one_of(st.just(-1.0), rho) if region[0] <= -1.0 <= region[1] else rho


@settings(max_examples=40, deadline=None)
@given(
    bounds=st.sampled_from(REGIONS).flatmap(lambda region: st.tuples(_rhos(region), _rhos(region))),
    steps=st.integers(2, 30),
    r=st.sampled_from([1.0, 0.25, 0.7, 1.9]),
    transient=st.integers(0, 3000),
    window=st.integers(4, 600),
)
def test_scan_record_equals_detect_attractor_from_the_critical_point(bounds, steps, r, transient, window):
    # [2.6, 3] is mostly chaotic, so every record kind is compared, bit for
    # bit, with the step-by-step loop from the grid point itself, and with
    # the one-point detector wherever that is fed the same control and
    # start: detect_attractor(r, m, p0) iterates from r m and r p0, which
    # give the grid point and its start back exactly where r is a power of
    # two. Grids of more than _NARROW points start on the array steps
    lo, hi = bounds
    cfg = ScanConfig(transient=transient, window=window)
    res = bifurcation_scan(lo, hi, steps, cfg, r_fixed=r)
    for rho, rec in zip(np.linspace(lo, hi, steps).tolist(), res.records):
        start = 0.5 * (1.0 + rho)
        values, period, diverged = _scalar_attractor(
            r, rho, start, start / r, transient, window, cfg.match_tol, 10.0
        )
        assert rec.control == rho
        assert (rec.detected_period, rec.diverged) == (period, diverged)
        assert rec.attractor.tobytes() == np.asarray(values, dtype=float).tobytes()
        if r * (rho / r) == rho and r * (start / r) == start:
            want = detect_attractor(r, rho / r, start / r, transient=transient, window=window)
            assert (want.control, want.detected_period, want.diverged) == (rec.control, period, diverged)
            assert want.attractor.tobytes() == rec.attractor.tobytes()
        else:
            assert r not in (1.0, 0.25)


def _scalar_attractor(r, rho, q0, p0, *limits):
    # step-by-step reference on Python floats in q = r p: from q0 = r p0,
    # each step q + (rho - q) q, the values reported as q / r and the seed
    # p0 as given; limits are (transient, window, match_tol, escape_bound)
    return _loop_attractor(lambda q: q + (rho - q) * q, q0, p0, 1.0 + rho, 1.0, r, *limits)


def _p_form_attractor(r, m, p0, *limits):
    # the same reference on the population itself, each step p + r (m - p) p
    return _loop_attractor(lambda p: p + r * (m - p) * p, p0, p0, 1.0 + r * m, r, 1.0, *limits)


@np.errstate(divide="ignore", invalid="ignore")
def _loop_attractor(step, v0, p0, unit, scale, div, transient, window, match_tol, escape_bound):
    # iterates v from v0; scale v / unit is the normalized coordinate and
    # v / div the reported value, the seed reported as p0. The normalized
    # coordinate divides by a numpy float, so that at rho = -1 it is inf
    # or nan
    unit = np.float64(unit)
    v, last = v0, p0
    for _ in range(transient):
        v = step(v)
        if not np.isfinite(v) or abs(scale * v / unit) > escape_bound:
            return [last], None, True
        last = v / div
    vs, w = [v], [last]
    for _ in range(1, window):
        v = step(v)
        if not np.isfinite(v) or abs(scale * v / unit) > escape_bound:
            return w, None, True
        vs.append(v)
        w.append(v / div)
    w = np.array(w)
    x = scale * np.array(vs) / unit
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
# -0.0 maps to itself for rho > 0, and to 0.0 for rho < 0, where the
# Python-float block rule's == matches the two zeros
@example(r=1.0, rho=2.5, x0=-0.0, transient=0, window=4)
@example(r=1.0, rho=-0.5, x0=-0.0, transient=0, window=8)
def test_detect_attractor_equals_scalar_loop(r, rho, x0, transient, window):
    m = rho / r
    p0 = x0 * (1.0 + rho) / r
    rec = detect_attractor(r, m, p0, transient=transient, window=window)
    values, period, diverged = _scalar_attractor(r, r * m, r * p0, p0, transient, window, ScanConfig().match_tol, 10.0)
    assert (rec.detected_period, rec.diverged) == (period, diverged)
    assert rec.attractor.tobytes() == np.asarray(values, dtype=float).tobytes()


# every column of this narrow grid finishes on Python floats and escapes
# within 20 steps, just past rho = 3
NARROW_ESCAPING = (3.0 + 1e-9, 3.0 + 1e-6, 3)


@pytest.mark.parametrize("r", [1.0, 0.7])
@pytest.mark.parametrize("transient, window", [(0, 400), (5, 8), (10_000, 512)])
def test_narrow_escaping_scan_equals_scalar_loop(r, transient, window):
    lo, hi, steps = NARROW_ESCAPING
    assert steps <= oscpop.discretemap._NARROW
    cfg = ScanConfig(transient=transient, window=window)
    res = bifurcation_scan(lo, hi, steps, cfg, r_fixed=r)
    for rho, rec in zip(np.linspace(lo, hi, steps).tolist(), res.records):
        start = 0.5 * (1.0 + rho)
        values, period, diverged = _scalar_attractor(
            r, rho, start, start / r, transient, window, cfg.match_tol, 10.0
        )
        # a window that ends first, before step 13, sees no escape
        assert (rec.detected_period, rec.diverged) == (period, diverged) == (None, transient + window > 20)
        assert rec.attractor.tobytes() == np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("p0", [0.25, -3.0, 0.0, -0.0])
@pytest.mark.parametrize("r", [1.0, 0.5])
def test_zero_unit_equals_scalar_loop(r, p0):
    # rho = -1, so 1 + rho = 0 and r p / unit is an infinity or nan
    rec = detect_attractor(r, -1.0 / r, p0, transient=0, window=8)
    values, period, diverged = _scalar_attractor(r, -1.0, r * p0, p0, 0, 8, ScanConfig().match_tol, 10.0)
    assert (rec.detected_period, rec.diverged) == (period, diverged)
    assert rec.attractor.tobytes() == np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("narrow", [0, oscpop.discretemap._NARROW])
@pytest.mark.parametrize("transient", [0, 2])
@pytest.mark.parametrize("rho", [-0.95, -1.05])
def test_an_orbit_that_escapes_and_comes_back_is_diverged(monkeypatch, narrow, transient, rho):
    # with |1 + rho| < 1/4 the normalized orbit from 17.8 runs out to about
    # +-15, past the bound, and back inside it within three steps, so only
    # a check of every step sees the escape; _NARROW = 0 puts the lone
    # column on the array steps
    monkeypatch.setattr(oscpop.discretemap, "_NARROW", narrow)
    p0 = 17.8 * (1.0 + rho)
    rec = detect_attractor(1.0, rho, p0, transient=transient, window=8)
    values, period, diverged = _scalar_attractor(1.0, rho, p0, p0, transient, 8, ScanConfig().match_tol, 10.0)
    assert diverged and rec.diverged and rec.detected_period is period is None
    assert rec.attractor.tobytes() == np.asarray(values, dtype=float).tobytes()


# At r = 1 the critical orbits of these controls land on exact
# floating-point cycles of 288 and 480 steps, longer than one 256-step
# block, within the default transient
LONG_CYCLES = (2.63278, 2.647325)
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
        start = 0.5 * (1.0 + rho)
        values, period, diverged = _scalar_attractor(
            r, rho, start, start / r, cfg.transient, cfg.window, cfg.match_tol, 10.0
        )
        assert rec.attractor.tobytes() == np.asarray(values, dtype=float).tobytes()
        assert (rec.detected_period, rec.diverged) == (period, diverged)


def test_default_scan_examples_reach_every_path(monkeypatch):
    dm = oscpop.discretemap
    seen = {"array_steps": 0, "orbits": 0, "float_steps": 0}
    orbit_steps = []  # the Python-float steps of each _orbit call, kept or not
    iterate, orbit, steps, skip = dm._iterate, dm._orbit, dm._steps, dm._skip

    def counted_iterate(rho, rows):
        seen["array_steps"] += rows.shape[0] - 1
        iterate(rho, rows)

    def counted_orbit(*args):
        seen["orbits"] += 1
        before = seen["float_steps"]
        result = orbit(*args)
        orbit_steps.append(seen["float_steps"] - before)
        return result

    def counted_steps(rho, q, n):
        seen["float_steps"] += n
        return steps(rho, q, n)

    def counted_skip(rho, q, n):
        seen["float_steps"] += n
        return skip(rho, q, n)

    monkeypatch.setattr(dm, "_iterate", counted_iterate)
    monkeypatch.setattr(dm, "_orbit", counted_orbit)
    monkeypatch.setattr(dm, "_steps", counted_steps)
    monkeypatch.setattr(dm, "_skip", counted_skip)
    records = bifurcation_scan(*RETIRING[:3], r_fixed=RETIRING[3]).records
    # no point diverges, yet most leave the array steps within two blocks
    # and the rest finish on Python floats
    assert not any(rec.diverged for rec in records)
    assert seen["array_steps"] <= 2 * dm._BLOCK and 0 < seen["orbits"] <= dm._NARROW
    assert LONG[2] <= dm._NARROW
    for rho in LONG_CYCLES:
        bits = iterate_map(1.0, rho, 0.5 * (1.0 + rho), 10_511).view(np.int64)
        q = next(q for q in range(1, 1000) if bits[-1] == bits[-1 - q])
        assert dm._BLOCK < q < dm._CHUNK
        assert np.array_equal(bits[10_000 - q : 10_000], bits[10_000 : 10_000 + q])
    # too long for an array block, both cycles retire in a Python-float
    # block before the window's last step
    orbit_steps.clear()
    bifurcation_scan(*LONG[:3], r_fixed=LONG[3])
    end = ScanConfig().transient + ScanConfig().window - 1
    assert len(orbit_steps) == len(LONG_CYCLES) and max(orbit_steps) < end
    records = bifurcation_scan(*ESCAPING[:3], r_fixed=ESCAPING[3]).records
    assert any(rec.diverged for rec in records)
    assert any(rec.detected_period is None and not rec.diverged for rec in records)


def _logged_blocks(monkeypatch):
    # the Python-float calls in order, ("skip", n) or ("steps", n): each
    # block takes its first steps in _skip, keeping none of them, and the
    # rest in _steps, and takes the whole block again in _steps where its
    # checks read all of it
    dm = oscpop.discretemap
    log = []
    skip, steps = dm._skip, dm._steps

    def logged_skip(rho, q, n):
        log.append(("skip", n))
        return skip(rho, q, n)

    def logged_steps(rho, q, n):
        log.append(("steps", n))
        return steps(rho, q, n)

    monkeypatch.setattr(dm, "_skip", logged_skip)
    monkeypatch.setattr(dm, "_steps", logged_steps)
    return log


def _assert_equals_scalar_loop(rec, r, rho, start, cfg):
    values, period, diverged = _scalar_attractor(
        r, rho, start, start / r, cfg.transient, cfg.window, cfg.match_tol, 10.0
    )
    assert (rec.control, rec.detected_period, rec.diverged) == (rho, period, diverged)
    assert rec.attractor.tobytes() == np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("r", [1.0, 0.7])
def test_escape_among_the_steps_a_block_does_not_keep(monkeypatch, r):
    # past rho = 3 the critical orbit escapes within 13 steps, early in the
    # first block, among the steps _skip takes: the block is taken again
    # from its start to find the first escaping step and the q before it
    dm = oscpop.discretemap
    monkeypatch.setattr(dm, "_NARROW", 10**6)  # every column on Python floats
    cfg = ScanConfig()
    end = cfg.transient + cfg.window - 1
    skipped = dm._CHUNK - 1 - dm._TAIL
    lo, hi, steps = 3.0 + 1e-6, 3.1, 5
    records = bifurcation_scan(lo, hi, steps, r_fixed=r).records
    log = _logged_blocks(monkeypatch)
    for rho, rec in zip(np.linspace(lo, hi, steps).tolist(), records):
        start = 0.5 * (1.0 + rho)
        _assert_equals_scalar_loop(rec, r, rho, start, cfg)
        q, step = start, 1
        while math.isfinite(after := q + (rho - q) * q) and abs(after / (1.0 + rho)) <= 10.0:
            q, step = after, step + 1
        assert step <= skipped
        log.clear()
        assert dm._orbit(rho, 1.0 + rho, start, 0, cfg.transient, end) == ([], step, q)
        assert log == [("skip", skipped), ("steps", dm._TAIL + 1), ("steps", dm._CHUNK)]


@pytest.mark.parametrize(
    "rho, chunk, check",
    [
        # an exact 4-cycle, found among the block's last _TAIL + 1 values
        (2.5, 512, "tail"),
        # an exact 288-cycle, longer than _TAIL, found in a whole block
        (LONG_CYCLES[0], 512, "full"),
        # the same cycle as long as the block: the block's last value equals
        # the value before its start, so the window is filled from all of
        # the block, which is taken again
        (LONG_CYCLES[0], 288, "again"),
    ],
)
def test_column_retired_after_steps_not_kept_equals_scalar_loop(monkeypatch, rho, chunk, check):
    # a lone column finishes on Python floats; every transient block
    # before the one that retires it keeps at most its tail
    dm = oscpop.discretemap
    monkeypatch.setattr(dm, "_CHUNK", chunk)
    cfg = ScanConfig()
    log = _logged_blocks(monkeypatch)
    start = 0.5 * (1.0 + rho)
    rec = detect_attractor(1.0, rho, start)
    _assert_equals_scalar_loop(rec, 1.0, rho, start, cfg)
    blocks = sum(kind == "skip" for kind, _ in log)
    assert blocks * chunk < cfg.transient  # it retired within the transient
    tail = [("skip", chunk - 1 - dm._TAIL), ("steps", dm._TAIL + 1)]
    last = {"tail": tail, "full": [("skip", 0), ("steps", chunk)], "again": [*tail, ("steps", chunk)]}[check]
    assert log[-len(last) :] == last
    assert (blocks % dm._FULL == 0) == (check == "full")


@pytest.mark.parametrize("rho, x0", [(-0.95, 17.8), (-1.05, 17.8), (-0.9, 0.3), (-1.2, 0.3)])
def test_fickle_column_keeps_every_step(monkeypatch, rho, x0):
    # with |1 + rho| < 1/4 an escaped orbit may come back within a block,
    # so each block is kept whole and checked at every step: from x = 17.8
    # the orbit escapes and comes back, from 0.3 it settles at 0
    cfg = ScanConfig()
    log = _logged_blocks(monkeypatch)
    p0 = x0 * (1.0 + rho)
    rec = detect_attractor(1.0, rho, p0)
    values, period, diverged = _scalar_attractor(1.0, rho, p0, p0, cfg.transient, cfg.window, cfg.match_tol, 10.0)
    assert (rec.detected_period, rec.diverged) == (period, diverged) == ((None, True) if x0 > 1 else (1, False))
    assert rec.attractor.tobytes() == np.asarray(values, dtype=float).tobytes()
    assert log and all(call in (("skip", 0), ("steps", oscpop.discretemap._CHUNK)) for call in log)


@pytest.mark.parametrize("grid", [RETIRING, LONG, (*ESCAPING[:3], 1.0), ZERO_UNIT])
def test_scan_at_unit_r_equals_the_population_loop(grid):
    # at r = 1 the step in q = r p is the population step p + r (m - p) p
    # with its product by r = 1.0, which is exact, left out
    cfg = ScanConfig()
    *bounds, r = grid
    assert r == 1.0
    for rho, rec in zip(np.linspace(*bounds).tolist(), bifurcation_scan(*bounds, r_fixed=r).records):
        values, period, diverged = _p_form_attractor(
            r, rho / r, 0.5 * (1.0 + rho) / r, cfg.transient, cfg.window, cfg.match_tol, 10.0
        )
        assert (rec.control, rec.detected_period, rec.diverged) == (r * (rho / r), period, diverged)
        assert rec.attractor.tobytes() == np.asarray(values, dtype=float).tobytes()


def _grid_records():
    scans = [bifurcation_scan(lo, hi, 2) for lo, hi in zip(EDGES, EDGES[1:])]
    scans += [bifurcation_scan(*grid[:3], r_fixed=grid[3]) for grid in (RETIRING, LONG, ESCAPING, ZERO_UNIT)]
    return [
        (rec.control, rec.attractor.tobytes(), rec.detected_period, rec.diverged)
        for scan in scans
        for rec in scan.records
    ]


@pytest.mark.parametrize(
    "name, value",
    [(name, value) for name in ("_BLOCK", "_CHUNK", "_NARROW", "_TAIL", "_FULL") for value in (1, 7, 10**6)]
    + [("_NARROW", 0), ("_NARROW", 10**9), ("_TAIL", 0)],
)
def test_records_do_not_depend_on_block_lengths(monkeypatch, name, value):
    # which loop finishes a column, and at which step it retires, moves
    # with these constants; the records must not
    want = _grid_records()
    monkeypatch.setattr(oscpop.discretemap, name, value)
    assert _grid_records() == want

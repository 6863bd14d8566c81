"""Unit-step discrete counterpart P_{k+1} = P_k + r (M - P_k) P_k.

The composite growth factor rho = r * M is the only control that
matters: the substitution x = r P / (1 + rho) turns the update into the
standard quadratic map x -> (1 + rho) x (1 - x), an exact algebraic
identity used both for normalization and for testing. Divergence is
data here, never an exception: orbits that leave the basin are returned
with a flag.

An orbit is iterated only while its future values are unknown: the
update is a function of one float, so once a value repeats bit for bit,
every later value is a periodic extension of those already computed.
A grid steps as a numpy array, one column per point, in blocks; after
each block, columns that escaped are recorded and columns whose last
value repeats an earlier value of the block are retired. Once 15 or
fewer columns remain, each finishes alone in a loop over Python floats,
where Brent's cycle detection finds a repeat of any length.
Both loops evaluate p + r (M - p) p in the same order, so every record
is bit-identical to a step-by-step loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def normalized_state(r: float, m: float, p: float) -> float:
    """Map population to the conjugate quadratic-map coordinate."""
    return r * p / (1.0 + r * m)


@dataclass(frozen=True)
class ScanConfig:
    """Attractor-detection settings; the single source of their defaults.

    An orbit counts as diverged once a value is non-finite or its
    normalized coordinate leaves [-10, 10].
    """

    transient: int = 10_000
    window: int = 512
    match_tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.transient < 0 or self.window < 4:
            raise ValueError("need transient >= 0 and window >= 4")
        if not self.match_tol > 0.0:
            raise ValueError("match_tol must be positive")


_ESCAPE_BOUND = 10.0  # |normalized value| past which an orbit has diverged
_BLOCK = 128  # array steps between escape and repeat checks
_COLUMNS = 1024  # grid points per pass, so memory stays a few window x 1024 arrays
# this many live columns or fewer finish on Python floats: an array step
# costs ~2.8 us from 8 to 48 columns and a Python-float column step in
# _orbit ~180 ns, which break even at ~15 columns (BENCH_15 sweep)
_NARROW = 15
_CHUNK = 256  # Python-float steps between escape and repeat checks


def _iterate(r: float, m: np.ndarray, rows: np.ndarray) -> None:
    """Fill rows[1:] with successive updates of rows[0], one column per m.

    Each column is advanced in the scalar order p + r * (m - p) * p, so
    it is bit-identical to _steps' loop over Python floats and
    independent of the other columns.
    """
    # positional out arguments and an array r keep the per-step call
    # overhead, which dominates for small grids, low
    sub, mul, add = np.subtract, np.multiply, np.add
    t = np.empty_like(rows[0])
    p = rows[0]
    r = np.full_like(t, r)
    for row in rows[1:]:
        sub(m, p, t)
        mul(r, t, t)
        mul(t, p, t)
        add(p, t, row)
        p = row


def _steps(r: float, m: float, p: float, n: int) -> list[float]:
    """The n values after p, on Python floats, in _iterate's order."""
    out = []
    append = out.append
    for _ in range(n):
        p = p + r * (m - p) * p
        append(p)
    return out


def _escape_mask(r: float, unit, values: np.ndarray) -> np.ndarray:
    """Non-finite values, or normalized values r p / unit beyond the bound."""
    return ~np.isfinite(values) | (np.abs(r * values / unit) > _ESCAPE_BOUND)


def _orbit(r: float, m: float, unit: float, p: float, t: int, transient: int, end: int):
    """One column of _attractors on Python floats, from x_t = p to x_end.

    Returns (values, escape, before): the values of steps max(t + 1,
    transient) .. end, or up to the step before `escape`, the first
    escaping step (None if there is none), and `before`, the value at
    the step before it. Steps run in chunks of up to _CHUNK values. A
    non-finite value stays non-finite and r p / unit is monotone in p,
    so a chunk can escape only if its last value or one of its extremes
    does; only then is it checked value by value, with the array rule.
    Brent's cycle detection compares every value with a tortoise that
    jumps ahead to the current value after 1, 2, 4, ... steps. Once a
    value repeats bit for bit, the orbit, a function of that one float,
    repeats from there on, and the rest is periodic extension.
    """
    bound = _ESCAPE_BOUND
    # x / 0.0 raises on Python floats; a NaN divisor sends every chunk to
    # the array rule instead, which returns inf or nan as numpy does
    div = unit if unit else math.nan
    values: list[float] = []
    tortoise, t_tortoise, power = p, t, 1
    while t < end:
        n = min(_CHUNK, end - t, t_tortoise + power - t)
        start, chunk = p, _steps(r, m, p, n)
        p = chunk[-1]
        first = max(transient - t - 1, 0)  # first chunk index in the window
        if not (
            math.isfinite(p)
            and -bound <= r * min(chunk) / div <= bound
            and -bound <= r * max(chunk) / div <= bound
        ):
            mask = _escape_mask(r, unit, np.array(chunk))
            if mask.any():
                i = int(mask.argmax())
                values += chunk[first:i]
                return values, t + i + 1, chunk[i - 1] if i else start
        if tortoise in chunk:
            # == also matches 0.0 with -0.0, whose orbits differ
            sign = math.copysign(1.0, tortoise)
            hits = (i for i, v in enumerate(chunk) if v == tortoise and math.copysign(1.0, v) == sign)
            i = next(hits, None)
            if i is not None:
                # x_s == x_(s-q), so x_(s+1) .. x_(s+q) repeat x_(s-q+1) .. x_s
                values += chunk[first : i + 1]
                s = t + i + 1
                q = s - t_tortoise
                cycle = _steps(r, m, tortoise, min(q, end - s))
                # step u >= s + 1 holds cycle[(u - s - 1) % q]; the window
                # still needs steps u0 .. end
                u0 = max(s + 1, transient)
                off = (u0 - s - 1) % q
                values += (cycle * ((end - u0) // q + 2))[off : off + end - u0 + 1]
                return values, None, p
        values += chunk[first:]
        t += n
        if t == t_tortoise + power:
            tortoise, t_tortoise, power = p, t, 2 * power
    return values, None, p


def iterate_map(r: float, m: float, p0: float, n: int) -> np.ndarray:
    """First n updates starting from p0; returns n + 1 values including p0.

    Values are reported as computed even when the orbit diverges;
    overflow shows up as inf/nan entries.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    r, m = float(r), float(m)

    def values(p):
        # _steps' update, yielded one float at a time so that only the
        # result array holds the orbit
        yield p
        for _ in range(n):
            p = p + r * (m - p) * p
            yield p

    return np.fromiter(values(float(p0)), dtype=float, count=n + 1)


@dataclass(frozen=True, eq=False)
class BifurcationRecord:
    """Attractor summary at one control value rho = r * m.

    detected_period is None for aperiodic or diverged orbits; diverged
    orbits additionally carry the flag and claim no period.
    """

    control: float
    attractor: np.ndarray
    detected_period: int | None
    diverged: bool = False


def _attractors(r: float, m: np.ndarray, p0: np.ndarray, cfg: ScanConfig) -> list[BifurcationRecord]:
    """detect_attractor for every column (m[i], p0[i]) at once.

    Only columns whose future values are still unknown are iterated.
    After each block of array steps, a column that escaped is recorded
    at its first escaping step, so a diverged record holds exactly what
    a step-by-step check leaves, and a column whose last value equals an
    earlier value of the block bit for bit is exactly periodic from
    there: its remaining window rows are filled by periodic extension.
    Once at most _NARROW columns are live, each finishes in _orbit on
    Python floats. Only the detection window is kept, not the transient.
    """
    control = r * m
    unit = 1.0 + control
    transient, end = cfg.transient, cfg.transient + cfg.window - 1
    w = np.empty((cfg.window, m.size))
    w[0] = p0  # overwritten by the transient unless it is empty
    escapes = []  # (column, first escaping step, the value before it)
    # the live columns: their indices, m, unit and values at step t
    live, ml, ul, p, t = np.arange(m.size), m, unit, p0, 0
    with np.errstate(all="ignore"):
        buf = np.empty((_BLOCK + 1, m.size))
        while live.size > _NARROW and t < end:
            n = min(_BLOCK, (transient if t < transient else end) - t)
            rows = buf[: n + 1, : live.size]  # rows[i] holds step t + i
            rows[0] = p
            _iterate(r, ml, rows)
            if t + n >= transient:
                a = max(t + 1, transient)
                w[a - transient : t + n + 1 - transient, live] = rows[a - t :]
            mask = _escape_mask(r, ul, rows[1:])
            gone = mask.any(axis=0)
            hit = np.flatnonzero(gone)
            i = mask[:, hit].argmax(axis=0)
            escapes += zip(live[hit].tolist(), (t + 1 + i).tolist(), rows[i, hit].tolist())
            bits = rows.view(np.int64)
            repeat = bits[:n] == bits[n]
            settled = np.flatnonzero(repeat.any(axis=0) & ~gone)
            if settled.size:
                # x_u = rows[i0 + (u - t - i0) % q] for u >= t + i0, where
                # i0 is the last earlier row equal to row n and q = n - i0
                i0 = n - 1 - repeat[::-1, settled].argmax(axis=0)
                q = n - i0
                a = max(t + n + 1, transient)
                u = np.arange(a, end + 1)[:, None]
                idx = i0 + (u - t - i0) % q
                w[a - transient :, live[settled]] = np.take_along_axis(rows[:, settled], idx, axis=0)
            gone[settled] = True
            keep = ~gone
            live, ml, ul, p, t = live[keep], ml[keep], ul[keep], rows[n, keep], t + n
        if t < end:
            a = max(t + 1, transient) - transient
            for c, mc, uc, pc in zip(live.tolist(), ml.tolist(), ul.tolist(), p.tolist()):
                values, step, before = _orbit(r, mc, uc, pc, t, transient, end)
                w[a : a + len(values), c] = values
                if step is not None:
                    escapes.append((c, step, before))
        alive = np.ones(m.size, dtype=bool)
        diverged: dict[int, np.ndarray] = {}
        for c, step, before in escapes:
            # the window rows before the escape, or the last transient value
            alive[c] = False
            diverged[c] = w[: step - transient, c].copy() if step > transient else np.array([before])

        # smallest period whose shifted window matches; a period can only
        # match if the last value matches its lag, which rules out almost
        # every (period, column) pair before the full comparison
        x = np.multiply(r, w)
        np.divide(x, unit, out=x)
        lags = x[-2::-1][: cfg.window // 2]
        candidate = (np.abs(x[-1] - lags) <= cfg.match_tol) & alive
        period = np.zeros(m.size, dtype=int)
        for p in (np.flatnonzero(candidate.any(axis=1)) + 1).tolist():
            cols = np.flatnonzero(candidate[p - 1] & (period == 0))
            if cols.size:
                gap = x[p:] - x[:-p]
                gap = np.abs(gap, out=gap).max(axis=0)[cols]
                # the first and last cycles of the window must match too:
                # just below a doubling the orbit still spirals onto the
                # old cycle, each lag-p step moves less than match_tol but
                # the moves add up across the window
                j = cfg.window % p
                drift = np.abs(x[j : j + p, cols] - x[-p:, cols]).max(axis=0)
                period[cols[(gap <= cfg.match_tol) & (drift <= cfg.match_tol)]] = p

    records = []
    for c, (rho, p) in enumerate(zip(control.tolist(), period.tolist())):
        if p and abs(np.prod(unit[c] * (1.0 - 2.0 * x[-p:, c]))) > 1.0:
            # an orbit that lands exactly on a repelling cycle (at rho = 3
            # the critical orbit 1/2 -> 1 -> 0 does) is not an attractor
            p = 0
        if c in diverged:
            records.append(BifurcationRecord(rho, diverged[c], None, diverged=True))
        elif p:
            order = np.argsort(x[-p:, c])
            xs = x[-p:, c][order]
            keep = np.concatenate(([True], np.diff(xs) > cfg.match_tol))
            records.append(BifurcationRecord(rho, w[-p:, c][order][keep].copy(), p))
        else:
            records.append(BifurcationRecord(rho, w[:, c].copy(), None))
    return records


def detect_attractor(
    r: float,
    m: float,
    p0: float,
    transient: int = ScanConfig.transient,
    window: int = ScanConfig.window,
    match_tol: float = ScanConfig.match_tol,
) -> BifurcationRecord:
    """Classify the long-run orbit from p0.

    After discarding the transient, the smallest period p <= window/2
    whose shifted window matches within match_tol (measured on the
    normalized coordinate), and whose first and last cycles in the
    window match as well, is reported; the attractor then holds the
    distinct values of one cycle. Without a match the whole window is
    returned and the orbit is labeled aperiodic (period None). So is a
    match on a repelling cycle (multiplier of modulus above 1), which
    an orbit reaches only by landing on it exactly, e.g. from p0 = 0.
    An orbit still converging slowly onto a cycle, as just below a
    period doubling, drifts across the window: it is left unresolved
    rather than read as the doubled period. An orbit that escapes (a
    non-finite value, or a normalized value past 10 in magnitude) is
    flagged diverged, and its attractor ends with the value before the
    escape.
    """
    cfg = ScanConfig(transient, window, match_tol)
    return _attractors(r, np.array([m], dtype=float), np.array([p0], dtype=float), cfg)[0]


@dataclass(frozen=True, eq=False)
class ScanResult:
    records: list[BifurcationRecord]
    doubling_1_to_2: float | None = None
    doubling_2_to_4: float | None = None


def bifurcation_scan(
    rho_start: float,
    rho_stop: float,
    steps: int,
    cfg: ScanConfig | None = None,
    r_fixed: float = 1.0,
) -> ScanResult:
    """Sweep the control rho = r * m at fixed r, tracking the attractor.

    Every grid point starts at the critical point of the conjugate
    quadratic map, x = 1/2, i.e. p0 = (1 + rho) / (2 r), and the grid
    is iterated as one array until only a few points are still moving.
    The quadratic map has negative Schwarzian derivative, so an
    attracting cycle, when there is one, attracts the critical orbit
    (Singer 1978, SIAM J. Appl. Math. 35, 260-267). Each record is
    therefore the detect_attractor result from that seed and does not
    depend on the rest of the grid.

    Also reports the first control values where the detected period
    changes 1 -> 2 and 2 -> 4 between adjacent points (midpoint of the
    bracketing pair), when present in the range.
    """
    for name, value in (("rho_start", rho_start), ("rho_stop", rho_stop), ("r_fixed", r_fixed)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    if steps < 2:
        raise ValueError("need at least two scan points")
    if not r_fixed > 0.0:
        raise ValueError("r_fixed must be positive")
    cfg = cfg or ScanConfig()
    rhos = np.linspace(rho_start, rho_stop, steps)
    records = []
    for i in range(0, steps, _COLUMNS):
        chunk = rhos[i : i + _COLUMNS]
        records += _attractors(r_fixed, chunk / r_fixed, 0.5 * (1.0 + chunk) / r_fixed, cfg)
    d12 = _first_transition(records, 1, 2)
    d24 = _first_transition(records, 2, 4)
    return ScanResult(records, d12, d24)


def _first_transition(records, before: int, after: int) -> float | None:
    # Exactly at a doubling point convergence is algebraic, so a grid
    # point that lands there is reported unresolved (period None). Such
    # records are skipped: the transition is still bracketed by the
    # nearest resolved records on either side.
    for i, prev in enumerate(records[:-1]):
        if prev.detected_period != before:
            continue
        j = i + 1
        while (
            j < len(records)
            and records[j].detected_period is None
            and not records[j].diverged
        ):
            j += 1
        if j < len(records) and records[j].detected_period == after:
            return 0.5 * (prev.control + records[j].control)
    return None

"""Unit-step discrete counterpart P_{k+1} = P_k + r (M - P_k) P_k.

The composite growth factor rho = r * M is the only control that
matters: the substitution x = r P / (1 + rho) turns the update into the
standard quadratic map x -> (1 + rho) x (1 - x), an exact algebraic
identity used both for normalization and for testing (May 1976, Nature
261, 459-467). Divergence is data here, never an exception: orbits that
leave the basin are returned with a flag.

Attractor detection and scans iterate q = r P, in which the update is
q -> q + (rho - q) q: three operations a step, with no r. A scan feeds
each grid point rho itself to the loops, and it is each record's
control. A record reports q / r, and its seed as given. At r = 1 this
is the population update bit for bit, since the product by r = 1.0 is
exact. Elsewhere the two round differently: values move by rounding
errors, and a chaotic window follows another orbit.

An orbit is iterated only while its future values are unknown: the
update is a function of one float, so once a value repeats bit for bit,
every later value is a periodic extension of those already computed.
A grid steps as a numpy array, one column per point, in blocks; after
each block, columns that escaped are recorded and columns whose last
value repeats an earlier value of the block are retired. Where
|1 + rho| >= 1/4 an escaped orbit never comes back, so a block escaped
iff its last value did, and only the columns whose last value escaped,
or that lie nearer rho = -1, are checked step by step. Once 15 or fewer
columns remain, each finishes alone in a loop over Python floats, in
blocks under the same rules, though most of its blocks look for the
repeat in their last values alone. Both loops evaluate q + (rho - q) q
in the same order, so every record is bit-identical to a step-by-step
loop.

The window is then classified once for the whole grid, on x = q /
(1 + rho): a period is tested only on the columns still unresolved that
match at its lag, and the records of one period are built together. Map
steps take about two thirds of a default scan's time, and this
bookkeeping the rest.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import cycle, islice

import numpy as np

from .settings import ScanConfig

__all__ = [
    "normalized_state",
    "iterate_map",
    "detect_attractor",
    "BifurcationRecord",
    "ScanConfig",
    "ScanResult",
    "bifurcation_scan",
]


def normalized_state(r: float, m: float, p: float) -> float:
    """Map population to the conjugate quadratic-map coordinate."""
    return r * p / (1.0 + r * m)


_ESCAPE_BOUND = 10.0  # |normalized value| past which an orbit has diverged
# below this |1 + rho| a column is fickle: an escaped orbit may come back.
# At or above it |x'| = |1 + rho| |x| |1 - x| >= 2.25 |x| once |x| > 10,
# a margin no rounding closes, and a non-finite value stays non-finite,
# so a block escaped iff its last value did
_STICKY = 0.25
# array steps between escape and repeat checks: in process, over the
# scan ops of seeds 1-3 x cycles 0-2, 256 timed 2-4% faster than 128 and
# 512, and 768 to 2048 slower still (BENCH_27 sweep)
_BLOCK = 256
_COLUMNS = 1024  # grid points per pass, so memory stays a few window x 1024 arrays
# this many live columns or fewer finish on Python floats: at three
# operations a step, an array step costs ~1.1-1.8 us from 4 to 48 columns
# and a Python-float column step in _orbit ~70-110 ns, which break even
# at ~16 columns; in process, a scan cycle took the same time, within
# noise, at 10, 12, 15, 18 and 21 (BENCH_43)
_NARROW = 15
# Python-float steps between escape and repeat checks; a block retires only
# cycles shorter than itself, such as the exact 288- and 480-step cycles
# at rho = 2.63278 and 2.647325, and 512 timed as fast as 256 and faster
# than 1024 and 2048 (BENCH_27 sweep)
_CHUNK = 512
# a block's last value is compared with the _TAIL values before it, and with
# the whole block only in every _FULL-th block: a column that never repeats
# makes under a third of the comparisons, and a cycle longer than _TAIL,
# such as those two, retires at most _FULL - 1 blocks later, which changes
# no record (with _FULL = 8 one of them no longer retires before the
# window ends). In process, over the scan ops of seeds 1-3 x cycles 0-2
# (best of 10, interleaved), a scan cycle took 43.6-46.1 ms with the whole
# block checked every time, 41.6-44.9 with 64 and 4, and 40.1 with 32 and 4
_TAIL = 32
_FULL = 4


def _iterate(rho: np.ndarray, rows: np.ndarray) -> None:
    """Fill rows[1:] with successive updates of rows[0], one column per rho.

    Each column q = r p is advanced as q + (rho - q) * q, which is
    r p + r (m - p) r p, the map's update scaled by r, in three
    operations; the order is _steps', so every column is bit-identical
    to that loop over Python floats and independent of the others.
    """
    # positional out arguments keep the per-step call overhead, which
    # dominates for small grids, low
    sub, mul, add = np.subtract, np.multiply, np.add
    t = np.empty_like(rows[0])
    q = rows[0]
    for row in rows[1:]:
        sub(rho, q, t)
        mul(t, q, t)
        add(q, t, row)
        q = row


def _steps(rho: float, q: float, n: int) -> list[float]:
    """The n values after q, on Python floats, in _iterate's order."""
    return [q := q + (rho - q) * q for _ in range(n)]


def _escape_mask(unit, values: np.ndarray) -> np.ndarray:
    """Non-finite values, or normalized values q / unit beyond the bound."""
    return ~np.isfinite(values) | (np.abs(values / unit) > _ESCAPE_BOUND)


def _orbit(rho: float, unit: float, q: float, t: int, transient: int, end: int):
    """One column of _attractors on Python floats, from q_t = q to q_end.

    Returns (values, escape, before): the values q of steps max(t + 1,
    transient) .. end, or up to the step before `escape`, the first
    escaping step (None if there is none), and `before`, the value at
    the step before it. Each block of up to _CHUNK steps takes the array
    loop's two rules: the first value _escape_mask flags ends the column,
    and a last value equal to an earlier one retires it, the rest of the
    window repeating the block's tail; the earlier values are the last
    _TAIL of the block, and all of it in every _FULL-th block.
    """
    values: list[float] = []
    blocks = 0
    while t < end:
        n = min(_CHUNK, end - t)
        start, chunk = q, _steps(rho, q, n)
        q = chunk[-1]
        first = max(transient - t - 1, 0)  # first chunk index in the window
        # the block escaped iff its last value did, unless the column is fickle
        if abs(unit) < _STICKY or not math.isfinite(q) or abs(q / unit) > _ESCAPE_BOUND:
            mask = _escape_mask(unit, np.fromiter(chunk, float, n))
            if mask.any():
                i = int(mask.argmax())
                values += chunk[first:i]
                return values, t + i + 1, chunk[i - 1] if i else start
        values += chunk[first:]
        t += n
        blocks += 1
        # q_t == q_(t-k) for the largest such k the check covers, so the
        # steps after t repeat chunk[n - k:]; k = 0 if it covers none. ==
        # also matches 0.0 with -0.0, which is safe: 0.0 maps to 0.0 and
        # only -0.0 maps to -0.0, so an orbit holding both zeros maps -0.0
        # to 0.0 too
        lo = 0 if blocks % _FULL == 0 else max(n - 1 - _TAIL, 0)
        k = n if start == q else n - 1 - chunk.index(q, lo)
        if k:
            # step t + 1 + i holds chunk[n - k + i % k]; the window still
            # needs i = j .. end - t - 1
            j = max(transient - t - 1, 0)
            values += islice(cycle(chunk[n - k :]), j % k, j % k + end - t - j)
            break
    return values, None, q


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


def _attractors(
    r: float, rho: np.ndarray, q0: np.ndarray, p0: np.ndarray, cfg: ScanConfig
) -> list[BifurcationRecord]:
    """detect_attractor for every column at control rho[i] from q0[i] = r p0[i].

    Each column is iterated in q = r p, whose update q + (rho - q) q
    needs no r, and its window is reported as q / r, with the seed p0
    itself where the window starts at step 0. Only columns whose future
    values are still unknown are iterated.
    After each block of array steps, a column that escaped is recorded
    at its first escaping step, so a diverged record holds exactly what
    a step-by-step check leaves, and a column whose last value equals an
    earlier value of the block bit for bit is exactly periodic from
    there: its remaining window rows are filled by periodic extension.
    Once at most _NARROW columns are live, each finishes in _orbit on
    Python floats. Only the detection window is kept, not the transient.
    """
    unit = 1.0 + rho
    transient, end = cfg.transient, cfg.transient + cfg.window - 1
    w = np.empty((cfg.window, rho.size))
    w[0] = q0  # overwritten by the transient unless it is empty
    escapes = []  # (column, first escaping step, the q before it)
    # the live columns: their indices, rho, unit and values q at step t
    live, rl, ul, q, t = np.arange(rho.size), rho, unit, q0, 0
    with np.errstate(all="ignore"):
        buf = np.empty((_BLOCK + 1, rho.size))
        while live.size > _NARROW and t < end:
            n = min(_BLOCK, (transient if t < transient else end) - t)
            rows = buf[: n + 1, : live.size]  # rows[i] holds step t + i
            rows[0] = q
            _iterate(rl, rows)
            if t + n >= transient:
                a = max(t + 1, transient)
                w[a - transient : t + n + 1 - transient, live] = rows[a - t :]
            bits = rows.view(np.int64)
            repeats = (bits[:n] == bits[n]).any(axis=0)
            # only a fickle column can escape and come back within a block
            hit = np.flatnonzero(_escape_mask(ul, rows[n]) | (np.abs(ul) < _STICKY))
            if hit.size:
                mask = _escape_mask(ul[hit], rows[1:, hit])
                gone = mask.any(axis=0)
                hit, mask = hit[gone], mask[:, gone]
                i = mask.argmax(axis=0)
                escapes += zip(live[hit].tolist(), (t + 1 + i).tolist(), rows[i, hit].tolist())
                repeats[hit] = False
            settled = np.flatnonzero(repeats)
            if settled.size:
                # x_u = rows[i0 + (u - t - i0) % q] for u >= t + i0, where
                # i0 is the last earlier row equal to row n and q = n - i0
                repeat = bits[:n, settled] == bits[n, settled]
                i0 = n - 1 - repeat[::-1].argmax(axis=0)
                q = n - i0
                a = max(t + n + 1, transient)
                u = np.arange(a, end + 1)[:, None]
                idx = i0 + (u - t - i0) % q
                w[a - transient :, live[settled]] = np.take_along_axis(rows[:, settled], idx, axis=0)
            t += n
            if hit.size or settled.size:
                keep = np.ones(live.size, dtype=bool)
                keep[hit] = keep[settled] = False
                live, rl, ul, q = live[keep], rl[keep], ul[keep], rows[n, keep]
            else:
                q = rows[n]
        if t < end:
            a = max(t + 1, transient) - transient
            for c, rc, uc, qc in zip(live.tolist(), rl.tolist(), ul.tolist(), q.tolist()):
                values, step, before = _orbit(rc, uc, qc, t, transient, end)
                w[a : a + len(values), c] = values
                if step is not None:
                    escapes.append((c, step, before))
        # the normalized coordinate, then the window as populations p = q / r
        x = w / unit
        np.divide(w, r, out=w)
        if not transient:
            w[0] = p0
        alive = np.ones(rho.size, dtype=bool)
        diverged: dict[int, np.ndarray] = {}
        for c, step, before in escapes:
            # the window rows before the escape, or the last transient value
            alive[c] = False
            before = p0[c] if step == 1 else before / r
            diverged[c] = w[: step - transient, c].copy() if step > transient else np.array([before])

        # smallest period whose shifted window matches; a period can only
        # match if the last value matches its lag, which rules out almost
        # every (period, column) pair before the full comparison
        candidate = (np.abs(x[-1] - x[-2::-1][: cfg.window // 2]) <= cfg.match_tol) & alive
        period = np.zeros(rho.size, dtype=int)
        # the columns still open: unresolved, with a candidate above lag
        cols, lag = np.flatnonzero(candidate.any(axis=0)), 0
        while cols.size:
            lag += 1 + int(candidate[lag:, cols].any(axis=1).argmax())
            test = cols[candidate[lag - 1, cols]]
            xt = x[:, test]
            gap = xt[lag:] - xt[:-lag]
            gap = np.abs(gap, out=gap).max(axis=0)
            # the first and last cycles of the window must match too: just
            # below a doubling the orbit still spirals onto the old cycle,
            # each lag step moves less than match_tol but the moves add up
            # across the window
            j = cfg.window % lag
            drift = np.abs(xt[j : j + lag] - xt[-lag:]).max(axis=0)
            period[test[(gap <= cfg.match_tol) & (drift <= cfg.match_tol)]] = lag
            cols = cols[(period[cols] == 0) & candidate[lag:, cols].any(axis=0)]

        # one cycle per row, contiguous, so that np.prod and np.argsort run
        # along each row as they run along one record's cycle
        cycles: dict[int, np.ndarray] = {}
        for p in sorted(set(period.tolist()) - {0}):
            cols = np.flatnonzero(period == p)
            xc = np.ascontiguousarray(x[-p:, cols].T)
            multiplier = np.prod(unit[cols, None] * (1.0 - 2.0 * xc), axis=1)
            # an orbit that lands exactly on a repelling cycle (at rho = 3
            # the critical orbit 1/2 -> 1 -> 0 does) is not an attractor
            repelling = np.abs(multiplier) > 1.0
            period[cols[repelling]] = 0
            cols, xc = cols[~repelling], xc[~repelling]
            order = np.argsort(xc, axis=1)
            keep = np.ones(xc.shape, dtype=bool)
            keep[:, 1:] = np.diff(np.take_along_axis(xc, order, axis=1), axis=1) > cfg.match_tol
            values = np.take_along_axis(w[-p:, cols].T, order, axis=1)
            cycles.update(zip(cols.tolist(), [v[k] for v, k in zip(values, keep)]))

    records = []
    for c, (control, p) in enumerate(zip(rho.tolist(), period.tolist())):
        if c in diverged:
            records.append(BifurcationRecord(control, diverged[c], None, diverged=True))
        elif p:
            records.append(BifurcationRecord(control, cycles[c], p))
        else:
            records.append(BifurcationRecord(control, w[:, c].copy(), None))
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
    escape. The orbit is iterated in q = r p from r p0 at the control
    r m, and reported as q / r, so r = 0, where q holds nothing of p,
    raises ValueError.
    """
    cfg = ScanConfig(transient, window, match_tol)
    r, m, p0 = float(r), float(m), float(p0)
    if r == 0.0:
        raise ValueError("r must be nonzero")
    return _attractors(r, np.array([r * m]), np.array([r * p0]), np.array([p0]), cfg)[0]


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
    quadratic map, x = 1/2, i.e. q0 = r p0 = (1 + rho) / 2, and the grid
    is iterated as one array until only a few points are still moving.
    The quadratic map has negative Schwarzian derivative, so an
    attracting cycle, when there is one, attracts the critical orbit
    (Singer 1978, SIAM J. Appl. Math. 35, 260-267). Each record's
    control is the grid point itself, and the record does not depend on
    the rest of the grid; it is the detect_attractor result from the
    seed p0 = q0 / r wherever r (rho / r) and r p0 give rho and q0
    back, as at every power of two.

    Also reports the first control values where the detected period
    changes 1 -> 2 and 2 -> 4 between adjacent points (midpoint of the
    bracketing pair), when present in the range. Raises ValueError,
    before any map step, where the range's width, or m = rho / r_fixed
    or the seed at some grid point (r_fixed too small for the grid),
    passes the float range.
    """
    for name, value in (("rho_start", rho_start), ("rho_stop", rho_stop), ("r_fixed", r_fixed)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    if steps < 2:
        raise ValueError("need at least two scan points")
    if not r_fixed > 0.0:
        raise ValueError("r_fixed must be positive")
    cfg = cfg or ScanConfig()
    with np.errstate(over="ignore", invalid="ignore"):
        rhos = np.linspace(rho_start, rho_stop, steps)
        starts = 0.5 * (1.0 + rhos)  # q = r p at x = 1/2
        ms, seeds = rhos / r_fixed, starts / r_fixed
    if not np.isfinite(rhos).all():
        raise ValueError(f"the scan range rho_stop - rho_start = {rho_stop:g} - {rho_start:g} passes the float range")
    if not (np.isfinite(ms).all() and np.isfinite(seeds).all()):
        raise ValueError(f"r_fixed = {r_fixed:g} puts m = rho / r_fixed or the seed (1 + rho) / (2 r_fixed) past the float range")
    records = []
    for i in range(0, steps, _COLUMNS):
        records += _attractors(r_fixed, rhos[i : i + _COLUMNS], starts[i : i + _COLUMNS], seeds[i : i + _COLUMNS], cfg)
    d12 = _first_transition(records, 1, 2)
    d24 = _first_transition(records, 2, 4)
    return ScanResult(records, d12, d24)


def _first_transition(records, before: int, after: int) -> float | None:
    # Exactly at a doubling point convergence is algebraic, so a grid
    # point that lands there is reported unresolved (period None). Such
    # records are skipped: the transition is still bracketed by the
    # nearest resolved (or diverged) records on either side.
    kept = [rec for rec in records if rec.detected_period is not None or rec.diverged]
    for prev, rec in zip(kept, kept[1:]):
        if (prev.detected_period, rec.detected_period) == (before, after):
            return 0.5 * (prev.control + rec.control)
    return None

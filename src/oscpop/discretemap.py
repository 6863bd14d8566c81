"""Unit-step discrete counterpart P_{k+1} = P_k + r (M - P_k) P_k.

The composite growth factor rho = r * M is the only control that
matters: the substitution x = r P / (1 + rho) turns the update into the
standard quadratic map x -> (1 + rho) x (1 - x), an exact algebraic
identity used both for normalization and for testing. Divergence is
data here, never an exception: orbits that leave the basin are returned
with a flag.
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
_BLOCK = 128  # map steps between escape checks
_COLUMNS = 1024  # grid points per pass, so memory stays a few window x 1024 arrays


def _iterate(r: float, m: np.ndarray, rows: np.ndarray) -> None:
    """Fill rows[1:] with successive updates of rows[0], one column per m.

    This is the only map loop. Each column is advanced in the scalar
    order p + r * (m - p) * p, so it is bit-identical to a loop over
    Python floats and independent of the other columns.
    """
    # positional out arguments and an array r keep the per-step call
    # overhead, which dominates for small grids, low
    sub, mul, add = np.subtract, np.multiply, np.add
    t = np.empty_like(rows[0])
    r = np.full_like(t, r)
    p = rows[0]
    for row in rows[1:]:
        sub(m, p, t)
        mul(r, t, t)
        mul(t, p, t)
        add(p, t, row)
        p = row


def _escape_mask(r: float, unit, values: np.ndarray) -> np.ndarray:
    """Non-finite values, or normalized values r p / unit beyond the bound."""
    return ~np.isfinite(values) | (np.abs(r * values / unit) > _ESCAPE_BOUND)


def iterate_map(r: float, m: float, p0: float, n: int) -> np.ndarray:
    """First n updates starting from p0; returns n + 1 values including p0.

    Values are reported as computed even when the orbit diverges;
    overflow shows up as inf/nan entries.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = np.empty((n + 1, 1))
    out[0] = p0
    with np.errstate(all="ignore"):
        _iterate(r, np.array([m], dtype=float), out)
    return out[:, 0]


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


def _first_escapes(mask: np.ndarray, alive: np.ndarray):
    """(column, first escaping row) for each live column with an escape.

    Those columns are cleared from `alive`.
    """
    hit = np.flatnonzero(alive & mask.any(axis=0))
    alive[hit] = False
    return zip(hit.tolist(), mask[:, hit].argmax(axis=0).tolist())


def _attractors(r: float, m: np.ndarray, p0: np.ndarray, cfg: ScanConfig) -> list[BifurcationRecord]:
    """detect_attractor for every column (m[i], p0[i]) at once.

    Escapes are checked per block of steps, at the first escaping step,
    so a diverged record holds exactly what a step-by-step check leaves.
    Only the detection window is kept, not the transient.
    """
    control = r * m
    unit = 1.0 + control
    alive = np.ones(m.size, dtype=bool)
    diverged: dict[int, np.ndarray] = {}
    with np.errstate(all="ignore"):
        buf = np.empty((min(cfg.transient, _BLOCK) + 1, m.size))
        buf[0] = p0
        done = 0
        while done < cfg.transient and alive.any():
            n = min(_BLOCK, cfg.transient - done)
            _iterate(r, m, buf[: n + 1])
            mask = _escape_mask(r, unit, buf[1 : n + 1])
            for c, k in _first_escapes(mask, alive):
                diverged[c] = buf[k, c : c + 1].copy()
            buf[0] = buf[n]
            done += n
        w = np.empty((cfg.window, m.size))
        w[0] = buf[0]
        for k0 in range(1, cfg.window, _BLOCK):
            if not alive.any():
                break
            k1 = min(k0 + _BLOCK, cfg.window)
            _iterate(r, m, w[k0 - 1 : k1])
            mask = _escape_mask(r, unit, w[k0:k1])
            for c, k in _first_escapes(mask, alive):
                diverged[c] = w[: k0 + k, c].copy()

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
    quadratic map, x = 1/2, i.e. p0 = (1 + rho) / (2 r), and the whole
    grid is iterated as one array. The quadratic map has negative
    Schwarzian derivative, so an attracting cycle, when there is one,
    attracts the critical orbit (Singer 1978, SIAM J. Appl. Math. 35,
    260-267). Each record is therefore the detect_attractor result from
    that seed and does not depend on the rest of the grid.

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

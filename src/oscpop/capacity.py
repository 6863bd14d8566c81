"""Carrying-capacity schedules; SolverConfig is re-exported from settings.

Every schedule knows its own exact antiderivative and derivative, so
downstream solvers never have to differentiate or integrate the forcing
numerically. Negative capacity values are allowed everywhere and never
clamped; parameters must be finite.
"""
from __future__ import annotations

import bisect
import csv
import functools
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import NonDifferentiableError, ScheduleRangeError
from .settings import SolverConfig

__all__ = [
    "CapacitySchedule",
    "Constant",
    "TwoPhase",
    "SinusoidOffset",
    "Tabulated",
    "SolverConfig",
    "load_capacity_csv",
    "parse_schedule",
]

TWO_PI = 2.0 * math.pi


class CapacitySchedule:
    """Base class for capacity schedules M(t).

    Concrete schedules provide ``at``, ``integral``, ``derivative`` and a
    ``period`` attribute (None when the schedule declares no period).
    ``pieces`` cuts an interval at the breakpoints and hands out each
    smooth piece's M and dM/dt, one-sided right up to a breakpoint, where
    the two-sided derivative raises.
    """

    period: float | None = None
    # True where M repeats with period for all t, so that the RK45 loop may
    # stop once the orbit has settled on its cycle; never on a table, whose
    # knots bound its range, or on a schedule of your own
    _repeats = False

    def at(self, t: float) -> float:
        raise NotImplementedError

    def integral(self, t0: float, t1: float) -> float:
        """Exact integral of M over [t0, t1]; requires t0 <= t1."""
        raise NotImplementedError

    def _integrals_to(self, starts: np.ndarray, t1: float) -> list:
        # integral from each of a float64 array of starts to t1, as floats, or
        # the error of the first start that fails: closedform's quadrature
        # weights take a whole batch of nodes at once. This maps integral over
        # the starts, so any schedule works; Tabulated and SinusoidOffset
        # override it with one pass that their integral also runs.
        return [self.integral(t0, t1) for t0 in starts.tolist()]

    def derivative(self, t: float) -> float:
        raise NotImplementedError

    def breakpoints_between(self, t0: float, t1: float) -> list[float]:
        """Non-smooth points strictly inside (t0, t1), ascending."""
        return []

    def pieces(self, t0: float, t1: float):
        """Yield (lo, hi, value, slope) for each smooth piece of [t0, t1].

        The pieces tile [t0, t1] in order, cut at breakpoints_between,
        and are produced lazily. value and slope are M and dM/dt on the
        piece, resolved once per piece; at lo and hi they give its
        one-sided limits. value also takes a float64 array of any shape
        and returns M at each time, with the float operations of its
        scalar calls, or one level to broadcast where M is constant on
        the piece; slope takes floats only. This is the walk of
        _staged_pieces, which each schedule defines and the solvers and
        cycle diagnostics read; no solver or diagnostic reads pieces.
        """
        return self._staged_pieces(t0, t1, False)[0]

    def _staged_pieces(self, t0: float, t1: float, shift: bool):
        """(walk, stages): the walk of pieces(t0, t1) and its stage evaluator.

        stages(t2, t3, t4, t5, t6) returns M at the five stage times of a
        step on the piece last drawn and, only with shift, dM/dt at them
        after: the floats of that piece's value and slope there, in one
        call; one evaluator serves both forms. stages is None where every
        piece is one level, which the RK45 loop and the closed form then
        read once per piece. This fallback, for a schedule of your own,
        cuts at breakpoints_between and calls at and derivative one float
        inside the piece at its ends, so a subclass whose at and
        derivative take a breakpoint's own side, as the built-ins' do,
        still gives each piece's limits.
        """
        at, derivative = self.at, self.derivative
        a = b = None

        def walk():
            nonlocal a, b
            lo = t0
            for hi in [*self.breakpoints_between(t0, t1), t1]:
                a, b = math.nextafter(lo, hi), math.nextafter(hi, lo)
                yield lo, hi, functools.partial(_inside, at, a, b), functools.partial(_inside, derivative, a, b)
                lo = hi

        def stages(t2, t3, t4, t5, t6):
            ts = min(max(t2, a), b), min(max(t3, a), b), min(max(t4, a), b), min(max(t5, a), b), min(max(t6, a), b)
            m = at(ts[0]), at(ts[1]), at(ts[2]), at(ts[3]), at(ts[4])
            return (*m, *map(derivative, ts)) if shift else m

        return walk(), stages

    def _walk_values(self, t0: float, t1: float, keys: np.ndarray, times: np.ndarray) -> np.ndarray:
        # M at times from the walk of pieces(t0, t1), as the solvers were
        # integrated on it: times' last axis runs along the ascending keys,
        # and each key's times go to the first piece whose hi is at or past
        # the key, so a key on a piece's end stays with that piece; keys past
        # the last end go with the last piece. One value call per piece;
        # Tabulated gathers its lines instead
        pieces = [(hi, value) for _, hi, value, _ in self._staged_pieces(t0, t1, False)[0]]
        cuts = np.searchsorted(keys, [hi for hi, _ in pieces[:-1]], side="right").tolist()
        m = np.empty(times.shape)
        for (_, value), a, b in zip(pieces, [0, *cuts], [*cuts, keys.size]):
            if a < b:
                m[..., a:b] = value(times[..., a:b])
        return m

    def min_value(self) -> float:
        raise NotImplementedError

    def max_value(self) -> float:
        raise NotImplementedError


def _require_ordered(t0: float, t1: float) -> None:
    if t1 < t0:
        raise ValueError(f"integral bounds out of order: {t0} > {t1}")


def _require_finite(schedule: CapacitySchedule) -> None:
    # the float parameters, after a period's own check (a declared one may
    # be None); a table checks its sample arrays itself
    params = [(f.name, getattr(schedule, f.name)) for f in fields(schedule) if f.init]
    for name, value in params:
        if name.endswith("period") and value is not None and not value > 0.0:
            raise ValueError(f"{name} must be positive")
    for name, value in params:
        if value is not None and not isinstance(value, np.ndarray) and not math.isfinite(value):
            raise ValueError(f"schedule parameter {name} must be finite, got {value}")


@dataclass(frozen=True)
class Constant(CapacitySchedule):
    """Fixed capacity level. A period may be declared for cycle analysis."""

    m: float
    declared_period: float | None = None
    _repeats = True  # with a declared period

    def __post_init__(self) -> None:
        _require_finite(self)

    @property
    def period(self) -> float | None:
        return self.declared_period

    def at(self, t: float) -> float:
        return self.m

    def integral(self, t0: float, t1: float) -> float:
        _require_ordered(t0, t1)
        return self.m * (t1 - t0)

    def derivative(self, t: float) -> float:
        return 0.0

    def _staged_pieces(self, t0: float, t1: float, shift: bool):
        # one piece, one level: at gives m at any t, derivative 0.0
        return iter([(t0, t1, self.at, self.derivative)]), None

    def min_value(self) -> float:
        return self.m

    def max_value(self) -> float:
        return self.m


@dataclass(frozen=True)
class TwoPhase(CapacitySchedule):
    """Square-wave capacity: m1 on the first half of each cycle, m2 on the second.

    The switch times are the floats k * (period / 2) for every integer
    k, and M is m1 from an even switch and m2 from an odd one, so the
    pattern repeats for all t, negative times included. Pieces are
    left-closed and right-open: the value exactly at a switch time
    belongs to the piece that starts there. Every query, the integral
    included, reads this one grid; a t not within 2**52 half periods of 0,
    where neighbouring switches share a float, raises ValueError first.
    """

    m1: float
    m2: float
    period: float
    _repeats = True

    def __post_init__(self) -> None:
        _require_finite(self)
        if not 0.5 * self.period > 0.0:
            # the switch times are multiples of the half period
            raise ValueError(f"half the period must be positive, got {self.period}")

    def _switch(self, t: float) -> int:
        # the largest k with k * half <= t; t / half rounds, so its floor may
        # be one switch off, which the two products settle. 2**52 is the
        # float64 fraction: past it, neighbouring k * half share a float
        half = 0.5 * self.period
        q = t / half
        if not abs(q) < 2.0**52:
            raise ValueError(f"switch times need finite bounds, got t={t} for half period {half} (at most 2**52 of them from 0)")
        k = math.floor(q)
        if k * half > t:
            return k - 1
        return k + 1 if (k + 1) * half <= t else k

    def at(self, t: float) -> float:
        return self.m2 if self._switch(t) % 2 else self.m1

    def _cumulative(self, t: float) -> float:
        # antiderivative anchored at 0, exact up to float rounding: the whole
        # cycles before switch k, then its first half if k is odd, then switch
        # k's level up to t; a whole cycle's mass is formed from the halves,
        # so it is finite wherever the integral is
        k, half = self._switch(t), 0.5 * self.period
        mass = (k // 2) * (0.5 * self.m1 + 0.5 * self.m2) * self.period
        if k % 2:
            return mass + self.m1 * half + self.m2 * (t - k * half)
        return mass + self.m1 * (t - k * half)

    def integral(self, t0: float, t1: float) -> float:
        _require_ordered(t0, t1)
        return self._cumulative(t1) - self._cumulative(t0)

    def derivative(self, t: float) -> float:
        if self._switch(t) * (0.5 * self.period) == t:
            raise NonDifferentiableError(f"capacity jumps at t={t}")
        return 0.0

    def breakpoints_between(self, t0: float, t1: float) -> list[float]:
        return [lo for lo, _, _, _ in self._staged_pieces(t0, t1, False)[0]][1:]

    def _staged_pieces(self, t0: float, t1: float, shift: bool):
        # a walk up the switch index from t0's, so a short step budget never
        # builds every switch time; the piece from switch k holds at's level
        # of k, and one of two closures serves every piece
        half = 0.5 * self.period
        m1, m2 = self.m1, self.m2
        levels = (lambda t: m1), (lambda t: m2)

        def slope(t: float) -> float:
            return 0.0

        def walk():
            lo, k, last = t0, self._switch(t0), self._switch(t1)
            while k < last:
                hi = (k + 1) * half
                if hi >= t1:  # t1 on a switch ends the last piece
                    break
                yield lo, hi, levels[k % 2], slope
                lo = hi
                k += 1
            yield lo, t1, levels[k % 2], slope

        return walk(), None

    def min_value(self) -> float:
        return min(self.m1, self.m2)

    def max_value(self) -> float:
        return max(self.m1, self.m2)


@dataclass(frozen=True)
class SinusoidOffset(CapacitySchedule):
    """Capacity mean + amplitude * sin(2*pi*t/period)."""

    mean: float
    amplitude: float
    period: float
    _repeats = True

    def __post_init__(self) -> None:
        _require_finite(self)

    def _angle(self, t: float) -> float:
        # reduce phase before scaling so large t keeps full precision
        return TWO_PI * ((t % self.period) / self.period)

    def at(self, t: float) -> float:
        # also M at each time of a float64 array: math.sin raises TypeError on
        # one, and trying it first spares a float call a type test
        angle = self._angle(t)
        try:
            return self.mean + self.amplitude * math.sin(angle)
        except TypeError:
            return self.mean + self.amplitude * np.sin(angle)

    def integral(self, t0: float, t1: float) -> float:
        return self._integrals_to(np.array([t0], dtype=float), t1)[0]

    def _integrals_to(self, starts: np.ndarray, t1: float) -> list:
        # a loop, not numpy: np.cos need not round like math.cos on every
        # CPU; what a batch saves is the cosine at t1, taken once
        mean, period = self.mean, self.period
        scale = self.amplitude * (period / TWO_PI)
        end = math.cos(self._angle(t1))
        xs = starts.tolist()
        # max(xs) is the latest start unless the first is NaN, which fails too
        if not max(xs) <= t1:
            for t0 in xs:
                _require_ordered(t0, t1)
        cos = math.cos
        return [mean * (t1 - t0) + scale * (cos(TWO_PI * ((t0 % period) / period)) - end) for t0 in xs]

    def derivative(self, t: float) -> float:
        return self.amplitude * (TWO_PI / self.period) * math.cos(self._angle(t))

    def _staged_pieces(self, t0: float, t1: float, shift: bool):
        # smooth everywhere: one piece, whose value and slope are at and
        # derivative; the stage evaluator gives them at the five times, each
        # angle taken once for both the sine and the cosine
        mean, amplitude, period = self.mean, self.amplitude, self.period
        rate = amplitude * (TWO_PI / period)
        sin, cos = math.sin, math.cos

        def stages(t2, t3, t4, t5, t6):
            a2 = TWO_PI * ((t2 % period) / period)
            a3 = TWO_PI * ((t3 % period) / period)
            a4 = TWO_PI * ((t4 % period) / period)
            a5 = TWO_PI * ((t5 % period) / period)
            a6 = TWO_PI * ((t6 % period) / period)
            m2, m3, m4 = mean + amplitude * sin(a2), mean + amplitude * sin(a3), mean + amplitude * sin(a4)
            m5, m6 = mean + amplitude * sin(a5), mean + amplitude * sin(a6)
            if shift:
                return m2, m3, m4, m5, m6, rate * cos(a2), rate * cos(a3), rate * cos(a4), rate * cos(a5), rate * cos(a6)
            return m2, m3, m4, m5, m6

        return iter([(t0, t1, self.at, self.derivative)]), stages

    def min_value(self) -> float:
        return self.mean - abs(self.amplitude)

    def max_value(self) -> float:
        return self.mean + abs(self.amplitude)


@dataclass(frozen=True, eq=False)
class Tabulated(CapacitySchedule):
    """Piecewise-linear capacity through sampled (time, value) points.

    Queries outside the sampled range raise ScheduleRangeError rather
    than extrapolating. A scalar query checks its range and finds its
    segment with one binary search, a walk of pieces with one per end.
    Every query reads one line per segment, built once: M = scale * (v +
    rate * (t - t_k)) from its left knot t_k, with v the samples over
    scale, rate their slope and scale a power of two at which rate is
    finite: 1.0 wherever numpy.interp's slope is, so M there is
    numpy.interp's, bit for bit. As there, a knot's M is its sample, and
    M is the right knot's sample where t - t_k overflows on a gap past
    the float range; a piece's value is its line up to both ends.
    Integrals are the exact trapezoid areas of the interpolant. Where the
    gaps are finite and the slopes below about 2**2047, values and
    integrals are finite wherever the float range holds them.
    """

    times: np.ndarray
    values: np.ndarray
    declared_period: float | None = None
    _cum: np.ndarray = field(init=False, repr=False)
    _shift: int = field(init=False, repr=False)
    _lines: np.ndarray = field(init=False, repr=False)
    _rows: list = field(init=False, repr=False)
    _knots: list = field(init=False, repr=False)

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or v.ndim != 1 or t.shape != v.shape:
            raise ValueError("times and values must be 1-D arrays of equal length")
        if t.size < 2:
            raise ValueError("need at least two samples")
        if not (np.isfinite(t).all() and np.isfinite(v).all()):
            raise ValueError("samples must be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            gaps = np.diff(t)  # like Python floats, an overflowing gap is inf quietly
            if not (gaps > 0.0).all():
                raise ValueError("sample times must be strictly increasing")
            # halves are summed first only where a sum of samples overflows,
            # and the running area is kept below about 2**1000 at the scale
            # 2**-shift, so no difference of two of its sums overflows
            total = v[1:] + v[:-1]
            mids = np.where(np.isinf(total), 0.5 * v[1:] + 0.5 * v[:-1], 0.5 * total)
            shift = max(0, int((np.frexp(mids)[1] + np.frexp(gaps)[1]).max()) + gaps.size.bit_length() - 1000)
            cum = np.concatenate(([0.0], np.cumsum(np.ldexp(mids, -shift) * gaps)))
            # each segment's line (t_k, v_k / scale, rate, scale), scale = 2**e:
            # e is 0 where the slope is finite; past the float range, the
            # exponents of the sample difference and the gap put rate below
            # 2**1023 at e, which stays at most 1023 so that scale is finite
            e = np.frexp(0.5 * v[1:] - 0.5 * v[:-1])[1] - np.frexp(gaps)[1] - 1021
            scale = np.ldexp(1.0, np.where(np.isfinite(np.diff(v) / gaps), 0, np.clip(e, 1, 1023)))
            rate = (v[1:] / scale - v[:-1] / scale) / gaps
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        _require_finite(self)
        lines = np.stack((t[:-1], v[:-1] / scale, rate, scale), axis=1)
        derived = {"_cum": cum, "_shift": shift, "_lines": lines, "_rows": lines.tolist(), "_knots": t.tolist()}
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_pairs(
        cls, pairs: "list[tuple[float, float]]", declared_period: float | None = None
    ) -> "Tabulated":
        t = np.array([p[0] for p in pairs], dtype=float)
        v = np.array([p[1] for p in pairs], dtype=float)
        return cls(t, v, declared_period)

    @property
    def period(self) -> float | None:
        return self.declared_period

    def _locate(self, t: float) -> int:
        # the one range check and binary search of every scalar query: the
        # index of the last knot at or before t, the last knot's own at the end
        knots = self._knots
        if not knots[0] <= t <= knots[-1]:
            raise ScheduleRangeError(f"t={t} outside sampled range [{knots[0]}, {knots[-1]}]")
        return bisect.bisect_right(knots, t) - 1

    def at(self, t: float) -> float:
        # t's segment k runs from knot k to knot k + 1, and at knot k, the last
        # one included, M is its sample; where t - t_k overflows and the line
        # gives nan, M is knot k + 1's sample, as numpy.interp retries there
        k = self._locate(t)
        m = self.values.item(k) if t == self._knots[k] else float(_on_line(self._rows[k], t))
        return m if m == m else self.values.item(k + 1)

    def integral(self, t0: float, t1: float) -> float:
        return self._integrals_to(np.array([t0], dtype=float), t1)[0]

    def _integrals_to(self, starts: np.ndarray, t1: float) -> list:
        knots = self.times
        ok = (starts <= t1) & (knots[0] <= starts) & (starts <= knots[-1]) & (knots[0] <= t1 <= knots[-1])
        if not ok.all():
            # the first failing start's error: bounds out of order, then that
            # start out of range, then t1 out of range
            bad = starts[ok.argmin()].item()
            _require_ordered(bad, t1)
            self._locate(bad)
            self._locate(t1)
        # the trapezoid area from the first knot to each start and to t1, the
        # last knot on the last segment, with M by at's rule, at _cum's scale;
        # like Python floats, overflow gives inf quietly
        t = np.append(starts, t1)
        j = np.searchsorted(knots, t, side="right") - 1
        k = np.minimum(j, knots.size - 2)
        t_k, v_k = knots[k], self.values[k]
        with np.errstate(over="ignore", invalid="ignore"):
            v = _on_line(self._lines[k].T, t)
            v = np.where(t == knots[j], self.values[j], np.where(np.isnan(v), self.values[k + 1], v))
            width, total = np.ldexp(t - t_k, -self._shift), v_k + v
            partial = np.where(np.isinf(total), width * (0.5 * v_k + 0.5 * v), width * 0.5 * total)
            area = self._cum[k] + partial
            return np.ldexp(area[-1] - area[:-1], self._shift).tolist()

    def derivative(self, t: float) -> float:
        k = self._locate(t)
        if t == self._knots[k]:
            raise NonDifferentiableError(f"capacity has a sample kink at t={t}")
        _, _, rate, scale = self._rows[k]
        return scale * rate

    def breakpoints_between(self, t0: float, t1: float) -> list[float]:
        # a fresh list, which a caller may extend
        knots = self._knots
        return knots[bisect.bisect_right(knots, t0) : bisect.bisect_left(knots, t1)]

    def _plan(self, t0: float, t1: float) -> tuple[list, list]:
        # (cuts, segments): the walk of pieces(t0, t1), the one place its rules
        # live. Both ends are located, and so range-checked, once each; the
        # cuts are the knots between them, and piece j lies on segment
        # k = k0 + j, or on its hi's, k + 1 up to k1, where its midpoint rounds
        # onto hi. Python floats, so lo + hi overflows to inf quietly
        j0, j1 = self._locate(t0), self._locate(t1)
        knots, last = self._knots, len(self._rows) - 1
        cuts = knots[j0 + 1 : j1 if knots[j1] == t1 else j1 + 1]
        k0, k1 = min(j0, last), min(j1, last)
        los, his = [t0, *cuts], [*cuts, t1]
        return cuts, [min(k + 1, k1) if 0.5 * (lo + hi) == hi else k for k, lo, hi in zip(range(k0, k0 + len(his)), los, his)]

    def _staged_pieces(self, t0: float, t1: float, shift: bool):
        # one evaluator for the whole walk, on the line of the piece the walk
        # handed out last, so a piece makes no closure but its slope
        line = None

        def walk():
            nonlocal line
            # the plan is made, and both ends checked, before the first piece
            cuts, segments = self._plan(t0, t1)
            for lo, hi, line in zip([t0, *cuts], [*cuts, t1], map(self._rows.__getitem__, segments)):
                # the default binds this piece's slope, not the walk's last
                yield lo, hi, functools.partial(_on_line, line), lambda t, s=line[3] * line[2]: s

        def stages(t2, t3, t4, t5, t6):
            tk, vk, rate, scale = line
            m = (
                scale * (vk + rate * (t2 - tk)), scale * (vk + rate * (t3 - tk)),
                scale * (vk + rate * (t4 - tk)), scale * (vk + rate * (t5 - tk)),
                scale * (vk + rate * (t6 - tk)),
            )
            return m + (scale * rate,) * 5 if shift else m

        return walk(), stages

    def _walk_values(self, t0: float, t1: float, keys: np.ndarray, times: np.ndarray) -> np.ndarray:
        # the base class's answer without walking: the walk's own plan, the
        # table walk's one rule, gives the cuts and each piece's segment; each
        # key goes to its piece by the base's rule, and one _on_line call reads
        # the lines gathered per key
        cuts, segments = self._plan(t0, t1)
        lines = self._lines.T.take(np.array(segments)[np.searchsorted(cuts, keys, side="left")], axis=1)
        return _on_line(lines, times)

    def min_value(self) -> float:
        return float(self.values.min())

    def max_value(self) -> float:
        return float(self.values.max())


def _on_line(line, t):
    # M at t on a table segment's line (t_k, v, rate, scale), the value rule
    # of every table query, which the stage evaluator inlines; t may be a
    # float64 array, and line a row of arrays, one segment per time. On
    # arrays, as on Python floats, overflow gives inf or nan quietly
    tk, v, rate, scale = line
    if type(t) is float:
        return scale * (v + rate * (t - tk))
    with np.errstate(over="ignore", invalid="ignore"):
        return scale * (v + rate * (t - tk))


def _inside(f, a, b, t):
    # f (a user schedule's at or derivative) at t clamped into a piece's
    # inside [a, b]; on a float64 array, at each of its times, mapped over
    # its Python floats where f takes floats only
    if not isinstance(t, np.ndarray):
        return f(min(max(t, a), b))
    t = np.clip(t, a, b)
    try:
        return f(t)
    except TypeError:  # f takes floats only
        return np.array([f(x) for x in t.ravel().tolist()], dtype=float).reshape(t.shape)


def load_capacity_csv(path: str | Path) -> Tabulated:
    """Read a tabulated schedule from CSV with a header naming columns t and M.

    Extra columns are ignored, so files produced by the simulate command
    (t, P, M) can be fed straight back in. The file is read as UTF-8, a
    leading byte-order mark, as spreadsheet exports write, dropped.
    """
    return Tabulated.from_pairs(_csv_pairs(path))


def _csv_pairs(path: str | Path) -> list[tuple[float, float]]:
    # the (t, M) rows of a schedule file, checked as load_capacity_csv documents
    rows: list[list[str]] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for row in csv.reader(fh):
            if row and any(cell.strip() for cell in row):
                rows.append(row)
    if not rows:
        raise ValueError(f"{path}: empty schedule file")
    header = [cell.strip().lower() for cell in rows[0]]
    if "t" not in header or "m" not in header:
        raise ValueError(f"{path}: header must name columns t and M")
    it, im = header.index("t"), header.index("m")
    try:
        pairs = [(float(row[it]), float(row[im])) for row in rows[1:]]
    except (ValueError, IndexError) as exc:
        raise ValueError(f"{path}: malformed schedule row ({exc})") from None
    if len(pairs) < 2:
        raise ValueError(f"{path}: need at least two data rows")
    return pairs


def parse_schedule(text: str) -> CapacitySchedule:
    """Build a schedule from the plain-text grammar used by the CLI.

    Forms: ``constant:M``, ``twophase:M1,M2,period``,
    ``sinusoid:mean,amplitude,period``, ``table:path.csv[,period]``; a
    float after a table path's last comma is the table's declared period.
    """
    head, sep, rest = text.partition(":")
    head = head.strip().lower()
    if not sep:
        raise ValueError(f"schedule {text!r} is missing ':'")
    if head == "table":
        path, comma, period = rest.rpartition(",")
        try:
            declared = float(period) if comma else None
        except ValueError:
            declared = None
        if declared is None:
            return load_capacity_csv(rest.strip())
        return Tabulated.from_pairs(_csv_pairs(path.strip()), declared)
    try:
        args = [float(part) for part in rest.split(",")]
    except ValueError:
        raise ValueError(f"schedule {text!r} has non-numeric parameters") from None
    if head == "constant":
        if len(args) != 1:
            raise ValueError("constant schedule takes exactly one value")
        return Constant(args[0])
    if head == "twophase":
        if len(args) != 3:
            raise ValueError("twophase schedule takes m1,m2,period")
        return TwoPhase(args[0], args[1], args[2])
    if head == "sinusoid":
        if len(args) != 3:
            raise ValueError("sinusoid schedule takes mean,amplitude,period")
        return SinusoidOffset(args[0], args[1], args[2])
    raise ValueError(f"unknown schedule kind {head!r}")

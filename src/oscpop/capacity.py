"""Carrying-capacity schedules and shared solver settings.

Every schedule knows its own exact antiderivative and derivative, so
downstream solvers never have to differentiate or integrate the forcing
numerically. Negative capacity values are allowed everywhere and never
clamped; parameters must be finite.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .errors import NonDifferentiableError, ScheduleRangeError

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


@dataclass(frozen=True)
class SolverConfig:
    """Numerical knobs shared by the integrators and the quadrature.

    abs_tol / rel_tol bound the local error of adaptive algorithms,
    max_step / min_step bound integrator step sizes, and max_iterations
    caps attempted steps or panel subdivisions per call.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_step: float = math.inf
    min_step: float = 1e-13
    max_iterations: int = 10_000

    def __post_init__(self) -> None:
        if not (0.0 < self.abs_tol < math.inf and 0.0 < self.rel_tol < math.inf):
            raise ValueError(
                f"tolerances must be positive and finite, got abs_tol={self.abs_tol}, rel_tol={self.rel_tol}"
            )
        if not (0.0 < self.min_step < self.max_step):
            raise ValueError("need 0 < min_step < max_step")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


class CapacitySchedule:
    """Base class for capacity schedules M(t).

    Concrete schedules provide ``at``, ``integral``, ``derivative`` and a
    ``period`` attribute (None when the schedule declares no period).
    ``pieces`` cuts an interval at the breakpoints and hands out each
    smooth piece's M and dM/dt, so solvers can work right up to a
    breakpoint without tripping the two-sided derivative error.
    """

    period: float | None = None

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

        The pieces tile [t0, t1] in order, cut at breakpoints_between.
        value and slope are M and dM/dt on the piece as functions of t,
        resolved once per piece; at lo and hi they give the piece's
        one-sided limits. value also takes a float64 array of times and
        returns M at each, elementwise with the same float operations as
        its scalar calls, or one level for callers to broadcast where M
        is constant on the piece. slope takes floats only. Pieces are
        produced lazily. The RK45 loop walks them through _staged_pieces,
        whose stage evaluator gives the value and slope of the piece last
        drawn at an attempted step's five stage times in one call.
        """
        lo = t0
        for hi in [*self.breakpoints_between(t0, t1), t1]:
            yield (lo, hi, *self._piece(lo, hi))
            lo = hi

    def _piece(self, lo: float, hi: float):
        return self.at, self.derivative

    def _staged_pieces(self, t0: float, t1: float, shift: bool):
        """pieces(t0, t1) and one stage evaluator for the RK45 step loop.

        stages(t2, t3, t4, t5, t6) returns M at the five stage times of a
        step on the piece last drawn and, with shift, dM/dt at them after:
        the floats that piece's value and slope give at each time, in one
        call. This fallback calls at and then derivative, so a subclass
        that defines only those works; SinusoidOffset and Tabulated inline
        their arithmetic.
        """
        at, derivative = self.at, self.derivative
        if shift:
            def stages(t2, t3, t4, t5, t6):
                return (
                    at(t2), at(t3), at(t4), at(t5), at(t6),
                    derivative(t2), derivative(t3), derivative(t4), derivative(t5), derivative(t6),
                )
        else:
            def stages(t2, t3, t4, t5, t6):
                return at(t2), at(t3), at(t4), at(t5), at(t6)
        return self.pieces(t0, t1), stages

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
        return [lo for lo, _, _, _ in self.pieces(t0, t1)][1:]

    def pieces(self, t0: float, t1: float):
        # a walk up the switch index from t0's, so a short step budget never
        # builds every switch time; the piece from switch k holds at's level
        # of k, and one of two closures serves every piece
        half = 0.5 * self.period
        m1, m2 = self.m1, self.m2
        levels = (lambda t: m1), (lambda t: m2)

        def slope(t: float) -> float:
            return 0.0

        lo, k, last = t0, self._switch(t0), self._switch(t1)
        while k < last:
            hi = (k + 1) * half
            if hi >= t1:  # t1 on a switch ends the last piece
                break
            yield lo, hi, levels[k % 2], slope
            lo = hi
            k += 1
        yield lo, t1, levels[k % 2], slope

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

    def __post_init__(self) -> None:
        _require_finite(self)

    def _angle(self, t: float) -> float:
        # reduce phase before scaling so large t keeps full precision
        return TWO_PI * ((t % self.period) / self.period)

    def at(self, t: float) -> float:
        return self.mean + self.amplitude * math.sin(self._angle(t))

    def integral(self, t0: float, t1: float) -> float:
        return self._integrals_to(np.array([t0], dtype=float), t1)[0]

    def _integrals_to(self, starts: np.ndarray, t1: float) -> list:
        # a loop, not numpy: np.cos need not round like math.cos on every
        # CPU; what a batch saves is the cosine at t1, taken once
        mean, period = self.mean, self.period
        scale = self.amplitude * (period / TWO_PI)
        end = math.cos(self._angle(t1))
        out = []
        for t0 in starts.tolist():
            _require_ordered(t0, t1)
            out.append(mean * (t1 - t0) + scale * (math.cos(TWO_PI * ((t0 % period) / period)) - end))
        return out

    def derivative(self, t: float) -> float:
        return self.amplitude * (TWO_PI / self.period) * math.cos(self._angle(t))

    def _piece(self, lo: float, hi: float):
        # the arithmetic of at and derivative, without their method calls
        mean, amplitude, period = self.mean, self.amplitude, self.period
        rate = amplitude * (TWO_PI / period)
        sin, cos, array_sin = math.sin, math.cos, np.sin

        def value(t):
            # math.sin raises TypeError on an array; trying it first spares the
            # float calls of the RK45 right-hand side a type test
            try:
                return mean + amplitude * sin(TWO_PI * ((t % period) / period))
            except TypeError:
                return mean + amplitude * array_sin(TWO_PI * ((t % period) / period))

        def slope(t: float) -> float:
            return rate * cos(TWO_PI * ((t % period) / period))

        return value, slope

    def _staged_pieces(self, t0: float, t1: float, shift: bool):
        # the one piece's value and slope at the five stage times, each angle
        # taken once for both the sine and the cosine
        mean, amplitude, period = self.mean, self.amplitude, self.period
        rate = amplitude * (TWO_PI / period)
        sin, cos = math.sin, math.cos
        if shift:
            def stages(t2, t3, t4, t5, t6):
                a2 = TWO_PI * ((t2 % period) / period)
                a3 = TWO_PI * ((t3 % period) / period)
                a4 = TWO_PI * ((t4 % period) / period)
                a5 = TWO_PI * ((t5 % period) / period)
                a6 = TWO_PI * ((t6 % period) / period)
                return (
                    mean + amplitude * sin(a2), mean + amplitude * sin(a3), mean + amplitude * sin(a4),
                    mean + amplitude * sin(a5), mean + amplitude * sin(a6),
                    rate * cos(a2), rate * cos(a3), rate * cos(a4), rate * cos(a5), rate * cos(a6),
                )
        else:
            def stages(t2, t3, t4, t5, t6):
                return (
                    mean + amplitude * sin(TWO_PI * ((t2 % period) / period)),
                    mean + amplitude * sin(TWO_PI * ((t3 % period) / period)),
                    mean + amplitude * sin(TWO_PI * ((t4 % period) / period)),
                    mean + amplitude * sin(TWO_PI * ((t5 % period) / period)),
                    mean + amplitude * sin(TWO_PI * ((t6 % period) / period)),
                )
        return self.pieces(t0, t1), stages

    def min_value(self) -> float:
        return self.mean - abs(self.amplitude)

    def max_value(self) -> float:
        return self.mean + abs(self.amplitude)


@dataclass(frozen=True, eq=False)
class Tabulated(CapacitySchedule):
    """Piecewise-linear capacity through sampled (time, value) points.

    Queries outside the sampled range raise ScheduleRangeError rather
    than extrapolating. Integrals are the exact trapezoid areas of the
    interpolant, including partial end segments. Values and integrals are
    finite wherever the float range holds them, between two samples that
    differ past it too.
    """

    times: np.ndarray
    values: np.ndarray
    declared_period: float | None = None
    _cum: np.ndarray = field(init=False, repr=False)
    _shift: int = field(init=False, repr=False)
    _steep: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or v.ndim != 1 or t.shape != v.shape:
            raise ValueError("times and values must be 1-D arrays of equal length")
        if t.size < 2:
            raise ValueError("need at least two samples")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("samples must be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            # like Python floats, an overflowing gap gives inf quietly; halves
            # are summed first only where a sum of samples overflows, and the
            # running area is kept below about 2**1000 at the scale 2**-shift,
            # so no difference of two of its sums overflows
            gaps, total = np.diff(t), v[1:] + v[:-1]
            mids = np.where(np.isinf(total), 0.5 * v[1:] + 0.5 * v[:-1], 0.5 * total)
            shift = max(0, int((np.frexp(mids)[1] + np.frexp(gaps)[1]).max()) + gaps.size.bit_length() - 1000)
            cum = np.concatenate(([0.0], np.cumsum(np.ldexp(mids, -shift) * gaps)))
            steep = np.flatnonzero(np.isinf(np.diff(v)))
        if not np.all(gaps > 0.0):
            raise ValueError("sample times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        _require_finite(self)
        object.__setattr__(self, "_cum", cum)
        object.__setattr__(self, "_shift", shift)
        object.__setattr__(self, "_steep", steep)

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

    def _check(self, t: float) -> None:
        # the one range check of every query
        lo, hi = self.times[0], self.times[-1]
        if not lo <= t <= hi:
            raise ScheduleRangeError(f"t={t} outside sampled range [{lo}, {hi}]")

    def _segments(self, t: np.ndarray) -> np.ndarray:
        # the one segment lookup: segment k runs from knot k to knot k + 1, and
        # the last knot is in the last one
        return np.minimum(np.searchsorted(self.times, t, side="right") - 1, self.times.size - 2)

    def _interp(self, t):
        # np.interp's rule, whose slope (v1 - v0) / gap overflows where the
        # sample difference does; on those segments alone, the same rule on
        # halved samples, doubled, which is finite between the knots
        v = np.interp(t, self.times, self.values)
        if self._steep.size:
            half = np.interp(t, self.times, 0.5 * self.values)
            v = np.where(np.isin(self._segments(t), self._steep), 2.0 * half, v)
        return v

    def at(self, t: float) -> float:
        self._check(t)
        return float(self._interp(t))

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
            self._check(bad)
            self._check(t1)
        # the trapezoid area from the first knot to each start and to t1, with
        # M by at's rule, at _cum's scale; like Python floats, overflow gives
        # inf quietly
        t = np.append(starts, t1)
        k = self._segments(t)
        t_k, v_k = knots[k], self.values[k]
        with np.errstate(over="ignore", invalid="ignore"):
            v = self._interp(t)
            width, total = np.ldexp(t - t_k, -self._shift), v_k + v
            partial = np.where(np.isinf(total), width * (0.5 * v_k + 0.5 * v), width * 0.5 * total)
            area = self._cum[k] + partial
            return np.ldexp(area[-1] - area[:-1], self._shift).tolist()

    def derivative(self, t: float) -> float:
        [(_, _, _, slope)] = self.pieces(t, t)  # t's segment, range-checked
        if (self.times == t).any():
            raise NonDifferentiableError(f"capacity has a sample kink at t={t}")
        return slope(t)

    def breakpoints_between(self, t0: float, t1: float) -> list[float]:
        knots = self.times
        return knots[(t0 < knots) & (knots < t1)].tolist()

    def pieces(self, t0: float, t1: float):
        return self._staged_pieces(t0, t1, False)[0]

    def _staged_pieces(self, t0: float, t1: float, shift: bool):
        # one evaluator for the whole walk, on the line of the piece the walk
        # handed out last, so a piece makes no closure but value and slope
        line = None

        def walk():
            nonlocal line
            # both ends are range-checked before the first piece and located in
            # one lookup, and piece j lies on segment k0 + j, or on its hi's
            # where its midpoint rounds onto hi
            self._check(t0)
            self._check(t1)
            k0, k1 = self._segments(np.array([t0, t1], dtype=float)).tolist()
            cuts = self.breakpoints_between(t0, t1)
            first, last = min(k0, k1), max(k0, k1) + 2
            knots, vals = self.times[first:last].tolist(), self.values[first:last].tolist()
            for j, (lo, hi) in enumerate(zip([t0, *cuts], [*cuts, t1])):
                k = (min(k0 + j + 1, k1) if 0.5 * (lo + hi) == hi else k0 + j) - first
                line, value, slope = _line(knots[k], vals[k], knots[k + 1], vals[k + 1])
                yield lo, hi, value, slope

        def values(t2, t3, t4, t5, t6):
            tk, vk, rate, scale = line
            return (
                scale * (vk + rate * (t2 - tk)), scale * (vk + rate * (t3 - tk)),
                scale * (vk + rate * (t4 - tk)), scale * (vk + rate * (t5 - tk)),
                scale * (vk + rate * (t6 - tk)),
            )

        def stages(t2, t3, t4, t5, t6):
            s = line[3] * line[2]
            return (*values(t2, t3, t4, t5, t6), s, s, s, s, s)

        return walk(), stages if shift else values

    def min_value(self) -> float:
        return float(self.values.min())

    def max_value(self) -> float:
        return float(self.values.max())


def _line(t0: float, v0: float, t1: float, v1: float):
    # a table segment's line from its left knot, (t0, v0, rate, scale), and
    # its value and slope: M is scale * (v0 + rate * (t - t0)) and dM/dt is
    # scale * rate. Where the sample difference overflows, as in _interp, the
    # line runs through the halved samples and scale is 2.0; elsewhere it is
    # 1.0, which changes no float. On an array, as on Python floats,
    # overflow gives inf or nan quietly
    scale = 1.0
    if math.isinf(v1 - v0):
        v0, v1, scale = 0.5 * v0, 0.5 * v1, 2.0
    rate = (v1 - v0) / (t1 - t0)
    slope = scale * rate

    def value(t):
        if type(t) is float:
            return scale * (v0 + rate * (t - t0))
        with np.errstate(over="ignore", invalid="ignore"):
            return scale * (v0 + rate * (t - t0))

    return (t0, v0, rate, scale), value, (lambda t: slope)


def _piecewise_constant(schedule: CapacitySchedule) -> bool:
    # every piece of a Constant or TwoPhase schedule is one level: value
    # returns it at any t and slope returns 0.0, so the closed form and
    # the RK45 loop may read M once per piece
    return isinstance(schedule, (Constant, TwoPhase))


def load_capacity_csv(path: str | Path) -> Tabulated:
    """Read a tabulated schedule from CSV with a header naming columns t and M.

    Extra columns are ignored, so files produced by the simulate command
    (t, P, M) can be fed straight back in.
    """
    rows: list[list[str]] = []
    with open(path, newline="") as fh:
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
    return Tabulated.from_pairs(pairs)


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
        return replace(load_capacity_csv(path.strip()), declared_period=declared)
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

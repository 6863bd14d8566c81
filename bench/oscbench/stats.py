"""Summary statistics shared by the workers, the runner and the self-tests."""
from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(samples: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it.

    With n sorted samples that is the (n - 10)-th smallest, at percentile
    100 * (n - 10) / n. Fewer than eleven samples resolve no such
    percentile; the maximum is reported with percentile 100 and zero
    samples beyond it.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return {"value": xs[-1], "percentile": 100.0, "beyond": 0, "samples": n}
    return {
        "value": xs[n - TAIL_BEYOND - 1],
        "percentile": 100.0 * (n - TAIL_BEYOND) / n,
        "beyond": TAIL_BEYOND,
        "samples": n,
    }


def median(samples: list[float]) -> float:
    return float(statistics.median(samples))


def quartile_spread(samples: list[float]) -> float:
    """(Q3 - Q1) / median, with the quartiles of statistics.quantiles(n=4)."""
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")

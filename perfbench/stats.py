"""Summary statistics and the comparison rules of the benchmark.

Timings are reported as a median plus the highest percentile that has at
least ten samples beyond it. Two result sets are compared per metric by the
rules in :func:`verdict`.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10
MIN_PAIRS = 10
WIN_SHARE = 0.9


def median(values) -> float:
    return float(statistics.median(values))


def hd_median(values) -> float:
    """Harrell-Davis estimate of the median: a Beta((n+1)/2, (n+1)/2)-weighted mean of the order statistics.

    Unlike the sample median it does not jump between two order statistics,
    which matters when latencies form clusters (cycles and stars) with the
    median in the gap between them.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n < 3:
        return median(x)
    a = (n + 1) / 2.0
    grid = np.linspace(0.0, 1.0, 8193)[1:-1]
    log_pdf = (a - 1.0) * (np.log(grid) + np.log1p(-grid))
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0)])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ x)


def quartiles(values) -> tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q = statistics.quantiles(values, n=4)
    return float(q[0]), float(q[2])


def nearest_rank(values, p: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail_percentile(values) -> tuple[float, float] | None:
    """(p, value) for the highest percentile of the ladder with at least ten samples beyond it.

    The value at percentile p is the nearest-rank sample, rank ceil(p/100 * n);
    the samples beyond it are the n - rank larger ones. None when no
    percentile of the ladder qualifies.
    """
    n = len(values)
    for p in TAIL_LADDER:
        if n - max(1, math.ceil(p / 100.0 * n)) >= MIN_BEYOND:
            return p, nearest_rank(values, p)
    return None


def summary(values) -> dict:
    values = list(values)
    q1, q3 = quartiles(values)
    out = {"n": len(values), "median": median(values), "q1": q1, "q3": q3}
    tail = tail_percentile(values)
    if tail is not None:
        out[f"p{tail[0]:g}"] = tail[1]
    return out


def verdict(parent, change, better: str, bound: float | None) -> dict:
    """Compare two lists of runs of one metric, paired by position.

    - improved: at least ten pairs, the change wins at least nine tenths of
      them (ties count for neither side), and the medians differ in the
      change's favour by more than the parent's quartile spread.
    - worse: the change's median is worse than the parent's by more than
      ``bound`` (a share of the parent's median).
    - no worse: within the bound, and the parent's own quartile spread is
      within the bound too, or every change run beats every parent run.
    - unresolved: anything else, including metrics without a bound.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    mp, mc = median(parent), median(change)
    q1, q3 = quartiles(parent)
    spread = q3 - q1
    gain = sign * (mc - mp)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gain > spread:
        result = "improved"
    elif bound is None:
        result = "unresolved"
    elif -gain > bound * abs(mp):
        result = "worse"
    elif spread <= bound * abs(mp) or all_better:
        result = "no worse"
    else:
        result = "unresolved"
    return {
        "parent_median": mp,
        "change_median": mc,
        "parent_q": (q1, q3),
        "change_q": quartiles(change),
        "pairs": len(pairs),
        "wins": wins,
        "losses": losses,
        "verdict": result,
    }

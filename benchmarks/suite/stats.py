"""Order statistics for the suite: medians, quartiles, percentiles, spread.

Quartiles are ``statistics.quantiles(values, n=4)`` (the rule the driver
applies to its own ten runs), so a spread computed here reads the same as
the one the benchmark is accepted on.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, q2, q3]``; a single sample is its own quartiles."""
    if len(values) < 2:
        return [float(values[0])] * 3
    return [float(q) for q in statistics.quantiles(values, n=4)]


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for one sample)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def quiet_quartile(values: Sequence[float], better: str) -> float:
    """The quartile on the metric's good side: the first for lower-is-better,
    the third for higher-is-better.

    This is how a run folds its rounds.  On a shared machine interference
    only ever makes a round worse, and it comes in bursts about as long as a
    run, so the median of a run's rounds follows the bursts while the good-side
    quartile stays with the quiet rounds (README, "How a run measures").
    Interpolated inside the sample, so two or three rounds never extrapolate."""
    return percentile(values, 25.0 if better == "lower" else 75.0)


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    order statistics; pool the samples of several runs before calling."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    xs = sorted(samples)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return float(xs[lo] + (xs[hi] - xs[lo]) * (pos - lo))


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Headline (median) plus what a reader needs to judge it."""
    q1, q2, q3 = quartiles(values)
    return {"median": q2, "min": float(min(values)), "max": float(max(values)),
            "q1": q1, "q3": q3, "n": len(values)}


def worsening(a: float, b: float, better: str) -> float:
    """Relative change from ``a`` to ``b``, positive when ``b`` is worse."""
    if a == 0:
        return 0.0 if b == 0 else math.inf
    rel = (b - a) / abs(a)
    return rel if better == "lower" else -rel

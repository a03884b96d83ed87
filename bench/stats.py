"""Order statistics of the benchmark and the verdict rule of its compare command."""

from __future__ import annotations

import math
import statistics

# A latency percentile is reported only with at least this many samples above it.
TAIL_SAMPLES = 10
TAIL_CAP = 90
# A change improves a metric only if it wins this share of the alternating pairs,
# of which there must be at least MIN_PAIRS.
WIN_SHARE = 0.9
MIN_PAIRS = 10


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) by linear interpolation between order statistics."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> int:
    """Highest whole percentile, at most 90, with TAIL_SAMPLES samples beyond it.

    With n samples, n * (1 - p/100) of them lie above the p-th percentile.
    """
    if n < 2 * TAIL_SAMPLES:
        raise ValueError(f"{n} samples leave fewer than {TAIL_SAMPLES} beyond the median")
    return min(TAIL_CAP, math.floor(100 * (n - TAIL_SAMPLES) / n))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    xs = list(values)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(parent, change, better: str, bound: float | None) -> str:
    """improved, worse, unchanged or unresolved for one workload x metric.

    parent[i] and change[i] form the i-th alternating pair.  The change
    improves the metric when it wins at least WIN_SHARE of the pairs (ties
    count for neither side) and the medians differ by more than the parent's
    interquartile range.  With a bound (end-to-end metrics), the change is
    worse when its median is worse than the parent's by more than
    bound * parent median, and the comparison is unresolved when the parent's
    own interquartile range is wider than that allowance.  Without a bound
    (per-layer metrics), the winning rule is applied in both directions.
    """
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    n = min(len(parent), len(change))
    if n == 0:
        raise ValueError("no pairs to compare")
    sign = 1.0 if better == "higher" else -1.0
    gains = [sign * (c - p) for p, c in zip(parent[:n], change[:n])]
    wins = sum(g > 0 for g in gains)
    losses = sum(g < 0 for g in gains)
    p_q1, p_med, p_q3 = quartiles(parent[:n])
    c_med = quartiles(change[:n])[1]
    spread = p_q3 - p_q1
    gain = sign * (c_med - p_med)
    if wins >= WIN_SHARE * n and gain > spread:
        return "improved"
    if bound is None:
        if losses >= WIN_SHARE * n and -gain > spread:
            return "worse"
        return "unchanged" if abs(gain) <= spread else "unresolved"
    allowance = bound * abs(p_med)
    if spread > allowance:
        if min(sign * c for c in change[:n]) > max(sign * p for p in parent[:n]):
            return "unchanged"
        return "unresolved"
    return "worse" if -gain > allowance else "unchanged"

"""Order statistics for timing samples."""

from __future__ import annotations

import math
import statistics


def median(samples) -> float:
    return statistics.median(samples)


def tail(samples) -> tuple[float, int, int]:
    """The highest whole percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). The value is the
    nearest-rank percentile. With fewer than 20 samples no percentile from
    the 50th up has ten beyond it; the 50th is returned and the count beyond
    it says how thin the tail is.
    """
    ordered = sorted(samples)
    n = len(ordered)
    # p <= 100 (n - 10) / n keeps rank = ceil(p n / 100) at most n - 10
    p = max(50, 100 * (n - 10) // n)
    rank = max(1, math.ceil(p * n / 100))
    return ordered[rank - 1], p, n - rank

"""Order statistics shared by the runner and the steadiness command."""

from __future__ import annotations

import math
import statistics

#: the tail percentile keeps at least this many samples beyond it
TAIL_BEYOND = 10


def median(values):
    return statistics.median(values)


def tail(values):
    """(percentile, value): the highest whole percentile with >= 10 samples beyond it.

    The value is the nearest-rank percentile.  With fewer than 11 samples
    there is no such percentile and the maximum is returned as p0.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return 0, xs[-1]
    q = math.floor(100 * (1 - TAIL_BEYOND / n))
    rank = max(1, math.ceil(q / 100 * n))
    return q, xs[rank - 1]


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf

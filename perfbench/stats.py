"""Statistics the benchmark reports, kept apart from run.py so they are tested.

Every helper takes plain Python numbers. Integer inputs (virtual nanoseconds,
byte counts) stay integers where the result is compared exactly.
"""

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it; with fewer, the value is set by a handful of outliers.
MIN_SAMPLES_BEYOND = 10


def median(values):
    """Median of a non-empty sequence (mean of the middle two when even)."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """(q1, q2, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two samples")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = quartiles(values)
    mid = median(values)
    if mid == 0:
        raise ValueError("spread relative to a zero median")
    return (q3 - q1) / mid


def tail_percentile(values, p, min_beyond=MIN_SAMPLES_BEYOND):
    """The nearest-rank p-th percentile and the sample count, or None.

    None means fewer than `min_beyond` samples lie beyond the percentile, so
    the caller must not report it (for p90 that takes 100 samples).
    """
    if not 0 < p < 100:
        raise ValueError("percentile must lie strictly between 0 and 100")
    n = len(values)
    rank = max(1, math.ceil(p / 100 * n))
    if n - rank < min_beyond:
        return None
    return sorted(values)[rank - 1], n


def failed_fraction(failed, attempted):
    """failed / attempted with its base: (fraction, attempted)."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed count outside [0, attempted]")
    return failed / attempted, attempted


def phases_sum_to_total(phase_ns, total_ns):
    """True when per-phase self times (integer ns) add up exactly to the total."""
    return sum(phase_ns.values()) == total_ns


def decile_means(values):
    """Means of the first and the last tenth of an ordered sequence (at least one each)."""
    if not values:
        raise ValueError("deciles of no samples")
    k = max(1, len(values) // 10)
    return sum(values[:k]) / k, sum(values[-k:]) / k

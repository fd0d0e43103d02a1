"""Summary statistics the benchmark reports."""

from __future__ import annotations

TAIL_BEYOND = 10


def tail(values) -> tuple[float, float, int]:
    """Highest percentile of ``values`` with at least ten samples beyond it.

    Returns ``(value, percentile, samples_beyond)``: the order statistic
    with ten larger samples, its percentile under linear interpolation
    (index k of n sorted values is percentile 100 k / (n - 1)), and the
    number of larger samples. With eleven samples that is the minimum.
    With fewer no percentile qualifies, and the minimum, which has the
    most samples beyond it, is returned with its smaller count. Taking the
    maximum instead would make the value jump from the largest to the
    smallest sample as a run's item count crosses eleven.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    k = max(0, n - 1 - TAIL_BEYOND)
    return ordered[k], 100.0 * k / max(1, n - 1), n - 1 - k

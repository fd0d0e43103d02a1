import numpy as np
import pytest

from stats import tail


@pytest.mark.parametrize("n", [11, 12, 21, 40])
def test_tail_has_exactly_ten_samples_beyond(n):
    values = list(np.random.default_rng(n).permutation(np.arange(1.0, n + 1)))
    value, percentile, beyond = tail(values)
    assert beyond == 10
    assert sum(v > value for v in values) == 10
    assert np.percentile(values, percentile) == pytest.approx(value)
    # one more sample beyond would need a lower order statistic
    assert sum(v > value - 1 for v in values) == 11


def test_tail_percentiles():
    assert tail(range(1, 12)) == (1, 0.0, 10)
    assert tail(range(1, 22)) == (11, 50.0, 10)


@pytest.mark.parametrize("n", [2, 5, 10])
def test_tail_of_short_sample_is_the_minimum_with_its_count(n):
    assert tail([3.0] * (n - 1) + [1.0]) == (1.0, 0.0, n - 1)


def test_tail_of_one_sample():
    assert tail([2.5]) == (2.5, 0.0, 0)


def test_tail_rejects_empty():
    with pytest.raises(ValueError):
        tail([])


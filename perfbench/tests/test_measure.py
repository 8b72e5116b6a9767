"""The summary statistics the metrics are made of."""

import pytest

from perfbench import measure


def test_tail_has_ten_samples_beyond_it():
    value, pct = measure.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0
    with pytest.raises(ValueError):
        measure.tail([1.0] * measure.TAIL_BEYOND)

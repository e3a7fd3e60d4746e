"""``emulator._median_p95`` against ``np.median`` and ``np.percentile(., 95)``,
bit for bit, over drawn arrays: sizes 1 and 2, odd and even sizes, heavy
ties, and magnitudes from subnormal to near overflow.

0.0 and -0.0 compare equal, so which of them a partition leaves at an order
statistic depends on the partition; the draws hold no -0.0 beside a 0.0.
Response times never do: each is a difference of distinct floats, and a
float minus itself is 0.0."""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eunomia.emulator import _median_p95

finite = st.floats(allow_nan=False, allow_infinity=False).map(lambda x: x + 0.0)  # no -0.0
# few distinct values, so most entries tie
tied = st.lists(st.sampled_from([0.0, 1e-300, 0.5, 0.5000000000000001, 3.0]), min_size=1)


def _bits(x) -> str:
    return float(x).hex()


def _check(values: list[float]) -> None:
    arr = np.array(values, dtype=float)
    median, p95 = _median_p95(arr)
    assert type(median) is float and type(p95) is float
    with np.errstate(over="ignore"):  # the middle pair may sum past the largest float
        assert _bits(median) == _bits(np.median(arr))
        assert _bits(p95) == _bits(np.percentile(arr, 95))
    assert arr.tolist() == values  # the input is left as it was


@settings(max_examples=400, deadline=None)
@given(st.lists(finite, min_size=1, max_size=60))
@example([2.5])
@example([1.0, 2.0])
@example([-0.0])
@example([-0.0, -0.0])
@example([1e308, 1.7e308])
@example([-1e308, 1e308, 0.0])
def test_median_and_p95_match_numpy(values):
    _check(values)


@settings(max_examples=200, deadline=None)
@given(tied)
def test_median_and_p95_match_numpy_under_ties(values):
    _check(values)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=400), st.integers(min_value=0, max_value=2**32 - 1))
def test_median_and_p95_match_numpy_on_response_like_samples(n, seed):
    _check(np.random.default_rng(seed).exponential(0.05, size=n).tolist())

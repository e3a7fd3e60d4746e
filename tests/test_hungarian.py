import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eunomia import hungarian
from eunomia.hungarian import InfeasibleMatchingError, solve_lexicographic


def _brute_force(cost):
    n = cost.shape[0]
    best_total, best = np.inf, None
    for perm in itertools.permutations(range(n)):
        total = sum(cost[i, perm[i]] for i in range(n))
        if total < best_total - 1e-12:
            best_total, best = total, list(perm)
    return best_total, best


def test_single_pair():
    assert solve_lexicographic(np.array([[3.0]])) == [0]


def test_identity_dominant_matrix():
    cost = np.array([[1.0, 9.0, 9.0], [9.0, 1.0, 9.0], [9.0, 9.0, 1.0]])
    assert solve_lexicographic(cost) == [0, 1, 2]


def test_matches_bruteforce_on_random_4x4():
    rng = np.random.default_rng(0)
    cost = rng.uniform(0, 10, size=(4, 4))
    expected_total, _ = _brute_force(cost)
    got = solve_lexicographic(cost)
    assert sum(cost[i, j] for i, j in enumerate(got)) == pytest.approx(expected_total)


@pytest.mark.parametrize("trial", range(20))
def test_matches_bruteforce_many_sizes(trial):
    rng = np.random.default_rng(100 + trial)
    m = int(rng.integers(2, 7))
    cost = rng.uniform(0, 100, size=(m, m))
    expected_total, _ = _brute_force(cost)
    got = solve_lexicographic(cost)
    got_total = sum(cost[i, j] for i, j in enumerate(got))
    assert got_total == pytest.approx(expected_total)


def test_handles_infeasible_pairs():
    cost = np.array([[np.inf, 2.0], [3.0, np.inf]])
    assert solve_lexicographic(cost) == [1, 0]


def test_detects_infeasible_matching():
    cost = np.array([[np.inf, np.inf], [1.0, 2.0]])
    with pytest.raises(InfeasibleMatchingError):
        solve_lexicographic(cost)


def test_detects_infeasible_matching_without_an_all_inf_row():
    # every row has a finite entry, but both need column 0
    cost = np.array([[1.0, np.inf], [2.0, np.inf]])
    with pytest.raises(InfeasibleMatchingError):
        solve_lexicographic(cost)


def test_lexicographic_tie_break():
    # every perfect matching costs 2; the lexicographically smallest wins
    cost = np.ones((3, 3)) * 1.0
    cost[0, 0] = 0.0
    cost[1, 1] = 0.0
    cost[2, 2] = 2.0
    cost[2, 0] = 2.0
    # optimal matchings: [0,1,2] (0+0+2) and e.g. [1,0,...]? brute force decides
    bf_total, _ = _brute_force(cost)
    got = solve_lexicographic(cost)
    assert sum(cost[i, j] for i, j in enumerate(got)) == pytest.approx(bf_total)
    # among all optimal matchings, none is lexicographically smaller
    n = 3
    for perm in itertools.permutations(range(n)):
        total = sum(cost[i, perm[i]] for i in range(n))
        if total == pytest.approx(bf_total):
            assert list(perm) >= got or list(perm) == got


@pytest.mark.parametrize("trial", range(10))
def test_lexicographic_matches_bruteforce_first_optimum(trial):
    rng = np.random.default_rng(500 + trial)
    m = int(rng.integers(2, 6))
    # quantized costs create frequent ties
    cost = rng.integers(0, 4, size=(m, m)).astype(float)
    best_total, _ = _brute_force(cost)
    expected = None
    for perm in itertools.permutations(range(m)):
        total = sum(cost[i, perm[i]] for i in range(m))
        if total == pytest.approx(best_total):
            expected = list(perm)
            break
    assert solve_lexicographic(cost) == expected


@st.composite
def small_costs(draw):
    """Square matrices up to ``SMALL_N`` of small integers, so that optimal
    matchings tie often, with some non-finite entries."""
    n = draw(st.integers(1, hungarian.SMALL_N))
    entry = st.one_of(
        st.integers(0, 3).map(float), st.sampled_from([math.inf, -math.inf, math.nan])
    )
    flat = draw(st.lists(st.one_of(entry, st.integers(0, 3).map(float)),
                         min_size=n * n, max_size=n * n))
    return np.array(flat).reshape(n, n)


def _outcome(solve, cost):
    try:
        return solve(cost, 1e-9)
    except InfeasibleMatchingError:
        return "infeasible"


@settings(max_examples=400, deadline=None)
@given(small_costs())
def test_small_matchings_enumerate_to_the_row_fixing_answer(cost):
    want = _outcome(hungarian._row_fixing, cost)
    assert _outcome(hungarian._enumerated, cost) == want
    assert _outcome(solve_lexicographic, cost) == want


@pytest.mark.parametrize("n", [2, hungarian.SMALL_N + 1])
def test_a_minus_inf_pair_in_the_last_row_is_forbidden(n):
    cost = np.zeros((n, n))
    cost[-1, -1] = -np.inf
    assert solve_lexicographic(cost) == [*range(n - 2), n - 1, n - 2]

"""Minimum-cost perfect matching with a deterministic tie-break.

Optima come from ``scipy.sparse.csgraph.min_weight_full_bipartite_matching``
(LAPJVsp), which lives in a package the emulator loads anyway;
``scipy.optimize.linear_sum_assignment`` would add about 16 MiB of
``scipy.optimize`` to peak RSS. The tie-break loop is the only logic left here,
and up to ``SMALL_N`` rows, where a solver call costs more than listing every
permutation, the permutations are enumerated instead.
"""
from __future__ import annotations

from functools import cache
from itertools import permutations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import min_weight_full_bipartite_matching


SMALL_N = 5  # 120 permutations


class InfeasibleMatchingError(ValueError):
    """No perfect matching avoids every non-finite pair."""


def _optimal(cost: np.ndarray) -> list[int]:
    """Column of each row in a least-cost perfect matching; non-finite pairs are forbidden."""
    finite = np.isfinite(cost)
    # LAPJVsp reads a zero weight as a missing edge; every perfect matching
    # has the same number of edges, so a constant shift keeps the optimum
    graph = csr_matrix(np.where(finite, cost - cost[finite].min(initial=0.0) + 1.0, 0.0))
    try:
        return min_weight_full_bipartite_matching(graph)[1].tolist()
    except ValueError as exc:  # "no full matching exists"
        raise InfeasibleMatchingError(str(exc)) from exc


@cache
def _permutations(n: int) -> np.ndarray:
    """Every permutation of range(n), one per row, in lexicographic order."""
    return np.array(list(permutations(range(n))), dtype=np.intp)


def _enumerated(cost: np.ndarray, tol: float) -> list[int]:
    """``solve_lexicographic`` by listing every permutation: the first, in
    lexicographic order, whose total is within the tolerance of the least."""
    n = len(cost)
    perms = _permutations(n)
    entries = cost[np.arange(n), perms]
    feasible = np.flatnonzero(np.isfinite(entries).all(axis=1))
    if not feasible.size:
        raise InfeasibleMatchingError("no full matching exists")
    totals = entries[feasible].sum(axis=1)
    best = float(totals.min())
    eps = tol * (1.0 + abs(best))
    return perms[feasible[np.argmax(totals <= best + eps)]].tolist()


def _row_fixing(cost: np.ndarray, tol: float) -> list[int]:
    """``solve_lexicographic`` by fixing rows in order; each row greedily takes
    the smallest column index that keeps the remaining subproblem at the
    optimal total. ``match`` always holds an optimal completion of the rows
    fixed so far, so its own column qualifies and only the free columns
    below it need a solve."""
    n = len(cost)
    match = _optimal(cost)
    best = float(cost[range(n), match].sum())
    eps = tol * (1.0 + abs(best))
    for i in range(n - 1):
        free = sorted(match[i:])
        fixed = float(cost[range(i), match[:i]].sum())
        for j in free[: free.index(match[i])]:
            if not np.isfinite(cost[i, j]):
                continue
            others = [c for c in free if c != j]
            rest = others  # with one row left, its one free column is the only completion
            if len(others) > 1:
                try:
                    rest = [others[c] for c in _optimal(cost[np.ix_(range(i + 1, n), others)])]
                except InfeasibleMatchingError:
                    continue
            elif not np.isfinite(cost[n - 1, others[0]]):
                continue
            if fixed + cost[i, j] + cost[range(i + 1, n), rest].sum() <= best + eps:
                match[i:] = [j, *rest]
                break
    return match


def solve_lexicographic(cost: np.ndarray, tol: float = 1e-9) -> list[int]:
    """Column assigned to each row in a minimum-total-cost perfect matching,
    tie-broken to the lexicographically smallest among all optimal matchings
    (totals within ``tol`` relative of the least count as optimal).
    Non-finite pairs are forbidden; InfeasibleMatchingError when every
    perfect matching uses one."""
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    if n != m:
        raise ValueError(f"cost matrix must be square, got {n}x{m}")
    if n <= SMALL_N:
        return _enumerated(cost, tol)
    return _row_fixing(cost, tol)

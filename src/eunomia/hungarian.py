"""Minimum-cost perfect matching with a deterministic tie-break.

Optima come from ``scipy.sparse.csgraph.min_weight_full_bipartite_matching``
(LAPJVsp), which lives in a package the emulator loads anyway;
``scipy.optimize.linear_sum_assignment`` would add about 16 MiB of
``scipy.optimize`` to peak RSS. The tie-break loop is the only logic left here.
"""
from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import min_weight_full_bipartite_matching


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


def solve_lexicographic(cost: np.ndarray, tol: float = 1e-9) -> list[int]:
    """Column assigned to each row in a minimum-total-cost perfect matching,
    tie-broken to the lexicographically smallest among all optimal matchings.

    Rows are fixed in order; each row greedily takes the smallest column index
    that keeps the remaining subproblem at the optimal total. ``match`` always
    holds an optimal completion of the rows fixed so far, so its own column
    qualifies and only the free columns below it need a solve.
    """
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    if n != m:
        raise ValueError(f"cost matrix must be square, got {n}x{m}")
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
            if fixed + cost[i, j] + cost[range(i + 1, n), rest].sum() <= best + eps:
                match[i:] = [j, *rest]
                break
    return match

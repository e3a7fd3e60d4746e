"""Control-overhead relationship graph (CORG) over an overlap region.

Nodes are the region's LEOs plus one virtual node per competing controller;
edge weights combine pairwise flow, synchronization and mobility costs.
The weights feed a Gaussian-kernel similarity matrix for spectral clustering.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import ROLE_CODE, NetworkSnapshot, Role, norm
from .overhead import OverheadParams, hop_cost
from .traffic import TrafficMatrix
from .visibility import OverlapRegion

DEFAULT_ALPHA = 0.5
DEFAULT_BETA = 0.3


@dataclass(frozen=True)
class CorgWeights:
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    mig_unit_s: float = 1.0  # scale of the velocity-divergence mobility penalty

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0 or self.alpha + self.beta > 1.0:
            raise ValueError(
                f"weights must satisfy alpha, beta >= 0 and alpha + beta <= 1, "
                f"got alpha={self.alpha}, beta={self.beta}"
            )


@dataclass
class Corg:
    node_ids: tuple[int, ...]
    edges: dict[tuple[int, int], float]  # (low id, high id) -> xi, seconds
    virtual_flags: dict[int, bool]

    def xi(self, a: int, b: int) -> float | None:
        return self.edges.get((a, b) if a < b else (b, a))

    @property
    def virtual_ids(self) -> tuple[int, ...]:
        return tuple(i for i in self.node_ids if self.virtual_flags[i])


@dataclass
class SimilarityMatrix:
    node_ids: tuple[int, ...]
    values: np.ndarray  # symmetric, unit diagonal, zeros for absent pairs
    sigma: float


def pairwise_costs(
    a,
    b,
    traffic: TrafficMatrix,
    snapshot: NetworkSnapshot,
    params: OverheadParams,
    weights: CorgWeights,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(flow, sync, mobility) cost components of the CORG edges (a, b).

    ``a`` and ``b`` are node ids, or equal-shape arrays of them, one edge per
    element. Between two switches the flow term carries their mutual flow
    rate. For a controller attachment edge it carries the switch's total flow
    rate, since every flow-table update for that switch would traverse the
    link. The mobility term is half the distance between the unit velocity
    vectors (0 when co-moving, 1 when flying in opposite directions), and 0
    on edges to a ground station or a node at rest.
    """
    a, b = np.asarray(a), np.asarray(b)
    codes = snapshot.role_codes
    is_leo = codes == ROLE_CODE[Role.LEO]
    switch_pair = is_leo[a] & is_leo[b]
    i = np.where(is_leo[a], a, b)
    # the other switch of a switch pair; on an attachment edge the controller
    # end is no traffic row, and ``mutual`` there is discarded, so reuse ``i``
    j = np.where(switch_pair, np.where(is_leo[a], b, a), i)
    # each switch's total rate (row sum plus column sum), once per switch; the
    # columns are summed as contiguous rows, which matches summing each column
    # alone bit for bit, where rates.sum(axis=0) adds row by row and does not
    uniq, inv = np.unique(i, return_inverse=True)
    rows, cols = traffic.rows(uniq), traffic.cols(uniq)
    total = rows.sum(axis=1) + np.ascontiguousarray(cols.T).sum(axis=1)
    mutual = traffic.at(i, j) + traffic.at(j, i)
    lam = np.where(switch_pair, mutual, total[inv].reshape(i.shape))
    w_flow = lam * hop_cost(snapshot, params, a, b, params.m_fl_bytes)
    w_sync = params.f_sync_hz * hop_cost(snapshot, params, a, b, params.m_sync_bytes)

    va, vb = snapshot.velocities[a], snapshot.velocities[b]
    na, nb = norm(va), norm(vb)
    with np.errstate(invalid="ignore", divide="ignore"):
        divergence = norm(va / na[..., None] - vb / nb[..., None]) / 2.0
    is_gs = codes == ROLE_CODE[Role.GS]
    still = is_gs[a] | is_gs[b] | (na == 0.0) | (nb == 0.0)
    w_mig = np.where(still, 0.0, divergence * weights.mig_unit_s)
    return w_flow, w_sync, w_mig


def edge_weight(costs: tuple[float, float, float], weights: CorgWeights) -> float:
    """Weighted combination alpha*flow + beta*sync + (1 - alpha - beta)*mobility."""
    w_flow, w_sync, w_mig = costs
    return (
        weights.alpha * w_flow
        + weights.beta * w_sync
        + (1.0 - weights.alpha - weights.beta) * w_mig
    )


def build_corg(
    region: OverlapRegion,
    traffic: TrafficMatrix,
    snapshot: NetworkSnapshot,
    params: OverheadParams,
    fov_domains: dict[int, frozenset[int]],
    weights: CorgWeights | None = None,
) -> Corg:
    """CORG over one overlap region: ISL edges between member LEOs and a
    virtual-controller edge for every in-FOV (controller, member) pair."""
    w = weights or CorgWeights()
    leos = sorted(region.leo_ids)
    ctrls = list(region.controller_ids)

    member = np.zeros(len(snapshot.roles), dtype=bool)
    member[leos] = True
    isl = snapshot.topology.edge_array  # in sorted order
    pairs = list(map(tuple, isl[member[isl].all(axis=1)].tolist()))
    pairs += [
        (leo, k) if leo < k else (k, leo) for k in ctrls for leo in leos if leo in fov_domains[k]
    ]
    edges: dict[tuple[int, int], float] = {}
    if pairs:
        a, b = np.array(pairs).T
        xi = edge_weight(pairwise_costs(a, b, traffic, snapshot, params, w), w)
        edges = dict(zip(pairs, xi.tolist()))

    node_ids = tuple(leos + ctrls)
    virtual_flags = {i: False for i in leos} | {k: True for k in ctrls}
    return Corg(node_ids=node_ids, edges=edges, virtual_flags=virtual_flags)


def similarity(corg: Corg, sigma: float | None = None) -> SimilarityMatrix:
    """Gaussian-kernel similarity exp(-xi / (2 sigma^2)); absent pairs are 0,
    the diagonal is 1. Sigma defaults to the square root of the median positive
    edge weight, so that sigma^2 is on the scale of xi itself."""
    if not corg.node_ids:
        raise ValueError("similarity of an empty graph")
    if sigma is None:
        positive = [x for x in corg.edges.values() if x > 0.0]
        sigma = math.sqrt(np.median(positive)) if positive else 1.0
    n = len(corg.node_ids)
    index = {node: i for i, node in enumerate(corg.node_ids)}
    values = np.zeros((n, n))
    np.fill_diagonal(values, 1.0)
    for (a, b), xi in corg.edges.items():
        s = float(np.exp(-xi / (2.0 * sigma**2)))
        values[index[a], index[b]] = s
        values[index[b], index[a]] = s
    return SimilarityMatrix(node_ids=corg.node_ids, values=values, sigma=sigma)

"""Control-overhead relationship graph (CORG) over an overlap region.

Nodes are the region's LEOs plus one virtual node per competing controller;
edge weights combine pairwise flow, synchronization and mobility costs.
The weights feed a Gaussian-kernel similarity matrix for spectral clustering.

A slot's regions are disjoint, so every CORG edge of the slot is costed in
one pass (``corg_edges``): the ISL edges between LEOs of one region and the
(covering controller, LEO) attachment edges read from the FOV array.
``build_corg`` then takes one region's edges from that table by mask. A
CORG holds its edges as arrays.
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
                f"alpha, beta: {self.alpha}, {self.beta} must be non-negative with a sum of "
                f"at most 1"
            )
        if not self.mig_unit_s >= 0.0:
            raise ValueError(f"mig_unit_s: {self.mig_unit_s} is negative")


@dataclass
class Corg:
    leo_ids: tuple[int, ...]  # the region's LEOs, ascending
    virtual_ids: tuple[int, ...]  # one virtual node per competing controller
    pairs: np.ndarray  # (E, 2) node ids of each edge, low id first
    xi: np.ndarray  # (E,) edge weight, seconds

    @property
    def node_ids(self) -> tuple[int, ...]:
        return self.leo_ids + self.virtual_ids


@dataclass
class CorgEdges:
    """Every CORG edge of one slot's regions, costed in one pass: the ISL
    edges between LEOs of one region in sorted order, then each region's
    attachment edges by controller, then LEO."""

    pairs: np.ndarray  # (E, 2) node ids, low id first
    xi: np.ndarray  # (E,) edge weight, seconds
    n_nodes: int


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
    # each switch's total rate, its row and column summed once
    switches, at = np.unique(i, return_inverse=True)
    total = (traffic.outbound_of(switches) + traffic.inbound_of(switches))[at].reshape(i.shape)
    mutual = traffic.at(i, j) + traffic.at(j, i)
    lam = np.where(switch_pair, mutual, total)
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


def corg_edges(
    regions: list[OverlapRegion],
    traffic: TrafficMatrix,
    snapshot: NetworkSnapshot,
    params: OverheadParams,
    fov_domains: np.ndarray,
    weights: CorgWeights | None = None,
) -> CorgEdges:
    """Every CORG edge of the disjoint ``regions``, costed in one
    ``pairwise_costs`` call: the ISL edges between LEOs of one region and a
    virtual-controller edge for every in-FOV (controller, member) pair."""
    w = weights or CorgWeights()
    n_leo = fov_domains.shape[1]
    region_of = np.full(n_leo, -1)
    for r, region in enumerate(regions):
        region_of[list(region.leo_ids)] = r
    isl = snapshot.topology.edge_array  # in sorted order
    a, b = region_of[isl].T
    # one row per (region, controller), its members in view by LEO id
    r, k = np.array(
        [(r, k) for r, region in enumerate(regions) for k in region.controller_ids], np.int64
    ).reshape(-1, 2).T
    row, leo = np.divmod(np.flatnonzero(fov_domains[k - n_leo] & (region_of == r[:, None])), n_leo)
    # low id first: a LEO id is below every controller id
    pairs = np.concatenate([isl[(a >= 0) & (a == b)], np.stack([leo, k[row]], axis=1)])
    xi = np.zeros(len(pairs))
    if len(pairs):
        xi = edge_weight(pairwise_costs(*pairs.T, traffic, snapshot, params, w), w)
    return CorgEdges(pairs=pairs, xi=xi, n_nodes=len(snapshot.roles))


def build_corg(region: OverlapRegion, edges: CorgEdges) -> Corg:
    """CORG over one overlap region: the edges of ``edges`` (the slot's
    table, see ``corg_edges``) between the region's LEOs and controllers."""
    leos = sorted(region.leo_ids)
    ctrls = tuple(region.controller_ids)
    member = np.zeros(edges.n_nodes, dtype=bool)
    member[leos] = True
    member[list(ctrls)] = True
    mine = member[edges.pairs].all(axis=1)
    return Corg(tuple(leos), ctrls, edges.pairs[mine], edges.xi[mine])


def similarity(corg: Corg, sigma: float | None = None) -> SimilarityMatrix:
    """Gaussian-kernel similarity exp(-xi / (2 sigma^2)); absent pairs are 0,
    the diagonal is 1. Sigma defaults to the square root of the median positive
    edge weight, so that sigma^2 is on the scale of xi itself."""
    node_ids = corg.node_ids
    if not node_ids:
        raise ValueError("similarity of an empty graph")
    if sigma is None:
        # np.median, as it computes it: the middle value, or the mean of the two
        positive = np.sort(corg.xi[corg.xi > 0.0])
        h = len(positive) // 2
        if len(positive) % 2:
            sigma = math.sqrt(positive[h])
        else:
            sigma = math.sqrt((positive[h - 1] + positive[h]) / 2.0) if h else 1.0
    n = len(node_ids)
    index = np.zeros(max(node_ids) + 1, dtype=np.int64)
    index[list(node_ids)] = np.arange(n)
    i, j = index[corg.pairs].T
    values = np.zeros((n, n))
    np.fill_diagonal(values, 1.0)
    values[i, j] = values[j, i] = np.exp(-corg.xi / (2.0 * sigma**2))
    return SimilarityMatrix(node_ids=node_ids, values=values, sigma=sigma)

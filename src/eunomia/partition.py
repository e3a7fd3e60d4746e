"""Three-step movement-aware domain partitioning, baselines, and oracles.

The pipeline assigns single-coverage LEOs directly, spectrally clusters each
contested overlap region on its control-overhead relationship graph (every
region's edges taken from one slot edge table, costed once keep-or-release
has fixed each region's residual), matches clusters to controllers with a
Kuhn-Munkres solver, and finally nudges
boundary satellites along their flight direction to avoid imminent
field-of-view exits. Contested decisions are priced by the partitioning
objective itself, W_CTL + lambda * W_CPT of ``overhead.evaluate``: a matching
pair costs the rise in W_FLOW + lambda * W_CPT of giving the cluster to that
controller, and a contested LEO keeps last slot's controller only while no
other covering controller would cost less, decided and fixed in one scalar
pass per LEO (``MarginalObjective.keep``). Baselines: a single-controller
centralized scheme and a nearest-visible-controller greedy; the greedy and
every nearest-controller fallback measure only the (LEO, controller) pairs
in view. A brute-force enumerator serves as the small-instance optimality
oracle. Every partitioner takes the slot's ``SlotGeometry``: the slot, its
snapshot and its FOV products, each one (controller x LEO) boolean array.
Each builds its result as one controller-per-LEO array, the
``DomainAssignment.controller`` it returns.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Collection
from contextlib import suppress
from dataclasses import dataclass, field, replace

import numpy as np

from .constellation import NetworkSnapshot, Role, norm
from .corg import Corg, CorgWeights, build_corg, corg_edges, similarity
from .hungarian import InfeasibleMatchingError, solve_lexicographic
from .overhead import (
    ConstraintViolationError,
    OverheadParams,
    evaluate,
    hop_cost,
    validate_assignment,
)
from .spectral import kmeans, spectral_embedding
from .traffic import TrafficMatrix
from .visibility import OverlapRegion, SlotGeometry


class UncoverableLeoError(RuntimeError):
    """Some LEO switches are outside every controller's field of view."""

    def __init__(self, leo_ids: list[int]):
        self.leo_ids = leo_ids
        super().__init__(f"{len(leo_ids)} LEOs covered by no controller: {leo_ids[:10]}")


@dataclass(frozen=True, eq=False)
class DomainAssignment:
    """Controller assignment for one time slot.

    ``controller`` holds each LEO's controller id at the LEO's id, or -1 for
    a LEO that stays unmanaged for the slot (one that no controller sees),
    so every LEO sits in at most one domain by construction, and a domain is
    the set of LEOs that hold its controller's id. It is a read-only copy of
    the array given; a changed assignment comes from
    ``dataclasses.replace``. ``signature``, kept by eunomia for the next
    slot, holds each LEO's overlap-region controller mask (zeros outside
    every region), packed by ``np.packbits`` along the controller axis.
    """

    slot_index: int
    controller: np.ndarray
    fov_waived: bool = False
    relay_controller_ids: tuple[int, ...] = ()
    strategy: str = ""
    signature: np.ndarray | None = None

    def __post_init__(self) -> None:
        controller = np.array(self.controller, dtype=np.int64)
        controller.flags.writeable = False
        object.__setattr__(self, "controller", controller)

    def __setstate__(self, state: dict) -> None:
        # an array unpickled under protocols before 5 is writeable again
        self.__dict__.update(state)
        self.controller.flags.writeable = False

    @property
    def uncovered(self) -> tuple[int, ...]:
        """The unmanaged LEOs, in id order."""
        return tuple(np.flatnonzero(self.controller < 0).tolist())

    def to_rows(self) -> list[tuple[int, int, int]]:
        leos = np.flatnonzero(self.controller >= 0)
        ks = self.controller[leos].tolist()
        return list(zip(itertools.repeat(self.slot_index), leos.tolist(), ks))


@dataclass
class Cluster:
    member_leo_ids: tuple[int, ...]
    virtual_controller_id: int | None = None


@dataclass
class PartitionContext:
    """Everything the per-slot partitioners need besides the slot's geometry."""

    overhead_params: OverheadParams
    corg_weights: CorgWeights = field(default_factory=CorgWeights)
    lookahead_s: float = 30.0
    allow_uncovered: bool = False
    sigma: float | None = None
    greedy_cap: int | None = None


def step1_exclusive_assign(fov_domains: np.ndarray) -> np.ndarray:
    """Assign single-coverage LEOs to their only controller.

    Returns a controller-per-LEO array, as ``DomainAssignment.controller``,
    from the slot's (controller x LEO) FOV array: a LEO that exactly one
    controller sees holds that controller, every other LEO holds -1.
    """
    single = fov_domains.sum(axis=0) == 1
    return np.where(single, fov_domains.shape[1] + fov_domains.argmax(axis=0), -1)


def _by_distance(
    snapshot: NetworkSnapshot, nodes: list[int], candidates: np.ndarray, reach: np.ndarray
) -> list[list[int]]:
    """Each node's reachable ``candidates`` from the nearest to the farthest,
    ties by id, ranked from one node x candidate distance matrix. ``reach``
    is a boolean (candidate x node) array of the pairs allowed."""
    dist = norm(snapshot.positions[nodes][:, None] - snapshot.positions[candidates])
    dist[~reach.T] = np.inf  # the pairs out of reach rank last
    ranked = candidates[np.lexsort((np.broadcast_to(candidates, dist.shape), dist))].tolist()
    return [row[:n] for row, n in zip(ranked, reach.sum(axis=0).tolist())]


def _nearest(
    snapshot: NetworkSnapshot, nodes: list[int], candidates: np.ndarray, reach: np.ndarray
) -> list[int]:
    """Each node's nearest candidate, the lowest id on a tie, where ``reach``
    is a boolean (candidate x node) array of the pairs allowed, such as the
    controllers' FOV rows: ``_by_distance``'s first, from the distances of
    the allowed (node, candidate) pairs only."""
    if not nodes:
        return []
    k, a = np.divmod(np.flatnonzero(reach), len(nodes))
    k = np.asarray(candidates)[k]
    dist = norm(snapshot.positions[np.asarray(nodes)[a]] - snapshot.positions[k])
    # each node's least distance, then the lowest candidate id at it
    least = np.full(len(nodes), np.inf)
    np.minimum.at(least, a, dist)
    at_least = dist == least[a]
    none = len(snapshot.roles)  # above every node id
    best = np.full(len(nodes), none)
    np.minimum.at(best, a[at_least], k[at_least])
    if (best == none).any():
        raise ValueError("a node without candidates")
    return best.tolist()


def spectral_cluster(
    corg: Corg,
    m: int,
    snapshot: NetworkSnapshot,
    sigma: float | None = None,
) -> tuple[list[Cluster], bool]:
    """Cluster a CORG into m groups, one per virtual controller node.

    One eigensolve embeds the nodes of positive similarity degree, and a
    k-means anchored on the m virtual nodes groups them, so each cluster holds
    exactly one virtual node. LEOs of zero degree join the cluster of their
    nearest virtual node. Returns (clusters, fallback_used): a virtual node of
    zero degree cannot anchor a cluster, and then no clusters are returned and
    the caller falls back.
    """
    n_leo = len(corg.leo_ids)
    virtual_ids = corg.virtual_ids
    if len(virtual_ids) != m:
        raise ValueError(f"expected {m} virtual controller nodes, found {len(virtual_ids)}")

    weights = similarity(corg, sigma=sigma).values
    np.fill_diagonal(weights, 0.0)
    top = weights.max()
    if top > 0.0:
        # similarities this far below the strongest edge are numerically absent
        # and would overflow the normalized Laplacian's degree inversion
        weights[weights < 1e-15 * top] = 0.0
    degree = weights.sum(axis=1)
    if degree[n_leo:].min() <= 0.0:  # the virtual nodes follow the LEOs
        return [], True
    active = np.flatnonzero(degree > 0.0)
    if len(active) < len(degree):
        weights = weights[np.ix_(active, active)]
    _, embedding = spectral_embedding(weights, m)
    # the virtual nodes are the last m active rows
    labels = kmeans(embedding, np.arange(len(active) - m, len(active)))[:-m].tolist()

    members: list[list[int]] = [[] for _ in virtual_ids]
    for x, lab in zip(active[:-m].tolist(), labels):
        members[lab].append(corg.leo_ids[x])
    if len(active) < len(degree):  # LEOs of zero degree join the nearest virtual node
        leos = [corg.leo_ids[x] for x in np.setdiff1d(np.arange(n_leo), active).tolist()]
        near = _nearest(snapshot, leos, np.array(virtual_ids), np.ones((m, len(leos)), bool))
        for leo, k in zip(leos, near):
            members[virtual_ids.index(k)].append(leo)
    return [Cluster(tuple(sorted(ms)), k) for ms, k in zip(members, virtual_ids)], False


class MarginalObjective:
    """Prices giving LEOs to a controller by the rise in W_FLOW + lambda * W_CPT.

    The terms are those of ``overhead.evaluate``, taken against the domains
    already fixed in the slot: the managed LEOs of ``controller`` (a
    ``DomainAssignment.controller`` array) at construction, then every
    ``fix``. The flow term is each LEO's outbound rate times its one-hop
    control path (FOV containment makes every control path a direct link).
    The path-computation term follows each controller's domain size and
    intra-domain rate, kept as running sums, and the rates between the priced
    LEOs and the fixed domains. Those rates are read from the k x k traffic
    block among serving LEOs, whose rows and columns carry the fixed domains'
    labels, by one weighted ``np.bincount``; a LEO with no block row carries
    no traffic and is priced without an array operation. The outbound rates
    and hop costs are computed once, at construction, and only for the LEOs
    that may be priced (``priced``) and carry traffic; pricing any other LEO
    that carries traffic raises ValueError. Each controller's terms are then a
    few float operations, and ``keep`` decides keep-or-release on them, and
    fixes a kept LEO, without building an array.

    Inter-domain requests are priced at a fixed domain count, ``n_domains``
    (the partitioner passes the number of controllers that see any LEO).
    Pricing the count of domains fixed so far would charge the whole rise of
    f(#domains) to whichever cluster happens to open a domain first. Sync and
    migration terms are not priced: sync cost follows a domain's worst member
    rather than a sum, and a migration costs orders of magnitude less than
    the flow it moves. Traced on slot 1 of the ``default`` eunomia chain
    (240 s, gamma 1, a 15 s slot), ``overhead.migration_overhead`` charges
    one handover 6.7e-6 to 7.0e-6 over the 445 single moves inside an
    overlap region, against the slot's objective of 27.54 (2.5e-7 of it),
    nearly all of it the 1e-4 s of per-satellite processing spread over the
    slot; a W_MIG price would not steer a matching.
    """

    def __init__(
        self,
        traffic: TrafficMatrix,
        snapshot: NetworkSnapshot,
        params: OverheadParams,
        n_domains: int,
        controller: np.ndarray,
        priced: Collection[int],
    ):
        self.traffic = traffic
        self.lam = params.tradeoff_lambda
        self.n_leo = len(snapshot.leo_ids)
        ctrls = range(self.n_leo, len(snapshot.roles))  # controller k at column k - n_leo
        n_ctrl = len(ctrls)
        self.inv_cap = [1.0 / params.capacity_of(k, snapshot.roles[k]) for k in ctrls]
        self._inv_cap = np.array(self.inv_cap)
        self.inter_cpt = params.cpt_cost(n_domains)
        self.cpt = params.cpt_costs(len(traffic.leo_ids))
        # outbound rate and LEO x controller one-hop flow cost of each LEO of
        # ``priced`` (the LEOs the caller will price) that carries traffic, at
        # row hop_row[leo]; the other LEOs of ``priced`` share the last row,
        # zeros, as their zero outbound rate zeroes any finite hop cost. Any
        # other LEO has row -1, and pricing it with traffic raises
        priced = np.asarray(priced, dtype=np.int64)
        busy = priced[traffic.block_row[priced] >= 0]
        self.hop_row = np.full(len(traffic.leo_ids), -1)
        self.hop_row[priced] = len(busy)
        self.hop_row[busy] = np.arange(len(busy))
        self.outbound = np.append(traffic.outbound_of(busy), 0.0)
        self.hop = np.zeros((len(busy) + 1, n_ctrl))
        self.hop[:-1] = hop_cost(
            snapshot, params, busy[:, None], np.array(ctrls), params.m_fl_bytes
        )
        self.block_row = traffic.block_row.tolist()
        zeros = [0.0] * n_ctrl
        self._idle = ([], zeros, zeros, 0.0, 0.0, 0.0)  # no traffic

        # fixed domain of each block row (n_ctrl: not fixed), then of each
        # block column, offset by n_ctrl + 1: one bincount over them,
        # weighted by a row of the block followed by its column, gives the
        # rates to and then from every fixed domain
        leos = np.flatnonzero(controller >= 0)
        leos = leos[np.argsort(controller[leos], kind="stable")]  # by domain, then by id
        cols = controller[leos] - self.n_leo
        pos = traffic.block_row[leos]
        hit = np.flatnonzero(pos >= 0)
        p, c = pos[hit], cols[hit]
        label = np.full(len(traffic.active), n_ctrl)
        label[p] = c
        self.labels = np.concatenate([label, label + n_ctrl + 1])
        self.size = np.bincount(cols, minlength=n_ctrl).tolist()
        # each fixed LEO's rate from its own domain: its block column summed
        # over the domain's rows in order, by one bincount over the (row,
        # column) pairs within each domain's run of ``p``, column by column
        start = np.searchsorted(c, c)
        run = np.searchsorted(c, c, side="right") - start
        col = np.repeat(np.arange(len(c)), run)
        row = np.repeat(start - np.cumsum(run) + run, run) + np.arange(len(col))
        own = np.zeros(len(leos))
        own[hit] = np.bincount(col, weights=traffic.rates[p[row], p[col]], minlength=len(c))
        # summed over each domain's members in id order, the zeros where they sit
        bounds = np.cumsum([0] + self.size).tolist()
        self.intra = [float(own[lo:hi].sum()) for lo, hi in zip(bounds, bounds[1:])]

    def _flows(self, leos: tuple[int, ...]) -> tuple:
        """(block rows of the LEOs that carry traffic, their rate to each fixed
        domain, their rate from each fixed domain, the sum over domains of the
        rate from it times its inverse capacity, the sum of the rates to all
        domains, their rate among themselves)."""
        if len(leos) == 1:
            r = self.block_row[leos[0]]
            rows = [r] if r >= 0 else []
        else:
            pos = self.traffic.block_row[list(leos)]
            rows = pos[pos >= 0].tolist()
        if not rows:
            return self._idle
        rates = self.traffic.rates
        if len(rows) == 1:  # a sum of one row is that row, and zeros add nothing
            r = rows[0]
            lines, among = (rates[r], rates[:, r]), float(rates[r, r])
        else:  # C-order rows add one at a time, as in __init__
            to_leos = rates[rows].sum(axis=0)
            lines = (to_leos, rates.T[rows].sum(axis=0))
            among = float(np.where(pos >= 0, to_leos[pos], 0.0).sum())
        n = len(self.size)
        dom = np.bincount(self.labels, weights=np.concatenate(lines), minlength=2 * n + 2)
        to_dom, from_dom = dom[:n], dom[n + 1 : -1]
        both = dom.tolist()
        return (
            rows,
            both[:n],
            both[n + 1 : -1],
            float(from_dom @ self._inv_cap),
            float(to_dom.sum()),
            among,
        )

    def _flow_costs(self, leos: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """Outbound rates of ``leos``, and their one-hop flow cost rows to
        every controller."""
        if len(leos) == 1 and (r := self.hop_row[leos[0]]) >= 0:
            return self.outbound[r : r + 1], self.hop[r : r + 1]
        rows = self.hop_row[list(leos)]
        if (rows >= 0).all():
            return self.outbound[rows], self.hop[rows]
        raise ValueError(f"LEO {leos[int(np.argmin(rows))]} is not among the priced LEOs")

    def cost(self, leos: tuple[int, ...], controllers) -> np.ndarray:
        """Marginal objective of giving all of ``leos`` to each controller."""
        cols = [k - self.n_leo for k in controllers]
        if not leos:
            return np.zeros(len(cols))
        return np.array(self._prices(leos, self._flows(leos), cols))

    def keep(self, leo: int, k: int, controllers: tuple[int, ...]) -> bool:
        """Keep-or-release of one LEO in one scalar pass: fix ``leo`` at ``k``
        when ``cost((leo,), controllers)`` is lowest there, and say whether it
        was. The prices are Python floats, from one bincount for a LEO that
        carries traffic and from no array operation for one that does not."""
        cols = [c - self.n_leo for c in controllers]
        flows = self._flows((leo,))
        prices = self._prices((leo,), flows, cols)
        at = controllers.index(k)
        kept = prices[at] <= min(prices)
        if kept:
            self._fix((leo,), flows, cols[at])
        return kept

    def fix(self, leos: tuple[int, ...], controller: int) -> None:
        """Add ``leos`` to the controller's domain for all later prices."""
        if leos:
            self._fix(leos, self._flows(leos), controller - self.n_leo)

    def _prices(self, leos: tuple[int, ...], flows: tuple, cols: list[int]) -> list[float]:
        """``cost`` at the controller columns ``cols``, as Python floats, from
        the ``_flows`` of ``leos``."""
        rows, to_dom, from_dom, from_all, to_all, among = flows
        if not rows:  # no traffic, so no flow cost
            w_flow = [0.0] * len(cols)
        else:
            out, hop = self._flow_costs(leos)
            if len(leos) == 1:  # one product per controller, as the matmul of one row
                out, hop = float(out[0]), hop[0].tolist()
                w_flow = [out * hop[c] for c in cols]
            else:
                w_flow = (out @ hop[:, cols]).tolist()
        n, lam, inter_cpt, cpt = len(leos), self.lam, self.inter_cpt, self.cpt
        prices = []
        for w, c in zip(w_flow, cols):
            size, intra, inv_cap = self.size[c], self.intra[c], self.inv_cap[c]
            d_intra = (
                cpt[size + n] * (intra + to_dom[c] + from_dom[c] + among) - cpt[size] * intra
            ) * inv_cap
            # the fixed domains start sending to these LEOs, and they to all but their own
            d_inter = inter_cpt * (
                from_all - from_dom[c] * inv_cap + (to_all - to_dom[c]) * inv_cap
            )
            prices.append(w + lam * (d_intra + d_inter))
        return prices

    def _fix(self, leos: tuple[int, ...], flows: tuple, c: int) -> None:
        """``fix`` at the controller column ``c``, from the ``_flows`` of ``leos``."""
        rows, to_dom, from_dom, _, _, among = flows
        self.intra[c] += to_dom[c] + from_dom[c] + among
        self.size[c] += len(leos)
        for r in rows:
            self.labels[r] = c
            self.labels[r + len(self.traffic.active)] = c + len(self.size) + 1


def km_match(
    clusters: list[Cluster],
    controllers: list[int],
    fov_domains: np.ndarray,
    pricing: MarginalObjective,
) -> dict[int, int]:
    """Optimal cluster-to-controller matching on the marginal objective.

    A (cluster, controller) pair costs the rise in W_FLOW + lambda * W_CPT of
    giving the whole cluster to that controller, priced by ``pricing``
    against the domains already fixed in the slot. Pairs where any cluster
    member falls outside the controller's FOV are infeasible. Ties resolve to
    the lexicographically smallest matching.
    """
    if len(clusters) != len(controllers):
        raise ValueError("need exactly one controller per cluster")
    m = len(clusters)
    cost = np.zeros((m, m))
    seen = fov_domains[np.array(controllers) - fov_domains.shape[1]]
    for c, cluster in enumerate(clusters):
        cost[c] = pricing.cost(cluster.member_leo_ids, controllers)
        # a pair is infeasible when any member of the cluster is outside the controller's FOV
        cost[c, ~seen.take(cluster.member_leo_ids, axis=1).all(axis=1)] = np.inf
    match = solve_lexicographic(cost)
    return {c: controllers[kx] for c, kx in enumerate(match)}


def fine_tune_boundaries(
    assignment: DomainAssignment,
    geometry: SlotGeometry,
    ctx: PartitionContext,
) -> DomainAssignment:
    """Movement-aware boundary adjustment.

    A boundary LEO whose controller loses sight of it by the next sampling
    instant moves to an adjacent domain whose controller covers it now, at the
    next sample, and at the lookahead horizon, preferring the controller ahead
    along its flight direction. Each accepted move replaces a handover that
    was about to happen anyway, so moves never increase predicted handovers.
    """
    if ctx.lookahead_s <= 0 or geometry.future_fov is None:
        return assignment
    snapshot = geometry.slot.snapshot
    step_fov = geometry.step_fov
    n_leo = step_fov.shape[1]
    # the controllers that see each LEO now, at the next sample and at the horizon
    may_take = geometry.fov_domains & step_fov & geometry.future_fov

    graph = snapshot.topology.graph
    # only a LEO whose controller loses sight of it can move, and a move ends
    # that (its new controller sees it at the next sample), so each LEO moves
    # at most once; the other LEOs never change controller
    leos = np.flatnonzero(assignment.controller >= 0)
    rows = assignment.controller[leos] - n_leo
    if not ((rows >= 0) & (rows < len(step_fov))).all():
        raise ValueError("every domain must be keyed by a controller")
    leaving = leos[~step_fov[rows, leos]].tolist()
    controller = assignment.controller.tolist()  # a copy, edited in place
    changed = True
    while changed:
        changed = False
        for leo in leaving:
            k = controller[leo]
            if step_fov[k - n_leo, leo]:
                continue  # no imminent handover
            neighbor_ctrls = sorted(
                {
                    controller[nb]
                    for nb in graph.indices[graph.indptr[leo] : graph.indptr[leo + 1]].tolist()
                    if controller[nb] not in (-1, k)
                }
            )
            candidates = [k2 for k2 in neighbor_ctrls if may_take[k2 - n_leo, leo]]
            if not candidates:
                continue
            pos = snapshot.positions[candidates]
            latitude = np.degrees(np.arcsin(pos[:, 2] / norm(pos)))
            northbound = snapshot.velocities[leo][2] >= 0.0
            ahead = -latitude if northbound else latitude
            controller[leo] = candidates[np.lexsort((candidates, ahead))[0]]
            changed = True
    return replace(assignment, controller=controller)


def partition_slot(
    ctx: PartitionContext,
    geom: SlotGeometry,
    traffic_prev: TrafficMatrix,
    prev_assignment: DomainAssignment | None,
) -> DomainAssignment:
    """Full three-step partition of one slot.

    Single-coverage LEOs go to their only controller. A contested LEO whose
    previous controller still sees it, under an unchanged overlap signature
    (its region's controllers, against the previous assignment's
    ``signature``), keeps that controller unless another covering controller
    has a lower marginal objective (W_FLOW + lambda * W_CPT, see ``MarginalObjective``);
    migrations are thereby priced, not locked out. The remaining contested
    LEOs are spectrally clustered per overlap region, on CORGs taken from
    one slot edge table (``corg.corg_edges``), by a k-means anchored
    on the region's controllers (no seed, no random draw), and the clusters
    are matched to controllers on the same marginal objective. Where the
    clustering reports a fallback or no FOV-feasible matching exists, each
    LEO of the region goes to its nearest covering controller. Every price
    uses ``traffic_prev`` and the domains fixed so far in the slot. Boundary
    fine-tuning comes last.
    """
    snap = geom.slot.snapshot
    fov = geom.fov_domains
    n_leo = fov.shape[1]
    regions = geom.regions
    count = fov.sum(axis=0)
    if not ctx.allow_uncovered and not count.all():
        raise UncoverableLeoError(np.flatnonzero(count == 0).tolist())
    contested = np.flatnonzero(count >= 2)
    controller = step1_exclusive_assign(fov)

    n_domains = int(fov.any(axis=1).sum())
    pricing = MarginalObjective(
        traffic_prev, snap, ctx.overhead_params, n_domains, controller, contested
    )

    def give(leos: tuple[int, ...], k: int) -> None:
        controller[list(leos)] = k
        pricing.fix(leos, k)

    region_mask = np.zeros(fov.shape, dtype=bool)
    for region in regions:
        region_mask[np.ix_(np.array(region.controller_ids) - n_leo, list(region.leo_ids))] = True
    signature = np.packbits(region_mask, axis=0)

    if prev_assignment is not None and prev_assignment.signature is not None:
        # the contested LEOs whose previous controller still sees them, under
        # an unchanged overlap signature
        k_prev = prev_assignment.controller[contested]
        same = (prev_assignment.signature[:, contested] == signature[:, contested]).all(axis=0)
        held = np.flatnonzero(same & (k_prev >= 0))
        held = held[fov[k_prev[held] - n_leo, contested[held]]]
        leos, k_prev = contested[held], k_prev[held]
        # each one's covering controllers, in one pass over the slot
        at = np.flatnonzero(fov.T[leos])
        ctrl = (n_leo + at % len(fov)).tolist()
        bounds = np.searchsorted(at, len(fov) * np.arange(len(leos) + 1)).tolist()
        for leo, k, lo, hi in zip(leos.tolist(), k_prev.tolist(), bounds, bounds[1:]):
            if pricing.keep(leo, k, tuple(ctrl[lo:hi])):
                controller[leo] = k

    # every region's residual is fixed now, so the slot's CORG edges are costed at once
    residuals = []  # (LEOs in id order, the region they form) per region
    for region in regions:
        members = np.array(sorted(region.leo_ids))
        residual = tuple(members[controller[members] < 0].tolist())
        if residual:
            seen = fov.take(residual, axis=1).any(axis=1)
            ctrls = tuple((n_leo + np.flatnonzero(seen)).tolist())
            residuals.append((residual, OverlapRegion(frozenset(residual), ctrls)))
    edges = corg_edges(
        [sub for _, sub in residuals if len(sub.controller_ids) > 1],
        traffic_prev, snap, ctx.overhead_params, fov, ctx.corg_weights,
    )

    for residual, sub_region in residuals:
        ctrls = list(sub_region.controller_ids)
        if len(ctrls) == 1:
            give(residual, ctrls[0])
            continue
        corg = build_corg(sub_region, edges)
        clusters, degenerate = spectral_cluster(corg, len(ctrls), snap, sigma=ctx.sigma)
        match = None
        if not degenerate:
            with suppress(InfeasibleMatchingError):
                match = km_match(clusters, ctrls, fov, pricing)
        if match is None:
            # no clusters, or no FOV-feasible matching: each LEO goes to its
            # nearest covering controller
            ks = np.array(ctrls)
            reach = fov[ks - n_leo].take(residual, axis=1)
            for leo, k in zip(residual, _nearest(snap, list(residual), ks, reach)):
                give((leo,), k)
            continue
        for c, cluster in enumerate(clusters):
            give(cluster.member_leo_ids, match[c])

    assignment = DomainAssignment(
        slot_index=geom.slot.index,
        controller=controller,
        strategy="eunomia",
        signature=signature,
    )
    assignment = fine_tune_boundaries(assignment, geom, ctx)
    violations = validate_assignment(assignment, snap, fov)
    if violations:
        raise ConstraintViolationError(violations)
    return assignment


def odc_partition(ctx: PartitionContext, geom: SlotGeometry) -> DomainAssignment:
    """Centralized single-domain baseline: every LEO is managed by one
    designated ground station, reached over the global ISL graph via the
    nearest ground-station relay (documented FOV waiver)."""
    snap = geom.slot.snapshot
    gs_ids = tuple(k for k in snap.controller_ids if snap.roles[k] is Role.GS)
    central = gs_ids[0] if gs_ids else snap.controller_ids[0]
    relays = gs_ids if gs_ids else (central,)
    return DomainAssignment(
        slot_index=geom.slot.index,
        controller=np.full(len(snap.leo_ids), central),
        fov_waived=True,
        relay_controller_ids=relays,
        strategy="odc",
    )


def greedy_partition(ctx: PartitionContext, geom: SlotGeometry) -> DomainAssignment:
    """Nearest-visible-controller baseline with an optional per-controller
    domain-size cap; overflow spills to the next-nearest visible controller."""
    snap = geom.slot.snapshot
    fov = geom.fov_domains
    covered = fov.any(axis=0)
    uncovered = np.flatnonzero(~covered).tolist()
    if uncovered and not ctx.allow_uncovered:
        raise UncoverableLeoError(uncovered)

    leos = np.flatnonzero(covered).tolist()
    ks, reach = fov.shape[1] + np.arange(len(fov)), fov[:, covered]  # controller of each row
    controller = np.full(fov.shape[1], -1)
    if ctx.greedy_cap is None:
        controller[covered] = _nearest(snap, leos, ks, reach)
    else:
        load: dict[int, int] = {k: 0 for k in snap.controller_ids}
        for leo, ranked in zip(leos, _by_distance(snap, leos, ks, reach)):
            # the nearest controller under the cap; with every candidate at cap, the nearest
            chosen = next((k for k in ranked if load[k] < ctx.greedy_cap), ranked[0])
            controller[leo] = chosen
            load[chosen] += 1
    return DomainAssignment(slot_index=geom.slot.index, controller=controller, strategy="greedy")


BRUTE_FORCE_MAX_LEOS = 10
BRUTE_FORCE_MAX_COMBOS = 300_000


def brute_force_partition(
    ctx: PartitionContext,
    geom: SlotGeometry,
    traffic: TrafficMatrix,
    prev_assignment: DomainAssignment | None = None,
    slot_duration_s: float = 1.0,
) -> tuple[DomainAssignment, float]:
    """Exhaustive minimum-objective assignment for tiny instances.

    Enumerates every FOV-feasible assignment in lexicographic order and keeps
    the first one attaining the minimum objective. Oracle use only.
    """
    snap = geom.slot.snapshot
    fov = geom.fov_domains
    seen = fov.any(axis=0)
    covered = np.flatnonzero(seen)
    if len(covered) > BRUTE_FORCE_MAX_LEOS:
        raise ValueError(f"brute force capped at {BRUTE_FORCE_MAX_LEOS} LEOs")
    choice_lists = [(fov.shape[1] + np.flatnonzero(col)).tolist() for col in fov.T[seen]]
    n_combos = math.prod(len(c) for c in choice_lists)
    if n_combos > BRUTE_FORCE_MAX_COMBOS:
        raise ValueError(f"{n_combos} assignments exceed the enumeration cap")

    best_value = np.inf
    best: DomainAssignment | None = None
    controller = np.full(fov.shape[1], -1)
    for combo in itertools.product(*choice_lists):
        controller[covered] = combo
        candidate = DomainAssignment(
            slot_index=geom.slot.index, controller=controller, strategy="brute_force"
        )
        report = evaluate(
            candidate,
            traffic,
            snap,
            ctx.overhead_params,
            fov,
            prev_assignment=prev_assignment,
            slot_duration_s=slot_duration_s,
            validate=False,
        )
        if report.objective < best_value:
            best_value = report.objective
            best = candidate
    assert best is not None
    return best, float(best_value)

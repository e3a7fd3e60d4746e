"""Three-step movement-aware domain partitioning, baselines, and oracles.

The pipeline assigns single-coverage LEOs directly, spectrally clusters each
contested overlap region on its control-overhead relationship graph, matches
clusters to controllers with a Kuhn-Munkres solver, and finally nudges
boundary satellites along their flight direction to avoid imminent
field-of-view exits. Contested decisions are priced by the partitioning
objective itself, W_CTL + lambda * W_CPT of ``overhead.evaluate``: a matching
pair costs the rise in W_FLOW + lambda * W_CPT of giving the cluster to that
controller, and a contested LEO keeps last slot's controller only while no
other covering controller would cost less. Baselines: a single-controller
centralized scheme and a nearest-visible-controller greedy. A brute-force
enumerator serves as the small-instance optimality oracle.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from contextlib import suppress
from dataclasses import dataclass, field, fields, replace
from functools import cached_property, partial
from types import MappingProxyType

import numpy as np

from .constellation import Constellation, NetworkSnapshot, Role, norm
from .corg import Corg, CorgWeights, build_corg, similarity
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
from .visibility import (
    OverlapRegion,
    SlotGeometry,
    TimeSlot,
    build_slot_geometry,
)


class UncoverableLeoError(RuntimeError):
    """Some LEO switches are outside every controller's field of view."""

    def __init__(self, leo_ids: list[int]):
        self.leo_ids = leo_ids
        super().__init__(f"{len(leo_ids)} LEOs covered by no controller: {leo_ids[:10]}")


@dataclass(frozen=True)
class DomainAssignment:
    """Controller assignment for one time slot.

    ``domain_of`` maps every managed LEO to its controller; LEOs visible to no
    controller are listed in ``uncovered`` and stay unmanaged for the slot.
    An assignment is immutable: ``domain_of`` is a read-only view, the domain
    view is built once, and a changed copy comes from ``dataclasses.replace``.
    """

    slot_index: int
    domain_of: Mapping[int, int]
    uncovered: frozenset[int] = frozenset()
    fov_waived: bool = False
    relay_controller_ids: tuple[int, ...] = ()
    strategy: str = ""
    overlap_signature: dict[int, frozenset[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "domain_of", MappingProxyType(dict(self.domain_of)))

    def __reduce__(self):
        # a mappingproxy does not pickle; rebuild through __init__ from a dict
        state = {f.name: getattr(self, f.name) for f in fields(self)}
        state["domain_of"] = dict(self.domain_of)
        return partial(type(self), **state), ()

    def x(self, i: int, j: int) -> int:
        """Same-domain indicator for two LEOs."""
        if i == j:
            raise ValueError("x is defined for distinct satellites")
        a, b = self.domain_of.get(i), self.domain_of.get(j)
        return int(a is not None and a == b)

    def y(self, domain_controller: int, controller: int) -> int:
        """Domain-to-controller indicator; domains are keyed by controller."""
        return int(domain_controller == controller and domain_controller in self.domain_of.values())

    def domains(self) -> Mapping[int, tuple[int, ...]]:
        """Members of each domain in id order, keyed by controller in id order."""
        return self._domains

    @cached_property
    def _domains(self) -> Mapping[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {}
        for leo in sorted(self.domain_of):
            out.setdefault(self.domain_of[leo], []).append(leo)
        return MappingProxyType({k: tuple(v) for k, v in sorted(out.items())})

    def to_rows(self) -> list[tuple[int, int, int]]:
        return [(self.slot_index, leo, self.domain_of[leo]) for leo in sorted(self.domain_of)]


@dataclass
class Cluster:
    member_leo_ids: tuple[int, ...]
    virtual_controller_id: int | None = None


@dataclass
class PartitionContext:
    """Everything the per-slot partitioners need besides the slot itself."""

    constellation: Constellation
    thresholds: dict[Role, float]
    overhead_params: OverheadParams
    corg_weights: CorgWeights = field(default_factory=CorgWeights)
    lookahead_s: float = 30.0
    allow_uncovered: bool = False
    sigma: float | None = None
    greedy_cap: int | None = None


def step1_exclusive_assign(
    cover: dict[int, tuple[int, ...]],
    regions: list[OverlapRegion],
    all_leo_ids: tuple[int, ...] = (),
) -> tuple[dict[int, int], list[int], set[int]]:
    """Assign single-coverage LEOs to their only controller.

    Returns (assignments, uncoverable LEOs, contested LEOs left for clustering)
    from the slot's ``coverage_map``. LEOs in ``regions`` are exactly the
    multiply-covered ones; uncoverable ones are those of ``all_leo_ids``.
    """
    contested = {leo for r in regions for leo in r.leo_ids}
    assigned = {leo: ctrls[0] for leo, ctrls in cover.items() if len(ctrls) == 1}
    uncoverable = sorted(set(all_leo_ids) - cover.keys())
    return assigned, uncoverable, contested


def _by_distance(
    snapshot: NetworkSnapshot, nodes: list[int], candidates: Mapping[int, tuple[int, ...]]
) -> list[list[int]]:
    """Each node's ``candidates`` from the nearest to the farthest, ties by id,
    ranked from one node x candidate distance matrix."""
    ks = np.array(sorted({k for node in nodes for k in candidates[node]}), dtype=np.int64)
    dist = norm(snapshot.positions[nodes][:, None] - snapshot.positions[ks])
    ranked = ks[np.lexsort((np.broadcast_to(ks, dist.shape), dist))].tolist()
    return [[k for k in row if k in candidates[node]] for node, row in zip(nodes, ranked)]


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
    node_ids = list(corg.node_ids)
    index = {node: i for i, node in enumerate(node_ids)}
    virtual_idx = [index[v] for v in corg.virtual_ids]
    if len(virtual_idx) != m:
        raise ValueError(f"expected {m} virtual controller nodes, found {len(virtual_idx)}")

    weights = similarity(corg, sigma=sigma).values
    np.fill_diagonal(weights, 0.0)
    if weights.max() > 0.0:
        # similarities this far below the strongest edge are numerically absent
        # and would overflow the normalized Laplacian's degree inversion
        weights[weights < 1e-15 * weights.max()] = 0.0
    degree = weights.sum(axis=1)
    if np.any(degree[virtual_idx] <= 0.0):
        return [], True
    active = np.flatnonzero(degree > 0.0)
    _, embedding = spectral_embedding(weights[np.ix_(active, active)], m)
    labels = np.full(len(node_ids), -1)
    labels[active] = kmeans(embedding, np.searchsorted(active, virtual_idx))

    virtual_ids = corg.virtual_ids
    isolated = [node for node, lab in zip(node_ids, labels) if lab < 0]
    if isolated:
        pools = dict.fromkeys(isolated, virtual_ids)
        for leo, ranked in zip(isolated, _by_distance(snapshot, isolated, pools)):
            labels[index[leo]] = virtual_ids.index(ranked[0])
    members: dict[int, list[int]] = {k: [] for k in virtual_ids}
    for node, lab in zip(node_ids, labels):
        if not corg.virtual_flags[node]:
            members[virtual_ids[lab]].append(node)
    return [Cluster(tuple(sorted(members[k])), k) for k in virtual_ids], False


class MarginalObjective:
    """Prices giving LEOs to a controller by the rise in W_FLOW + lambda * W_CPT.

    The terms are those of ``overhead.evaluate``, taken against the domains
    already fixed in the slot: ``domain_of`` at construction, then every
    ``fix``. The flow term is each LEO's outbound rate times its one-hop
    control path (FOV containment makes every control path a direct link).
    The path-computation term follows each controller's domain size and
    intra-domain rate, kept as running sums, and the rates between the priced
    LEOs and the fixed domains, so one price costs one pass over the priced
    LEOs' traffic rows and columns.

    Inter-domain requests are priced at a fixed domain count, ``n_domains``
    (the partitioner passes the number of controllers that see any LEO).
    Pricing the count of domains fixed so far would charge the whole rise of
    f(#domains) to whichever cluster happens to open a domain first. Sync and
    migration terms are not priced: sync cost follows a domain's worst member
    rather than a sum, and a migration costs orders of magnitude less than
    the flow it moves.
    """

    def __init__(
        self,
        traffic: TrafficMatrix,
        snapshot: NetworkSnapshot,
        params: OverheadParams,
        n_domains: int,
        domain_of: dict[int, int],
    ):
        self.traffic = traffic
        self.lam = params.tradeoff_lambda
        ctrls = snapshot.controller_ids
        self.column = {k: c for c, k in enumerate(ctrls)}
        self.inv_cap = np.array([1.0 / params.capacity_of(k, snapshot.roles[k]) for k in ctrls])
        self.inter_cpt = params.cpt_cost(n_domains)
        self.cpt = np.array([params.cpt_cost(n) for n in range(len(traffic.leo_ids) + 1)])
        # LEO x controller one-hop flow cost
        leos = np.array(traffic.leo_ids)[:, None]
        self.hop = hop_cost(snapshot, params, leos, np.array(ctrls), params.m_fl_bytes)
        self.label = np.full(len(traffic.leo_ids), len(ctrls))  # len(ctrls): not fixed
        self.size = np.zeros(len(ctrls), dtype=int)
        self.intra = np.zeros(len(ctrls))
        # (leos, flows) of the last price: a LEO that is priced and then fixed
        # reuses them, since nothing was fixed in between
        self._last: tuple | None = None
        members: dict[int, list[int]] = {}
        for leo, k in domain_of.items():
            members.setdefault(self.column[k], []).append(leo)
        for c, idx in members.items():
            idx.sort()
            among = np.ascontiguousarray(traffic.rows(idx)[:, idx])  # C order, as np.ix_ gives
            self.intra[c] = float(among.sum(axis=0).sum())
            self.size[c] = len(idx)
            self.label[idx] = c

    def _flows(self, leos) -> tuple:
        """Indices of the LEOs, their outbound rates, and their rates to each
        fixed domain, from each fixed domain, and among themselves."""
        if self._last is not None and self._last[0] == leos:
            return self._last[1]
        idx = np.array(leos, dtype=int)
        flows = self._flows_of_one(idx) if idx.size == 1 else self._flows_of_many(idx)
        self._last = (leos, flows)
        return flows

    def _flows_of_many(self, idx: np.ndarray) -> tuple:
        n_ctrl = len(self.size)
        block = self.traffic.rows(idx)
        rows = block.sum(axis=0)
        cols = self.traffic.cols(idx).sum(axis=1)
        to_dom = np.bincount(self.label, weights=rows, minlength=n_ctrl + 1)[:n_ctrl]
        from_dom = np.bincount(self.label, weights=cols, minlength=n_ctrl + 1)[:n_ctrl]
        return idx, block.sum(axis=1), to_dom, from_dom, float(rows[idx].sum())

    def _flows_of_one(self, idx: np.ndarray) -> tuple:
        """``_flows_of_many`` for one LEO, from its row and column of the block:
        the |V|-wide ones add only zeros, which leave a sum of rates as it is."""
        n_ctrl = len(self.size)
        r = self.traffic.block_row[idx[0]]
        if r < 0:  # carries no traffic
            return idx, np.zeros(1), np.zeros(n_ctrl), np.zeros(n_ctrl), 0.0
        rates, label = self.traffic.rates, self.label[self.traffic.active]
        to_dom = np.bincount(label, weights=rates[r], minlength=n_ctrl + 1)[:n_ctrl]
        from_dom = np.bincount(label, weights=rates[:, r], minlength=n_ctrl + 1)[:n_ctrl]
        return idx, self.traffic.outbound_rates[idx], to_dom, from_dom, float(rates[r, r])

    def cost(self, leos: tuple[int, ...], controllers) -> np.ndarray:
        """Marginal objective of giving all of ``leos`` to each controller."""
        cols = np.array([self.column[k] for k in controllers], dtype=int)
        if not leos:
            return np.zeros(len(cols))
        idx, outbound, to_dom, from_dom, among = self._flows(leos)
        inv_cap = self.inv_cap[cols]
        size, intra = self.size[cols], self.intra[cols]
        w_flow = outbound @ self.hop[idx][:, cols]
        d_intra = (
            self.cpt[size + idx.size] * (intra + to_dom[cols] + from_dom[cols] + among)
            - self.cpt[size] * intra
        ) * inv_cap
        # the fixed domains start sending to these LEOs, and they to all but their own
        d_inter = self.inter_cpt * (
            float(from_dom @ self.inv_cap)
            - from_dom[cols] * inv_cap
            + (to_dom.sum() - to_dom[cols]) * inv_cap
        )
        return w_flow + self.lam * (d_intra + d_inter)

    def fix(self, leos: tuple[int, ...], controller: int) -> None:
        """Add ``leos`` to the controller's domain for all later prices."""
        if not leos:
            return
        c = self.column[controller]
        idx, _, to_dom, from_dom, among = self._flows(leos)
        self.intra[c] += to_dom[c] + from_dom[c] + among
        self.size[c] += idx.size
        self.label[idx] = c
        self._last = None


def km_match(
    clusters: list[Cluster],
    controllers: list[int],
    fov_domains: dict[int, frozenset[int]],
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
    for c, cluster in enumerate(clusters):
        cost[c] = pricing.cost(cluster.member_leo_ids, controllers)
        for kx, k in enumerate(controllers):
            if any(leo not in fov_domains[k] for leo in cluster.member_leo_ids):
                cost[c, kx] = np.inf
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
    if ctx.lookahead_s <= 0 or not geometry.future_fov:
        return assignment
    snapshot = geometry.slot.snapshot
    future_fov = geometry.future_fov
    step_fov = geometry.step_fov or future_fov
    now_fov = geometry.fov_domains

    domain_of = dict(assignment.domain_of)
    neighbors = snapshot.topology.neighbors
    budget = len(snapshot.leo_ids)
    moves = 0
    changed = True
    while changed and moves < budget:
        changed = False
        for leo in sorted(domain_of):
            if moves >= budget:
                break
            k = domain_of[leo]
            if leo in step_fov.get(k, frozenset()):
                continue  # no imminent handover
            neighbor_ctrls = sorted(
                {
                    domain_of[nb]
                    for nb in neighbors.get(leo, ())
                    if nb in domain_of and domain_of[nb] != k
                }
            )
            candidates = [
                k2
                for k2 in neighbor_ctrls
                if leo in now_fov.get(k2, frozenset())
                and leo in step_fov.get(k2, frozenset())
                and leo in future_fov.get(k2, frozenset())
            ]
            if not candidates:
                continue
            pos = snapshot.positions[candidates]
            latitude = np.degrees(np.arcsin(pos[:, 2] / norm(pos)))
            northbound = snapshot.velocities[leo][2] >= 0.0
            ahead = -latitude if northbound else latitude
            domain_of[leo] = candidates[np.lexsort((candidates, ahead))[0]]
            moves += 1
            changed = True
    return replace(assignment, domain_of=domain_of)


def partition_slot(
    ctx: PartitionContext,
    slot: TimeSlot,
    traffic_prev: TrafficMatrix,
    prev_assignment: DomainAssignment | None,
    geometry: SlotGeometry | None = None,
) -> DomainAssignment:
    """Full three-step partition of one slot.

    Single-coverage LEOs go to their only controller. A contested LEO whose
    previous controller still sees it, under an unchanged overlap signature,
    keeps that controller unless another covering controller has a lower
    marginal objective (W_FLOW + lambda * W_CPT, see ``MarginalObjective``);
    migrations are thereby priced, not locked out. The remaining contested
    LEOs are spectrally clustered per overlap region, by a k-means anchored
    on the region's controllers (no seed, no random draw), and the clusters
    are matched to controllers on the same marginal objective. Where the
    clustering reports a fallback or no FOV-feasible matching exists, each
    LEO of the region goes to its nearest covering controller. Every price
    uses ``traffic_prev`` and the domains fixed so far in the slot. Boundary
    fine-tuning comes last.
    """
    geom = geometry or build_slot_geometry(
        ctx.constellation, slot, ctx.thresholds, ctx.lookahead_s
    )
    snap = slot.snapshot
    fov = geom.fov_domains
    regions = geom.regions
    cover = geom.cover
    assigned, uncovered, contested = step1_exclusive_assign(cover, regions, snap.leo_ids)
    if uncovered and not ctx.allow_uncovered:
        raise UncoverableLeoError(uncovered)

    n_domains = sum(1 for members in fov.values() if members)
    pricing = MarginalObjective(traffic_prev, snap, ctx.overhead_params, n_domains, assigned)

    def give(leos: tuple[int, ...], k: int) -> None:
        for leo in leos:
            assigned[leo] = k
        pricing.fix(leos, k)

    signature = {leo: frozenset(r.controller_ids) for r in regions for leo in r.leo_ids}

    if prev_assignment is not None:
        for leo in sorted(contested):
            k_prev = prev_assignment.domain_of.get(leo)
            if (
                k_prev is not None
                and k_prev in cover[leo]
                and prev_assignment.overlap_signature.get(leo) == signature[leo]
            ):
                ks = list(cover[leo])
                costs = pricing.cost((leo,), ks)
                if costs[ks.index(k_prev)] <= costs.min():
                    give((leo,), k_prev)

    for region in regions:
        residual = tuple(sorted(set(region.leo_ids) - assigned.keys()))
        if not residual:
            continue
        ctrls = sorted({k for leo in residual for k in cover[leo]})
        if len(ctrls) == 1:
            give(residual, ctrls[0])
            continue
        sub_region = OverlapRegion(frozenset(residual), tuple(ctrls))
        corg = build_corg(
            sub_region, traffic_prev, snap, ctx.overhead_params, fov, ctx.corg_weights
        )
        clusters, degenerate = spectral_cluster(corg, len(ctrls), snap, sigma=ctx.sigma)
        match = None
        if not degenerate:
            with suppress(InfeasibleMatchingError):
                match = km_match(clusters, ctrls, fov, pricing)
        if match is None:
            # no clusters, or no FOV-feasible matching: each LEO goes to its
            # nearest covering controller
            for leo, ranked in zip(residual, _by_distance(snap, list(residual), cover)):
                give((leo,), ranked[0])
            continue
        for c, cluster in enumerate(clusters):
            give(cluster.member_leo_ids, match[c])

    assignment = DomainAssignment(
        slot_index=slot.index,
        domain_of=assigned,
        uncovered=frozenset(uncovered),
        strategy="eunomia",
        overlap_signature=signature,
    )
    assignment = fine_tune_boundaries(assignment, geom, ctx)
    violations = validate_assignment(assignment, snap, fov)
    if violations:
        raise ConstraintViolationError(violations)
    return assignment


def odc_partition(ctx: PartitionContext, slot: TimeSlot) -> DomainAssignment:
    """Centralized single-domain baseline: every LEO is managed by one
    designated ground station, reached over the global ISL graph via the
    nearest ground-station relay (documented FOV waiver)."""
    snap = slot.snapshot
    gs_ids = tuple(k for k in snap.controller_ids if snap.roles[k] is Role.GS)
    central = gs_ids[0] if gs_ids else snap.controller_ids[0]
    relays = gs_ids if gs_ids else (central,)
    return DomainAssignment(
        slot_index=slot.index,
        domain_of={leo: central for leo in snap.leo_ids},
        fov_waived=True,
        relay_controller_ids=relays,
        strategy="odc",
    )


def greedy_partition(
    ctx: PartitionContext, slot: TimeSlot, geometry: SlotGeometry | None = None
) -> DomainAssignment:
    """Nearest-visible-controller baseline with an optional per-controller
    domain-size cap; overflow spills to the next-nearest visible controller."""
    snap = slot.snapshot
    geom = geometry or build_slot_geometry(ctx.constellation, slot, ctx.thresholds)
    cover = geom.cover
    uncovered = sorted(set(snap.leo_ids) - cover.keys())
    if uncovered and not ctx.allow_uncovered:
        raise UncoverableLeoError(uncovered)

    load: dict[int, int] = {k: 0 for k in snap.controller_ids}
    assigned: dict[int, int] = {}
    leos = [leo for leo in sorted(snap.leo_ids) if leo in cover]
    for leo, ranked in zip(leos, _by_distance(snap, leos, cover)):
        # the nearest controller under the cap; with every candidate at cap, the nearest
        chosen = next(
            (k for k in ranked if ctx.greedy_cap is None or load[k] < ctx.greedy_cap), ranked[0]
        )
        assigned[leo] = chosen
        load[chosen] += 1
    return DomainAssignment(
        slot_index=slot.index,
        domain_of=assigned,
        uncovered=frozenset(uncovered),
        strategy="greedy",
    )


BRUTE_FORCE_MAX_LEOS = 10
BRUTE_FORCE_MAX_COMBOS = 300_000


def brute_force_partition(
    ctx: PartitionContext,
    slot: TimeSlot,
    traffic: TrafficMatrix,
    prev_assignment: DomainAssignment | None = None,
    slot_duration_s: float = 1.0,
    geometry: SlotGeometry | None = None,
) -> tuple[DomainAssignment, float]:
    """Exhaustive minimum-objective assignment for tiny instances.

    Enumerates every FOV-feasible assignment in lexicographic order and keeps
    the first one attaining the minimum objective. Oracle use only.
    """
    snap = slot.snapshot
    geom = geometry or build_slot_geometry(ctx.constellation, slot, ctx.thresholds)
    fov = geom.fov_domains
    cover = geom.cover
    uncovered = sorted(set(snap.leo_ids) - cover.keys())
    covered = [leo for leo in snap.leo_ids if leo in cover]
    if len(covered) > BRUTE_FORCE_MAX_LEOS:
        raise ValueError(f"brute force capped at {BRUTE_FORCE_MAX_LEOS} LEOs")
    choice_lists = [sorted(cover[leo]) for leo in covered]
    n_combos = math.prod(len(c) for c in choice_lists)
    if n_combos > BRUTE_FORCE_MAX_COMBOS:
        raise ValueError(f"{n_combos} assignments exceed the enumeration cap")

    best_value = np.inf
    best: DomainAssignment | None = None
    for combo in itertools.product(*choice_lists):
        candidate = DomainAssignment(
            slot_index=slot.index,
            domain_of=dict(zip(covered, combo)),
            uncovered=frozenset(uncovered),
            strategy="brute_force",
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

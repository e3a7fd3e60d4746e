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
from dataclasses import dataclass, field, replace

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
    FovDomain,
    OverlapRegion,
    SlotGeometry,
    TimeSlot,
    build_slot_geometry,
    coverage_map,
)


class UncoverableLeoError(RuntimeError):
    """Some LEO switches are outside every controller's field of view."""

    def __init__(self, leo_ids: list[int]):
        self.leo_ids = leo_ids
        super().__init__(f"{len(leo_ids)} LEOs covered by no controller: {leo_ids[:10]}")


@dataclass
class DomainAssignment:
    """Controller assignment for one time slot.

    ``domain_of`` maps every managed LEO to its controller; LEOs visible to no
    controller are listed in ``uncovered`` and stay unmanaged for the slot.
    """

    slot_index: int
    domain_of: dict[int, int]
    uncovered: frozenset[int] = frozenset()
    fov_waived: bool = False
    relay_controller_ids: tuple[int, ...] = ()
    strategy: str = ""
    overlap_signature: dict[int, frozenset[int]] = field(default_factory=dict)

    def x(self, i: int, j: int) -> int:
        """Same-domain indicator for two LEOs."""
        if i == j:
            raise ValueError("x is defined for distinct satellites")
        a, b = self.domain_of.get(i), self.domain_of.get(j)
        return int(a is not None and a == b)

    def y(self, domain_controller: int, controller: int) -> int:
        """Domain-to-controller indicator; domains are keyed by controller."""
        return int(domain_controller == controller and domain_controller in self.domain_of.values())

    def domains(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {}
        for leo in sorted(self.domain_of):
            out.setdefault(self.domain_of[leo], []).append(leo)
        return {k: tuple(v) for k, v in sorted(out.items())}

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
    fov_domains: list[FovDomain],
    regions: list[OverlapRegion],
    all_leo_ids: tuple[int, ...] = (),
) -> tuple[dict[int, int], list[int], set[int]]:
    """Assign single-coverage LEOs to their only controller.

    Returns (assignments, uncoverable LEOs, contested LEOs left for clustering).
    LEOs in ``regions`` are exactly the multiply-covered ones; uncoverable ones
    are those of ``all_leo_ids`` seen by no controller.
    """
    cover = coverage_map(fov_domains)
    contested = {leo for r in regions for leo in r.leo_ids}
    assigned: dict[int, int] = {}
    for leo, ctrls in cover.items():
        if len(ctrls) == 1:
            assigned[leo] = ctrls[0]
    uncoverable = sorted(set(all_leo_ids) - cover.keys())
    return assigned, uncoverable, contested


def _by_distance(snapshot: NetworkSnapshot, node: int, candidates) -> list[int]:
    """``candidates`` from the nearest to ``node`` to the farthest, ties by id."""
    ks = np.array(candidates)
    dist = norm(snapshot.positions[node] - snapshot.positions[ks])
    return ks[np.lexsort((ks, dist))].tolist()


def _uncovered_leos(snapshot: NetworkSnapshot, fov_domains: list[FovDomain]) -> list[int]:
    covered = set()
    for d in fov_domains:
        covered |= d.member_leo_ids
    return sorted(set(snapshot.leo_ids) - covered)


def spectral_cluster(
    corg: Corg,
    m: int,
    seed: int,
    snapshot: NetworkSnapshot,
    sigma: float | None = None,
) -> tuple[list[Cluster], bool]:
    """Cluster a CORG into m groups, one per virtual controller node.

    When k-means lands two virtual nodes in one cluster, the most-similar edge
    incident to a conflicted virtual node is removed and clustering reruns.
    Returns (clusters, fallback_used); the fallback assigns every LEO to its
    nearest in-FOV controller.
    """
    node_ids = list(corg.node_ids)
    n = len(node_ids)
    index = {node: i for i, node in enumerate(node_ids)}
    virtual_idx = [index[v] for v in corg.virtual_ids]
    if len(virtual_idx) != m:
        raise ValueError(f"expected {m} virtual controller nodes, found {len(virtual_idx)}")

    sim = similarity(corg, sigma=sigma)
    weights = sim.values.copy()
    np.fill_diagonal(weights, 0.0)
    if weights.max() > 0.0:
        # similarities this far below the strongest edge are numerically absent
        # and would overflow the normalized Laplacian's degree inversion
        weights[weights < 1e-15 * weights.max()] = 0.0

    for _attempt in range(n + 1):
        degree = weights.sum(axis=1)
        if any(degree[v] <= 0.0 for v in virtual_idx):
            break
        active = np.nonzero(degree > 0.0)[0]
        if len(active) < m:
            break
        _, embedding = spectral_embedding(weights[np.ix_(active, active)], m)
        labels = kmeans(embedding, m, seed)

        label_of: dict[int, int] = {int(a): int(l) for a, l in zip(active, labels)}
        virtuals_by_label: dict[int, list[int]] = {}
        for v in virtual_idx:
            virtuals_by_label.setdefault(label_of[v], []).append(v)
        conflicted = sorted(
            v for vs in virtuals_by_label.values() if len(vs) > 1 for v in vs
        )
        if not conflicted:
            clusters = []
            for label in range(m):
                v = virtuals_by_label[label][0]
                ctrl = node_ids[v]
                members = sorted(
                    node_ids[i]
                    for i, lab in label_of.items()
                    if lab == label and not corg.virtual_flags[node_ids[i]]
                )
                # isolated LEOs rejoin the cluster of their nearest controller
                for i in range(n):
                    if i not in label_of and not corg.virtual_flags[node_ids[i]]:
                        if _by_distance(snapshot, node_ids[i], corg.virtual_ids)[0] == ctrl:
                            members.append(node_ids[i])
                clusters.append(Cluster(tuple(sorted(members)), virtual_controller_id=ctrl))
            return clusters, False

        # drop the most-similar edge touching a conflicted virtual node
        best: tuple[float, tuple[int, int]] | None = None
        for v in conflicted:
            for other in range(n):
                w = weights[v, other]
                if w > 0.0:
                    key = (min(v, other), max(v, other))
                    if best is None or w > best[0] or (w == best[0] and key < best[1]):
                        best = (w, key)
        if best is None:
            break
        a, b = best[1]
        weights[a, b] = 0.0
        weights[b, a] = 0.0

    return _nearest_controller_clusters(corg, snapshot), True


def _nearest_controller_clusters(corg: Corg, snapshot: NetworkSnapshot) -> list[Cluster]:
    """Fallback grouping: each LEO joins its geodesically nearest in-FOV controller."""
    groups: dict[int, list[int]] = {k: [] for k in corg.virtual_ids}
    for node in corg.node_ids:
        if corg.virtual_flags[node]:
            continue
        covering = [k for k in corg.virtual_ids if corg.xi(node, k) is not None]
        pool = covering or list(corg.virtual_ids)
        groups[_by_distance(snapshot, node, pool)[0]].append(node)
    return [Cluster(tuple(sorted(groups[k])), virtual_controller_id=k) for k in corg.virtual_ids]


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
        self.rates = traffic.rates
        self.index_of = traffic.index_of
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
            members.setdefault(self.column[k], []).append(self.index_of[leo])
        for c, idx in members.items():
            idx.sort()
            self.intra[c] = float(self.rates[np.ix_(idx, idx)].sum(axis=0).sum())
            self.size[c] = len(idx)
            self.label[idx] = c

    def _flows(self, leos) -> tuple:
        """Indices of the LEOs, their outbound rates, and their rates to each
        fixed domain, from each fixed domain, and among themselves."""
        if self._last is not None and self._last[0] == leos:
            return self._last[1]
        n_ctrl = len(self.size)
        idx = np.array([self.index_of[i] for i in leos], dtype=int)
        block = self.rates[idx]
        rows = block.sum(axis=0)
        cols = self.rates[:, idx].sum(axis=1)
        to_dom = np.bincount(self.label, weights=rows, minlength=n_ctrl + 1)[:n_ctrl]
        from_dom = np.bincount(self.label, weights=cols, minlength=n_ctrl + 1)[:n_ctrl]
        flows = (idx, block.sum(axis=1), to_dom, from_dom, float(rows[idx].sum()))
        self._last = (leos, flows)
        return flows

    def cost(self, leos: tuple[int, ...], controllers) -> np.ndarray:
        """Marginal objective of giving all of ``leos`` to each controller."""
        cols = np.array([self.column[k] for k in controllers], dtype=int)
        if not leos:
            return np.zeros(len(cols))
        idx, outbound, to_dom, from_dom, among = self._flows(leos)
        inv_cap = self.inv_cap[cols]
        size, intra = self.size[cols], self.intra[cols]
        w_flow = outbound @ self.hop[np.ix_(idx, cols)]
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
    fov_domains: list[FovDomain],
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
    fov = {d.controller_id: d.member_leo_ids for d in fov_domains}
    m = len(clusters)
    cost = np.zeros((m, m))
    for c, cluster in enumerate(clusters):
        cost[c] = pricing.cost(cluster.member_leo_ids, controllers)
        for kx, k in enumerate(controllers):
            if any(leo not in fov[k] for leo in cluster.member_leo_ids):
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
    now_fov = {d.controller_id: d.member_leo_ids for d in geometry.fov_domains}

    domain_of = dict(assignment.domain_of)
    neighbors = snapshot.neighbors
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
    seed: int,
    geometry: SlotGeometry | None = None,
) -> DomainAssignment:
    """Full three-step partition of one slot.

    Single-coverage LEOs go to their only controller. A contested LEO whose
    previous controller still sees it, under an unchanged overlap signature,
    keeps that controller unless another covering controller has a lower
    marginal objective (W_FLOW + lambda * W_CPT, see ``MarginalObjective``);
    migrations are thereby priced, not locked out. The remaining contested
    LEOs are spectrally clustered per overlap region and the clusters are
    matched to controllers on the same marginal objective. Every price uses
    ``traffic_prev`` and the domains fixed so far in the slot. Boundary
    fine-tuning comes last.
    """
    geom = geometry or build_slot_geometry(
        ctx.constellation, slot, ctx.thresholds, ctx.lookahead_s
    )
    snap = slot.snapshot
    fov = geom.fov_domains
    regions = geom.regions
    uncovered = _uncovered_leos(snap, fov)
    if uncovered and not ctx.allow_uncovered:
        raise UncoverableLeoError(uncovered)

    assigned, _, contested = step1_exclusive_assign(fov, regions, snap.leo_ids)
    cover = coverage_map(fov)
    fov_map = {d.controller_id: d.member_leo_ids for d in fov}
    n_domains = sum(1 for d in fov if d.member_leo_ids)
    pricing = MarginalObjective(traffic_prev, snap, ctx.overhead_params, n_domains, assigned)

    def give(leos: tuple[int, ...], k: int) -> None:
        for leo in leos:
            assigned[leo] = k
        pricing.fix(leos, k)

    signature: dict[int, frozenset[int]] = {}
    for region in regions:
        sig = frozenset(region.controller_ids)
        for leo in region.leo_ids:
            signature[leo] = sig

    if prev_assignment is not None:
        for leo in sorted(contested):
            k_prev = prev_assignment.domain_of.get(leo)
            if (
                k_prev is not None
                and leo in fov_map.get(k_prev, frozenset())
                and prev_assignment.overlap_signature.get(leo) == signature[leo]
            ):
                ks = list(cover[leo])
                costs = pricing.cost((leo,), ks)
                if costs[ks.index(k_prev)] <= costs.min():
                    give((leo,), k_prev)

    for ridx, region in enumerate(regions):
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
        clusters, used_fallback = spectral_cluster(
            corg, len(ctrls), seed * 1000003 + ridx, snap, sigma=ctx.sigma
        )
        if used_fallback:
            for cluster in clusters:
                give(cluster.member_leo_ids, cluster.virtual_controller_id)  # type: ignore[arg-type]
            continue
        try:
            match = km_match(clusters, ctrls, fov, pricing)
        except InfeasibleMatchingError:
            for leo in residual:
                give((leo,), _by_distance(snap, leo, cover[leo])[0])
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
    gs_ids = tuple(
        k for k in snap.controller_ids if snap.roles[k] is Role.GS
    )
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
    fov = geom.fov_domains
    cover = coverage_map(fov)
    uncovered = _uncovered_leos(snap, fov)
    if uncovered and not ctx.allow_uncovered:
        raise UncoverableLeoError(uncovered)

    load: dict[int, int] = {k: 0 for k in snap.controller_ids}
    assigned: dict[int, int] = {}
    for leo in sorted(snap.leo_ids):
        ctrls = cover.get(leo)
        if not ctrls:
            continue
        ranked = _by_distance(snap, leo, ctrls)
        chosen = None
        for k in ranked:
            if ctx.greedy_cap is None or load[k] < ctx.greedy_cap:
                chosen = k
                break
        if chosen is None:
            chosen = ranked[0]  # every candidate at cap: overload the nearest
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
    cover = coverage_map(fov)
    uncovered = _uncovered_leos(snap, fov)
    covered = [leo for leo in snap.leo_ids if leo in cover]
    if len(covered) > BRUTE_FORCE_MAX_LEOS:
        raise ValueError(f"brute force capped at {BRUTE_FORCE_MAX_LEOS} LEOs")
    choice_lists = [sorted(cover[leo]) for leo in covered]
    n_combos = 1
    for c in choice_lists:
        n_combos *= len(c)
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

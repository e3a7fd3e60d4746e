import itertools
import math

import numpy as np
import pytest

from eunomia.corg import Corg, similarity
from eunomia.constellation import Role
from eunomia.hungarian import InfeasibleMatchingError
from eunomia.overhead import OverheadParams, control_routes, evaluate, validate_assignment
from eunomia.partition import (
    Cluster,
    DomainAssignment,
    MarginalObjective,
    PartitionContext,
    UncoverableLeoError,
    brute_force_partition,
    fine_tune_boundaries,
    greedy_partition,
    km_match,
    odc_partition,
    partition_slot,
    spectral_cluster,
    step1_exclusive_assign,
)
from eunomia.traffic import TrafficMatrix
from eunomia.visibility import (
    FovDomain,
    OverlapRegion,
    SlotGeometry,
    build_slot_geometry,
    compute_fov_domains,
    compute_overlap_regions,
    coverage_map,
)

from conftest import make_ring_snapshot, make_slot


def _traffic(snap, entries=None, rng=None, scale=1.0):
    n = len(snap.leo_ids)
    rates = np.zeros((n, n))
    if entries:
        for (i, j), lam in entries.items():
            rates[i, j] = lam
    if rng is not None:
        rates = rng.uniform(0.0, scale, size=(n, n))
        np.fill_diagonal(rates, 0.0)
    return TrafficMatrix(slot_index=0, leo_ids=snap.leo_ids, rates=rates)


def _toy_ctx(thresholds=None, lookahead=0.0):
    return PartitionContext(
        constellation=None,
        thresholds=thresholds or {Role.MEO: 0.0, Role.GS: 0.0},
        overhead_params=OverheadParams(),
        lookahead_s=lookahead,
        allow_uncovered=True,
    )


# ---------------------------------------------------------------- step 1


def test_step1_disjoint_fovs_assign_everything():
    fov = [FovDomain(10, frozenset({0, 1})), FovDomain(11, frozenset({2, 3}))]
    assigned, uncovered, contested = step1_exclusive_assign(fov, [], (0, 1, 2, 3))
    assert assigned == {0: 10, 1: 10, 2: 11, 3: 11}
    assert uncovered == []
    assert contested == set()


def test_step1_contested_leo_left_unassigned():
    fov = [FovDomain(10, frozenset({0, 1})), FovDomain(11, frozenset({1}))]
    regions = [OverlapRegion(frozenset({1}), (10, 11))]
    assigned, uncovered, contested = step1_exclusive_assign(fov, regions, (0, 1, 2))
    assert assigned == {0: 10}
    assert uncovered == [2]
    assert contested == {1}


def test_step1_matches_coverage_oracle(desk_scenario_short):
    geom = desk_scenario_short.geometries[0]
    assigned, uncovered, contested = step1_exclusive_assign(
        geom.fov_domains, geom.regions, geom.slot.snapshot.leo_ids
    )
    cover = coverage_map(geom.fov_domains)
    for leo in geom.slot.snapshot.leo_ids:
        ks = cover.get(leo, ())
        if len(ks) == 1:
            assert assigned[leo] == ks[0]
        elif len(ks) == 0:
            assert leo in uncovered
        else:
            assert leo in contested


# ------------------------------------------------------- spectral clustering


def _synthetic_positions(node_ids):
    """(max id + 1, 3) positions indexed by node id; unused rows stay zero."""
    snap_positions = np.zeros((max(node_ids) + 1, 3))
    for i, node in enumerate(node_ids):
        snap_positions[node] = np.array([7000.0 + 10.0 * i, float(i), 0.0])
    return snap_positions


class _FakeSnap:
    def __init__(self, node_ids):
        self.positions = _synthetic_positions(node_ids)


def _barbell_corg(bridge_cost=3.0, seed=0):
    rng = np.random.default_rng(seed)
    edges = {}
    group_a, group_b = (0, 1, 2), (3, 4, 5)
    for grp in (group_a, group_b):
        for a, b in itertools.combinations(grp, 2):
            edges[(a, b)] = float(rng.uniform(0.05, 0.15))
    edges[(2, 3)] = bridge_cost
    for leo in group_a:
        edges[(leo, 100)] = float(rng.uniform(0.05, 0.2))
    for leo in group_b:
        edges[(leo, 101)] = float(rng.uniform(0.05, 0.2))
    return Corg(
        node_ids=(0, 1, 2, 3, 4, 5, 100, 101),
        edges=edges,
        virtual_flags={**{i: False for i in range(6)}, 100: True, 101: True},
    )


def _ncut_oracle(corg):
    """Exhaustive minimum normalized cut with the virtual nodes pinned."""
    sim = similarity(corg)
    w = sim.values.copy()
    np.fill_diagonal(w, 0.0)
    index = {node: i for i, node in enumerate(corg.node_ids)}
    leos = [n for n in corg.node_ids if not corg.virtual_flags[n]]
    v1, v2 = corg.virtual_ids
    best, best_split = np.inf, None
    for mask in range(2 ** len(leos)):
        side_a = {v1} | {leos[i] for i in range(len(leos)) if mask >> i & 1}
        side_b = set(corg.node_ids) - side_a
        ia = [index[n] for n in side_a]
        ib = [index[n] for n in side_b]
        cut = w[np.ix_(ia, ib)].sum()
        vol_a, vol_b = w[ia].sum(), w[ib].sum()
        if vol_a <= 0 or vol_b <= 0:
            continue
        ncut = cut / vol_a + cut / vol_b
        if ncut < best - 1e-12:
            best, best_split = ncut, frozenset(side_a - {v1})
    return best_split


def test_spectral_cluster_matches_ncut_oracle_on_barbell():
    corg = _barbell_corg()
    snap = _FakeSnap(corg.node_ids)
    clusters, fallback = spectral_cluster(corg, 2, seed=7, snapshot=snap)
    assert not fallback
    split = {frozenset(c.member_leo_ids) for c in clusters}
    oracle_side = _ncut_oracle(corg)
    assert oracle_side in split


def test_spectral_cluster_recovers_disconnected_components():
    edges = {
        (0, 1): 0.5,
        (0, 100): 0.3,
        (1, 100): 0.4,
        (2, 3): 0.5,
        (2, 101): 0.3,
        (3, 101): 0.2,
    }
    corg = Corg(
        node_ids=(0, 1, 2, 3, 100, 101),
        edges=edges,
        virtual_flags={0: False, 1: False, 2: False, 3: False, 100: True, 101: True},
    )
    clusters, fallback = spectral_cluster(corg, 2, seed=3, snapshot=_FakeSnap(corg.node_ids))
    assert not fallback
    split = {frozenset(c.member_leo_ids): c.virtual_controller_id for c in clusters}
    assert split[frozenset({0, 1})] == 100
    assert split[frozenset({2, 3})] == 101


def test_spectral_cluster_requires_matching_virtual_count():
    corg = _barbell_corg()
    snap = _FakeSnap(corg.node_ids)
    with pytest.raises(ValueError):
        spectral_cluster(corg, 3, seed=1, snapshot=snap)


# --------------------------------------------------------------- KM matching


def _pricing(snap):
    """Pricing against no fixed domains under uniform all-pairs traffic."""
    n = len(snap.leo_ids)
    tm = _traffic(snap, {(i, j): 1.0 for i in range(n) for j in range(n) if i != j})
    return MarginalObjective(tm, snap, OverheadParams(), len(snap.controller_ids), {})


def test_km_match_single_pair():
    snap = make_ring_snapshot(n_leo=2, ctrl_lons=(0.0,))
    k = snap.controller_ids[0]
    fov = [FovDomain(k, frozenset({0, 1}))]
    clusters = [Cluster((0, 1), k)]
    assert km_match(clusters, [k], fov, _pricing(snap)) == {0: k}


def test_km_match_prefers_nearby_controllers():
    snap = make_ring_snapshot(n_leo=4, leo_lons=(0.0, 10.0, 170.0, 180.0),
                              ctrl_lons=(5.0, 175.0))
    k1, k2 = snap.controller_ids
    fov = [FovDomain(k1, frozenset(snap.leo_ids)), FovDomain(k2, frozenset(snap.leo_ids))]
    clusters = [
        Cluster((2, 3), k1),
        Cluster((0, 1), k2),
    ]
    match = km_match(clusters, [k1, k2], fov, _pricing(snap))
    assert match == {0: k2, 1: k1}


def test_km_match_respects_fov_infeasibility():
    snap = make_ring_snapshot(n_leo=2, ctrl_lons=(0.0, 180.0))
    k1, k2 = snap.controller_ids
    fov = [FovDomain(k1, frozenset({0})), FovDomain(k2, frozenset({0, 1}))]
    clusters = [
        Cluster((0,), k1),
        Cluster((1,), k2),
    ]
    match = km_match(clusters, [k1, k2], fov, _pricing(snap))
    assert match[1] == k2  # cluster with LEO 1 can only go to k2


def test_km_match_raises_when_no_perfect_matching():
    snap = make_ring_snapshot(n_leo=2, ctrl_lons=(0.0, 180.0))
    k1, k2 = snap.controller_ids
    fov = [FovDomain(k1, frozenset()), FovDomain(k2, frozenset({0, 1}))]
    clusters = [
        Cluster((0,), k1),
        Cluster((1,), k2),
    ]
    with pytest.raises(InfeasibleMatchingError):
        km_match(clusters, [k1, k2], fov, _pricing(snap))


def _loaded_meo_toy():
    """Eight-LEO ring under MEOs k1 (0 deg) and k2 (40 deg). LEOs 0-4 sit only
    in k1's view and exchange heavy traffic; LEO 5 (15 deg, so nearer k1) is
    contested and sends a little traffic to each of them."""
    snap = make_ring_snapshot(
        n_leo=8,
        leo_lons=(-20.0, -10.0, 0.0, 5.0, 10.0, 15.0, 35.0, 45.0),
        ctrl_lons=(0.0, 40.0),
    )
    k1, k2 = snap.controller_ids
    entries = {(i, j): 10.0 for i in range(5) for j in range(5) if i != j}
    entries.update({(5, j): 1.0 for j in range(5)})
    fov = [
        FovDomain(k1, frozenset({0, 1, 2, 3, 4, 5})),
        FovDomain(k2, frozenset({5, 6, 7})),
    ]
    return snap, _traffic(snap, entries), fov, k1, k2


def test_marginal_objective_matches_evaluate_differences():
    snap, tm, fov, k1, k2 = _loaded_meo_toy()
    params = OverheadParams()

    def partial_objective(domain_of):
        report = evaluate(DomainAssignment(0, domain_of), tm, snap, params, fov, validate=False)
        return report.w_flow + params.tradeoff_lambda * (report.w_cpt_intra + report.w_cpt_inter)

    pricing = MarginalObjective(tm, snap, params, 2, {leo: k1 for leo in range(5)})
    pricing.fix((6,), k2)
    fixed = {leo: k1 for leo in range(5)} | {6: k2}
    for leos, ctrls in (((5,), [k1, k2]), ((5, 7), [k2]), ((7,), [k2])):
        for k, cost in zip(ctrls, pricing.cost(leos, ctrls)):
            want = partial_objective(fixed | {leo: k for leo in leos}) - partial_objective(fixed)
            assert cost == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_km_match_avoids_nearer_loaded_meo():
    snap, tm, fov, k1, k2 = _loaded_meo_toy()
    clusters = [Cluster((5,)), Cluster(())]
    for load_k1, want in ((False, k1), (True, k2)):
        fixed = {leo: k1 for leo in range(5)} if load_k1 else {}
        pricing = MarginalObjective(tm, snap, OverheadParams(), 2, fixed)
        match = km_match(clusters, [k1, k2], fov, pricing)
        assert match[0] == want  # the nearer k1, unless it already carries LEOs 0-4


def test_partition_slot_contested_leo_leaves_costlier_previous_controller():
    snap, tm, fov, k1, k2 = _loaded_meo_toy()
    geometry = SlotGeometry(
        slot=make_slot(snap),
        fov_domains=fov,
        regions=[OverlapRegion(frozenset({5}), (k1, k2))],
        future_fov={},
        step_fov={},
    )
    for k_prev in (k1, k2):
        prev = DomainAssignment(
            0,
            {0: k1, 1: k1, 2: k1, 3: k1, 4: k1, 5: k_prev, 6: k2, 7: k2},
            overlap_signature={5: frozenset({k1, k2})},
        )
        a = partition_slot(_toy_ctx(), geometry.slot, tm, prev, seed=1, geometry=geometry)
        assert a.domain_of[5] == k2  # kept on k2, moved off the loaded k1


# ---------------------------------------------------------------- fine-tuning


def _fine_tune_geometry():
    snap = make_ring_snapshot(n_leo=4, ctrl_lons=(0.0, 90.0))
    k1, k2 = snap.controller_ids
    # LEO 0 flies north and is about to leave k1's view; k2 sits north-east
    snap.velocities[0] = np.array([0.0, 1.0, 7.4])
    fov = [FovDomain(k1, frozenset({0, 1})), FovDomain(k2, frozenset({0, 2, 3}))]
    step_fov = {k1: frozenset({1}), k2: frozenset({0, 2, 3})}
    future_fov = {k1: frozenset({1}), k2: frozenset({0, 2, 3})}
    geometry = SlotGeometry(
        slot=make_slot(snap),
        fov_domains=fov,
        regions=[],
        future_fov=future_fov,
        step_fov=step_fov,
    )
    return snap, geometry, k1, k2


def test_fine_tune_moves_exiting_leo_to_neighbor_domain():
    snap, geometry, k1, k2 = _fine_tune_geometry()
    a = DomainAssignment(0, {0: k1, 1: k1, 2: k2, 3: k2})
    ctx = _toy_ctx(lookahead=30.0)
    tuned = fine_tune_boundaries(a, geometry, ctx)
    assert tuned.domain_of[0] == k2
    assert tuned.domain_of[1] == k1


def test_fine_tune_no_exit_no_change():
    snap, geometry, k1, k2 = _fine_tune_geometry()
    geometry.step_fov[k1] = frozenset({0, 1})
    geometry.future_fov[k1] = frozenset({0, 1})
    a = DomainAssignment(0, {0: k1, 1: k1, 2: k2, 3: k2})
    tuned = fine_tune_boundaries(a, geometry, _toy_ctx(lookahead=30.0))
    assert tuned.domain_of == a.domain_of


def test_fine_tune_skips_moves_without_valid_candidate():
    snap, geometry, k1, k2 = _fine_tune_geometry()
    geometry.step_fov[k2] = frozenset({2, 3})  # k2 cannot take LEO 0 either
    geometry.future_fov[k2] = frozenset({2, 3})
    a = DomainAssignment(0, {0: k1, 1: k1, 2: k2, 3: k2})
    tuned = fine_tune_boundaries(a, geometry, _toy_ctx(lookahead=30.0))
    assert tuned.domain_of == a.domain_of


# ----------------------------------------------------------- partition_slot


def _toy_instance(seed, n_leo=8):
    rng = np.random.default_rng(seed)
    leo_lons = tuple(sorted(rng.uniform(0.0, 360.0, n_leo)))
    ctrl_lons = tuple(rng.uniform(0.0, 360.0, 2))
    snap = make_ring_snapshot(n_leo=n_leo, leo_lons=leo_lons, ctrl_lons=ctrl_lons)
    slot = make_slot(snap)
    geometry = build_slot_geometry(None, slot, {Role.MEO: 0.0, Role.GS: 0.0}, 0.0)
    tm = _traffic(snap, rng=rng, scale=2.0)
    return snap, slot, geometry, tm


def test_partition_slot_valid_on_toys():
    for seed in range(5):
        snap, slot, geometry, tm = _toy_instance(seed)
        ctx = _toy_ctx()
        a = partition_slot(ctx, slot, tm, None, seed=seed, geometry=geometry)
        assert validate_assignment(a, snap, geometry.fov_domains) == []


def test_partition_slot_identical_snapshots_inherit_fully():
    snap, slot, geometry, tm = _toy_instance(3)
    ctx = _toy_ctx()
    first = partition_slot(ctx, slot, tm, None, seed=1, geometry=geometry)
    second = partition_slot(ctx, slot, tm, first, seed=99, geometry=geometry)
    assert second.domain_of == first.domain_of


def test_partition_slot_deterministic():
    snap, slot, geometry, tm = _toy_instance(5)
    ctx = _toy_ctx()
    a = partition_slot(ctx, slot, tm, None, seed=42, geometry=geometry)
    b = partition_slot(ctx, slot, tm, None, seed=42, geometry=geometry)
    assert a.domain_of == b.domain_of
    assert a.uncovered == b.uncovered


def test_partition_slot_objective_close_to_bruteforce():
    snap, slot, geometry, tm = _toy_instance(11)
    ctx = _toy_ctx()
    a = partition_slot(ctx, slot, tm, None, seed=1, geometry=geometry)
    _, best = brute_force_partition(ctx, slot, tm, geometry=geometry)
    got = evaluate(
        a, tm, snap, ctx.overhead_params, geometry.fov_domains, validate=False
    ).objective
    assert got <= 1.10 * best + 1e-12


def test_partition_slot_raises_on_uncovered_when_strict():
    snap, slot, geometry, tm = _toy_instance(2)
    strict = PartitionContext(
        constellation=None,
        thresholds={Role.MEO: 85.0, Role.GS: 85.0},  # barely any coverage
        overhead_params=OverheadParams(),
        lookahead_s=0.0,
        allow_uncovered=False,
    )
    strict_geом = build_slot_geometry(None, slot, strict.thresholds, 0.0)
    if set(snap.leo_ids) - {l for d in strict_geом.fov_domains for l in d.member_leo_ids}:
        with pytest.raises(UncoverableLeoError):
            partition_slot(strict, slot, tm, None, seed=0, geometry=strict_geом)


# -------------------------------------------------------------- baselines


def test_odc_single_domain_and_no_inter_sync(desk_scenario_short):
    scn = desk_scenario_short
    geom = scn.geometries[0]
    a = odc_partition(scn.ctx, geom.slot)
    assert len(a.domains()) == 1
    assert a.fov_waived
    from eunomia.overhead import sync_overhead

    _, w_out = sync_overhead(a, geom.slot.snapshot, scn.ctx.overhead_params)
    assert w_out == 0.0
    assert validate_assignment(a, geom.slot.snapshot, geom.fov_domains) == []


def test_odc_hops_at_least_eunomia(desk_scenario_short):
    scn = desk_scenario_short
    geom = scn.geometries[0]
    odc = odc_partition(scn.ctx, geom.slot)
    eu = partition_slot(scn.ctx, geom.slot, scn.base_traffic[0], None, 1, geometry=geom)
    h_odc = max(
        len(r) - 1 for r in control_routes(odc, geom.slot.snapshot, geom.fov_domains).values()
    )
    h_eu = max(
        len(r) - 1 for r in control_routes(eu, geom.slot.snapshot, geom.fov_domains).values()
    )
    assert h_odc >= h_eu
    assert h_eu == 1  # FOV containment puts every switch one hop from its controller


def test_greedy_respects_fov(desk_scenario_short):
    scn = desk_scenario_short
    geom = scn.geometries[0]
    a = greedy_partition(scn.ctx, geom.slot, geometry=geom)
    fov = {d.controller_id: d.member_leo_ids for d in geom.fov_domains}
    for leo, k in a.domain_of.items():
        assert leo in fov[k]
    assert validate_assignment(a, geom.slot.snapshot, geom.fov_domains) == []


def test_greedy_single_controller_matches_odc():
    snap = make_ring_snapshot(n_leo=4, leo_lons=(0.0, 10.0, 20.0, -10.0), ctrl_lons=(5.0,))
    slot = make_slot(snap)
    geometry = build_slot_geometry(None, slot, {Role.MEO: 40.0, Role.GS: 0.0}, 0.0)
    ctx = _toy_ctx(thresholds={Role.MEO: 40.0, Role.GS: 0.0})
    greedy = greedy_partition(ctx, slot, geometry=geometry)
    odc = odc_partition(ctx, slot)
    assert greedy.domain_of == odc.domain_of


def test_greedy_cap_spills_to_second_nearest():
    snap = make_ring_snapshot(
        n_leo=4, leo_lons=(5.0, 10.0, 15.0, 75.0), ctrl_lons=(0.0, 70.0)
    )
    k1, k2 = snap.controller_ids
    slot = make_slot(snap)
    thresholds = {Role.MEO: 0.0, Role.GS: 0.0}
    geometry = build_slot_geometry(None, slot, thresholds, 0.0)
    ctx = PartitionContext(
        constellation=None,
        thresholds=thresholds,
        overhead_params=OverheadParams(),
        lookahead_s=0.0,
        allow_uncovered=True,
        greedy_cap=2,
    )
    a = greedy_partition(ctx, slot, geometry=geometry)
    assert a.domain_of[0] == k1
    assert a.domain_of[1] == k1
    assert a.domain_of[2] == k2  # nearest is k1 but the cap forces the spill
    assert a.domain_of[3] == k2


# ------------------------------------------------------------- brute force


def test_bruteforce_single_leo_returns_only_coverer():
    snap = make_ring_snapshot(n_leo=1, leo_lons=(0.0,), ctrl_lons=(0.0, 180.0))
    k1, _ = snap.controller_ids
    slot = make_slot(snap)
    thresholds = {Role.MEO: 40.0, Role.GS: 0.0}
    geometry = build_slot_geometry(None, slot, thresholds, 0.0)
    ctx = _toy_ctx(thresholds=thresholds)
    tm = _traffic(snap, {})
    best, _ = brute_force_partition(ctx, slot, tm, geometry=geometry)
    assert best.domain_of == {0: k1}


def test_bruteforce_rejects_large_instances():
    # high controllers see the whole ring, so all 13 LEOs are in scope
    snap = make_ring_snapshot(n_leo=13, ctrl_lons=(0.0, 180.0), ctrl_radius_km=1e5)
    slot = make_slot(snap)
    geometry = build_slot_geometry(None, slot, {Role.MEO: 0.0, Role.GS: 0.0}, 0.0)
    with pytest.raises(ValueError):
        brute_force_partition(_toy_ctx(), slot, _traffic(snap, {}), geometry=geometry)


def test_bruteforce_not_worse_than_heuristics():
    for seed in (21, 22, 23):
        snap, slot, geometry, tm = _toy_instance(seed)
        ctx = _toy_ctx()
        _, best = brute_force_partition(ctx, slot, tm, geometry=geometry)
        for heuristic in (
            partition_slot(ctx, slot, tm, None, seed=seed, geometry=geometry),
            greedy_partition(ctx, slot, geometry=geometry),
        ):
            value = evaluate(
                heuristic, tm, snap, ctx.overhead_params, geometry.fov_domains, validate=False
            ).objective
            assert best <= value + 1e-12


# --------------------------------------------------------- x/y view sanity


def test_assignment_views():
    a = DomainAssignment(0, {0: 10, 1: 10, 2: 11})
    assert a.x(0, 1) == 1
    assert a.x(0, 2) == 0
    assert a.y(10, 10) == 1
    assert a.y(10, 11) == 0
    with pytest.raises(ValueError):
        a.x(1, 1)
    assert a.domains() == {10: (0, 1), 11: (2,)}

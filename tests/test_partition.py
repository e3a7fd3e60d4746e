import dataclasses
import itertools
import json
import math
import pickle

import numpy as np
import pytest

from eunomia import emulator, partition
from eunomia.corg import similarity
from eunomia.constellation import Role
from eunomia.hungarian import InfeasibleMatchingError
from eunomia.overhead import OverheadParams, control_routes, evaluate, validate_assignment
from eunomia.partition import (
    Cluster,
    DomainAssignment,
    MarginalObjective,
    PartitionContext,
    UncoverableLeoError,
    _by_distance,
    brute_force_partition,
    fine_tune_boundaries,
    greedy_partition,
    km_match,
    odc_partition,
    partition_slot,
    spectral_cluster,
    step1_exclusive_assign,
)
from eunomia.visibility import (
    FovTimeline,
    OverlapRegion,
    SlotGeometry,
    build_slot_geometry,
    compute_overlap_regions,
)

from conftest import (
    assignment,
    compact_traffic,
    corg_from_edges,
    domains,
    fov_array,
    make_ring_snapshot,
    make_slot,
    route_paths,
)
import partition_oracle
from geometry_oracle import as_sets, by_distance, coverage


def _traffic(snap, entries=None, rng=None, scale=1.0):
    n = len(snap.leo_ids)
    rates = np.zeros((n, n))
    if entries:
        for (i, j), lam in entries.items():
            rates[i, j] = lam
    if rng is not None:
        rates = rng.uniform(0.0, scale, size=(n, n))
        np.fill_diagonal(rates, 0.0)
    return compact_traffic(snap.leo_ids, rates)


def _toy_ctx(lookahead=0.0):
    return PartitionContext(
        overhead_params=OverheadParams(), lookahead_s=lookahead, allow_uncovered=True
    )


def _geometry(slot, thresholds):
    """The slot's geometry without lookahead, from its snapshot alone."""
    return build_slot_geometry(FovTimeline(None, thresholds), slot, 15.0)


# ---------------------------------------------------------------- step 1


def test_step1_disjoint_fovs_assign_everything():
    fov = np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=bool)  # controllers 4 and 5
    assert step1_exclusive_assign(fov).tolist() == [4, 4, 5, 5]


def test_step1_contested_leo_left_unassigned():
    fov = np.array([[1, 1, 0], [0, 1, 0]], dtype=bool)  # controllers 3 and 4
    assert step1_exclusive_assign(fov).tolist() == [3, -1, -1]  # LEO 1 contested, 2 unseen


def test_step1_matches_coverage_oracle(desk_scenario_short):
    geom = desk_scenario_short.geometries[0]
    assigned = step1_exclusive_assign(geom.fov_domains).tolist()
    cover = coverage(as_sets(geom.fov_domains))
    assert assigned == [
        ks[0] if len(ks) == 1 else -1
        for ks in (cover.get(leo, ()) for leo in geom.slot.snapshot.leo_ids)
    ]
    assert -1 in assigned and len(set(assigned)) > 2


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
    return corg_from_edges(range(6), (100, 101), edges)


def _ncut_oracle(corg):
    """Exhaustive minimum normalized cut with the virtual nodes pinned."""
    sim = similarity(corg)
    w = sim.values.copy()
    np.fill_diagonal(w, 0.0)
    index = {node: i for i, node in enumerate(corg.node_ids)}
    leos = list(corg.leo_ids)
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
    clusters, fallback = spectral_cluster(corg, 2, snapshot=snap)
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
    corg = corg_from_edges(range(4), (100, 101), edges)
    clusters, fallback = spectral_cluster(corg, 2, snapshot=_FakeSnap(corg.node_ids))
    assert not fallback
    split = {frozenset(c.member_leo_ids): c.virtual_controller_id for c in clusters}
    assert split[frozenset({0, 1})] == 100
    assert split[frozenset({2, 3})] == 101


def test_spectral_cluster_gives_leos_of_zero_degree_their_nearest_virtual_node():
    snap = make_ring_snapshot(n_leo=6, ctrl_lons=(0.0, 180.0))
    edges = {(0, 1): 0.5, (0, 6): 0.3, (1, 6): 0.4, (3, 4): 0.5, (3, 7): 0.3, (4, 7): 0.2}
    corg = corg_from_edges(range(6), (6, 7), edges)  # LEOs 2 (at 120 deg) and 5 (300) have none
    got = spectral_cluster(corg, 2, snapshot=snap)
    assert got == ([Cluster((0, 1, 5), 6), Cluster((2, 3, 4), 7)], False)
    assert got == partition_oracle.spectral_cluster(corg, 2, snap)


def test_spectral_cluster_requires_matching_virtual_count():
    corg = _barbell_corg()
    snap = _FakeSnap(corg.node_ids)
    with pytest.raises(ValueError):
        spectral_cluster(corg, 3, snapshot=snap)


def test_spectral_cluster_reports_a_virtual_node_without_similar_neighbours():
    corg = _barbell_corg()
    kept = ~(corg.pairs == 101).any(axis=1)
    corg = dataclasses.replace(corg, pairs=corg.pairs[kept], xi=corg.xi[kept])
    assert spectral_cluster(corg, 2, snapshot=_FakeSnap(corg.node_ids)) == ([], True)


def test_partition_slot_gives_unclustered_leos_their_nearest_covering_controller(
    desk_scenario_short, monkeypatch
):
    scn = desk_scenario_short
    geom = scn.geometries[0]
    snap, cover = geom.slot.snapshot, coverage(as_sets(geom.fov_domains))
    monkeypatch.setattr(partition, "spectral_cluster", lambda *args, **kwargs: ([], True))
    ctx = dataclasses.replace(scn.ctx, lookahead_s=0.0)
    a = partition_slot(ctx, geom, scn.base_traffic[0], None)
    contested = sorted(leo for region in geom.regions for leo in region.leo_ids)
    assert contested
    assert a.controller[contested].tolist() == [
        by_distance(snap, leo, cover[leo])[0] for leo in contested
    ]


@pytest.mark.parametrize("scenario", ["default_scenario_short", "desk_scenario_short"])
def test_spectral_cluster_never_falls_back_on_the_preset_chains(scenario, request, monkeypatch):
    scn = request.getfixturevalue(scenario)
    fallbacks = []
    original = partition.spectral_cluster

    def recorded(*args, **kwargs):
        out = original(*args, **kwargs)
        fallbacks.append(out[1])
        return out

    monkeypatch.setattr(partition, "spectral_cluster", recorded)
    emulator._chain(scn, "eunomia", 1.0)  # not the chain kept on scn: every slot runs here
    assert fallbacks and not any(fallbacks)


# --------------------------------------------------------------- KM matching


def _pricing(snap):
    """Pricing against no fixed domains under uniform all-pairs traffic."""
    n = len(snap.leo_ids)
    tm = _traffic(snap, {(i, j): 1.0 for i in range(n) for j in range(n) if i != j})
    return MarginalObjective(
        tm, snap, OverheadParams(), len(snap.controller_ids), np.full(n, -1), snap.leo_ids
    )


def test_km_match_single_pair():
    snap = make_ring_snapshot(n_leo=2, ctrl_lons=(0.0,))
    k = snap.controller_ids[0]
    fov = fov_array(snap, {k: {0, 1}})
    clusters = [Cluster((0, 1), k)]
    assert km_match(clusters, [k], fov, _pricing(snap)) == {0: k}


def test_km_match_prefers_nearby_controllers():
    snap = make_ring_snapshot(n_leo=4, leo_lons=(0.0, 10.0, 170.0, 180.0),
                              ctrl_lons=(5.0, 175.0))
    k1, k2 = snap.controller_ids
    fov = fov_array(snap, {k1: snap.leo_ids, k2: snap.leo_ids})
    clusters = [
        Cluster((2, 3), k1),
        Cluster((0, 1), k2),
    ]
    match = km_match(clusters, [k1, k2], fov, _pricing(snap))
    assert match == {0: k2, 1: k1}


def test_km_match_respects_fov_infeasibility():
    snap = make_ring_snapshot(n_leo=2, ctrl_lons=(0.0, 180.0))
    k1, k2 = snap.controller_ids
    fov = fov_array(snap, {k1: {0}, k2: {0, 1}})
    clusters = [
        Cluster((0,), k1),
        Cluster((1,), k2),
    ]
    match = km_match(clusters, [k1, k2], fov, _pricing(snap))
    assert match[1] == k2  # cluster with LEO 1 can only go to k2


def test_km_match_raises_when_no_perfect_matching():
    snap = make_ring_snapshot(n_leo=2, ctrl_lons=(0.0, 180.0))
    k1, k2 = snap.controller_ids
    fov = fov_array(snap, {k2: {0, 1}})
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
    fov = fov_array(snap, {k1: {0, 1, 2, 3, 4, 5}, k2: {5, 6, 7}})
    return snap, _traffic(snap, entries), fov, k1, k2


def test_marginal_objective_matches_evaluate_differences():
    snap, tm, fov, k1, k2 = _loaded_meo_toy()
    params = OverheadParams()

    def partial_objective(controller_of):
        report = evaluate(assignment(8, controller_of), tm, snap, params, fov, validate=False)
        return report.w_flow + params.tradeoff_lambda * (report.w_cpt_intra + report.w_cpt_inter)

    on_k1 = assignment(8, {leo: k1 for leo in range(5)}).controller
    pricing = MarginalObjective(tm, snap, params, 2, on_k1, (5, 6, 7))
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
        fixed = assignment(8, {leo: k1 for leo in range(5)} if load_k1 else {}).controller
        free = np.flatnonzero(fixed < 0)
        pricing = MarginalObjective(tm, snap, OverheadParams(), 2, fixed, free)
        match = km_match(clusters, [k1, k2], fov, pricing)
        assert match[0] == want  # the nearer k1, unless it already carries LEOs 0-4


def test_partition_slot_contested_leo_leaves_costlier_previous_controller():
    snap, tm, fov, k1, k2 = _loaded_meo_toy()
    geometry = SlotGeometry(
        slot=make_slot(snap),
        fov_domains=fov,
        regions=[OverlapRegion(frozenset({5}), (k1, k2))],
        future_fov=None,
        step_fov=None,
    )
    for k_prev in (k1, k2):
        prev = assignment(
            8,
            {0: k1, 1: k1, 2: k1, 3: k1, 4: k1, 5: k_prev, 6: k2, 7: k2},
            signature=np.packbits([[0, 0, 0, 0, 0, 1, 0, 0]] * 2, axis=0),  # LEO 5 under k1, k2
        )
        a = partition_slot(_toy_ctx(), geometry, tm, prev)
        assert a.controller[5] == k2  # kept on k2, moved off the loaded k1


# ---------------------------------------------------------------- fine-tuning


def _fine_tune_geometry():
    snap = make_ring_snapshot(n_leo=4, ctrl_lons=(0.0, 90.0))
    k1, k2 = snap.controller_ids
    # LEO 0 flies north and is about to leave k1's view; k2 sits north-east
    snap.velocities[0] = np.array([0.0, 1.0, 7.4])
    fov = fov_array(snap, {k1: {0, 1}, k2: {0, 2, 3}})
    step_fov = future_fov = fov_array(snap, {k1: {1}, k2: {0, 2, 3}})
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
    a = assignment(4, {0: k1, 1: k1, 2: k2, 3: k2})
    ctx = _toy_ctx(lookahead=30.0)
    tuned = fine_tune_boundaries(a, geometry, ctx)
    assert tuned.controller.tolist() == [k2, k1, k2, k2]
    assert a.controller.tolist() == [k1, k1, k2, k2]  # the input is left as it was


def test_fine_tune_no_exit_no_change():
    snap, geometry, k1, k2 = _fine_tune_geometry()
    ahead = fov_array(snap, {k1: {0, 1}, k2: {0, 2, 3}})
    geometry = dataclasses.replace(geometry, step_fov=ahead, future_fov=ahead)
    a = assignment(4, {0: k1, 1: k1, 2: k2, 3: k2})
    tuned = fine_tune_boundaries(a, geometry, _toy_ctx(lookahead=30.0))
    assert np.array_equal(tuned.controller, a.controller)


def test_fine_tune_skips_moves_without_valid_candidate():
    snap, geometry, k1, k2 = _fine_tune_geometry()
    ahead = fov_array(snap, {k1: {1}, k2: {2, 3}})  # k2 cannot take LEO 0 either
    geometry = dataclasses.replace(geometry, step_fov=ahead, future_fov=ahead)
    a = assignment(4, {0: k1, 1: k1, 2: k2, 3: k2})
    tuned = fine_tune_boundaries(a, geometry, _toy_ctx(lookahead=30.0))
    assert np.array_equal(tuned.controller, a.controller)


def test_fine_tune_rejects_a_domain_keyed_by_a_non_controller():
    snap, geometry, k1, k2 = _fine_tune_geometry()
    a = assignment(4, {0: 1, 1: k1, 2: k2, 3: k2})  # LEO 0 keyed by LEO 1
    with pytest.raises(ValueError, match="keyed by a controller"):
        fine_tune_boundaries(a, geometry, _toy_ctx(lookahead=30.0))


# ----------------------------------------------------------- partition_slot


def _toy_instance(seed, n_leo=8):
    rng = np.random.default_rng(seed)
    leo_lons = tuple(sorted(rng.uniform(0.0, 360.0, n_leo)))
    ctrl_lons = tuple(rng.uniform(0.0, 360.0, 2))
    snap = make_ring_snapshot(n_leo=n_leo, leo_lons=leo_lons, ctrl_lons=ctrl_lons)
    slot = make_slot(snap)
    geometry = _geometry(slot, {Role.MEO: 0.0, Role.GS: 0.0})
    tm = _traffic(snap, rng=rng, scale=2.0)
    return snap, slot, geometry, tm


def test_partition_slot_valid_on_toys():
    for seed in range(5):
        snap, slot, geometry, tm = _toy_instance(seed)
        ctx = _toy_ctx()
        a = partition_slot(ctx, geometry, tm, None)
        assert validate_assignment(a, snap, geometry.fov_domains) == []


def test_partition_slot_identical_snapshots_inherit_fully():
    snap, slot, geometry, tm = _toy_instance(3)
    ctx = _toy_ctx()
    first = partition_slot(ctx, geometry, tm, None)
    second = partition_slot(ctx, geometry, tm, first)
    assert np.array_equal(second.controller, first.controller)


def test_partition_slot_deterministic():
    snap, slot, geometry, tm = _toy_instance(5)
    ctx = _toy_ctx()
    a = partition_slot(ctx, geometry, tm, None)
    b = partition_slot(ctx, geometry, tm, None)
    assert np.array_equal(a.controller, b.controller)
    assert a.uncovered == b.uncovered


def test_partition_slot_objective_close_to_bruteforce():
    snap, slot, geometry, tm = _toy_instance(11)
    ctx = _toy_ctx()
    a = partition_slot(ctx, geometry, tm, None)
    _, best = brute_force_partition(ctx, geometry, tm)
    got = evaluate(
        a, tm, snap, ctx.overhead_params, geometry.fov_domains, validate=False
    ).objective
    assert got <= 1.10 * best + 1e-12


def test_partition_slot_raises_on_uncovered_when_strict():
    snap, slot, geometry, tm = _toy_instance(2)
    strict = PartitionContext(
        overhead_params=OverheadParams(), lookahead_s=0.0, allow_uncovered=False
    )
    strict_geom = _geometry(slot, {Role.MEO: 85.0, Role.GS: 85.0})  # barely any coverage
    if not strict_geom.fov_domains.any(axis=0).all():
        with pytest.raises(UncoverableLeoError):
            partition_slot(strict, strict_geom, tm, None)


# -------------------------------------------------------------- baselines


def test_odc_single_domain_and_no_inter_sync(desk_scenario_short):
    scn = desk_scenario_short
    geom = scn.geometries[0]
    a = odc_partition(scn.ctx, geom)
    assert len(domains(a)) == 1
    assert a.fov_waived
    from eunomia.overhead import sync_overhead

    _, w_out = sync_overhead(a, geom.slot.snapshot, scn.ctx.overhead_params)
    assert w_out == 0.0
    assert validate_assignment(a, geom.slot.snapshot, geom.fov_domains) == []


def test_odc_hops_at_least_eunomia(desk_scenario_short):
    scn = desk_scenario_short
    geom = scn.geometries[0]
    odc = odc_partition(scn.ctx, geom)
    eu = partition_slot(scn.ctx, geom, scn.base_traffic[0], None)
    snap, fov = geom.slot.snapshot, geom.fov_domains
    h_odc = max(len(r) - 1 for r in route_paths(control_routes(odc, snap, fov)).values())
    h_eu = max(len(r) - 1 for r in route_paths(control_routes(eu, snap, fov)).values())
    assert h_odc >= h_eu
    assert h_eu == 1  # FOV containment puts every switch one hop from its controller


def test_greedy_respects_fov(desk_scenario_short):
    scn = desk_scenario_short
    geom = scn.geometries[0]
    a = greedy_partition(scn.ctx, geom)
    fov = geom.fov_domains
    n_leo = fov.shape[1]
    for _, leo, k in a.to_rows():
        assert fov[k - n_leo, leo]
    assert validate_assignment(a, geom.slot.snapshot, geom.fov_domains) == []


def test_greedy_single_controller_matches_odc():
    snap = make_ring_snapshot(n_leo=4, leo_lons=(0.0, 10.0, 20.0, -10.0), ctrl_lons=(5.0,))
    slot = make_slot(snap)
    geometry = _geometry(slot, {Role.MEO: 40.0, Role.GS: 0.0})
    ctx = _toy_ctx()
    greedy = greedy_partition(ctx, geometry)
    odc = odc_partition(ctx, geometry)
    assert np.array_equal(greedy.controller, odc.controller)


def test_greedy_cap_spills_to_second_nearest():
    snap = make_ring_snapshot(
        n_leo=4, leo_lons=(5.0, 10.0, 15.0, 75.0), ctrl_lons=(0.0, 70.0)
    )
    k1, k2 = snap.controller_ids
    slot = make_slot(snap)
    geometry = _geometry(slot, {Role.MEO: 0.0, Role.GS: 0.0})
    ctx = PartitionContext(
        overhead_params=OverheadParams(), lookahead_s=0.0, allow_uncovered=True, greedy_cap=2
    )
    a = greedy_partition(ctx, geometry)
    assert a.controller[0] == k1
    assert a.controller[1] == k1
    assert a.controller[2] == k2  # nearest is k1 but the cap forces the spill
    assert a.controller[3] == k2


def _greedy_oracle(snap, cover, cap):
    """The per-LEO greedy loop: rank each LEO's covering controllers alone."""
    load = dict.fromkeys(snap.controller_ids, 0)
    out = {}
    for leo in sorted(snap.leo_ids):
        if leo not in cover:
            continue
        ranked = by_distance(snap, leo, cover[leo])
        out[leo] = next((k for k in ranked if cap is None or load[k] < cap), ranked[0])
        load[out[leo]] += 1
    return out


@pytest.mark.parametrize("scenario", ["desk_scenario_short", "default_scenario_short"])
def test_batched_ranking_and_greedy_match_the_per_leo_oracle(scenario, request):
    scn = request.getfixturevalue(scenario)
    for geom in scn.geometries[:3]:
        snap, fov = geom.slot.snapshot, geom.fov_domains
        cover = coverage(as_sets(fov))
        leos = [leo for leo in sorted(snap.leo_ids) if leo in cover]
        nearest = [by_distance(snap, leo, cover[leo]) for leo in leos]
        ks = np.array(sorted(snap.controller_ids))
        assert _by_distance(snap, leos, ks, fov[:, leos]) == nearest
        # caps of 2 (desk) and 30 (default) spill some LEOs past their nearest
        spills = 0
        for greedy_cap in (None, 2, 30):
            ctx = dataclasses.replace(scn.ctx, greedy_cap=greedy_cap)
            got = {leo: k for _, leo, k in greedy_partition(ctx, geom).to_rows()}
            assert got == _greedy_oracle(snap, cover, greedy_cap)
            spills += sum(got[leo] != ranked[0] for leo, ranked in zip(leos, nearest))
        assert spills > 0


# ------------------------------------------------------------- brute force


def test_bruteforce_single_leo_returns_only_coverer():
    snap = make_ring_snapshot(n_leo=1, leo_lons=(0.0,), ctrl_lons=(0.0, 180.0))
    k1, _ = snap.controller_ids
    slot = make_slot(snap)
    geometry = _geometry(slot, {Role.MEO: 40.0, Role.GS: 0.0})
    ctx = _toy_ctx()
    tm = _traffic(snap, {})
    best, _ = brute_force_partition(ctx, geometry, tm)
    assert best.controller.tolist() == [k1]


def test_bruteforce_rejects_large_instances():
    # high controllers see the whole ring, so all 13 LEOs are in scope
    snap = make_ring_snapshot(n_leo=13, ctrl_lons=(0.0, 180.0), ctrl_radius_km=1e5)
    slot = make_slot(snap)
    geometry = _geometry(slot, {Role.MEO: 0.0, Role.GS: 0.0})
    with pytest.raises(ValueError):
        brute_force_partition(_toy_ctx(), geometry, _traffic(snap, {}))


def test_bruteforce_not_worse_than_heuristics():
    for seed in (21, 22, 23):
        snap, slot, geometry, tm = _toy_instance(seed)
        ctx = _toy_ctx()
        _, best = brute_force_partition(ctx, geometry, tm)
        for heuristic in (
            partition_slot(ctx, geometry, tm, None),
            greedy_partition(ctx, geometry),
        ):
            value = evaluate(
                heuristic, tm, snap, ctx.overhead_params, geometry.fov_domains, validate=False
            ).objective
            assert best <= value + 1e-12


# --------------------------------------------------------- x/y view sanity


def test_assignment_views():
    a = assignment(4, {0: 10, 1: 10, 2: 11})
    assert domains(a) == {10: (0, 1), 11: (2,)}
    assert not hasattr(a, "domains")  # every domain is read from the array
    assert a.uncovered == (3,)
    assert a.to_rows() == [(0, 0, 10), (0, 1, 10), (0, 2, 11)]


def test_assignment_is_immutable_and_keeps_its_domain_view():
    source = np.array([10, 10, 11])
    a = DomainAssignment(0, source, strategy="greedy")
    source[2] = 10  # the assignment holds its own copy
    assert a.controller.tolist() == [10, 10, 11]
    with pytest.raises(ValueError, match="read-only"):
        a.controller[2] = 10
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.slot_index = 1
    moved = dataclasses.replace(a, controller=[10, 10, 10])
    assert domains(moved) == {10: (0, 1, 2)} and domains(a) == {10: (0, 1), 11: (2,)}
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(a, protocol))
        assert np.array_equal(again.controller, a.controller)
        assert not again.controller.flags.writeable
        assert domains(again) == domains(a) and again.strategy == a.strategy


@pytest.mark.parametrize("strategy", ["eunomia", "greedy", "odc"])
@pytest.mark.parametrize("scenario", ["desk_scenario", "default_scenario_partition"])
def test_every_slot_holds_one_read_only_controller_array(scenario, strategy, request):
    # every slot of desk's full orbit and of default at 240 s
    scn = request.getfixturevalue(scenario)
    chain = emulator.partition_chain(scn, strategy, 1.0)
    assert len(chain) == len(scn.geometries) >= 16
    for geom, a in zip(scn.geometries, chain):
        fov = geom.fov_domains
        controller = a.controller
        assert controller.shape == (fov.shape[1],) and controller.dtype == np.int64
        assert not controller.flags.writeable
        # unmanaged exactly where no controller sees the LEO; odc manages every LEO
        unmanaged = controller == -1
        if strategy == "odc":
            assert not unmanaged.any()
        else:
            assert np.array_equal(unmanaged, ~fov.any(axis=0))
        assert a.uncovered == tuple(np.flatnonzero(unmanaged).tolist())
        view = domains(a)
        assert list(view) == sorted(view)
        for k, members in view.items():
            assert list(members) == sorted(members)
            assert (controller[list(members)] == k).all()
        assert sum(len(members) for members in view.values()) == (~unmanaged).sum()
        rows = a.to_rows()
        assert rows == [
            (geom.slot.index, leo, k) for leo, k in enumerate(controller.tolist()) if k >= 0
        ]
        assert all(type(x) is int for row in rows for x in row)
        assert all(type(x) is int for k, ms in view.items() for x in (k, *ms))
        assert json.loads(json.dumps(rows)) == [list(row) for row in rows]
        assert json.loads(json.dumps(view)) == {str(k): list(ms) for k, ms in view.items()}

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from eunomia import overhead
from eunomia.codecs import FLOW_REQUEST_FIXED_BYTES
from eunomia.constellation import C_LIGHT_KM_S, IslTopology, NetworkSnapshot, Role
from eunomia.emulator import STRATEGIES, partition_chain
from eunomia.overhead import (
    ConstraintViolationError,
    LinkClass,
    MigrationParams,
    OverheadParams,
    control_efficiency,
    ControlRoutes,
    control_routes,
    evaluate,
    flow_overhead,
    hop_cost,
    intra_domain_edges,
    migration_overhead,
    path_compute_overhead,
    path_costs,
    sync_overhead,
    validate_assignment,
)
from eunomia.partition import greedy_partition
from eunomia.visibility import compute_fov_domains

from conftest import (
    assignment,
    compact_traffic,
    domains,
    fov_array,
    make_ring_snapshot,
    route_paths,
)
from emulator_oracle import route_costs
from geometry_oracle import as_sets


def _chain_snapshot(n=3, spacing_km=2000.0):
    """LEOs in a straight chain with a MEO controller above LEO n-1 only."""
    positions = np.zeros((n + 1, 3))
    velocities = np.zeros((n + 1, 3))
    for i in range(n):
        positions[i] = np.array([7000.0, -i * spacing_km, 0.0])
        velocities[i] = np.array([0.0, 7.4, 0.0])
    k = n
    positions[k] = np.array([16725.0, -(n - 1) * spacing_km, 0.0])
    velocities[k] = np.array([0.0, 4.9, 0.0])
    roles = (Role.LEO,) * n + (Role.MEO,)
    edges = np.array([(i, i + 1) for i in range(n - 1)], dtype=np.int64).reshape(-1, 2)
    return NetworkSnapshot(
        time_s=0.0,
        positions=positions,
        velocities=velocities,
        topology=IslTopology(edges, tuple(range(n))),
        leo_ids=tuple(range(n)),
        controller_ids=(k,),
        roles=roles,
    )


def _traffic(snap, entries):
    n = len(snap.leo_ids)
    rates = np.zeros((n, n))
    for (i, j), lam in entries.items():
        rates[i, j] = lam
    return compact_traffic(snap.leo_ids, rates)


def test_hop_cost_matches_norm_oracle_on_every_link_class():
    # LEOs 0..3, MEOs 4 and 5, ground stations 6 and 7
    snap = make_ring_snapshot(
        n_leo=4,
        ctrl_lons=(0.0, 100.0, 10.0, 200.0),
        ctrl_roles=(Role.MEO, Role.MEO, Role.GS, Role.GS),
    )
    params = OverheadParams(
        bandwidth_bps={
            LinkClass.ISL: 3e9,
            LinkClass.MEO_LEO: 7e8,
            LinkClass.GS_LEO: 2e6,
            LinkClass.CTL_CTL: 1.1e10,
        }
    )
    link_of = {
        frozenset({Role.LEO}): LinkClass.ISL,
        frozenset({Role.LEO, Role.MEO}): LinkClass.MEO_LEO,
        frozenset({Role.LEO, Role.GS}): LinkClass.GS_LEO,
        frozenset({Role.MEO}): LinkClass.CTL_CTL,
        frozenset({Role.GS}): LinkClass.CTL_CTL,
        frozenset({Role.MEO, Role.GS}): LinkClass.CTL_CTL,
    }

    def oracle(a, b, nbytes):
        link = link_of[frozenset({snap.roles[a], snap.roles[b]})]
        gap = snap.positions[a] - snap.positions[b]
        return nbytes * 8.0 / params.bandwidth_bps[link] + np.linalg.norm(gap) / C_LIGHT_KM_S

    pairs = [(0, 1), (2, 4), (5, 3), (1, 6), (7, 0), (4, 6), (4, 5), (6, 7)]
    assert {link_of[frozenset({snap.roles[a], snap.roles[b]})] for a, b in pairs} == set(LinkClass)
    for a, b in pairs:
        assert hop_cost(snap, params, a, b, 36) == oracle(a, b, 36)

    # broadcasting: (n, 1) ids against (m,) ids, with (n, 1) message sizes
    src = np.array([0, 2, 4, 6])[:, None]
    dst = np.array([1, 3, 5, 7, 0])
    nbytes = np.array([24, 36, 48, 60])[:, None]
    got = hop_cost(snap, params, src, dst, nbytes)
    assert got.shape == (4, 5)
    for r in range(4):
        for c in range(5):
            assert got[r, c] == oracle(int(src[r, 0]), int(dst[c]), int(nbytes[r, 0]))


def test_route_costs_sum_hops_in_path_order():
    # routes of 1 to 14 hops along a chain, each LEO's parent the next one
    # and the last LEO linked to the controller; a Python sum over scalar hop
    # costs is the reference, so the walk must match it exactly
    snap = _chain_snapshot(n=14, spacing_km=1234.5)
    params = OverheadParams()
    k = snap.controller_ids[0]
    routes = ControlRoutes(
        routed=np.arange(13, -1, -1),
        parent=np.array([*range(1, 14), -1]),
        terminal=np.array([-1] * 13 + [k]),
    )
    paths = route_paths(routes)
    assert paths == {start: tuple(range(start, 14)) + (k,) for start in range(13, -1, -1)}
    for size in (36, 24):
        want = [
            sum(float(hop_cost(snap, params, a, b, size)) for a, b in zip(r, r[1:]))
            for r in paths.values()
        ]
        assert path_costs(routes, snap, params, (size,))[0][routes.routed].tolist() == want
    req, mfl = path_costs(routes, snap, params, (36, 24))
    assert req.tolist() == path_costs(routes, snap, params, (36,))[0].tolist()
    assert mfl.tolist() == path_costs(routes, snap, params, (24,))[0].tolist()


@pytest.mark.parametrize("scenario", ["desk_scenario_short", "default_scenario_short"])
def test_plan_path_costs_equal_the_padded_cumsum(scenario, request):
    """Every plan's request and update costs against the padded running sum
    over each route's tuple, bit for bit: odc's routes run to 6 hops on
    desk and 9 on ``default``, where a pairwise sum could differ."""
    scn = request.getfixturevalue(scenario)
    params = scn.ctx.overhead_params
    longest = 0
    for strategy in STRATEGIES:
        for geom, a in zip(scn.geometries, partition_chain(scn, strategy, 1.0)):
            snap, fov = geom.slot.snapshot, geom.fov_domains
            plan = overhead.slot_plan(a, snap, params, fov)
            paths = route_paths(control_routes(a, snap, fov))
            assert plan.routed.tolist() == list(paths)
            routes = list(paths.values())
            sizes = (FLOW_REQUEST_FIXED_BYTES, params.m_fl_bytes)
            for got, size in zip((plan.req_cost, plan.mfl_cost), sizes):
                assert got[plan.routed].tolist() == route_costs(routes, snap, params, size)
                assert not np.delete(got, plan.routed).any()
            longest = max(longest, max(len(r) - 1 for r in routes))
    assert longest >= (6 if scenario == "desk_scenario_short" else 9)


def test_odc_evaluate_builds_nothing_switch_count_squared(default_scenario_short):
    """One odc ``evaluate`` on a ``default`` slot, its plan prebuilt, peaks
    under 4 MiB: its single domain's rate sum never holds the 1,584 x 1,584
    gather (19.1 MiB)."""
    scn = default_scenario_short
    geom, tm = scn.geometries[0], scn.base_traffic[0]
    odc = partition_chain(scn, "odc", 1.0)[0]
    snap, fov, params = geom.slot.snapshot, geom.fov_domains, scn.ctx.overhead_params
    plan = overhead.slot_plan(odc, snap, params, fov)
    assert np.count_nonzero(odc.controller >= 0) == len(snap.leo_ids) == 1584
    tracemalloc.start()
    try:
        report = evaluate(odc, tm, snap, params, fov, validate=False, plan=plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.w_cpt_intra > 0.0
    assert peak < 4 * 2**20


def test_control_hops_direct_is_one():
    snap = _chain_snapshot(n=1)
    fov = fov_array(snap, {1: {0}})
    a = assignment(1, {0: 1})
    assert len(route_paths(control_routes(a, snap, fov))[0]) - 1 == 1


def test_control_hops_chain_of_three():
    snap = _chain_snapshot(n=3)
    fov = fov_array(snap, {3: {2}})  # only the far end sees the controller
    a = assignment(3, {0: 3, 1: 3, 2: 3}, fov_waived=True)
    routes = route_paths(control_routes(a, snap, fov))
    assert [len(routes[leo]) - 1 for leo in (2, 1, 0)] == [1, 2, 3]


def test_flow_overhead_zero_traffic():
    snap = _chain_snapshot(n=2)
    fov = fov_array(snap, {2: {0, 1}})
    a = assignment(2, {0: 2, 1: 2})
    tm = _traffic(snap, {})
    assert flow_overhead(a, tm, snap, OverheadParams(), fov) == 0.0


def test_flow_overhead_hand_value():
    # one flow at 2/s, a single 1000 km hop at 1 Mb/s
    positions = np.array([
        [6371.0 + 1000.0, 0.0, 0.0],
        [0.0, 6371.0 + 1000.0, 0.0],
        [6371.0, 0.0, 0.0],
    ])
    velocities = np.zeros_like(positions)
    roles = (Role.LEO, Role.LEO, Role.GS)
    no_isl = IslTopology(np.empty((0, 2), dtype=np.int64), (0, 1))
    snap = NetworkSnapshot(0.0, positions, velocities, no_isl, (0, 1), (2,), roles)
    fov = fov_array(snap, {2: {0, 1}})
    a = assignment(2, {0: 2, 1: 2})
    tm = _traffic(snap, {(0, 1): 2.0})
    params = OverheadParams(
        bandwidth_bps={
            LinkClass.ISL: 1e9,
            LinkClass.MEO_LEO: 5e8,
            LinkClass.GS_LEO: 1e6,
            LinkClass.CTL_CTL: 1e10,
        }
    )
    expected = 2.0 * (36 * 8 / 1e6 + 1000.0 / C_LIGHT_KM_S)
    assert flow_overhead(a, tm, snap, params, fov) == pytest.approx(expected, rel=1e-12)


def test_flow_overhead_linear_in_rates():
    snap = make_ring_snapshot(n_leo=6, ctrl_lons=(0.0, 180.0))
    fov = compute_fov_domains(snap)
    sets = as_sets(fov)
    cover = set().union(*sets.values())
    a = assignment(
        len(snap.leo_ids),
        {leo: min(k for k, members in sets.items() if leo in members) for leo in cover},
    )
    tm = _traffic(snap, {(0, 1): 1.5, (1, 0): 0.5})
    params = OverheadParams()
    w1 = flow_overhead(a, tm, snap, params, fov)
    tm2 = dataclasses.replace(tm, rates=tm.rates * 2.0)
    assert flow_overhead(a, tm2, snap, params, fov) == pytest.approx(2 * w1, rel=1e-12)


def test_sync_single_domain_has_no_inter_term():
    snap = _chain_snapshot(n=3)
    a = assignment(3, {0: 3, 1: 3, 2: 3})
    w_in, w_out = sync_overhead(a, snap, OverheadParams())
    assert w_out == 0.0
    assert w_in > 0.0


def test_sync_hand_example_two_domains():
    snap = make_ring_snapshot(n_leo=8, ctrl_lons=(0.0, 180.0))
    k1, k2 = snap.controller_ids
    a = assignment(8, {0: k1, 1: k1, 2: k1, 3: k2, 4: k2, 5: k2, 6: k2, 7: k2})
    params = OverheadParams(f_sync_hz=2.0)
    w_in, w_out = sync_overhead(a, snap, params)

    def hop(x, y, nbytes, bw):
        return nbytes * 8 / bw + np.linalg.norm(snap.positions[x] - snap.positions[y]) / C_LIGHT_KM_S

    # domain 1 = {0,1,2} has intra edges (0,1),(1,2); domain 2 has (3,4)...(6,7)
    bw_ml = 5e8
    exp_in = 2.0 * max(hop(i, k1, 2 * 24, bw_ml) for i in (0, 1, 2)) + 2.0 * max(
        hop(i, k2, 4 * 24, bw_ml) for i in (3, 4, 5, 6, 7)
    )
    exp_out = 2.0 * max(
        hop(k1, k2, 3 * 24, 1e10), hop(k2, k1, 5 * 24, 1e10)
    )
    assert w_in == pytest.approx(exp_in, rel=1e-12)
    assert w_out == pytest.approx(exp_out, rel=1e-12)


def test_sync_scales_with_frequency():
    snap = make_ring_snapshot(n_leo=8, ctrl_lons=(0.0, 180.0))
    k1, k2 = snap.controller_ids
    a = assignment(8, {i: (k1 if i < 4 else k2) for i in range(8)})
    w1 = sync_overhead(a, snap, OverheadParams(f_sync_hz=1.0))
    w2 = sync_overhead(a, snap, OverheadParams(f_sync_hz=2.0))
    assert w2[0] == pytest.approx(2 * w1[0])
    assert w2[1] == pytest.approx(2 * w1[1])


def test_migration_identical_assignments_is_zero():
    snap = make_ring_snapshot(n_leo=4, ctrl_lons=(0.0, 180.0))
    k1, k2 = snap.controller_ids
    a = assignment(4, {0: k1, 1: k1, 2: k2, 3: k2})
    b = dataclasses.replace(a, slot_index=1)
    tm = _traffic(snap, {(0, 2): 1.0})
    assert migration_overhead(a, b, snap, tm, OverheadParams(), 30.0) == 0.0


def test_migration_hand_value_single_handover():
    snap = make_ring_snapshot(n_leo=4, ctrl_lons=(0.0, 180.0))
    k1, k2 = snap.controller_ids
    prev = assignment(4, {0: k1, 1: k1, 2: k2, 3: k2})
    cur = assignment(4, {0: k1, 1: k2, 2: k2, 3: k2}, slot_index=1)  # LEO 1 handed over
    tm = _traffic(snap, {(1, 0): 3.0, (2, 0): 1.0})
    mig = MigrationParams(
        flow_entry_bytes=36,
        state_bandwidth_bps=1e10,
        ho_msg_bytes=36,
        per_sat_processing_s=1e-4,
        mean_flow_lifetime_s=10.0,
    )
    params = OverheadParams(migration=mig)
    duration = 30.0
    live_flows = (3.0 + 1.0) * 10.0  # domain of k2 now holds LEOs 1,2,3
    w_st = 36 * 8 * live_flows / 1e10
    w_ho = 1 * (36 * 8 / 5e8 + 1e-4)
    expected = (1 / duration) * (w_st + w_ho)
    got = migration_overhead(prev, cur, snap, tm, params, duration)
    assert got == pytest.approx(expected, rel=1e-12)


def test_migration_monotone_in_changes():
    snap = make_ring_snapshot(n_leo=6, ctrl_lons=(0.0, 180.0))
    k1, k2 = snap.controller_ids
    prev = assignment(6, {i: k1 for i in range(6)})
    tm = _traffic(snap, {(0, 1): 1.0})
    params = OverheadParams()
    values = []
    for moved in range(4):
        cur = assignment(6, {i: (k2 if i < moved else k1) for i in range(6)}, slot_index=1)
        values.append(migration_overhead(prev, cur, snap, tm, params, 10.0))
    assert values == sorted(values)
    assert values[0] == 0.0


def test_path_compute_hand_value():
    snap = make_ring_snapshot(n_leo=4, ctrl_lons=(0.0,))
    k = snap.controller_ids[0]
    a = assignment(4, {i: k for i in range(4)})
    tm = _traffic(snap, {(0, 1): 10.0})  # 10 intra requests/s
    w_intra, w_inter = path_compute_overhead(a, tm, OverheadParams(), snap)
    assert w_intra == pytest.approx(10 * 16 / 100.0, rel=1e-12)  # f(4)=16, C_MEO=100
    assert w_inter == 0.0


def test_path_compute_scales_with_capacity():
    snap = make_ring_snapshot(n_leo=4, ctrl_lons=(0.0,))
    k = snap.controller_ids[0]
    a = assignment(4, {i: k for i in range(4)})
    tm = _traffic(snap, {(0, 1): 10.0})
    w1, _ = path_compute_overhead(a, tm, OverheadParams(capacity_unit_ops=1.0), snap)
    w2, _ = path_compute_overhead(a, tm, OverheadParams(capacity_unit_ops=2.0), snap)
    assert w2 == pytest.approx(w1 / 2.0)


def test_objective_reduces_to_wctl_when_lambda_zero():
    snap = make_ring_snapshot(n_leo=4, ctrl_lons=(0.0, 180.0))
    fov = compute_fov_domains(snap)
    sets = as_sets(fov)
    cover = set().union(*sets.values())
    a = assignment(
        len(snap.leo_ids),
        {leo: min(k for k, members in sets.items() if leo in members) for leo in cover},
    )
    tm = _traffic(snap, {(0, 1): 2.0})
    params = OverheadParams(tradeoff_lambda=0.0)
    report = evaluate(a, tm, snap, params, fov)
    assert report.objective == report.w_ctl


def test_objective_flags_fov_violation():
    snap = make_ring_snapshot(n_leo=4, ctrl_lons=(0.0,))
    k = snap.controller_ids[0]
    fov = fov_array(snap, {k: {0}})
    a = assignment(4, {0: k, 1: k, 2: k, 3: k})
    tm = _traffic(snap, {})
    with pytest.raises(ConstraintViolationError) as err:
        evaluate(a, tm, snap, OverheadParams(), fov).objective
    assert any(v.constraint == "fov_containment" for v in err.value.violations)


def test_validate_catches_unassigned_and_stray():
    snap = make_ring_snapshot(n_leo=3, ctrl_lons=(0.0,))
    k = snap.controller_ids[0]
    fov = fov_array(snap, {k: {0, 1, 2}})
    missing = assignment(3, {0: k})
    names = {v.constraint for v in validate_assignment(missing, snap, fov)}
    assert "unique_membership" in names


def test_validate_catches_disconnected_domain():
    snap = _chain_snapshot(n=3)
    k = snap.controller_ids[0]
    fov = fov_array(snap, {k: {2}})
    # LEO 0 assigned but the intermediate LEO 1 is not: 0 cannot reach the seed
    a = assignment(3, {0: k, 2: k}, fov_waived=True)
    names = {v.constraint for v in validate_assignment(a, snap, fov)}
    assert "connectivity" in names


def test_validate_reports_a_member_outside_the_fov_and_cut_off():
    snap = _chain_snapshot(n=3)
    k = snap.controller_ids[0]
    fov = fov_array(snap, {k: {2}})
    # no waiver: LEO 0 is outside the FOV, and LEO 1 is not there to relay it
    a = assignment(3, {0: k, 2: k})
    names = [v.constraint for v in validate_assignment(a, snap, fov)]
    assert names == ["fov_containment", "connectivity"]


@pytest.mark.parametrize(
    "mutation, constraint",
    [
        ("a covered LEO unmanaged", "unique_membership"),
        ("a LEO id as a controller", "one_controller_per_domain"),
        ("one entry short", "unique_membership"),
    ],
)
def test_validate_names_each_broken_controller_array(desk_scenario_short, mutation, constraint):
    geom = desk_scenario_short.geometries[0]
    snap, fov = geom.slot.snapshot, geom.fov_domains
    valid = greedy_partition(desk_scenario_short.ctx, geom)
    assert validate_assignment(valid, snap, fov) == []
    controller = valid.controller.copy()
    leo = int(np.flatnonzero(controller >= 0)[0])
    if mutation == "a covered LEO unmanaged":
        controller[leo] = -1
    elif mutation == "a LEO id as a controller":
        controller[leo] = leo + 1
    else:
        controller = controller[:-1]
    broken = dataclasses.replace(valid, controller=controller)
    named = [v for v in validate_assignment(broken, snap, fov) if v.constraint == constraint]
    assert len(named) == 1
    if mutation == "a covered LEO unmanaged":
        assert named[0].offenders == (leo,)
    elif mutation == "a LEO id as a controller":
        assert named[0].offenders == (leo + 1,)


def test_slot_plan_rejects_a_wrong_length_array_with_its_violation(monkeypatch):
    snap = make_ring_snapshot(n_leo=4, ctrl_lons=(0.0,))
    (k,) = snap.controller_ids
    fov = fov_array(snap, {k: snap.leo_ids})
    short = assignment(3, {0: k, 1: k, 2: k})
    tm = compact_traffic(snap.leo_ids, np.ones((4, 4)))

    def no_routes(*args, **kwargs):
        raise AssertionError("control routes built for a wrong-length array")

    monkeypatch.setattr(overhead, "control_routes", no_routes)
    want = validate_assignment(short, snap, fov)
    assert [v.constraint for v in want] == ["unique_membership"]
    for build in (
        lambda: overhead.slot_plan(short, snap, OverheadParams(), fov),
        lambda: evaluate(short, tm, snap, OverheadParams(), fov),
    ):
        with pytest.raises(ConstraintViolationError, match="unique_membership") as exc:
            build()
        assert exc.value.violations == want


@pytest.mark.parametrize("strategy", ["eunomia", "greedy"])
def test_contained_assignments_validate_without_control_routes(
    default_scenario_short, strategy, monkeypatch
):
    scn = default_scenario_short
    chain = partition_chain(scn, strategy, 1.0)

    def no_routes(*args, **kwargs):
        raise AssertionError("control routes built for an FOV-contained assignment")

    monkeypatch.setattr(overhead, "control_routes", no_routes)
    for geom, assignment in zip(scn.geometries, chain):
        assert validate_assignment(assignment, geom.slot.snapshot, geom.fov_domains) == []


def test_overhead_additivity_and_nonnegativity(desk_scenario_short):
    scn = desk_scenario_short
    from eunomia.partition import greedy_partition

    geom = scn.geometries[0]
    a = greedy_partition(scn.ctx, geom)
    report = evaluate(
        a, scn.base_traffic[0], geom.slot.snapshot, scn.ctx.overhead_params, geom.fov_domains
    )
    assert report.w_ctl == report.w_flow + report.w_sync_in + report.w_sync_out + report.w_mig
    for value in (report.w_flow, report.w_sync_in, report.w_sync_out, report.w_mig,
                  report.w_cpt_intra, report.w_cpt_inter):
        assert value >= 0.0


def test_intra_domain_edges_match_a_scan_per_domain(desk_scenario_short):
    scn = desk_scenario_short
    from eunomia.partition import greedy_partition

    geom = scn.geometries[0]
    snap = geom.slot.snapshot
    a = greedy_partition(scn.ctx, geom)
    counts = intra_domain_edges(a, snap)
    assert list(counts) == list(domains(a)) and len(counts) > 1
    for k, members in domains(a).items():
        assert counts[k] == sum(
            1 for i, j in snap.topology.edge_array.tolist() if i in members and j in members
        )
    assert 0 < sum(counts.values()) < len(snap.topology.edge_array)


def test_bandwidth_homogeneity():
    snap = make_ring_snapshot(n_leo=8, ctrl_lons=(0.0, 180.0))
    fov = compute_fov_domains(snap)
    sets = as_sets(fov)
    cover = set().union(*sets.values())
    a = assignment(
        len(snap.leo_ids),
        {leo: min(k for k, members in sets.items() if leo in members) for leo in cover},
    )
    tm = _traffic(snap, {(0, 1): 2.0, (1, 3): 1.0})

    def components(scale_factor):
        params = OverheadParams(
            bandwidth_bps={lc: v * scale_factor for lc, v in OverheadParams().bandwidth_bps.items()}
        )
        r = evaluate(a, tm, snap, params, fov, validate=False)
        return np.array([r.w_flow, r.w_sync_in, r.w_sync_out])

    w1 = components(1.0)
    w4 = components(4.0)
    w_prop = components(1e12)  # transmission terms vanish, propagation remains
    assert w4 == pytest.approx(w_prop + (w1 - w_prop) / 4.0, rel=1e-9)


def test_control_efficiency_cases():
    from eunomia.overhead import OverheadReport

    def report(w_flow, w_sync_in, w_sync_out, w_mig):
        return OverheadReport(
            slot_index=0, w_flow=w_flow, w_sync_in=w_sync_in, w_sync_out=w_sync_out,
            w_mig=w_mig, w_cpt_intra=0.0, w_cpt_inter=0.0, objective=0.0, eta_control=None,
        )

    assert control_efficiency(report(1.0, 0.0, 0.0, 0.0)) == 1.0
    assert control_efficiency(report(1.0, 0.5, 0.5, 1.0)) == pytest.approx(1 / 3)
    assert control_efficiency(report(0.0, 0.0, 0.0, 0.0)) is None

import math

import numpy as np
import pytest

from eunomia.constellation import C_LIGHT_KM_S, NetworkSnapshot, Role
from eunomia.overhead import (
    ConstraintViolationError,
    LinkClass,
    MigrationParams,
    OverheadParams,
    control_efficiency,
    control_hops,
    evaluate,
    flow_overhead,
    hop_cost,
    route_costs,
    migration_overhead,
    objective,
    path_compute_overhead,
    sync_overhead,
    validate_assignment,
)
from eunomia.partition import DomainAssignment
from eunomia.traffic import TrafficMatrix
from eunomia.visibility import FovDomain, compute_fov_domains

from conftest import make_ring_snapshot


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
    edges = frozenset((i, i + 1) for i in range(n - 1))
    return NetworkSnapshot(
        time_s=0.0,
        positions=positions,
        velocities=velocities,
        isl_edges=edges,
        leo_ids=tuple(range(n)),
        controller_ids=(k,),
        roles=roles,
    )


def _traffic(snap, entries):
    n = len(snap.leo_ids)
    rates = np.zeros((n, n))
    for (i, j), lam in entries.items():
        rates[i, j] = lam
    return TrafficMatrix(slot_index=0, leo_ids=snap.leo_ids, rates=rates)


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
    # routes of 1 to 14 hops along a chain; a Python sum over scalar hop costs
    # is the reference, so the running sum must match it exactly
    snap = _chain_snapshot(n=14, spacing_km=1234.5)
    params = OverheadParams()
    k = snap.controller_ids[0]
    routes = [tuple(range(start, 14)) + (k,) for start in range(13, -1, -1)]
    want = [sum(float(hop_cost(snap, params, a, b, 36)) for a, b in zip(r, r[1:])) for r in routes]
    assert route_costs(routes, snap, params, 36) == want


def test_control_hops_direct_is_one():
    snap = _chain_snapshot(n=1)
    fov = [FovDomain(1, frozenset({0}))]
    a = DomainAssignment(0, {0: 1})
    assert control_hops(0, a, snap, fov) == 1


def test_control_hops_chain_of_three():
    snap = _chain_snapshot(n=3)
    fov = [FovDomain(3, frozenset({2}))]  # only the far end sees the controller
    a = DomainAssignment(0, {0: 3, 1: 3, 2: 3}, fov_waived=True)
    assert control_hops(2, a, snap, fov) == 1
    assert control_hops(1, a, snap, fov) == 2
    assert control_hops(0, a, snap, fov) == 3


def test_flow_overhead_zero_traffic():
    snap = _chain_snapshot(n=2)
    fov = [FovDomain(2, frozenset({0, 1}))]
    a = DomainAssignment(0, {0: 2, 1: 2})
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
    snap = NetworkSnapshot(0.0, positions, velocities, frozenset(), (0, 1), (2,), roles)
    fov = [FovDomain(2, frozenset({0, 1}))]
    a = DomainAssignment(0, {0: 2, 1: 2})
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
    cover = {leo for d in fov for leo in d.member_leo_ids}
    a = DomainAssignment(
        0,
        {leo: min(d.controller_id for d in fov if leo in d.member_leo_ids) for leo in cover},
        uncovered=frozenset(set(snap.leo_ids) - cover),
    )
    tm = _traffic(snap, {(0, 1): 1.5, (1, 0): 0.5})
    params = OverheadParams()
    w1 = flow_overhead(a, tm, snap, params, fov)
    tm2 = TrafficMatrix(0, snap.leo_ids, tm.rates * 2.0)
    assert flow_overhead(a, tm2, snap, params, fov) == pytest.approx(2 * w1, rel=1e-12)


def test_sync_single_domain_has_no_inter_term():
    snap = _chain_snapshot(n=3)
    a = DomainAssignment(0, {0: 3, 1: 3, 2: 3})
    w_in, w_out = sync_overhead(a, snap, OverheadParams())
    assert w_out == 0.0
    assert w_in > 0.0


def test_sync_hand_example_two_domains():
    snap = make_ring_snapshot(n_leo=8, ctrl_lons=(0.0, 180.0))
    k1, k2 = snap.controller_ids
    a = DomainAssignment(0, {0: k1, 1: k1, 2: k1, 3: k2, 4: k2, 5: k2, 6: k2, 7: k2})
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
    a = DomainAssignment(0, {i: (k1 if i < 4 else k2) for i in range(8)})
    w1 = sync_overhead(a, snap, OverheadParams(f_sync_hz=1.0))
    w2 = sync_overhead(a, snap, OverheadParams(f_sync_hz=2.0))
    assert w2[0] == pytest.approx(2 * w1[0])
    assert w2[1] == pytest.approx(2 * w1[1])


def test_migration_identical_assignments_is_zero():
    snap = make_ring_snapshot(n_leo=4, ctrl_lons=(0.0, 180.0))
    k1, k2 = snap.controller_ids
    a = DomainAssignment(0, {0: k1, 1: k1, 2: k2, 3: k2})
    b = DomainAssignment(1, dict(a.domain_of))
    tm = _traffic(snap, {(0, 2): 1.0})
    assert migration_overhead(a, b, snap, tm, OverheadParams(), 30.0) == 0.0


def test_migration_hand_value_single_handover():
    snap = make_ring_snapshot(n_leo=4, ctrl_lons=(0.0, 180.0))
    k1, k2 = snap.controller_ids
    prev = DomainAssignment(0, {0: k1, 1: k1, 2: k2, 3: k2})
    cur = DomainAssignment(1, {0: k1, 1: k2, 2: k2, 3: k2})  # LEO 1 handed over
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
    prev = DomainAssignment(0, {i: k1 for i in range(6)})
    tm = _traffic(snap, {(0, 1): 1.0})
    params = OverheadParams()
    values = []
    for moved in range(4):
        cur = DomainAssignment(
            1, {i: (k2 if i < moved else k1) for i in range(6)}
        )
        values.append(migration_overhead(prev, cur, snap, tm, params, 10.0))
    assert values == sorted(values)
    assert values[0] == 0.0


def test_path_compute_hand_value():
    snap = make_ring_snapshot(n_leo=4, ctrl_lons=(0.0,))
    k = snap.controller_ids[0]
    a = DomainAssignment(0, {i: k for i in range(4)})
    tm = _traffic(snap, {(0, 1): 10.0})  # 10 intra requests/s
    w_intra, w_inter = path_compute_overhead(a, tm, OverheadParams(), snap)
    assert w_intra == pytest.approx(10 * 16 / 100.0, rel=1e-12)  # f(4)=16, C_MEO=100
    assert w_inter == 0.0


def test_path_compute_scales_with_capacity():
    snap = make_ring_snapshot(n_leo=4, ctrl_lons=(0.0,))
    k = snap.controller_ids[0]
    a = DomainAssignment(0, {i: k for i in range(4)})
    tm = _traffic(snap, {(0, 1): 10.0})
    w1, _ = path_compute_overhead(a, tm, OverheadParams(capacity_unit_ops=1.0), snap)
    w2, _ = path_compute_overhead(a, tm, OverheadParams(capacity_unit_ops=2.0), snap)
    assert w2 == pytest.approx(w1 / 2.0)


def test_objective_reduces_to_wctl_when_lambda_zero():
    snap = make_ring_snapshot(n_leo=4, ctrl_lons=(0.0, 180.0))
    fov = compute_fov_domains(snap)
    cover = {leo for d in fov for leo in d.member_leo_ids}
    a = DomainAssignment(
        0,
        {leo: min(d.controller_id for d in fov if leo in d.member_leo_ids) for leo in cover},
        uncovered=frozenset(set(snap.leo_ids) - cover),
    )
    tm = _traffic(snap, {(0, 1): 2.0})
    params = OverheadParams(tradeoff_lambda=0.0)
    report = evaluate(a, tm, snap, params, fov)
    assert report.objective == report.w_ctl


def test_objective_flags_fov_violation():
    snap = make_ring_snapshot(n_leo=4, ctrl_lons=(0.0,))
    k = snap.controller_ids[0]
    fov = [FovDomain(k, frozenset({0}))]
    a = DomainAssignment(0, {0: k, 1: k, 2: k, 3: k})
    tm = _traffic(snap, {})
    with pytest.raises(ConstraintViolationError) as err:
        objective(a, tm, snap, OverheadParams(), fov)
    assert any(v.constraint == "fov_containment" for v in err.value.violations)


def test_validate_catches_unassigned_and_stray():
    snap = make_ring_snapshot(n_leo=3, ctrl_lons=(0.0,))
    k = snap.controller_ids[0]
    fov = [FovDomain(k, frozenset({0, 1, 2}))]
    missing = DomainAssignment(0, {0: k})
    names = {v.constraint for v in validate_assignment(missing, snap, fov)}
    assert "unique_membership" in names
    overlap = DomainAssignment(0, {0: k, 1: k, 2: k}, uncovered=frozenset({2}))
    names = {v.constraint for v in validate_assignment(overlap, snap, fov)}
    assert "unique_membership" in names


def test_validate_catches_disconnected_domain():
    snap = _chain_snapshot(n=3)
    k = snap.controller_ids[0]
    fov = [FovDomain(k, frozenset({2}))]
    # LEO 0 assigned but the intermediate LEO 1 is not: 0 cannot reach the seed
    a = DomainAssignment(0, {0: k, 2: k}, uncovered=frozenset({1}), fov_waived=True)
    names = {v.constraint for v in validate_assignment(a, snap, fov)}
    assert "connectivity" in names


def test_overhead_additivity_and_nonnegativity(desk_scenario_short):
    scn = desk_scenario_short
    from eunomia.partition import greedy_partition

    geom = scn.geometries[0]
    a = greedy_partition(scn.ctx, geom.slot, geometry=geom)
    report = evaluate(
        a, scn.base_traffic[0], geom.slot.snapshot, scn.ctx.overhead_params, geom.fov_domains
    )
    assert report.w_ctl == report.w_flow + report.w_sync_in + report.w_sync_out + report.w_mig
    for value in (report.w_flow, report.w_sync_in, report.w_sync_out, report.w_mig,
                  report.w_cpt_intra, report.w_cpt_inter):
        assert value >= 0.0


def test_bandwidth_homogeneity():
    snap = make_ring_snapshot(n_leo=8, ctrl_lons=(0.0, 180.0))
    fov = compute_fov_domains(snap)
    cover = {leo for d in fov for leo in d.member_leo_ids}
    a = DomainAssignment(
        0,
        {leo: min(d.controller_id for d in fov if leo in d.member_leo_ids) for leo in cover},
        uncovered=frozenset(set(snap.leo_ids) - cover),
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

import math

import numpy as np
import pytest

from eunomia.corg import (
    CorgWeights,
    build_corg,
    corg_edges,
    edge_weight,
    pairwise_costs,
    similarity,
)
from eunomia.overhead import OverheadParams
from eunomia.visibility import OverlapRegion

from conftest import compact_traffic, corg_from_edges, fov_array, make_ring_snapshot


def _traffic(snap, entries):
    n = len(snap.leo_ids)
    rates = np.zeros((n, n))
    for (i, j), lam in entries.items():
        rates[i, j] = lam
    return compact_traffic(snap.leo_ids, rates)


def test_pairwise_comoving_satellites_have_zero_mobility_cost():
    snap = make_ring_snapshot(n_leo=4, ctrl_lons=(0.0,))
    snap.velocities[1] = snap.velocities[0].copy()
    tm = _traffic(snap, {})
    _, _, w_mig = pairwise_costs(0, 1, tm, snap, OverheadParams(), CorgWeights())
    assert w_mig == 0.0


def test_pairwise_counter_moving_satellites_max_mobility_cost():
    snap = make_ring_snapshot(n_leo=4, ctrl_lons=(0.0,))
    snap.velocities[1] = -snap.velocities[0]
    tm = _traffic(snap, {})
    _, _, w_mig = pairwise_costs(0, 1, tm, snap, OverheadParams(), CorgWeights(mig_unit_s=2.0))
    assert w_mig == pytest.approx(2.0)


def test_pairwise_zero_traffic_zero_flow_cost():
    snap = make_ring_snapshot(n_leo=4, ctrl_lons=(0.0,))
    tm = _traffic(snap, {})
    w_flow, _, _ = pairwise_costs(0, 1, tm, snap, OverheadParams(), CorgWeights())
    assert w_flow == 0.0


def test_pairwise_flow_cost_hand_value():
    snap = make_ring_snapshot(n_leo=4, ctrl_lons=(0.0,))
    tm = _traffic(snap, {(0, 1): 1.5, (1, 0): 0.5})
    params = OverheadParams()
    w_flow, w_sync, _ = pairwise_costs(0, 1, tm, snap, params, CorgWeights())
    dist = float(np.linalg.norm(snap.positions[0] - snap.positions[1]))
    hop = 36 * 8 / 1e9 + dist / 299792.458
    assert w_flow == pytest.approx(2.0 * hop, rel=1e-12)
    assert w_sync == pytest.approx(
        params.f_sync_hz * (24 * 8 / 1e9 + dist / 299792.458), rel=1e-12
    )


def test_pairwise_symmetry():
    snap = make_ring_snapshot(n_leo=4, ctrl_lons=(0.0,))
    tm = _traffic(snap, {(0, 1): 1.0, (1, 0): 2.0})
    p, w = OverheadParams(), CorgWeights()
    assert pairwise_costs(0, 1, tm, snap, p, w) == pytest.approx(
        pairwise_costs(1, 0, tm, snap, p, w)
    )


def test_edge_weight_examples():
    assert edge_weight((5.0, 9.0, 3.0), CorgWeights(alpha=1.0, beta=0.0)) == 5.0
    assert edge_weight((2.0, 1.0, 1.0), CorgWeights()) == pytest.approx(1.5)
    assert edge_weight((0.0, 0.0, 0.0), CorgWeights()) == 0.0


def test_edge_weight_rejects_bad_weights():
    with pytest.raises(ValueError):
        CorgWeights(alpha=0.8, beta=0.4)
    with pytest.raises(ValueError):
        CorgWeights(alpha=-0.1, beta=0.3)


def _corg(region, tm, snap, params, fov):
    """The region's CORG, taken from a slot edge table over that region alone."""
    return build_corg(region, corg_edges([region], tm, snap, params, fov))


def _edges(corg) -> dict[tuple[int, int], float]:
    return dict(zip(map(tuple, corg.pairs.tolist()), corg.xi.tolist()))


def _two_leo_region():
    snap = make_ring_snapshot(n_leo=2, leo_lons=(0.0, 45.0), ctrl_lons=(10.0, 35.0))
    k1, k2 = snap.controller_ids
    fov = fov_array(snap, {k1: {0, 1}, k2: {0, 1}})
    region = OverlapRegion(frozenset({0, 1}), (k1, k2))
    tm = _traffic(snap, {(0, 1): 1.0})
    return snap, fov, region, tm


def test_build_corg_edge_enumeration():
    # 2 contested LEOs, 2 controllers seeing both: 1 switch-switch edge plus
    # 4 controller attachments
    snap, fov, region, tm = _two_leo_region()
    corg = _corg(region, tm, snap, OverheadParams(), fov)
    assert len(corg.node_ids) == 4
    assert len(corg.xi) == 5
    virtual = np.isin(corg.pairs, corg.virtual_ids)
    leo_leo = corg.pairs[~virtual.any(axis=1)]
    ctrl_leo = corg.pairs[virtual[:, 0] != virtual[:, 1]]
    assert len(leo_leo) == 1
    assert len(ctrl_leo) == 4


def test_build_corg_no_virtual_virtual_edges():
    snap, fov, region, tm = _two_leo_region()
    corg = _corg(region, tm, snap, OverheadParams(), fov)
    assert not np.isin(corg.pairs, corg.virtual_ids).all(axis=1).any()


def test_build_corg_matches_adjacency_oracle():
    snap = make_ring_snapshot(n_leo=6, ctrl_lons=(0.0, 90.0))
    k1, k2 = snap.controller_ids
    fov = fov_array(snap, {k1: {0, 1, 2}, k2: {1, 2, 3}})
    region = OverlapRegion(frozenset({1, 2}), (k1, k2))
    tm = _traffic(snap, {})
    corg = _corg(region, tm, snap, OverheadParams(), fov)
    expected = set()
    members = {1, 2}
    for a, b in snap.topology.edge_array.tolist():
        if a in members and b in members:
            expected.add((a, b))
    for k in (k1, k2):
        for leo in members:
            if fov[k - len(snap.leo_ids), leo]:
                expected.add((min(leo, k), max(leo, k)))
    assert set(_edges(corg)) == expected


@pytest.mark.parametrize("scenario", ["desk_scenario_short", "default_scenario_short"])
def test_build_corg_lists_edges_in_the_order_of_the_sorted_edge_set(scenario, request):
    scn = request.getfixturevalue(scenario)
    for geom, traffic in zip(scn.geometries[:2], scn.base_traffic):
        snap, fov = geom.slot.snapshot, geom.fov_domains
        edges = corg_edges(geom.regions, traffic, snap, scn.ctx.overhead_params, fov)
        for region in geom.regions:
            corg = build_corg(region, edges)
            members = region.leo_ids
            isl = sorted(map(tuple, snap.topology.edge_array.tolist()))
            want = [(a, b) for a, b in isl if a in members and b in members]
            want += [
                (min(leo, k), max(leo, k))
                for k in region.controller_ids
                for leo in sorted(members)
                if fov[k - len(snap.leo_ids), leo]
            ]
            assert list(_edges(corg)) == want


def test_corg_weight_monotone_in_rate():
    snap, fov, region, _ = _two_leo_region()
    params = OverheadParams()
    low = _corg(region, _traffic(snap, {(0, 1): 0.5}), snap, params, fov)
    high = _corg(region, _traffic(snap, {(0, 1): 5.0}), snap, params, fov)
    assert _edges(high)[0, 1] > _edges(low)[0, 1]


def test_similarity_examples():
    corg = corg_from_edges((0, 1), (2,), {(0, 1): 0.0, (1, 2): 4.0})
    sim = similarity(corg, sigma=math.sqrt(2.0))  # 2 sigma^2 = 4
    i = {n: k for k, n in enumerate(corg.node_ids)}
    assert sim.values[i[0], i[1]] == pytest.approx(1.0)  # zero cost, unit similarity
    assert sim.values[i[1], i[2]] == pytest.approx(math.exp(-1.0))
    assert sim.values[i[0], i[2]] == 0.0  # absent pair
    assert np.all(np.diag(sim.values) == 1.0)
    assert np.array_equal(sim.values, sim.values.T)
    assert sim.values.max() <= 1.0


def test_similarity_sigma_defaults_to_median():
    corg = corg_from_edges(range(4), (), {(0, 1): 1.0, (1, 2): 2.0, (2, 3): 8.0})
    sim = similarity(corg)
    assert sim.sigma == math.sqrt(2.0)  # sigma^2 is the median xi


def test_similarity_zero_cost_graph_falls_back_to_unit_sigma():
    corg = corg_from_edges((0, 1), (), {(0, 1): 0.0})
    assert similarity(corg).sigma == 1.0


def test_edge_list_dump_is_sorted_and_complete():
    snap, fov, region, tm = _two_leo_region()
    corg = _corg(region, tm, snap, OverheadParams(), fov)
    assert corg.xi.size
    assert all(a < b for a, b in corg.pairs.tolist())  # (low id, high id)
    assert len(_edges(corg)) == len(corg.xi)  # each pair once


def test_similarity_monotone_decreasing_in_cost():
    xs = [0.1, 0.5, 1.0, 3.0]
    sims = []
    for x in xs:
        corg = corg_from_edges((0, 1), (), {(0, 1): x})
        s = similarity(corg, sigma=1.0)
        sims.append(s.values[0, 1])
    assert sims == sorted(sims, reverse=True)

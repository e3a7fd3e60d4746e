"""``run_slot`` against the scalar reference in ``emulator_oracle.py``.

Every ``EmulationStats`` field, the trace hash included, must match bit for
bit in the cases the pinned golden runs do not reach: an ISL graph with a
cut, flows from a switch to itself, queue-window and unmanaged-destination
drops at one controller, gamma 0 and a waived-FOV centralized assignment.
"""
from dataclasses import asdict, replace

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from eunomia.constellation import IslTopology, Role
from eunomia.emulator import EmulatorParams, generate_arrivals, partition_chain
from eunomia.overhead import OverheadParams

from conftest import assignment, compact_traffic, emulate, fov_array, make_ring_snapshot, make_slot
from emulator_oracle import oracle_run_slot

DURATION_S = 30.0


def _both(slot, assignment, tm, params, fov, seed, **kwargs):
    new = emulate(slot, assignment, tm, params, fov, seed, trace=True, **kwargs)
    old = oracle_run_slot(slot, assignment, tm, params, EmulatorParams(), seed, fov, **kwargs)
    assert asdict(new) == asdict(old)
    return new


def _random_traffic(snap, rate, seed):
    """Every ordered pair, the diagonal (src == dst) included, at random rates."""
    n = len(snap.leo_ids)
    rates = np.random.default_rng(seed).random((n, n)) * rate
    return compact_traffic(snap.leo_ids, rates)


def _cut_world():
    """Ring of 8 LEOs cut into {0..3} and {4..7}; two far MEOs that see every
    LEO but 6, which is unmanaged; each domain spans both halves of the cut."""
    ring = make_ring_snapshot(n_leo=8, ctrl_lons=(0.0, 180.0), ctrl_radius_km=1e5)
    cut = [e for e in ring.topology.edge_array.tolist() if e not in ([3, 4], [0, 7])]
    snap = replace(ring, topology=IslTopology(np.array(cut), ring.leo_ids))
    k1, k2 = snap.controller_ids
    fov = fov_array(snap, {k: set(snap.leo_ids) - {6} for k in (k1, k2)})
    cut_assignment = assignment(8, {0: k1, 1: k1, 4: k1, 5: k1, 2: k2, 3: k2, 7: k2})
    return snap, k1, fov, cut_assignment


@pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("seed", [1, 2])
def test_matches_oracle_across_a_cut_with_self_flows(gamma, seed):
    snap, k1, fov, assignment = _cut_world()
    a, b = snap.topology.edge_array.T
    graph = csr_matrix((np.ones(len(a)), (a, b)), shape=(8, 8))
    assert connected_components(graph, directed=False)[0] == 2
    tm = _random_traffic(snap, 2.0, seed)
    stats = _both(make_slot(snap, DURATION_S), assignment, tm, OverheadParams(),
                  fov, seed, gamma=gamma)
    if gamma == 0.0:
        assert stats.requests_total == 0 and stats.bytes_flow == 0
    else:
        assert 0 < stats.requests_dropped < stats.requests_total


def test_matches_oracle_with_window_and_unmanaged_destination_drops_on_one_controller():
    snap, k1, fov, assignment = _cut_world()
    tm = _random_traffic(snap, 20.0, 7)
    params = OverheadParams(capacity_override_ops={k1: 40.0})
    stats = _both(make_slot(snap, DURATION_S), assignment, tm, params,
                  fov, 3, gamma=1.0)
    times, srcs, dsts, _ = generate_arrivals(tm, DURATION_S, 3, 0)
    from_k1 = np.isin(srcs, [0, 1, 4, 5])
    toward_unmanaged = int(np.count_nonzero(from_k1 & (dsts == 6)))
    unmanaged_source = int(np.count_nonzero(srcs == 6))
    assert toward_unmanaged > 0
    # the rest of the drops are queue-window drops
    assert stats.requests_dropped > unmanaged_source + toward_unmanaged + 100


@pytest.mark.parametrize("gamma", [0.5, 1.0])
def test_matches_oracle_on_a_waived_fov_centralized_assignment(gamma):
    snap = make_ring_snapshot(
        n_leo=10, ctrl_lons=(0.0, 180.0), ctrl_roles=(Role.GS, Role.GS)
    )
    g1, g2 = snap.controller_ids
    fov = fov_array(snap, {g1: {0, 1, 9}, g2: {4, 5, 6}})
    centralized = assignment(
        10, {leo: g1 for leo in snap.leo_ids}, fov_waived=True,
        relay_controller_ids=(g1, g2), strategy="odc",
    )
    tm = _random_traffic(snap, 3.0, 11)
    stats = _both(make_slot(snap, DURATION_S), centralized, tm, OverheadParams(),
                  fov, 5, gamma=gamma)
    assert stats.requests_total > 0


@pytest.mark.parametrize("strategy", ["eunomia", "odc", "greedy"])
def test_matches_oracle_on_desk_slots(desk_scenario_short, strategy):
    scn = desk_scenario_short
    chain = partition_chain(scn, strategy, 0.5, 2)
    prev = None
    for t in range(3):
        geom = scn.geometries[t]
        _both(geom.slot, chain[t], scn.base_traffic[t], scn.ctx.overhead_params,
              geom.fov_domains, 2, gamma=0.5, prev_assignment=prev, strategy=strategy)
        prev = chain[t]

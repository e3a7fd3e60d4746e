import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

from eunomia import constellation
from eunomia.constellation import (
    LEO_SHELLS,
    MEO_SHELLS,
    MU_KM3_S2,
    NINE_CITIES,
    R_EARTH_KM,
    Constellation,
    IslTopology,
    NetworkSnapshot,
    Role,
    ShellSpec,
    build_isl_topology,
    generate_shell,
    geodetic_to_ecef,
    orbital_period,
)
from eunomia.scenario import desk_config, load_config

from conftest import make_ring_snapshot
from emulator_oracle import _all_pairs_preds
from geometry_oracle import propagate, propagate_inertial

TINY_CONFIG = Path(__file__).parent / "data" / "tiny_config.yaml"
TABLE_PERIODS_MIN = {3000.0: 150.46, 6000.0: 228.23, 8070.0: 287.93, 10354.0: 358.76}


@pytest.mark.parametrize("altitude,period_min", sorted(TABLE_PERIODS_MIN.items()))
def test_orbital_period_matches_published_values(altitude, period_min):
    got = orbital_period(R_EARTH_KM + altitude) / 60.0
    assert abs(got - period_min) / period_min < 0.005


def test_orbital_period_kepler_cross_check():
    r = R_EARTH_KM + 780.0
    expected = 2.0 * math.pi * math.sqrt(r**3 / MU_KM3_S2)
    assert orbital_period(r) == pytest.approx(expected)
    assert orbital_period(r) / 60.0 == pytest.approx(100.3, abs=0.1)


def test_orbital_period_rejects_subsurface_radius():
    with pytest.raises(ValueError):
        orbital_period(1000.0)


def test_generate_shell_starlink_counts():
    nodes = generate_shell(LEO_SHELLS["starlink550"])
    assert len(nodes) == 1584
    per_plane = {}
    for n in nodes:
        per_plane.setdefault(n.plane_index, 0)
        per_plane[n.plane_index] += 1
    assert set(per_plane.values()) == {22}
    assert len(per_plane) == 72


def test_generate_shell_meo_counts():
    nodes = generate_shell(MEO_SHELLS["meo10354"])
    assert len(nodes) == 6
    assert sum(1 for n in nodes if n.plane_index == 0) == 3


def test_generate_shell_single_node():
    nodes = generate_shell(ShellSpec(780.0, 50.0, 1, 1))
    assert len(nodes) == 1
    assert nodes[0].raan == 0.0
    assert nodes[0].phase0 == 0.0


def test_generate_shell_raan_spacing():
    nodes = generate_shell(ShellSpec(780.0, 50.0, 4, 2))
    raans = sorted({n.raan for n in nodes})
    assert raans == pytest.approx([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])


def test_shell_spec_validation():
    with pytest.raises(ValueError):
        ShellSpec(-1.0, 50.0, 1, 1)
    with pytest.raises(ValueError):
        ShellSpec(780.0, 190.0, 1, 1)
    with pytest.raises(ValueError):
        ShellSpec(780.0, 50.0, 0, 1)
    with pytest.raises(ValueError):
        ShellSpec(780.0, 50.0, 1, 1, phasing_offset=1.0)


def test_propagation_periodicity_inertial():
    node = generate_shell(LEO_SHELLS["iridium780"])[7]
    p0, v0 = propagate_inertial(node, 0.0)
    pT, vT = propagate_inertial(node, node.period_s)
    assert np.linalg.norm(p0 - pT) < 1e-6
    assert np.linalg.norm(v0 - vT) < 1e-9


def test_propagation_preserves_radius():
    node = generate_shell(LEO_SHELLS["iridium780"])[3]
    rng = np.random.default_rng(42)
    worst = 0.0
    for t in rng.uniform(0.0, 10 * node.period_s, 1000):
        pos, _ = propagate(node, float(t))
        worst = max(worst, abs(np.linalg.norm(pos) - node.orbital_radius_km))
    assert worst < 1e-6


def test_propagation_speed_matches_circular_orbit():
    node = generate_shell(MEO_SHELLS["meo10354"])[0]
    expected = 2.0 * math.pi * node.orbital_radius_km / node.period_s
    for t in (0.0, 517.3, 9000.0):
        _, vel = propagate(node, t)
        assert np.linalg.norm(vel) == pytest.approx(expected, rel=1e-9)


def test_geodetic_to_ecef_examples():
    assert geodetic_to_ecef(0.0, 0.0) == pytest.approx([R_EARTH_KM, 0.0, 0.0])
    assert geodetic_to_ecef(90.0, 123.0) == pytest.approx([0.0, 0.0, R_EARTH_KM], abs=1e-9)
    ny = geodetic_to_ecef(40.7, -74.0)
    assert np.linalg.norm(ny) == pytest.approx(R_EARTH_KM)
    lat = math.radians(40.7)
    lon = math.radians(-74.0)
    assert ny == pytest.approx(
        [
            R_EARTH_KM * math.cos(lat) * math.cos(lon),
            R_EARTH_KM * math.cos(lat) * math.sin(lon),
            R_EARTH_KM * math.sin(lat),
        ]
    )


def _degrees(edges):
    deg = {}
    for a, b in edges:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    return deg


def test_isl_topology_starlink_degree_four():
    nodes = generate_shell(LEO_SHELLS["starlink550"])
    deg = _degrees(build_isl_topology(nodes))
    assert set(deg.values()) == {4}
    assert len(deg) == 1584


def test_isl_topology_single_plane_ring():
    nodes = generate_shell(ShellSpec(780.0, 50.0, 1, 4))
    deg = _degrees(build_isl_topology(nodes))
    assert set(deg.values()) == {2}


def _connected(nodes, edges):
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    seen = {nodes[0].id}
    stack = [nodes[0].id]
    while stack:
        for nb in adj.get(stack.pop(), []):
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(nodes)


def test_isl_topology_iridium_regular_and_connected():
    nodes = generate_shell(LEO_SHELLS["iridium780"])
    edges = build_isl_topology(nodes)
    deg = _degrees(edges)
    assert set(deg.values()) == {4}
    assert _connected(nodes, edges)


@pytest.mark.parametrize("name", sorted(LEO_SHELLS))
def test_isl_topology_connected_for_all_presets(name):
    nodes = generate_shell(LEO_SHELLS[name])
    assert _connected(nodes, build_isl_topology(nodes))


def test_snapshot_is_pure_function_of_time():
    const = Constellation.build(
        LEO_SHELLS["iridium780"], MEO_SHELLS["meo10354"], NINE_CITIES[:3]
    )
    a = const.snapshot(1234.0)
    b = const.snapshot(1234.0)
    for node_id in range(len(a.positions)):
        assert np.array_equal(a.positions[node_id], b.positions[node_id])
        assert np.array_equal(a.velocities[node_id], b.velocities[node_id])


def test_snapshot_satellite_radii_and_roles():
    const = Constellation.build(
        LEO_SHELLS["iridium780"], MEO_SHELLS["meo10354"], NINE_CITIES[:3]
    )
    snap = const.snapshot(777.0)
    assert len(snap.positions) == len(snap.leo_ids) + len(snap.controller_ids)
    for node in const.leo_nodes + const.meo_nodes:
        assert abs(
            np.linalg.norm(snap.positions[node.id]) - node.orbital_radius_km
        ) < 1e-6
    gs_ids = [g.id for g in const.ground_stations]
    assert all(snap.roles[g] is Role.GS for g in gs_ids)
    assert all(np.linalg.norm(snap.velocities[g]) == 0.0 for g in gs_ids)


def test_snapshot_matches_single_node_propagation():
    const = Constellation.build(
        LEO_SHELLS["iridium780"], MEO_SHELLS["meo10354"], NINE_CITIES[:3]
    )
    snap = const.snapshot(321.5)
    for node in (const.leo_nodes[13], const.meo_nodes[2]):
        pos, vel = propagate(node, 321.5)
        assert snap.positions[node.id] == pytest.approx(pos, abs=1e-9)
        assert snap.velocities[node.id] == pytest.approx(vel, abs=1e-12)


def test_snapshot_rejects_leo_ids_other_than_0_to_n_minus_1():
    ring = make_ring_snapshot(n_leo=3, ctrl_lons=(0.0,))
    with pytest.raises(ValueError, match="LEO ids"):
        dataclasses.replace(ring, leo_ids=(1, 2, 3))
    # the same network with its LEOs numbered after the controller
    order = [3, 0, 1, 2]
    with pytest.raises(ValueError, match="LEO ids"):
        NetworkSnapshot(
            0.0, ring.positions[order], ring.velocities[order],
            frozenset({(1, 2), (2, 3), (1, 3)}), (1, 2, 3), (0,), (Role.MEO,) + (Role.LEO,) * 3,
        )


@pytest.mark.parametrize("leo", ["iridium780", "starlink550"])
def test_snapshots_share_the_topology_a_snapshot_would_build(leo):
    const = Constellation.build(LEO_SHELLS[leo], MEO_SHELLS["meo8070"], NINE_CITIES)
    a, b = const.snapshot(0.0), const.snapshot(900.0)
    assert a.topology is b.topology is const.topology
    own = NetworkSnapshot(
        a.time_s, a.positions, a.velocities, a.isl_edges, a.leo_ids, a.controller_ids, a.roles
    )
    assert own.topology is not a.topology
    # each form against the per-snapshot build it replaces
    edges = sorted(a.isl_edges)
    adj = {i: [] for i in a.leo_ids}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    pos = {leo: p for p, leo in enumerate(a.leo_ids)}
    dense = np.zeros((len(a.leo_ids),) * 2)
    for i, j in edges:
        dense[pos[i], pos[j]] = dense[pos[j], pos[i]] = 1
    for topo in (a.topology, own.topology):
        assert topo.neighbors == {i: tuple(sorted(v)) for i, v in adj.items()}
        assert topo.edge_array.tolist() == [list(e) for e in edges]
        assert np.array_equal(topo.graph.toarray(), dense)
    # a snapshot of other edges builds its own topology, one of the same edges keeps it
    cut = dataclasses.replace(a, isl_edges=a.isl_edges - {edges[0]})
    assert cut.topology.edge_array.tolist() == [list(e) for e in edges[1:]]
    assert dataclasses.replace(a, time_s=1.0).topology is a.topology


def _preset_constellation(config):
    stations = [(g.name, g.latitude_deg, g.longitude_deg) for g in config.ground_stations]
    return Constellation.build(config.leo_shell, config.meo_shell, stations)


@pytest.mark.parametrize(
    "config", [lambda: load_config(TINY_CONFIG), desk_config], ids=["tiny", "desk"]
)
def test_hop_predecessors_equal_the_all_pairs_rows(config):
    snap = _preset_constellation(config()).snapshot(0.0)
    want = _all_pairs_preds(snap)
    topo = IslTopology(snap.isl_edges, snap.leo_ids)
    n = len(snap.leo_ids)
    # sources requested in overlapping, repeating batches, in no sorted order
    for batch in (np.array([n - 1, 0, n - 1]), np.arange(n)[::-2], np.arange(n)):
        preds = topo.hop_predecessors(batch)
        assert preds.dtype == want.dtype
        assert np.array_equal(preds[batch], want[batch])


def test_hop_predecessors_compute_each_source_once(monkeypatch):
    snap = _preset_constellation(desk_config()).snapshot(0.0)
    topo = IslTopology(snap.isl_edges, snap.leo_ids)
    asked = []

    def recorded(*args, indices, **kwargs):
        asked.append(indices.tolist())
        return shortest_path(*args, indices=indices, **kwargs)

    monkeypatch.setattr(constellation, "shortest_path", recorded)
    topo.hop_predecessors(np.array([7, 3, 7]))
    topo.hop_predecessors(np.array([3, 7, 3]))
    assert asked == [[3, 7]]
    topo.hop_predecessors(np.array([9, 3, 1]))
    assert asked == [[3, 7], [1, 9]]
    topo.hop_predecessors(np.array([], dtype=np.int64))
    assert len(asked) == 2

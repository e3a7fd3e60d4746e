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
    generate_shell,
    geodetic_to_ecef,
    grid_edges,
    orbital_period,
)
from eunomia.scenario import desk_config, load_config

from conftest import make_ring_snapshot
from emulator_oracle import _all_pairs_preds
import geometry_oracle
from geometry_oracle import elements, propagate, propagate_inertial, shell_nodes

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
    raan = generate_shell(LEO_SHELLS["starlink550"])[0]
    assert raan.shape == (1584,)
    planes, per_plane = np.unique(raan, return_counts=True)
    assert len(planes) == 72 and set(per_plane.tolist()) == {22}


def test_generate_shell_meo_counts():
    raan = generate_shell(MEO_SHELLS["meo10354"])[0]
    assert len(raan) == 6
    assert np.count_nonzero(raan == 0.0) == 3


def test_generate_shell_single_node():
    raan, phase0, *_ = generate_shell(ShellSpec(780.0, 50.0, 1, 1))
    assert raan.tolist() == [0.0]
    assert phase0.tolist() == [0.0]


def test_generate_shell_raan_spacing():
    raan = generate_shell(ShellSpec(780.0, 50.0, 4, 2))[0]
    assert np.unique(raan) == pytest.approx([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])


SHELLS = {
    **LEO_SHELLS,
    **MEO_SHELLS,
    **{f"{p}x{s}": ShellSpec(780.0, 50.0, p, s) for p, s in [(1, 1), (1, 4), (4, 1), (2, 2)]},
}


@pytest.mark.parametrize("name", sorted(SHELLS))
def test_shell_arrays_equal_the_per_node_construction(name):
    spec = SHELLS[name]
    want = np.array(shell_nodes(spec)).T
    assert generate_shell(spec).tobytes() == want.tobytes()
    edges = grid_edges(spec)
    assert edges.dtype == np.int64 and edges.shape[1] == 2
    assert edges.tolist() == [list(e) for e in geometry_oracle.grid_edges(spec)]
    # a constellation holds each shell's elements, the LEO shell's first
    const = Constellation.build(spec, MEO_SHELLS["meo8070"], NINE_CITIES[:1])
    want = np.hstack([want, np.array(shell_nodes(MEO_SHELLS["meo8070"])).T])
    got = np.array([const.raan, const.phase0, const.inclination, const.radius_km, const.rate])
    assert got.tobytes() == want.tobytes()
    assert const.topology.edge_array.tolist() == edges.tolist()
    assert const.leo_ids == tuple(range(spec.total_sats))


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
    node = shell_nodes(LEO_SHELLS["iridium780"])[7]
    period = 2.0 * math.pi / node[4]
    p0, v0 = propagate_inertial(node, 0.0)
    pT, vT = propagate_inertial(node, period)
    assert np.linalg.norm(p0 - pT) < 1e-6
    assert np.linalg.norm(v0 - vT) < 1e-9


def test_propagation_preserves_radius():
    node = shell_nodes(LEO_SHELLS["iridium780"])[3]
    radius, period = node[3], 2.0 * math.pi / node[4]
    rng = np.random.default_rng(42)
    worst = 0.0
    for t in rng.uniform(0.0, 10 * period, 1000):
        pos, _ = propagate(node, float(t))
        worst = max(worst, abs(np.linalg.norm(pos) - radius))
    assert worst < 1e-6


def test_propagation_speed_matches_circular_orbit():
    spec = MEO_SHELLS["meo10354"]
    node = shell_nodes(spec)[0]
    expected = 2.0 * math.pi * spec.orbital_radius_km / orbital_period(spec.orbital_radius_km)
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
    deg = _degrees(grid_edges(LEO_SHELLS["starlink550"]).tolist())
    assert set(deg.values()) == {4}
    assert len(deg) == 1584


def test_isl_topology_single_plane_ring():
    deg = _degrees(grid_edges(ShellSpec(780.0, 50.0, 1, 4)).tolist())
    assert set(deg.values()) == {2}


def _connected(n, edges):
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    seen = {0}
    stack = [0]
    while stack:
        for nb in adj.get(stack.pop(), []):
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == n


def test_isl_topology_iridium_regular_and_connected():
    spec = LEO_SHELLS["iridium780"]
    edges = grid_edges(spec).tolist()
    deg = _degrees(edges)
    assert set(deg.values()) == {4}
    assert _connected(spec.total_sats, edges)


@pytest.mark.parametrize("name", sorted(LEO_SHELLS))
def test_isl_topology_connected_for_all_presets(name):
    spec = LEO_SHELLS[name]
    assert _connected(spec.total_sats, grid_edges(spec).tolist())


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
    for i, radius in enumerate(const.radius_km):
        assert abs(np.linalg.norm(snap.positions[i]) - radius) < 1e-6
    gs_ids = [g.id for g in const.ground_stations]
    assert all(snap.roles[g] is Role.GS for g in gs_ids)
    assert all(np.linalg.norm(snap.velocities[g]) == 0.0 for g in gs_ids)


def test_snapshot_matches_single_node_propagation():
    const = Constellation.build(
        LEO_SHELLS["iridium780"], MEO_SHELLS["meo10354"], NINE_CITIES[:3]
    )
    snap = const.snapshot(321.5)
    for i in (13, len(const.leo_ids) + 2):  # a LEO and a MEO
        pos, vel = propagate(elements(const, i), 321.5)
        assert snap.positions[i] == pytest.approx(pos, abs=1e-9)
        assert snap.velocities[i] == pytest.approx(vel, abs=1e-12)


def test_snapshot_rejects_leo_ids_other_than_0_to_n_minus_1():
    ring = make_ring_snapshot(n_leo=3, ctrl_lons=(0.0,))
    with pytest.raises(ValueError, match="LEO ids"):
        dataclasses.replace(ring, leo_ids=(1, 2, 3))
    # the same network with its LEOs numbered after the controller
    order = [3, 0, 1, 2]
    with pytest.raises(ValueError, match="LEO ids"):
        NetworkSnapshot(
            0.0, ring.positions[order], ring.velocities[order],
            IslTopology(np.array([[1, 2], [1, 3], [2, 3]]), (1, 2, 3)), (1, 2, 3), (0,),
            (Role.MEO,) + (Role.LEO,) * 3,
        )


@pytest.mark.parametrize("leo", ["iridium780", "starlink550"])
def test_snapshots_share_the_topology_a_snapshot_would_build(leo):
    const = Constellation.build(LEO_SHELLS[leo], MEO_SHELLS["meo8070"], NINE_CITIES)
    a, b = const.snapshot(0.0), const.snapshot(900.0)
    assert a.topology is b.topology is const.topology
    # each view against the per-snapshot build it replaces
    edges = geometry_oracle.grid_edges(LEO_SHELLS[leo])
    adj = {i: [] for i in a.leo_ids}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    dense = np.zeros((len(a.leo_ids),) * 2)
    for i, j in edges:
        dense[i, j] = dense[j, i] = 1
    topo = a.topology
    graph = topo.graph
    rows = {i: tuple(graph.indices[graph.indptr[i] : graph.indptr[i + 1]].tolist()) for i in adj}
    assert rows == {i: tuple(sorted(v)) for i, v in adj.items()}
    assert topo.edge_array.tolist() == [list(e) for e in edges]
    assert np.array_equal(topo.graph.toarray(), dense)
    # a snapshot carries the topology it is given, and only one over its LEOs
    cut_topology = IslTopology(topo.edge_array[1:], a.leo_ids)
    cut = dataclasses.replace(a, topology=cut_topology)
    assert cut.topology is cut_topology
    assert cut.topology.edge_array.tolist() == [list(e) for e in edges[1:]]
    assert dataclasses.replace(a, time_s=1.0).topology is a.topology
    with pytest.raises(ValueError, match="topology"):
        dataclasses.replace(a, topology=IslTopology(topo.edge_array, a.leo_ids[:-1]))


def _preset_constellation(config):
    stations = [(g.name, g.latitude_deg, g.longitude_deg) for g in config.ground_stations]
    return Constellation.build(config.leo_shell, config.meo_shell, stations)


@pytest.mark.parametrize(
    "config", [lambda: load_config(TINY_CONFIG), desk_config], ids=["tiny", "desk"]
)
def test_hop_predecessors_equal_the_all_pairs_rows(config):
    snap = _preset_constellation(config()).snapshot(0.0)
    want = _all_pairs_preds(snap)
    topo = IslTopology(snap.topology.edge_array, snap.leo_ids)
    n = len(snap.leo_ids)
    asked = set()
    # sources requested in overlapping, repeating batches, in no sorted order
    for batch in (np.array([], dtype=np.int64), np.array([n - 1, 0, n - 1]),
                  np.arange(n)[::-2], np.arange(n)):
        trees, rows = topo.hop_predecessors(batch)
        assert trees.dtype == want.dtype
        assert np.array_equal(trees[rows], want[batch])
        # the store holds one tree for each distinct source asked for, and no other
        asked.update(batch.tolist())
        held = topo._hop_trees.row
        assert set(np.flatnonzero(held >= 0).tolist()) == asked
        assert len(trees) == len(asked)
        assert sorted(held[held >= 0].tolist()) == list(range(len(asked)))


def test_hop_predecessors_compute_each_source_once(monkeypatch):
    snap = _preset_constellation(desk_config()).snapshot(0.0)
    topo = IslTopology(snap.topology.edge_array, snap.leo_ids)
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

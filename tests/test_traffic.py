import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eunomia
from eunomia.constellation import (
    CITY_COORDS,
    LEO_SHELLS,
    R_EARTH_KM,
    Constellation,
    NetworkSnapshot,
    Role,
)
from eunomia.scenario import PRESET_CONFIGS
from eunomia.traffic import (
    N_CELLS,
    GroundCell,
    TrafficMatrix,
    TrafficParams,
    build_grid,
    cell_positions,
    city_density_field,
    demand_matrix,
    diurnal_factors,
    map_to_satellites,
    scale,
    serving_satellites,
    slot_traffic_matrix,
)
from eunomia.visibility import separation

from conftest import make_ring_snapshot, make_snapshot
from geometry_oracle import elevation_angle, serving_satellites as oracle_serving_satellites
from traffic_oracle import diurnal_factor, gravity_demand, nonzero_pairs


def test_grid_cell_count():
    cells = build_grid(lambda lat, lon: 1.0)
    assert len(cells) == N_CELLS == 648


def test_grid_uniform_density_weights_follow_cos_latitude():
    cells = build_grid(lambda lat, lon: 1.0)
    for c in cells:
        assert c.density_weight == pytest.approx(math.cos(math.radians(c.center[0])))


def test_grid_city_bumps_peak_at_cities():
    cells = build_grid(city_density_field(sigma_deg=10.0, background=0.0))
    by_weight = sorted(cells, key=lambda c: -c.density_weight)
    top = by_weight[: len(CITY_COORDS) * 4]

    def contains(cell, lat, lon):
        return (
            cell.lat_range[0] <= lat < cell.lat_range[1]
            and cell.lon_range[0] <= lon < cell.lon_range[1]
        )

    for name, (lat, lon) in CITY_COORDS.items():
        assert any(contains(c, lat, lon) for c in top), name


def test_grid_partitions_the_sphere():
    cells = build_grid(lambda lat, lon: 1.0)
    total = 0.0
    for c in cells:
        lat0, lat1 = (math.radians(x) for x in c.lat_range)
        lon0, lon1 = (math.radians(x) for x in c.lon_range)
        total += (math.sin(lat1) - math.sin(lat0)) * (lon1 - lon0)
    assert total == pytest.approx(4.0 * math.pi, abs=1e-9)


def _unit_cells(distance_km):
    # two cells with unit weight on the equator a given distance apart
    dlon = math.degrees(distance_km / 6371.0)
    a = GroundCell(0, (-5.0, 5.0), (-5.0, 5.0), (0.0, 0.0), 1.0)
    b = GroundCell(1, (-5.0, 5.0), (dlon - 5, dlon + 5), (0.0, dlon), 1.0)
    return a, b


def test_gravity_zero_weight_gives_zero():
    a, b = _unit_cells(1000.0)
    a0 = GroundCell(0, a.lat_range, a.lon_range, a.center, 0.0)
    assert gravity_demand(a0, b, TrafficParams(gravity_constant=1.0)) == 0.0


def test_gravity_unit_cells_1000km():
    a, b = _unit_cells(1000.0)
    got = gravity_demand(a, b, TrafficParams(gravity_constant=1.0))
    assert got == pytest.approx(1e-6, rel=1e-9)


def test_gravity_symmetry():
    a, b = _unit_cells(2500.0)
    p = TrafficParams(gravity_constant=3.7)
    assert gravity_demand(a, b, p) == gravity_demand(b, a, p)


def test_gravity_rejects_same_cell():
    a, _ = _unit_cells(1000.0)
    with pytest.raises(ValueError):
        gravity_demand(a, a, TrafficParams())


def test_demand_matrix_matches_pairwise_function():
    cells = build_grid(city_density_field())[:40]
    params = TrafficParams(gravity_constant=2.0)
    mat = demand_matrix(cells, params)
    rng = np.random.default_rng(3)
    for _ in range(50):
        i, j = rng.integers(0, len(cells), 2)
        if i == j:
            assert mat[i, j] == 0.0
        else:
            assert mat[i, j] == pytest.approx(
                gravity_demand(cells[i], cells[j], params), rel=1e-9
            )


@pytest.mark.parametrize("exponent", [2.0, 1.5])
def test_demand_matrix_equals_the_textbook_expressions_bit_for_bit(exponent):
    cells = build_grid(city_density_field())
    params = TrafficParams(gravity_constant=3.0, gravity_exponent=exponent)
    w = np.array([c.density_weight for c in cells])
    lat = np.radians(np.array([c.center[0] for c in cells]))
    lon = np.radians(np.array([c.center[1] for c in cells]))
    sin_half_lat = np.sin((lat[:, None] - lat[None, :]) / 2.0) ** 2
    sin_half_lon = np.sin((lon[:, None] - lon[None, :]) / 2.0) ** 2
    h = sin_half_lat + np.outer(np.cos(lat), np.cos(lat)) * sin_half_lon
    dist = 2.0 * R_EARTH_KM * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))
    np.fill_diagonal(dist, np.inf)
    want = params.gravity_constant * np.outer(w, w) / dist**params.gravity_exponent
    np.fill_diagonal(want, 0.0)
    got = demand_matrix(cells, params)
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def test_demand_matrix_peak_memory_is_at_most_three_cell_by_cell_arrays():
    cells = build_grid(city_density_field())
    tracemalloc.start()
    try:
        demand_matrix(cells, TrafficParams())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * N_CELLS * N_CELLS * 8


def _cell_at(lon):
    return GroundCell(0, (-5.0, 5.0), (lon - 5, lon + 5), (0.0, lon), 1.0)


def test_diurnal_peak_at_1400_local():
    cell = _cell_at(0.0)
    assert diurnal_factor(cell, 14 * 3600.0) == pytest.approx(1.0)


def test_diurnal_trough_at_0200_local():
    cell = _cell_at(0.0)
    assert diurnal_factor(cell, 2 * 3600.0, floor=0.2) == pytest.approx(0.2)


def test_diurnal_antiphase_for_opposite_longitudes():
    a, b = _cell_at(0.0), _cell_at(180.0)
    for utc_h in (0.0, 5.5, 13.0, 20.25):
        fa = diurnal_factor(a, utc_h * 3600.0, floor=0.2)
        fb = diurnal_factor(b, utc_h * 3600.0, floor=0.2)
        # antiphase: the cosine terms cancel
        assert fa + fb == pytest.approx(2 * (0.5 * 1.2), abs=1e-12)


def test_diurnal_factors_match_per_cell_oracle():
    cells = build_grid(lambda lat, lon: 1.0)
    for utc_s in (0.0, 3600.0 * 7.5, 86399.0):
        want = [diurnal_factor(c, utc_s, floor=0.3) for c in cells]
        assert diurnal_factors(cells, utc_s, floor=0.3) == pytest.approx(want, abs=1e-15)


def _small_world():
    const = Constellation.build(LEO_SHELLS["iridium780"], None, [])
    return const, const.snapshot(0.0)


def test_mapping_single_cell_pair():
    _, snap = _small_world()
    cells = build_grid(lambda lat, lon: 1.0)
    demands = np.zeros((len(cells), len(cells)))
    demands[10, 600] = 5.0
    tm = map_to_satellites(cell_positions(cells), demands, snap)
    nz = nonzero_pairs(tm)
    assert len(nz) == 1
    assert nz[0][2] == pytest.approx(5.0)


def test_mapping_conservation():
    _, snap = _small_world()
    cells = build_grid(city_density_field())
    params = TrafficParams(gravity_constant=100.0)
    demands = demand_matrix(cells, params)
    tm = map_to_satellites(cell_positions(cells), demands, snap)
    assert tm.rates.sum() + tm.local_rate + tm.unserved_rate == pytest.approx(
        demands.sum(), rel=1e-9
    )
    assert np.all(tm.rates >= 0.0)
    assert np.all(np.diag(tm.rates) == 0.0)


# one desk snapshot's block (as a hash of its bytes), local and unserved rate
_DESK_BLOCK = """
import hashlib
from eunomia.constellation import Constellation
from eunomia.scenario import desk_config
from eunomia.traffic import (
    build_grid, cell_positions, city_density_field, demand_matrix, slot_traffic_matrix,
)
cfg, p = desk_config(), desk_config().traffic
cells = build_grid(city_density_field(p.city_sigma_deg, p.background_density))
stations = [(g.name, g.latitude_deg, g.longitude_deg) for g in cfg.ground_stations]
snap = Constellation.build(cfg.leo_shell, cfg.meo_shell, stations).snapshot(300.0)
tm = slot_traffic_matrix(cells, cell_positions(cells), demand_matrix(cells, p), snap, 0, p)
assert tm.rates.flags.c_contiguous
print(hashlib.sha256(tm.rates.tobytes()).hexdigest(), tm.local_rate.hex(), tm.unserved_rate.hex())
"""


def test_mapping_is_the_same_on_every_blas_core_and_thread_count():
    src = str(Path(eunomia.__file__).resolve().parents[1])
    outputs = set()
    for blas in ({"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"},
                 {"OPENBLAS_CORETYPE": "Haswell"}):
        env = {**os.environ, **blas, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", _DESK_BLOCK], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        outputs.add(run.stdout)
    assert len(outputs) == 1


def test_mapping_with_no_served_cell_is_all_unserved():
    snap = make_ring_snapshot(n_leo=12)  # an equatorial ring: the poles see no LEO
    cells = [c for c in build_grid(lambda lat, lon: 1.0) if abs(c.center[0]) > 60.0]
    demands = np.random.default_rng(3).random((len(cells), len(cells)))
    tm = map_to_satellites(cell_positions(cells), demands, snap)
    assert tm.rates.shape == (0, 0) and len(tm.active) == 0
    assert tm.unserved_rate == demands.sum()
    assert tm.local_rate == 0.0
    assert tm.rates.flags.c_contiguous


def test_serving_satellite_matches_max_elevation_oracle():
    _, snap = _small_world()
    cells = build_grid(lambda lat, lon: 1.0)
    serving = serving_satellites(cell_positions(cells), snap)
    rng = np.random.default_rng(11)
    from eunomia.constellation import geodetic_to_ecef

    for idx in rng.integers(0, len(cells), 25):
        cell = cells[idx]
        pos = geodetic_to_ecef(*cell.center)
        best, best_e = -1, 0.0
        for j, leo in enumerate(snap.leo_ids):
            e = elevation_angle(pos, snap.positions[leo])
            if e >= 0.0 and (best < 0 or e > best_e):
                best, best_e = j, e
        assert serving[idx] == best


@pytest.mark.parametrize(
    "preset, times",
    [("desk", (0.0, 15.0, 300.0)), ("default", (0.0, 15.0, 30.0, 45.0))],
)
def test_serving_satellites_equal_the_full_elevation_argmax(preset, times):
    config = PRESET_CONFIGS[preset]()
    stations = [(g.name, g.latitude_deg, g.longitude_deg) for g in config.ground_stations]
    const = Constellation.build(config.leo_shell, config.meo_shell, stations)
    cell_pos = cell_positions(build_grid(lambda lat, lon: 1.0))
    for t in times:
        snap = const.snapshot(t)
        assert np.array_equal(
            serving_satellites(cell_pos, snap), oracle_serving_satellites(cell_pos, snap)
        )


def test_serving_satellites_mark_cells_without_a_visible_leo():
    snap = make_ring_snapshot(n_leo=12)  # an equatorial ring: the poles see no LEO
    cell_pos = cell_positions(build_grid(lambda lat, lon: 1.0))
    serving = serving_satellites(cell_pos, snap)
    assert np.array_equal(serving, oracle_serving_satellites(cell_pos, snap))
    assert (serving == -1).any() and (serving >= 0).any()


def _leo_snapshot(leo_pos) -> NetworkSnapshot:
    """LEOs at ``leo_pos`` (km, one row each) and one ground station."""
    return make_snapshot(leo_pos, [[R_EARTH_KM, 0.0, 0.0]], (Role.GS,))


def _on_sphere(lat_deg, lon_deg, radius_km):
    lat, lon = np.radians(lat_deg), np.radians(lon_deg)
    return np.asarray(radius_km)[..., None] * np.stack(
        [np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)], axis=-1
    )


def test_serving_satellites_give_a_tie_to_the_lower_index():
    rng = np.random.default_rng(5)
    shell = _on_sphere(rng.uniform(-80, 80, 40), rng.uniform(-180, 180, 40), 6921.0)
    snap = _leo_snapshot(np.vstack([shell, shell]))  # LEO j and j + 40 coincide
    cell_pos = cell_positions(build_grid(lambda lat, lon: 1.0))
    serving = serving_satellites(cell_pos, snap)
    assert np.array_equal(serving, oracle_serving_satellites(cell_pos, snap))
    assert (serving >= 0).any() and serving.max() < 40


def test_serving_satellites_at_the_horizon():
    # LEOs around 0 degrees of elevation from one cell: exactly on its
    # horizon, and a few rounding steps and micro-radians to either side
    cell_pos = cell_positions(build_grid(lambda lat, lon: 1.0))
    c = 300
    up = cell_pos[c] / np.linalg.norm(cell_pos[c])
    side = np.cross(up, [0.0, 0.0, 1.0])
    side /= np.linalg.norm(side)
    r_leo = 6921.0
    horizon = math.acos(np.linalg.norm(cell_pos[c]) / r_leo)
    offsets = [0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6]
    for off in offsets:
        a = horizon + off
        leo = r_leo * (math.cos(a) * up + math.sin(a) * side)
        snap = _leo_snapshot(leo[None, :])
        if off == 0.0:
            assert abs(elevation_angle(cell_pos[c], leo)) < 1e-9
        serving = serving_satellites(cell_pos, snap)
        assert np.array_equal(serving, oracle_serving_satellites(cell_pos, snap)), off


def test_serving_satellites_on_near_coincident_leos_at_differing_radii():
    # above each of 108 cells, 40 LEOs within 1e-14 rad of one direction and
    # 1e-11 km of one radius: their sines of elevation, and their elevations,
    # differ in the last bits, and often not in the same order
    rng = np.random.default_rng(0)
    cells = build_grid(lambda lat, lon: 1.0)
    obs = cell_positions(cells)[[c.index for c in cells if abs(c.center[0]) < 60][::4]]
    up = obs / np.linalg.norm(obs, axis=1)[:, None]
    side = np.cross(up, [0.0, 0.0, 1.0])
    side /= np.linalg.norm(side, axis=1)[:, None]
    n = 40
    a = rng.uniform(0.0, 0.03, (len(obs), 1)) + rng.uniform(-1e-14, 1e-14, (len(obs), n))
    r = rng.uniform(6900.0, 8000.0, (len(obs), 1)) + rng.uniform(-1e-11, 1e-11, (len(obs), n))
    leo = r[..., None] * (np.cos(a)[..., None] * up[:, None] + np.sin(a)[..., None] * side[:, None])
    snap = _leo_snapshot(leo.reshape(-1, 3))
    want = oracle_serving_satellites(obs, snap)
    assert np.array_equal(serving_satellites(obs, snap), want)
    assert np.array_equal(want // n, np.arange(len(obs)))  # each cell's own group
    # the largest sine of elevation is not always the lowest-index maximum
    cos_alpha, rho = separation(obs, snap.positions[: len(snap.leo_ids)])
    y = cos_alpha - rho
    sine = y / np.sqrt(y * y + (1.0 - cos_alpha) * (1.0 + cos_alpha))
    assert (np.argmax(sine, axis=1) != want).any()


def test_serving_satellites_without_leos_mark_every_cell():
    snap = _leo_snapshot(np.empty((0, 3)))
    cell_pos = cell_positions(build_grid(lambda lat, lon: 1.0))
    with np.errstate(all="raise"):
        serving = serving_satellites(cell_pos, snap)
    assert serving.tolist() == [-1] * len(cell_pos)
    # and no cells: an empty result
    assert serving_satellites(cell_pos[:0], make_ring_snapshot(n_leo=12)).shape == (0,)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-89.0, 89.0), st.floats(-180.0, 180.0), st.floats(6400.0, 45000.0)
        ),
        min_size=1,
        max_size=60,
    )
)
def test_serving_satellites_equal_the_argmax_on_shells_of_any_radii(leos):
    # LEO radii differ, so the candidate bound meets a varying |target|
    lat, lon, radius = (np.array(v) for v in zip(*leos))
    snap = _leo_snapshot(_on_sphere(lat, lon, radius))
    cell_pos = cell_positions(build_grid(lambda lat, lon: 1.0))
    assert np.array_equal(
        serving_satellites(cell_pos, snap), oracle_serving_satellites(cell_pos, snap)
    )


def test_scale_examples():
    _, snap = _small_world()
    cells = build_grid(city_density_field())
    tm = map_to_satellites(cell_positions(cells), demand_matrix(cells, TrafficParams()), snap)
    assert scale(tm, 0.0).rates.sum() == 0.0
    assert scale(tm, 1.0) is tm
    assert np.allclose(scale(tm, 0.5).rates, tm.rates * 0.5)
    # blocks are read-only, so the gamma = 1 matrix can be shared
    assert not tm.rates.flags.writeable
    assert not scale(tm, 0.5).rates.flags.writeable
    with pytest.raises(ValueError):
        scale(tm, 2.0)
    with pytest.raises(ValueError):
        scale(tm, -0.1)


def test_matrix_csv_rows_cover_nonzero_pairs():
    _, snap = _small_world()
    cells = build_grid(lambda lat, lon: 1.0)
    demands = np.zeros((len(cells), len(cells)))
    demands[10, 600] = 5.0
    demands[600, 10] = 2.0
    tm = map_to_satellites(cell_positions(cells), demands, snap, slot_index=7)
    rows = [(tm.slot_index, src, dst, rate) for src, dst, rate in nonzero_pairs(tm)]
    assert all(row[0] == 7 for row in rows)
    assert sorted(r[3] for r in rows) == [2.0, 5.0]


def test_slot_traffic_deterministic():
    const, snap = _small_world()
    cells = build_grid(city_density_field())
    params = TrafficParams(gravity_constant=10.0)
    static = demand_matrix(cells, params)
    a = slot_traffic_matrix(cells, cell_positions(cells), static, snap, 0, params)
    b = slot_traffic_matrix(cells, cell_positions(cells), static, snap, 0, params)
    assert np.array_equal(a.rates, b.rates)


@pytest.mark.parametrize(
    "leo_ids, active, block",
    [
        ((0, 1, 2), [0, 2], np.zeros((3, 3))),
        ((0, 1, 2), [2, 0], np.zeros((2, 2))),
        ((0, 1, 2), [1, 3], np.zeros((2, 2))),
        ((10, 11, 12), [0, 2], np.zeros((2, 2))),
        ((0, 2, 1), [0, 2], np.zeros((2, 2))),
    ],
    ids=["block shape", "unsorted", "out of range", "ids not from 0", "ids out of order"],
)
def test_matrix_rejects_a_block_that_does_not_fit(leo_ids, active, block):
    with pytest.raises(ValueError):
        TrafficMatrix(0, leo_ids, np.array(active), block)

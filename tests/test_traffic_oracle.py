"""The compact traffic block against the dense mapping in ``traffic_oracle.py``.

A ``default`` snapshot leaves most of its 1,584 LEOs without a cell to
serve, so gathers there mix active and inactive rows; on the tiny scenario
every LEO serves a cell and the block is the whole matrix. Values, shapes
and memory order must match the dense matrix exactly, since consumers sum
over the gathered rows and columns and pinned outputs depend on the bits.
"""
from pathlib import Path

import numpy as np
import pytest

from eunomia.constellation import Constellation
from eunomia.emulator import STRATEGIES, generate_arrivals, partition_chain
from eunomia.overhead import _domain_rates
from eunomia.scenario import build_scenario, default_config, desk_config, load_config
from eunomia.traffic import (
    build_grid,
    cell_positions,
    city_density_field,
    demand_matrix,
    map_to_satellites,
    scale,
)

import traffic_oracle
from conftest import domains
from traffic_oracle import (
    diurnal_factor,
    nonzero_pairs,
    oracle_generate_arrivals,
    oracle_map_to_satellites,
)

TINY_CONFIG = Path(__file__).parent / "data" / "tiny_config.yaml"


def _mapped(config, time_s):
    """(compact matrix, dense oracle matrix) for one snapshot of ``config``."""
    params = config.traffic
    cells = build_grid(city_density_field(params.city_sigma_deg, params.background_density))
    f = np.array([diurnal_factor(c, time_s, params.diurnal_floor) for c in cells])
    demands = demand_matrix(cells, params) * np.outer(f, f)
    stations = [(g.name, g.latitude_deg, g.longitude_deg) for g in config.ground_stations]
    const = Constellation.build(config.leo_shell, config.meo_shell, stations)
    snap = const.snapshot(time_s)
    tm = map_to_satellites(cell_positions(cells), demands, snap, slot_index=3)
    full, unserved, local = oracle_map_to_satellites(cells, demands, snap)
    assert tm.unserved_rate == unserved and tm.local_rate == local
    return tm, full


@pytest.fixture(scope="module")
def default_slot():
    return _mapped(default_config(), 600.0)


@pytest.fixture(scope="module")
def tiny_slot():
    """Every LEO serves a cell: the block is the whole matrix."""
    return _mapped(load_config(TINY_CONFIG), 0.0)


@pytest.fixture(
    scope="module",
    params=[("default", 1.0), ("default", 0.75), ("tiny", 1.0)],
    ids=["default-gamma1", "default-gamma0.75", "tiny-gamma1"],
)
def scaled(request, default_slot, tiny_slot):
    which, gamma = request.param
    tm, full = default_slot if which == "default" else tiny_slot
    return scale(tm, gamma), full * gamma


# instants where summing cells in another order (tiny: every LEO active) or
# the block's own trace (desk, default) would move the last bit of a rate or
# local_rate
@pytest.mark.parametrize(
    "config, time_s",
    [(lambda: load_config(TINY_CONFIG), 0.0), (desk_config, 0.0), (default_config, 750.0)],
    ids=["tiny", "desk", "default"],
)
def test_block_is_the_dense_product_among_serving_leos(config, time_s):
    tm, full = _mapped(config(), time_s)
    assert np.array_equal(tm.rates, full[np.ix_(tm.active, tm.active)])
    rest = full.copy()
    rest[np.ix_(tm.active, tm.active)] = 0.0
    assert not rest.any()
    assert np.all(np.diff(tm.active) > 0)
    nz = np.nonzero(full)
    assert nonzero_pairs(tm) == [
        (tm.leo_ids[a], tm.leo_ids[b], float(full[a, b])) for a, b in zip(*nz)
    ]


def test_fixture_slots_have_and_lack_inactive_leos(default_slot, tiny_slot):
    tm, _ = default_slot
    assert 0 < len(tm.active) < len(tm.leo_ids) // 2
    tm, _ = tiny_slot
    assert len(tm.active) == len(tm.leo_ids)


def _index_sets(tm):
    inactive = np.setdiff1d(np.arange(len(tm.leo_ids)), tm.active)
    mix = np.array([tm.active[5], *inactive[:1], tm.active[-1], *inactive[-3:-2], tm.active[0]])
    mask = np.zeros(len(tm.leo_ids), dtype=bool)
    mask[mix] = True
    return {
        "empty": np.array([], dtype=int),
        "one inactive": inactive[:1],
        "mix": mix,
        "mask": mask,
        "all": np.arange(len(tm.leo_ids)),
    }


@pytest.mark.parametrize("which", ["empty", "one inactive", "mix", "mask", "all"])
def test_rows_and_cols_equal_the_dense_gathers(scaled, which):
    tm, full = scaled
    idx = _index_sets(tm)[which]
    gathers = (traffic_oracle.rows(tm, idx), full[idx]), (traffic_oracle.cols(tm, idx), full[:, idx])
    for got, want in gathers:
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert got.flags.c_contiguous == want.flags.c_contiguous
        assert got.flags.f_contiguous == want.flags.f_contiguous


def _masks(tm):
    out = {}
    for name, idx in _index_sets(tm).items():
        mask = np.zeros(len(tm.leo_ids), dtype=bool)
        mask[idx] = True
        out[name] = mask
    out["active"] = np.zeros(len(tm.leo_ids), dtype=bool)
    out["active"][tm.active] = True
    return out


@pytest.mark.parametrize("rows", ["empty", "one inactive", "mix", "active", "all"])
def test_submatrix_equals_the_masked_gather(scaled, rows):
    tm, full = scaled
    masks = _masks(tm)
    for cols in ("empty", "one inactive", "mix", "active", "all"):
        i, j = masks[rows], masks[cols]
        got, want = tm.submatrix(i, j), traffic_oracle.rows(tm, i)[:, j]
        assert np.array_equal(want, full[i][:, j])
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert got.flags.c_contiguous == want.flags.c_contiguous
        assert got.flags.f_contiguous == want.flags.f_contiguous
        assert got.sum().tobytes() == want.sum().tobytes()


def _gathered_domain_rates(assignment, traffic):
    """``overhead._domain_rates`` as the |D| x |V| row gather computed it."""
    n = len(traffic.leo_ids)
    labels = np.full(n, -1, dtype=int)
    members = domains(assignment)
    keys = sorted(members)
    for label, k in enumerate(keys):
        for i in members[k]:
            labels[i] = label
    assigned = labels >= 0
    out = {}
    for label, k in enumerate(keys):
        mine = labels == label
        gathered = traffic_oracle.rows(traffic, mine)
        out[k] = (float(gathered[:, mine].sum()), float(gathered[:, assigned & ~mine].sum()))
    return out


@pytest.fixture(scope="module")
def tiny_scenario():
    return build_scenario(load_config(TINY_CONFIG))


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("which", ["tiny", "default"])
def test_domain_rates_equal_the_row_gather(which, strategy, request):
    scn = request.getfixturevalue("tiny_scenario" if which == "tiny" else "default_scenario_short")
    for gamma in (0.5, 1.0):
        for t, assignment in enumerate(partition_chain(scn, strategy, gamma)):
            tm = scale(scn.base_traffic[t], gamma)
            got = _domain_rates(assignment, tm)
            want = _gathered_domain_rates(assignment, tm)
            assert [(k, *map(float.hex, v)) for k, v in got.items()] == [
                (k, *map(float.hex, v)) for k, v in want.items()
            ]


def test_pairs_and_outbound_rates_equal_the_dense_matrix(scaled):
    tm, full = scaled
    rng = np.random.default_rng(5)
    i = rng.integers(0, len(tm.leo_ids), size=(40, 3))
    j = np.where(rng.random((40, 3)) < 0.5, rng.choice(tm.active, size=(40, 3)), i)
    assert np.array_equal(tm.at(i, j), full[i, j])
    every = np.arange(len(tm.leo_ids))
    assert tm.outbound_of(every).tolist() == [float(full[k].sum()) for k in every]
    assert tm.inbound_of(every).tolist() == [float(full[:, k].sum()) for k in every]


@pytest.mark.parametrize("scenario", ["desk_scenario", "default_scenario_partition"])
def test_line_sums_of_the_priced_leos_equal_the_full_vectors(scenario, request):
    """``outbound_of`` and ``inbound_of`` on every LEO against the dense rows
    and columns, and on the contested LEOs of each slot (those the
    partitioner prices) against the sums of every LEO, bit for bit."""
    scn = request.getfixturevalue(scenario)
    n_matrices = 0
    for geom, tm in zip(scn.geometries, scn.base_traffic):
        every = np.arange(len(tm.leo_ids))
        contested = np.array(sorted(leo for r in geom.regions for leo in r.leo_ids), dtype=int)
        outbound, inbound = tm.outbound_of(every), tm.inbound_of(every)
        assert outbound.tobytes() == traffic_oracle.rows(tm, every).sum(axis=1).tobytes()
        assert inbound.tobytes() == traffic_oracle.cols(tm, every).sum(axis=0).tobytes()
        for ids in (contested, contested[::-7], every[:0]):
            assert tm.outbound_of(ids).tobytes() == outbound[ids].tobytes()
            assert tm.inbound_of(ids).tobytes() == inbound[ids].tobytes()
        n_matrices += 1
    assert n_matrices == len(scn.base_traffic) >= 16


def test_generate_arrivals_equal_the_dense_draw(scaled):
    tm, full = scaled
    got = generate_arrivals(tm, 15.0, seed=2, slot_index=tm.slot_index)
    want = oracle_generate_arrivals(full, 15.0, 2, tm.slot_index)
    assert len(got[0]) > 0
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)

"""The compact traffic block against the dense mapping in ``traffic_oracle.py``.

A ``default`` snapshot leaves most of its 1,584 LEOs without a cell to
serve, so gathers there mix active and inactive rows; on the tiny scenario
every LEO serves a cell and the block is the whole matrix. Values, shapes
and memory order must match the dense matrix exactly, since consumers sum
over the gathered rows and columns and pinned outputs depend on the bits.
"""
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from eunomia.constellation import Constellation
from eunomia import emulator
from eunomia.emulator import STRATEGIES, generate_arrivals, partition_chain
from eunomia.overhead import _domain_rates
from eunomia.scenario import build_scenario, default_config, desk_config, load_config
from eunomia import traffic
from eunomia.traffic import (
    N_CELLS,
    TrafficMatrix,
    aggregate,
    build_grid,
    cell_positions,
    city_density_field,
    demand_matrix,
    map_to_satellites,
    scale,
    slot_traffic_matrix,
)

import traffic_oracle
from conftest import domains
from traffic_oracle import (
    diurnal_factor,
    nonzero_pairs,
    oracle_aggregate,
    oracle_generate_arrivals,
    oracle_map_to_satellites,
)

TINY_CONFIG = Path(__file__).parent / "data" / "tiny_config.yaml"


def _mapped(config, time_s):
    """(compact matrix, dense oracle matrix) for one snapshot of ``config``."""
    params = config.traffic
    cells = build_grid(city_density_field(params.city_sigma_deg, params.background_density))
    f = np.array([diurnal_factor(c, time_s, params.diurnal_floor) for c in cells])
    static = demand_matrix(cells, params)
    demands = static * np.outer(f, f)
    stations = [(g.name, g.latitude_deg, g.longitude_deg) for g in config.ground_stations]
    const = Constellation.build(config.leo_shell, config.meo_shell, stations)
    snap = const.snapshot(time_s)
    tm = map_to_satellites(cell_positions(cells), static, f, snap, slot_index=3)
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


ROWS = traffic._BLOCK_ROWS
# every cell served by k LEOs
K_CASES = {"k = chunk - 1": ROWS - 1, "k = chunk": ROWS, "k = chunk + 1": ROWS + 1}


def _serving(case):
    """(serving LEO of each of the 648 cells, -1 for none; LEO count) of
    one crafted case. Cells are dealt to LEOs in a random order, so that a
    LEO's cells lie far apart in cell index."""
    rng = np.random.default_rng(len(case) * 7 + sum(map(ord, case)))
    n_leo = 1000
    if case == "no cell served":
        return np.full(N_CELLS, -1), n_leo
    if case in K_CASES:
        k = K_CASES[case]
        sizes = np.ones(k, dtype=int) + np.bincount(rng.integers(0, k, N_CELLS - k), minlength=k)
    elif case == "ranks straddle a chunk":
        # the LEOs with a third cell, and those with a second, run past the
        # first block of LEO rows
        sizes = np.array([3] * (ROWS + 2) + [2] * 5 + [1] * (ROWS + 9))
    elif case == "one LEO serves 16 cells":
        sizes = np.array([16] + [1] * 300)
    elif case == "every other cell unserved":
        sizes = np.array([4] * 40 + [2] * 20 + [1] * 124)
    ids = np.sort(rng.choice(n_leo, size=len(sizes), replace=False))
    leo = np.repeat(ids, rng.permutation(sizes))
    cells = rng.permutation(N_CELLS)[: len(leo)]
    if case == "every other cell unserved":
        cells = rng.permutation(np.arange(0, N_CELLS, 2))
    serving = np.full(N_CELLS, -1)
    serving[cells] = leo
    return serving, n_leo


@pytest.mark.parametrize(
    "case",
    ["ranks straddle a chunk", *K_CASES, "one LEO serves 16 cells",
     "every other cell unserved", "no cell served"],
)
def test_aggregate_equals_the_dense_product_at_block_edges(case):
    """Crafted serving vectors against the dense product, bit for bit: rates,
    local and unserved rate, on a random asymmetric demand and random
    factors. ``_BLOCK_ROWS`` LEO rows are built at a time, and the unserved
    gather is summed in pieces of at most ``_PIECE_ENTRIES`` entries (the
    last two cases span several)."""
    serving, n_leo = _serving(case)
    rng = np.random.default_rng(5)
    static = rng.random((N_CELLS, N_CELLS)) * 10.0 ** rng.integers(-4, 2, (N_CELLS, N_CELLS))
    np.fill_diagonal(static, 0.0)
    factors = rng.uniform(0.2, 1.0, N_CELLS)
    tm = aggregate(serving, static, factors, tuple(range(n_leo)), slot_index=4)
    full, unserved, local = oracle_aggregate(serving, static * np.outer(factors, factors), n_leo)
    active = np.unique(serving[serving >= 0])
    assert np.array_equal(tm.active, active) and tm.slot_index == 4
    assert tm.rates.flags.c_contiguous
    assert tm.rates.tobytes() == full[np.ix_(active, active)].tobytes()
    rest = full.copy()
    rest[np.ix_(active, active)] = 0.0
    assert not rest.any()
    assert tm.unserved_rate.hex() == unserved.hex()
    assert tm.local_rate.hex() == local.hex()
    if case in K_CASES:
        assert len(active) == K_CASES[case] and (serving >= 0).all()


@pytest.mark.parametrize("scenario", ["default_scenario_partition", "desk_scenario_short"])
def test_slot_traffic_matrix_allocates_little_beyond_its_block(scenario, request):
    """One call on a ``default`` 240 s slot and on a desk slot peaks under
    2 MiB of tracemalloc beyond the block it returns (about 7.6 MiB on
    ``default`` when the cell x cell demand was built whole) and equals the
    scenario's own block."""
    scn = request.getfixturevalue(scenario)
    params = scn.config.traffic
    cells = scn.cells
    cell_pos, static = cell_positions(cells), demand_matrix(cells, params)
    t = len(scn.slots) // 2
    slot = scn.slots[t]
    tracemalloc.start()
    try:
        tm = slot_traffic_matrix(cells, cell_pos, static, slot.snapshot, slot.index, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tm.rates.tobytes() == scn.base_traffic[t].rates.tobytes()
    assert peak - tm.rates.nbytes < 2 * 2**20


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
        got, want = traffic_oracle.submatrix(tm, i, j), traffic_oracle.rows(tm, i)[:, j]
        assert np.array_equal(want, full[i][:, j])
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert got.flags.c_contiguous == want.flags.c_contiguous
        assert got.flags.f_contiguous == want.flags.f_contiguous
        assert got.sum().tobytes() == want.sum().tobytes()
        assert tm.gather_sum(i, j).hex() == float(want.sum()).hex()


def _assert_gather_sums(tm, pairs):
    """``gather_sum`` of each (i, j) mask pair against the sum of the
    masked gather of the full matrix's rows, bit for bit."""
    for i, j in pairs:
        want = float(traffic_oracle.rows(tm, i)[:, j].sum())
        assert tm.gather_sum(i, j).hex() == want.hex()


def _random_masks(tm, rng, n_pairs):
    """Mask pairs of random density, and pairs whose columns are inactive
    LEOs but for a few active ones, so that some pieces hold no active LEO."""
    n = len(tm.leo_ids)
    inactive = np.ones(n, dtype=bool)
    inactive[tm.active] = False
    pairs = []
    for _ in range(n_pairs):
        i, j = (rng.random(n) < rng.choice([0.01, 0.2, 0.6, 1.0]) for _ in range(2))
        sparse = inactive & (rng.random(n) < 0.9)
        sparse[rng.choice(tm.active, size=min(3, len(tm.active)), replace=False)] = True
        pairs += [(i, j), (i, sparse), (rng.random(n) < 0.9, sparse)]
    return pairs


def test_gather_sums_of_random_masks_equal_the_row_gather(default_slot, desk_scenario_short):
    rng = np.random.default_rng(11)
    desk = desk_scenario_short.base_traffic
    for tm in (default_slot[0], scale(default_slot[0], 0.25), desk[0], desk[-1]):
        _assert_gather_sums(tm, _random_masks(tm, rng, 8))


def _synthetic(n_leo, n_active, seed):
    """A traffic matrix over ``n_leo`` LEOs with random rates, spread over
    nine decades, among ``n_active`` of them chosen at random."""
    rng = np.random.default_rng(seed)
    active = np.sort(rng.choice(n_leo, size=n_active, replace=False))
    rates = rng.random((n_active, n_active)) * 10.0 ** rng.integers(-6, 3, (n_active, n_active))
    np.fill_diagonal(rates, 0.0)
    return TrafficMatrix(slot_index=0, leo_ids=tuple(range(n_leo)), active=active, rates=rates)


PIECE = traffic._PIECE_ENTRIES


@pytest.mark.parametrize("size", [PIECE - 8, PIECE, PIECE + 1, 2 * PIECE + 7])
def test_gather_sums_about_one_piece_equal_the_row_gather(size):
    """Gathers of about one piece, as |i| x |j| with the largest |i| of at
    most 64 that divides the size, so that most pieces start and end inside
    a column of the gather."""
    m = max(d for d in range(1, 65) if size % d == 0)
    tm = _synthetic(size // m + 50, 400, seed=size)
    rng = np.random.default_rng(size)
    pairs = []
    for _ in range(3):
        i, j = (np.zeros(len(tm.leo_ids), dtype=bool) for _ in range(2))
        i[rng.choice(len(tm.leo_ids), size=m, replace=False)] = True
        j[rng.choice(len(tm.leo_ids), size=size // m, replace=False)] = True
        assert np.count_nonzero(i) * np.count_nonzero(j) == size
        pairs.append((i, j))
    _assert_gather_sums(tm, pairs)


def test_gather_sums_with_every_leo_active_and_with_no_active_row(tiny_slot):
    """Every LEO active (the block is the full matrix), on the tiny slot and
    on a matrix whose gathers span several pieces; then empty masks and
    masks with no active row, whose sums are 0.0."""
    rng = np.random.default_rng(3)
    tiny = tiny_slot[0]
    n = len(tiny.leo_ids)
    _assert_gather_sums(tiny, [(rng.random(n) < 0.5, rng.random(n) < 0.5) for _ in range(8)])
    dense = _synthetic(800, 800, seed=1)
    every = np.ones(800, dtype=bool)
    assert 800 * 800 > 4 * PIECE
    _assert_gather_sums(dense, [(every, every), (every, rng.random(800) < 0.5)])

    tm = _synthetic(900, 200, seed=2)
    none = np.zeros(900, dtype=bool)
    inactive = np.ones(900, dtype=bool)
    inactive[tm.active] = False
    for i, j in ((none, none), (none, ~none), (~none, none), (inactive, ~none)):
        assert tm.gather_sum(i, j).hex() == (0.0).hex()
    _assert_gather_sums(tm, [(none, ~none), (inactive, ~none), (~none, none)])


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


BLOCK = emulator._ARRIVAL_ROWS


@pytest.mark.parametrize("duration_s", [15.0, 0.0])
@pytest.mark.parametrize("k", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_generate_arrivals_in_row_blocks_equal_the_dense_draw(k, duration_s):
    """Blocks of every fill, ending on and off ``_ARRIVAL_ROWS``, with rows
    and a whole block of zero rates; a rate of 2/s draws through numpy's
    other Poisson method (lam >= 10)."""
    rng = np.random.default_rng(k)
    n = 2 * k + 5
    active = np.sort(rng.choice(n, size=k, replace=False))
    rates = rng.uniform(0.0, 0.1, size=(k, k)) * (rng.random((k, k)) < 0.5)
    rates[1::3] = 0.0
    rates[BLOCK : 2 * BLOCK] = 0.0
    rates[:1, :1] = 2.0
    tm = TrafficMatrix(5, tuple(range(n)), active, rates)
    full = np.zeros((n, n))
    full[np.ix_(active, active)] = rates
    got = generate_arrivals(tm, duration_s, seed=4, slot_index=5)
    want = oracle_generate_arrivals(full, duration_s, 4, 5)
    assert (len(got[0]) > 0) == (k > 0 and duration_s > 0)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_generate_arrivals_allocate_little_beyond_what_they_return(default_scenario_short):
    """One draw on a ``default`` slot (about 197K nonzero rates) keeps about
    40 KiB; a draw over every nonzero rate at once peaks at about 9 MiB."""
    scn = default_scenario_short
    slot, tm = scn.slots[0], scn.base_traffic[0]
    tracemalloc.start()
    try:
        arrivals = generate_arrivals(tm, slot.end_s - slot.start_s, 1, slot.index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(arrivals[0]) > 0
    assert peak < 2 * 2**20

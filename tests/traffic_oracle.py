"""Dense reference for ``traffic.map_to_satellites`` and ``traffic.aggregate``:
one |V| x |V| matrix.

The mapping is written the direct way: every cell's position is rebuilt from
its centre on each call, every LEO gets a row and a column whether or not
it serves a cell, and the full product ``sel.T @ demands @ sel`` with the
one-hot cell-to-satellite matrix ``sel`` is returned, accumulated cell by
cell in ascending index so that its bits depend on no BLAS kernel. Poisson
arrivals are drawn from the nonzero entries of that full matrix. Tests
compare the package's compact block, its gathers and its arrivals against
these. ``rows`` and ``cols`` rebuild the full matrix's row and column
gathers, memory order included, from a compact block, for the references
that sum over them; ``submatrix`` builds the masked gather ``full[i][:, j]``
whole, straight from the block and laid out as the gather is; and
``nonzero_pairs`` lists its nonzero rates by LEO id.

The gravity demand and the diurnal factor are also written per cell pair
and per cell, as references for ``demand_matrix`` and ``diurnal_factors``.
"""
import math

import numpy as np

from eunomia.constellation import R_EARTH_KM

from geometry_oracle import serving_satellites


def rows(tm, idx) -> np.ndarray:
    """``full[idx]`` of the traffic matrix ``tm`` for an index array or mask
    over LEO ids: shape (len, |V|), C order."""
    if len(tm.active) == len(tm.leo_ids):  # the block is the full matrix
        return tm.rates[idx]
    pos = tm.block_row[idx]
    out = np.zeros((len(pos), len(tm.leo_ids)))
    hit = np.nonzero(pos >= 0)[0]
    out[hit[:, None], tm.active] = tm.rates[pos[hit]]
    return out


def cols(tm, idx) -> np.ndarray:
    """``full[:, idx]`` of the traffic matrix ``tm`` for an index array or
    mask over LEO ids: shape (|V|, len), F order."""
    if len(tm.active) == len(tm.leo_ids):
        return tm.rates[:, idx]
    pos = tm.block_row[idx]
    out = np.zeros((len(pos), len(tm.leo_ids)))
    hit = np.nonzero(pos >= 0)[0]
    out[hit[:, None], tm.active] = tm.rates[:, pos[hit]].T
    return out.T


def submatrix(tm, i, j) -> np.ndarray:
    """``full[i][:, j]`` of the traffic matrix ``tm`` for masks ``i`` and
    ``j`` over LEO ids: shape (|i|, |j|), F order, as the masked gather lays
    it out, with only the entries among active LEOs copied from the block
    into zeros."""
    if len(tm.active) == len(tm.leo_ids):
        return tm.rates[i][:, j]
    bi, bj = tm.block_row[i], tm.block_row[j]
    out = np.zeros((len(bj), len(bi))).T
    hit_i, hit_j = np.flatnonzero(bi >= 0), np.flatnonzero(bj >= 0)
    out[np.ix_(hit_i, hit_j)] = tm.rates[np.ix_(bi[hit_i], bj[hit_j])]
    return out


def nonzero_pairs(tm) -> list[tuple[int, int, float]]:
    """(src, dst, rate) for every nonzero rate of the traffic matrix ``tm``,
    row-major, read from its block and its ``active`` ids."""
    src, dst = np.nonzero(tm.rates)
    return [
        (int(tm.active[a]), int(tm.active[b]), float(tm.rates[a, b])) for a, b in zip(src, dst)
    ]


def oracle_serving_satellites(cells, snapshot):
    """Index (into snapshot.leo_ids) of each cell's maximum-elevation visible
    LEO, or -1 when no LEO is above the horizon."""
    cell_pos = np.array(
        [
            R_EARTH_KM
            * np.array(
                [
                    math.cos(math.radians(c.center[0])) * math.cos(math.radians(c.center[1])),
                    math.cos(math.radians(c.center[0])) * math.sin(math.radians(c.center[1])),
                    math.sin(math.radians(c.center[0])),
                ]
            )
            for c in cells
        ]
    )
    return serving_satellites(cell_pos, snapshot)


def oracle_map_to_satellites(cells, demands, snapshot):
    """(dense rates, unserved rate, local rate) over all LEOs of ``snapshot``."""
    serving = oracle_serving_satellites(cells, snapshot)
    return oracle_aggregate(serving, demands, len(snapshot.leo_ids))


def oracle_aggregate(serving, demands, n_leo):
    """(dense rates, unserved rate, local rate) over ``n_leo`` LEOs for the
    cell demand ``demands`` and each cell's serving LEO (-1 for none)."""
    served = serving >= 0

    # every cell pair with an unserved end, summed directly
    unserved = float(demands[~np.outer(served, served)].sum())

    # sel.T @ demands @ sel for the one-hot cell-to-LEO matrix sel, added up
    # one served cell at a time in ascending index: rows, then columns
    rows = np.zeros((n_leo, len(serving)))
    for i in np.flatnonzero(served):
        rows[serving[i]] += demands[i]
    rates = np.zeros((n_leo, n_leo))
    for j in np.flatnonzero(served):
        rates[:, serving[j]] += rows[:, j]
    local = float(np.trace(rates))
    np.fill_diagonal(rates, 0.0)
    return rates, unserved, local


def oracle_generate_arrivals(full, duration_s, seed, slot_index):
    """``emulator.generate_arrivals`` over the dense matrix ``full``."""
    rng = np.random.default_rng([seed, slot_index])
    src_nz, dst_nz = np.nonzero(full)
    lam = full[src_nz, dst_nz] * duration_s
    counts = rng.poisson(lam)
    total = int(counts.sum())
    srcs = np.repeat(src_nz, counts)
    dsts = np.repeat(dst_nz, counts)
    times = rng.random(total) * duration_s
    marks = rng.random(total)
    order = np.argsort(times, kind="stable")
    return times[order], srcs[order], dsts[order], marks[order]


def great_circle_km(a: tuple[float, float], b: tuple[float, float]) -> float:
    lat1, lon1 = map(math.radians, a)
    lat2, lon2 = map(math.radians, b)
    s = math.sin((lat2 - lat1) / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(
        (lon2 - lon1) / 2.0
    ) ** 2
    return 2.0 * R_EARTH_KM * math.asin(min(1.0, math.sqrt(s)))


def gravity_demand(cell_i, cell_j, params) -> float:
    """Pairwise demand G * w_i * w_j / distance^exponent, flows/second."""
    if cell_i.index == cell_j.index:
        raise ValueError("gravity demand is defined for distinct cells")
    if cell_i.density_weight == 0.0 or cell_j.density_weight == 0.0:
        return 0.0
    d = great_circle_km(cell_i.center, cell_j.center)
    return (
        params.gravity_constant
        * cell_i.density_weight
        * cell_j.density_weight
        / d**params.gravity_exponent
    )


def diurnal_factor(cell, utc_s: float, floor: float = 0.2) -> float:
    """Daylight multiplier in [floor, 1], peaking at 14:00 local solar time."""
    hour = (utc_s / 3600.0 + cell.center[1] / 15.0) % 24.0
    return 0.5 * (1.0 + floor) + 0.5 * (1.0 - floor) * math.cos(
        2.0 * math.pi * (hour - 14.0) / 24.0
    )

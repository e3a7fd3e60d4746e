"""Synthetic LEO-to-LEO traffic from a 648-cell gravity model.

The Earth is tiled with 10-degree cells (a 30-degree base grid subdivided
3x3, 36 x 18 = 648 cells). Cell weights come from a configurable synthetic
density field (Gaussian bumps at nine cities plus a uniform background,
area-corrected by cos latitude). Cell-pair demand follows a gravity law
G * w_i * w_j / d^2, modulated by a diurnal factor peaking at 14:00 local
solar time, and is mapped onto satellites by serving each cell with its
maximum-elevation visible LEO, adding each LEO pair's cell pairs in
ascending cell index on any BLAS. Rates are new-flow arrivals per second.

A cell's serving LEO gets an elevation only where that decides it: for the
few LEOs whose sine of elevation, taken without trigonometry, is within a
rounding margin of the cell's largest (the margin's argument is written out
in ``serving_satellites``), so it is the full elevation matrix's argmax.

A slot's cell x cell demand, the static demand times the diurnal factors
of both ends, is never built whole, nor is any C x C, k x C or second
k x k array for k serving LEOs: ``aggregate`` takes the demand rows of a
few dozen LEOs' cells at a time into reused buffers and writes each
finished row block into the one block it returns, and sums the unserved
demand a piece of its gather at a time. One ``slot_traffic_matrix`` call
on a ``default`` slot peaks at about 1.3 MiB of tracemalloc beyond its
1.5 MiB block, against 7.6 MiB when the demand was built whole.

Only a LEO that serves a cell carries traffic, at most one per cell, so a
slot's rates are stored as the dense block among those serving LEOs (the
``active`` rows of ``leo_ids``), not as a |V| x |V| matrix. Consumers read
the |V|-wide view through ``TrafficMatrix.at``, the per-LEO line sums
``outbound_of`` and ``inbound_of``, and the masked gather sums
``gather_sum``, which give what the full matrix would: every sum runs in
the order numpy runs it over the full matrix's gather and gives the same
bits. A line sum is taken only for the LEOs asked for, and a gather sum
builds at most one piece of its gather at a time, so no |V| x |V|
temporary is built.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .constellation import CITY_COORDS, R_EARTH_KM, NetworkSnapshot, geodetic_to_ecef
from .visibility import elevation

N_LON = 36
N_LAT = 18
N_CELLS = N_LON * N_LAT

DensityField = Callable[[float, float], float]


@dataclass(frozen=True)
class GroundCell:
    index: int
    lat_range: tuple[float, float]
    lon_range: tuple[float, float]
    center: tuple[float, float]
    density_weight: float


@dataclass(frozen=True)
class TrafficParams:
    gravity_constant: float = 1.0
    gravity_exponent: float = 2.0
    diurnal_floor: float = 0.2
    city_sigma_deg: float = 10.0
    background_density: float = 0.05

    def __post_init__(self) -> None:
        if not self.city_sigma_deg > 0.0:
            raise ValueError(f"city_sigma_deg: {self.city_sigma_deg} is not positive")
        for key in ("gravity_constant", "background_density"):
            if not getattr(self, key) >= 0.0:
                raise ValueError(f"{key}: {getattr(self, key)} is negative")
        if not 0.0 <= self.diurnal_floor <= 1.0:
            raise ValueError(f"diurnal_floor: {self.diurnal_floor} outside [0, 1]")


# entries of the largest piece of a gather that ``TrafficMatrix.gather_sum``
# builds (1 MiB of float64). Any size of at least 128 gives the same bits:
# above 128 entries numpy splits a node by the rule the walk follows, so a
# node is summed alike whichever side of the piece size it falls. 2**17 took
# about 6 % less time than 2**16 over the domains of ``default``.
_PIECE_ENTRIES = 1 << 17


def _pairwise_sum(piece: Callable[[int, int], float], start: int, n: int) -> float:
    """numpy's pairwise sum of the ``n`` entries from ``start`` of a run of
    non-negative numbers, walked down to nodes of at most ``_PIECE_ENTRIES``
    entries, each summed by ``piece(start, n)``. (A recursive closure would
    be a reference cycle, holding its caller's buffer until a collection.)"""
    if n <= _PIECE_ENTRIES:
        return piece(start, n)
    half = n // 2 - (n // 2) % 8
    return _pairwise_sum(piece, start, half) + _pairwise_sum(piece, start + half, n - half)


@dataclass
class TrafficMatrix:
    """Per-slot flow arrival rates between LEO pairs (flows/second).

    Rows and columns of the full matrix are LEO ids, 0..n-1 as in
    ``leo_ids`` (other ids raise ValueError). Only the ``active`` rows,
    sorted, can carry a rate; ``rates`` is the k x k block among them, and
    every other entry of the full matrix is zero. ``gather_sum(i, j)``
    sums ``full[i][:, j]`` for two masks as numpy sums that gather, bit for
    bit, from the block.
    """

    slot_index: int
    leo_ids: tuple[int, ...]
    active: np.ndarray  # sorted ids of the LEOs that may carry traffic
    rates: np.ndarray  # k x k block among the active LEOs, made read-only
    unserved_rate: float = 0.0  # demand from cells with no visible LEO
    local_rate: float = 0.0  # demand whose endpoints map to the same LEO
    # LEO id -> row of the block, -1 for an inactive LEO
    block_row: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.leo_ids != tuple(range(len(self.leo_ids))):
            raise ValueError(f"LEO ids must be 0..n-1 in order, got {self.leo_ids[:10]}")
        k = len(self.active)
        if self.rates.shape != (k, k):
            raise ValueError(f"rates must be the {k} x {k} block, got {self.rates.shape}")
        if k and not (np.all(np.diff(self.active) > 0) and 0 <= self.active[0]
                      and self.active[-1] < len(self.leo_ids)):
            raise ValueError("active must be increasing LEO ids")
        self.rates.flags.writeable = False
        self.block_row = np.full(len(self.leo_ids), -1, dtype=np.int64)
        self.block_row[self.active] = np.arange(k)

    def gather_sum(self, i: np.ndarray, j: np.ndarray) -> float:
        """``full[i][:, j].sum()`` for masks ``i`` and ``j`` over LEO ids,
        bit for bit, with at most one piece of that gather built at a time.

        The gather is F order, so its sum is numpy's sum of one contiguous
        run of N = |i| * |j| entries: a pairwise tree whose leaves of at most
        128 entries each run 8 accumulators, and whose node of n > 128
        entries adds its first n2 = n // 2 - (n // 2) % 8 entries to the
        rest, both summed alike; the tree's total is then added to the
        identity 0.0. The rates are non-negative, so every node's sum is
        too, and ``0.0 + x == x`` for each of them: the sum of a node is
        numpy's sum of that node's entries alone. The top of the tree is
        therefore walked here, down to nodes of at most ``_PIECE_ENTRIES``;
        each is summed by numpy over its own slice of the gather, built
        from the block for just the columns it spans, and the nodes are
        added in the tree's order. A node whose columns hold no active LEO
        is zeros, whose sum is 0.0. A gather of at most one piece is built
        and summed whole.
        """
        if len(self.active) == len(self.leo_ids) and len(self.leo_ids) ** 2 <= _PIECE_ENTRIES:
            return float(self.rates[i][:, j].sum())  # the full matrix, and any gather one piece
        bi, bj = self.block_row[i], self.block_row[j]
        m, size = len(bi), len(bi) * len(bj)
        rows = np.flatnonzero(bi >= 0)
        if not rows.size or not size:
            return 0.0
        block_rows = bi[rows]
        # the columns of the gather that a piece spans, each laid out as one
        # row (F order); zero but while a piece is summed
        buf = np.zeros((min(len(bj), (_PIECE_ENTRIES - 1) // m + 2), m))

        def piece(start: int, n: int) -> float:
            c0, c1 = start // m, (start + n - 1) // m + 1
            cols = bj[c0:c1]
            hit = np.flatnonzero(cols >= 0)
            if not hit.size:
                return 0.0
            part = buf[: c1 - c0]
            part[np.ix_(hit, rows)] = self.rates[np.ix_(block_rows, cols[hit])].T
            at = start - c0 * m
            total = float(part.reshape(-1)[at : at + n].sum())
            if n < size:  # zero again for the next piece
                part[hit] = 0.0
            return total

        return _pairwise_sum(piece, 0, size)

    def at(self, i, j) -> np.ndarray:
        """``full[i, j]`` for equal-shape index arrays over LEO ids."""
        if len(self.active) == len(self.leo_ids):
            return self.rates[i, j]
        pi, pj = self.block_row[i], self.block_row[j]
        out = np.zeros(pi.shape)
        both = (pi >= 0) & (pj >= 0)
        out[both] = self.rates[pi[both], pj[both]]
        return out

    def outbound_of(self, ids: np.ndarray) -> np.ndarray:
        """``full[i].sum()`` for each LEO id ``i`` of ``ids``."""
        return self._line_sums(self.rates, ids)

    def inbound_of(self, ids: np.ndarray) -> np.ndarray:
        """``full[:, j].sum()`` for each LEO id ``j`` of ``ids``: each column
        summed as one contiguous row, which matches summing the column alone
        bit for bit (``full.sum(axis=0)`` adds row by row and does not)."""
        return self._line_sums(self.rates.T, ids)

    def _line_sums(self, block: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """For each LEO id of ``ids``, its row of ``block`` (the rates or
        their transpose) summed as a |V|-wide row of the full matrix; zero
        for an inactive LEO."""
        rows = self.block_row[ids]
        out = np.zeros(len(rows))
        hit = np.flatnonzero(rows >= 0)
        # 32 lines at a time in one C-order buffer, whose inactive columns
        # stay zero; each line is summed alone, as full[i].sum() is
        buf = np.zeros((min(32, len(hit)), len(self.leo_ids)))
        for start in range(0, len(hit), 32):
            at = hit[start : start + 32]
            buf[: len(at), self.active] = block[rows[at]]
            out[at] = buf[: len(at)].sum(axis=1)
        return out


def check_gamma(gamma: float) -> None:
    """Raise ValueError unless the traffic scale ``gamma`` is in [0, 1]."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")


def scale(matrix: TrafficMatrix, gamma: float) -> TrafficMatrix:
    """Uniformly scale every rate by gamma in [0, 1]; at gamma = 1 that is
    ``matrix`` itself, whose block is read-only."""
    check_gamma(gamma)
    if gamma == 1.0:
        return matrix
    return TrafficMatrix(
        slot_index=matrix.slot_index,
        leo_ids=matrix.leo_ids,
        active=matrix.active,
        rates=matrix.rates * gamma,
        unserved_rate=matrix.unserved_rate * gamma,
        local_rate=matrix.local_rate * gamma,
    )


def city_density_field(
    sigma_deg: float = 10.0, background: float = 0.05
) -> DensityField:
    """Sum of Gaussian bumps centred on the nine preset cities plus a floor."""
    centers = list(CITY_COORDS.values())

    def density(lat: float, lon: float) -> float:
        total = background
        for clat, clon in centers:
            dlon = (lon - clon + 180.0) % 360.0 - 180.0
            d2 = (lat - clat) ** 2 + dlon**2
            total += math.exp(-d2 / (2.0 * sigma_deg**2))
        return total

    return density


def build_grid(density: DensityField) -> list[GroundCell]:
    """648 equal-angle cells; weight = density at centre * cos(latitude)."""
    cells: list[GroundCell] = []
    dlat = 180.0 / N_LAT
    dlon = 360.0 / N_LON
    index = 0
    for i in range(N_LAT):
        lat_lo = -90.0 + i * dlat
        lat_c = lat_lo + dlat / 2.0
        for j in range(N_LON):
            lon_lo = -180.0 + j * dlon
            lon_c = lon_lo + dlon / 2.0
            w = density(lat_c, lon_c) * math.cos(math.radians(lat_c))
            if w < 0:
                raise ValueError("density field produced a negative weight")
            cells.append(
                GroundCell(
                    index=index,
                    lat_range=(lat_lo, lat_lo + dlat),
                    lon_range=(lon_lo, lon_lo + dlon),
                    center=(lat_c, lon_c),
                    density_weight=w,
                )
            )
            index += 1
    return cells


def _half_angle_sin2(angles: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[i, j] = sin((angles[i] - angles[j]) / 2)**2``, the sines taken
    once per pair of distinct angles and gathered 64 rows at a time, so
    that no temporary grows with the square of the cell count."""
    distinct, k = np.unique(angles, return_inverse=True)
    s = np.subtract.outer(distinct, distinct)
    s /= 2.0
    np.sin(s, out=s)
    s **= 2
    for lo in range(0, len(k), 64):  # "clip" writes out unbuffered
        s[k[lo : lo + 64]].take(k, axis=1, out=out[lo : lo + 64], mode="clip")
    return out


def demand_matrix(cells: list[GroundCell], params: TrafficParams) -> np.ndarray:
    """Static cell-pair gravity demands (no diurnal factor), zero diagonal.

    The haversine and gravity expressions run in place on two C x C buffers,
    each element through the same operations in the same order as the
    textbook expressions. The half-angle sines depend on a pair of
    latitudes or of longitudes alone, so they are taken once per pair of
    distinct values (18 and 36 of them on the grid) and gathered."""
    w = np.array([c.density_weight for c in cells])
    lat = np.radians(np.array([c.center[0] for c in cells]))
    lon = np.radians(np.array([c.center[1] for c in cells]))
    # h = sin(dlat / 2)**2 + cos(lat_i) * cos(lat_j) * sin(dlon / 2)**2
    h = _half_angle_sin2(lon, np.empty((len(cells), len(cells))))
    buf = np.outer(np.cos(lat), np.cos(lat))
    h *= buf
    h += _half_angle_sin2(lat, buf)
    # dist = 2 R asin(sqrt(clip(h, 0, 1))), infinite on the diagonal
    dist = np.clip(h, 0.0, 1.0, out=h)
    np.sqrt(dist, out=dist)
    np.arcsin(dist, out=dist)
    dist *= 2.0 * R_EARTH_KM
    np.fill_diagonal(dist, np.inf)
    # demand = G * w_i * w_j / dist**exponent
    demand = np.outer(w, w, out=buf)
    demand *= params.gravity_constant
    dist **= params.gravity_exponent
    demand /= dist
    np.fill_diagonal(demand, 0.0)
    return demand


def diurnal_factors(cells: list[GroundCell], utc_s: float, floor: float = 0.2) -> np.ndarray:
    """Daylight multiplier of each cell in [floor, 1], peaking at 14:00 local solar time."""
    lon = np.array([c.center[1] for c in cells])
    hour = (utc_s / 3600.0 + lon / 15.0) % 24.0
    return 0.5 * (1.0 + floor) + 0.5 * (1.0 - floor) * np.cos(
        2.0 * math.pi * (hour - 14.0) / 24.0
    )


def cell_positions(cells: list[GroundCell]) -> np.ndarray:
    """ECEF position (km) of each cell centre on the spherical Earth, (C, 3)."""
    return np.array([geodetic_to_ecef(*c.center) for c in cells])


# entries of one row block of the cell x LEO dot products (1 MiB of float64)
_BLOCK_ENTRIES = 1 << 17


def serving_satellites(cell_pos: np.ndarray, snapshot: NetworkSnapshot) -> np.ndarray:
    """Id of the maximum-elevation visible LEO of each cell at ``cell_pos``
    (see ``cell_positions``), or -1 when no LEO is above the horizon.

    The result is the argmax of the full elevation matrix, the lowest index
    winning a tie, with elevations computed for about one LEO per cell. The
    cell x LEO dot products are taken in row blocks of about 2**17 entries,
    and only the candidate pairs, picked by one bound per block, are kept:
    every other LEO has cos alpha < rho - 1e-6, below the horizon by far
    more than the rounding of the trigonometry, so it can neither serve nor
    be the maximum of a cell that has a visible LEO. A candidate's sine of
    elevation, (cos alpha - rho) / |(cos alpha - rho, sin alpha)|, takes no
    trigonometry, and only the candidates whose sine lies within a rounding
    margin of their cell's largest get ``elevation``.
    """
    leo_pos = snapshot.positions[: len(snapshot.leo_ids)]
    r_obs = np.linalg.norm(cell_pos, axis=1)
    r_tgt = np.linalg.norm(leo_pos, axis=1)
    n_cells, n_leo = len(cell_pos), len(r_tgt)
    # Why every pair with cos alpha >= rho - 1e-6 is a candidate. That is
    # c >= T, with c = clip(fl(d / fl(ro * rt)), -1, 1), R = fl(ro * fl(1 / rt))
    # and T = fl(R - m), m = 1e-6; ro, rt > 0 are the computed norms, d the
    # computed dot product, and each fl() rounds by a factor in [1 - u, 1 + u],
    # u = 2**-53. R > 0 gives T > -1, so the clip did not raise such a c and
    # d >= fl(ro * rt) * T / (1 + e) with |e| <= u. Expanding the roundings
    # one by one and bounding each error term by its absolute value (|T| and
    # |R - m| are at most (1 + u)**2 * (ro / rt + m), whatever T's sign):
    #     d >= ro**2 - m * ro * rt - 6u * (ro**2 + m * ro * rt).
    # The right side falls as rt grows, so rt_max in place of rt gives one
    # bound per cell. The slack of 1e-12 * ro * (ro + rt_max) is positive and
    # exceeds both the 6u term and the rounding of evaluating ``bound``. A
    # block compares with the least bound of its cells, a scalar (cells on
    # one sphere have bounds that differ in the last bits).
    rt_max = r_tgt.max(initial=0.0)
    bound = r_obs * (r_obs - 1e-6 * rt_max) - 1e-12 * r_obs * (r_obs + rt_max)
    # A block of two or more rows gives each dot product the bits of the
    # one matrix product ``separation`` takes (a single row would take the
    # matrix-vector kernel), so a lone last row joins the block before it.
    rows = max(2, _BLOCK_ENTRIES // max(n_leo, 1))
    starts = list(range(0, n_cells, rows))
    if len(starts) > 1 and n_cells - starts[-1] == 1:
        starts.pop()
    # Why the candidates left out cannot reach their cell's maximum. With c
    # and rho as computed, let E = atan2(y, x), y = c - rho, x = sqrt(1 - c**2),
    # be the exact elevation of those inputs and n = |(y, x)| <= 1 + rho.
    # ``elevation`` takes arccos, cos, sin and arctan2, each within an ulp,
    # so its cos and sin are within 9u and its numerator within (10 + rho)u;
    # its radians are then within 25 * (1 + rho) * u / n of E, and rounding
    # them to degrees merges values at most 4u apart. ``sine`` below is
    # sin E = y / n to within 8u. sin is 1-Lipschitz, so a pair whose
    # elevation in degrees is at least another's has a sine at most
    # margin_a + margin_b below the other's, with
    # margin = 1e-12 * (1 + rho) / n over 200 times those bounds. The pairs
    # kept are those within their margin of some pair's sine minus its own,
    # which holds every pair at the cell's maximum; a pair with n = 0, an
    # observer on its target, gets NaN, which fmax skips, and is kept. A
    # cell's candidates all lie in its block, so each block keeps its own.
    inv_rt = 1.0 / r_tgt
    floor = np.full(n_cells, -np.inf)
    buf = np.empty((min(rows + 1, n_cells), n_leo))
    kept = [(np.empty(0, dtype=np.int64),) * 2 + (np.empty(0),) * 2]
    for lo, hi in zip(starts, starts[1:] + [n_cells]):
        dot = np.matmul(cell_pos[lo:hi], leo_pos.T, out=buf[: hi - lo])
        # positions in the block, row-major: j increases within a row (a
        # 1-d nonzero is several times faster than the 2-d one)
        at = np.flatnonzero(dot >= bound[lo:hi].min())
        i, j = np.divmod(at, n_leo)
        i += lo
        # separation's element-wise expressions, on the candidates
        cos_alpha = np.clip(dot.ravel()[at] / (r_obs[i] * r_tgt[j]), -1.0, 1.0)
        rho = r_obs[i] * inv_rt[j]
        y = cos_alpha - rho
        with np.errstate(divide="ignore", invalid="ignore"):
            n = np.sqrt(y * y + (1.0 - cos_alpha) * (1.0 + cos_alpha))
            sine = y / n
            margin = 1e-12 * (1.0 + rho) / n
        np.fmax.at(floor, i, sine - margin)
        keep = np.flatnonzero(~(sine + margin < floor[i]))
        kept.append((i[keep], j[keep], cos_alpha[keep], rho[keep]))
    i, j, cos_alpha, rho = map(np.concatenate, zip(*kept))
    elev = elevation(cos_alpha, rho)
    top = np.full(n_cells, -np.inf)
    np.maximum.at(top, i, elev)
    # the first candidate at its cell's maximum is the lowest index at it
    at_top = np.nonzero(elev == top[i])[0]
    cells, first = np.unique(i[at_top], return_index=True)
    best = np.full(n_cells, -1)
    best[cells] = j[at_top[first]]
    best[top < 0.0] = -1
    return best


# LEO rows of the block built at a time: its three buffers of that many
# cell rows hold 1.2 MiB on the 648-cell grid, and a desk slot's 66 LEOs
# fit one block
_BLOCK_ROWS = 80


def _rows(buf: np.ndarray, n: int, width: int) -> np.ndarray:
    """The first ``n * width`` entries of ``buf`` as a C-order n x width array."""
    return buf.reshape(-1)[: n * width].reshape(n, width)


def _unserved_sum(static_demand: np.ndarray, factors: np.ndarray, served: np.ndarray) -> float:
    """``demand[~np.outer(served, served)].sum()`` for the demand
    ``static_demand * np.outer(factors, factors)``, bit for bit, with at most
    one piece of that row-major 1-D gather built at a time.

    The gather is numpy's sum of one contiguous run, so it is walked as in
    ``TrafficMatrix.gather_sum``: each node of the pairwise tree of at most
    ``_PIECE_ENTRIES`` entries is built and summed by numpy alone. Row i of
    the gather is every column of an unserved cell's row, or the unserved
    columns of a served cell's row; a piece is built from the runs of like
    rows that it spans, whole rows, each entry as
    ``static_demand[i, j] * (factors[i] * factors[j])``.
    """
    lost = np.flatnonzero(~served)
    if not len(lost):
        return 0.0
    n = len(served)
    width = np.where(served, len(lost), n)  # entries of each row in the gather
    ends = np.cumsum(width)
    cuts = np.concatenate(([0], np.flatnonzero(np.diff(served)) + 1, [n]))  # runs of like rows
    size = int(ends[-1])
    buf = np.empty(min(size, _PIECE_ENTRIES) + 2 * n)

    def piece(start: int, count: int) -> float:
        r0, r1 = np.searchsorted(ends, [start, start + count - 1], side="right")
        at = 0
        for a, b in zip(cuts[:-1], cuts[1:]):
            a, b = max(a, r0), min(b, r1 + 1)
            if a >= b:
                continue
            cols = lost if served[a] else np.arange(n)
            part = _rows(buf[at:], b - a, len(cols))
            np.take(static_demand[a:b], cols, axis=1, out=part, mode="clip")
            part *= np.multiply.outer(factors[a:b], factors[cols])
            at += part.size
        skip = start - (int(ends[r0]) - int(width[r0]))
        return float(buf[skip : skip + count].sum())

    return _pairwise_sum(piece, 0, size)


def aggregate(
    serving: np.ndarray,
    static_demand: np.ndarray,
    factors: np.ndarray,
    leo_ids: tuple[int, ...],
    slot_index: int = 0,
) -> TrafficMatrix:
    """Aggregate cell-pair demand onto (serving LEO, serving LEO) pairs.

    Cells i and j demand ``static_demand[i, j] * (factors[i] * factors[j])``,
    the entries of ``static_demand * np.outer(factors, factors)``; cell i is
    served by LEO ``serving[i]`` (an index into ``leo_ids``), or by none at
    -1. The rate of (s, d) adds from 0, over d's cells c in ascending index,
    the sum from 0 over s's cells j in ascending index of demand (j, c):
    the bits of ``S @ demand @ S.T`` for the one-hot k x C matrix ``S``,
    taken rows first without BLAS. Pairs on one LEO are local traffic, the
    block's trace, and are dropped; demand with an unserved end is dropped
    and reported as numpy's sum of its row-major gather (``_unserved_sum``).

    The block is written ``_BLOCK_ROWS`` rows at a time, with nothing larger
    than three buffers of that many cell rows beside it. A LEO's cells are
    added rank by rank: the first cell of every LEO, then the second of
    those that have one, and so on, so each sum runs in ascending cell
    index; with LEO rows taken by decreasing cell count, the LEOs of a rank
    are a prefix. A row's source sums are its cells' demand rows, added in
    place; each rate then adds its destination's columns of them. A rate
    starts as 0.0 plus its first term; a source sum starts as its first
    term, which differs from 0.0 plus it only in the sign of a zero, a sign
    the rate's own 0.0 then clears.
    """
    served = serving >= 0
    unserved = _unserved_sum(static_demand, factors, served)

    cells = np.flatnonzero(served)
    active, block, count = np.unique(serving[cells], return_inverse=True, return_counts=True)
    k, n_cells = len(active), len(serving)
    # LEO rows by decreasing cell count, so that the LEOs with an r-th cell
    # come first; the served cells rank-major, in that order within a rank
    by_count = np.argsort(-count, kind="stable")
    place = np.empty(k, dtype=np.int64)
    place[by_count] = np.arange(k)
    grouped = np.argsort(block, kind="stable")  # by LEO, ascending cell
    leo = block[grouped]
    rank = np.arange(len(leo)) - (np.cumsum(count) - count)[leo]
    seq = cells[grouped][np.argsort(rank * k + place[leo])]
    width = np.bincount(rank)  # LEOs with an r-th cell
    offset = np.concatenate(([0], np.cumsum(width)))
    first = seq[place]  # each LEO's first cell, in LEO order

    rates = np.empty((k, k))
    # per LEO row its cells' row sum; one rank's demand rows; their factors
    y_buf, d_buf, f_buf = (np.empty((min(k, _BLOCK_ROWS), n_cells)) for _ in range(3))
    for lo in range(0, k, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, k)
        y = y_buf[: hi - lo]
        for r in range(len(width)):
            m = min(hi, width[r]) - lo
            if m <= 0:
                break
            src = seq[offset[r] + lo : offset[r] + lo + m]
            scaled = f_buf[:m]
            np.copyto(scaled, factors)
            scaled *= factors[src, None]
            d = y if r == 0 else d_buf[:m]
            np.take(static_demand, src, axis=0, out=d, mode="clip")
            d *= scaled
            if r:
                y[:m] += d
        # each LEO column adds its cells' columns, rank by rank
        out = _rows(f_buf, hi - lo, k)
        np.take(y, first, axis=1, out=out, mode="clip")
        out += 0.0
        for r in range(1, len(width)):
            out[:, by_count[: width[r]]] += y[:, seq[offset[r] : offset[r + 1]]]
        rates[by_count[lo:hi]] = out
    # the trace over all LEOs: the diagonal in place among zeros, summed alike
    diagonal = np.zeros(len(leo_ids))
    diagonal[active] = np.diagonal(rates)
    local = float(diagonal.sum())
    np.fill_diagonal(rates, 0.0)

    return TrafficMatrix(
        slot_index=slot_index,
        leo_ids=leo_ids,
        active=active,
        rates=rates,
        unserved_rate=unserved,
        local_rate=local,
    )


def map_to_satellites(
    cell_pos: np.ndarray,
    static_demand: np.ndarray,
    factors: np.ndarray,
    snapshot: NetworkSnapshot,
    slot_index: int = 0,
) -> TrafficMatrix:
    """The demand ``static_demand * np.outer(factors, factors)`` of the
    cells at ``cell_pos`` aggregated onto their serving satellites in
    ``snapshot`` by ``aggregate``: each rate adds its source LEO's cells,
    then its destination LEO's cells, in ascending cell index, and no C x C,
    k x C or second k x k array is built."""
    serving = serving_satellites(cell_pos, snapshot)
    return aggregate(serving, static_demand, factors, snapshot.leo_ids, slot_index)


def slot_traffic_matrix(
    cells: list[GroundCell],
    cell_pos: np.ndarray,
    static_demand: np.ndarray,
    snapshot: NetworkSnapshot,
    slot_index: int,
    params: TrafficParams,
) -> TrafficMatrix:
    """Cell demand with the diurnal factor applied at both endpoints, mapped
    onto the snapshot's serving satellites by ``map_to_satellites``, in the
    same order and to the same bits as the dense product; ``cell_pos`` is
    ``cell_positions(cells)``, computed once per grid. The demand is taken a
    few dozen cell rows at a time, so a call holds at most about 1.3 MiB of
    temporaries beside the block it returns on ``default`` (tracemalloc)."""
    f = diurnal_factors(cells, snapshot.time_s, params.diurnal_floor)
    return map_to_satellites(cell_pos, static_demand, f, snapshot, slot_index=slot_index)

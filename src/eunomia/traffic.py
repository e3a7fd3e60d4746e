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

Only a LEO that serves a cell carries traffic, at most one per cell, so a
slot's rates are stored as the dense block among those serving LEOs (the
``active`` rows of ``leo_ids``), not as a |V| x |V| matrix. Consumers read
the |V|-wide view through ``TrafficMatrix.submatrix``, ``at`` and the
per-LEO line sums ``outbound_of`` and ``inbound_of``, which give what the
full matrix would, memory order included, so that every sum runs in the
same order as over the full matrix and gives the same bits. A line sum is
taken only for the LEOs asked for.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix

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


@dataclass
class TrafficMatrix:
    """Per-slot flow arrival rates between LEO pairs (flows/second).

    Rows and columns of the full matrix are LEO ids, 0..n-1 as in
    ``leo_ids`` (other ids raise ValueError). Only the ``active`` rows,
    sorted, can carry a rate; ``rates`` is the k x k block among them, and
    every other entry of the full matrix is zero. ``submatrix(i, j)``
    rebuilds ``full[i][:, j]`` for two masks in that gather's F-order layout,
    so reductions over it match the full matrix bit for bit.
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

    def submatrix(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """``full[i][:, j]`` for masks ``i`` and ``j`` over LEO ids:
        shape (|i|, |j|), F order, as the masked gather lays it out.

        Only the entries among active LEOs are copied from the block into
        zeros; the |i| x |V| row gather is never built.
        """
        if len(self.active) == len(self.leo_ids):
            return self.rates[i][:, j]
        bi, bj = self.block_row[i], self.block_row[j]
        out = np.zeros((len(bj), len(bi))).T
        hit_i, hit_j = np.flatnonzero(bi >= 0), np.flatnonzero(bj >= 0)
        out[np.ix_(hit_i, hit_j)] = self.rates[np.ix_(bi[hit_i], bj[hit_j])]
        return out

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
    buf = np.empty((min(rows + 1, n_cells), n_leo))
    flat, dots = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for lo, hi in zip(starts, starts[1:] + [n_cells]):
        dot = np.matmul(cell_pos[lo:hi], leo_pos.T, out=buf[: hi - lo])
        # positions in the block, row-major: j increases within a row (a
        # 1-d nonzero is several times faster than the 2-d one)
        at = np.flatnonzero(dot >= bound[lo:hi].min())
        dots.append(dot.ravel()[at])
        flat.append(at + lo * n_leo)
    i, j = np.divmod(np.concatenate(flat), n_leo)
    # separation's element-wise expressions, on the candidates
    cos_alpha = np.clip(np.concatenate(dots) / (r_obs[i] * r_tgt[j]), -1.0, 1.0)
    rho = r_obs[i] * (1.0 / r_tgt)[j]
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
    # observer on its target, gets NaN, which fmax skips, and is kept.
    y = cos_alpha - rho
    with np.errstate(divide="ignore", invalid="ignore"):
        n = np.sqrt(y * y + (1.0 - cos_alpha) * (1.0 + cos_alpha))
        sine = y / n
        margin = 1e-12 * (1.0 + rho) / n
    floor = np.full(n_cells, -np.inf)
    np.fmax.at(floor, i, sine - margin)
    keep = np.flatnonzero(~(sine + margin < floor[i]))
    i, j = i[keep], j[keep]
    elev = elevation(cos_alpha[keep], rho[keep])
    top = np.full(n_cells, -np.inf)
    np.maximum.at(top, i, elev)
    # the first candidate at its cell's maximum is the lowest index at it
    at_top = np.nonzero(elev == top[i])[0]
    cells, first = np.unique(i[at_top], return_index=True)
    best = np.full(n_cells, -1)
    best[cells] = j[at_top[first]]
    best[top < 0.0] = -1
    return best


def map_to_satellites(
    cell_pos: np.ndarray,
    demands: np.ndarray,
    snapshot: NetworkSnapshot,
    slot_index: int = 0,
) -> TrafficMatrix:
    """Aggregate cell-pair demand onto (serving LEO, serving LEO) pairs.

    The block is ``S @ demands @ S.T`` for the sparse k x C one-hot matrix
    ``S`` of serving LEO by cell, taken rows first without BLAS: each rate
    adds its source LEO's cells, then its destination LEO's cells, in
    ascending cell index. Pairs on one LEO are local traffic and dropped;
    demand from cells with no visible LEO is dropped and reported.
    """
    serving = serving_satellites(cell_pos, snapshot)
    served = serving >= 0

    unserved = float(demands[~np.outer(served, served)].sum())

    cells = np.flatnonzero(served)
    active, block = np.unique(serving[cells], return_inverse=True)
    S = csr_matrix((np.ones(len(cells)), (block, cells)), shape=(len(active), len(cell_pos)))
    rates = np.ascontiguousarray((S @ (S @ demands).T).T)
    # the trace over all LEOs: the diagonal in place among zeros, summed alike
    diagonal = np.zeros(len(snapshot.leo_ids))
    diagonal[active] = np.diagonal(rates)
    local = float(diagonal.sum())
    np.fill_diagonal(rates, 0.0)

    return TrafficMatrix(
        slot_index=slot_index,
        leo_ids=snapshot.leo_ids,
        active=active,
        rates=rates,
        unserved_rate=unserved,
        local_rate=local,
    )


def slot_traffic_matrix(
    cells: list[GroundCell],
    cell_pos: np.ndarray,
    static_demand: np.ndarray,
    snapshot: NetworkSnapshot,
    slot_index: int,
    params: TrafficParams,
) -> TrafficMatrix:
    """Cell demand with the diurnal factor applied at both endpoints, mapped
    onto the snapshot's serving satellites; ``cell_pos`` is
    ``cell_positions(cells)``, computed once per grid."""
    f = diurnal_factors(cells, snapshot.time_s, params.diurnal_floor)
    demands = static_demand * np.outer(f, f)
    return map_to_satellites(cell_pos, demands, snapshot, slot_index=slot_index)

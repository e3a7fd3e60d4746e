"""Synthetic LEO-to-LEO traffic from a 648-cell gravity model.

The Earth is tiled with 10-degree cells (a 30-degree base grid subdivided
3x3, 36 x 18 = 648 cells). Cell weights come from a configurable synthetic
density field (Gaussian bumps at nine cities plus a uniform background,
area-corrected by cos latitude). Cell-pair demand follows a gravity law
G * w_i * w_j / d^2, modulated by a diurnal factor peaking at 14:00 local
solar time, and is mapped onto satellites by serving each cell with its
maximum-elevation visible LEO. Rates are new-flow arrivals per second.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .constellation import CITY_COORDS, R_EARTH_KM, NetworkSnapshot
from .visibility import elevation_matrix

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
    mean_flow_lifetime_s: float = 10.0


@dataclass
class TrafficMatrix:
    """Per-slot flow arrival rates between LEO pairs (flows/second)."""

    slot_index: int
    leo_ids: tuple[int, ...]
    rates: np.ndarray  # dense |V| x |V|, zero diagonal
    unserved_rate: float = 0.0  # demand from cells with no visible LEO
    local_rate: float = 0.0  # demand whose endpoints map to the same LEO
    index_of: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.index_of:
            self.index_of = {leo: k for k, leo in enumerate(self.leo_ids)}

    def total_rate(self) -> float:
        return float(self.rates.sum())

    def nonzero_pairs(self) -> list[tuple[int, int, float]]:
        out = []
        src_idx, dst_idx = np.nonzero(self.rates)
        for a, b in zip(src_idx, dst_idx):
            out.append((self.leo_ids[a], self.leo_ids[b], float(self.rates[a, b])))
        return out

    def outbound_rate(self, src: int) -> float:
        return float(self.rates[self.index_of[src]].sum())

    def to_csv_rows(self) -> list[tuple[int, int, int, float]]:
        """(slot, src, dst, rate) rows for every nonzero pair."""
        return [
            (self.slot_index, src, dst, rate) for src, dst, rate in self.nonzero_pairs()
        ]


def scale(matrix: TrafficMatrix, gamma: float) -> TrafficMatrix:
    """Uniformly scale every rate by gamma in [0, 1]."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    return TrafficMatrix(
        slot_index=matrix.slot_index,
        leo_ids=matrix.leo_ids,
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


def great_circle_km(a: tuple[float, float], b: tuple[float, float]) -> float:
    lat1, lon1 = map(math.radians, a)
    lat2, lon2 = map(math.radians, b)
    s = math.sin((lat2 - lat1) / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(
        (lon2 - lon1) / 2.0
    ) ** 2
    return 2.0 * R_EARTH_KM * math.asin(min(1.0, math.sqrt(s)))


def gravity_demand(
    cell_i: GroundCell, cell_j: GroundCell, params: TrafficParams
) -> float:
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


def demand_matrix(cells: list[GroundCell], params: TrafficParams) -> np.ndarray:
    """Static cell-pair gravity demands (no diurnal factor), zero diagonal."""
    n = len(cells)
    w = np.array([c.density_weight for c in cells])
    lat = np.radians(np.array([c.center[0] for c in cells]))
    lon = np.radians(np.array([c.center[1] for c in cells]))
    sin_half_lat = np.sin((lat[:, None] - lat[None, :]) / 2.0) ** 2
    sin_half_lon = np.sin((lon[:, None] - lon[None, :]) / 2.0) ** 2
    h = sin_half_lat + np.outer(np.cos(lat), np.cos(lat)) * sin_half_lon
    dist = 2.0 * R_EARTH_KM * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))
    np.fill_diagonal(dist, np.inf)
    demand = params.gravity_constant * np.outer(w, w) / dist**params.gravity_exponent
    np.fill_diagonal(demand, 0.0)
    return demand


def diurnal_factor(cell: GroundCell, utc_s: float, floor: float = 0.2) -> float:
    """Daylight multiplier in [floor, 1], peaking at 14:00 local solar time."""
    hour = (utc_s / 3600.0 + cell.center[1] / 15.0) % 24.0
    return 0.5 * (1.0 + floor) + 0.5 * (1.0 - floor) * math.cos(
        2.0 * math.pi * (hour - 14.0) / 24.0
    )


def _diurnal_vector(cells: list[GroundCell], utc_s: float, floor: float) -> np.ndarray:
    lon = np.array([c.center[1] for c in cells])
    hour = (utc_s / 3600.0 + lon / 15.0) % 24.0
    return 0.5 * (1.0 + floor) + 0.5 * (1.0 - floor) * np.cos(
        2.0 * math.pi * (hour - 14.0) / 24.0
    )


def serving_satellites(cells: list[GroundCell], snapshot: NetworkSnapshot) -> np.ndarray:
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
    leo_pos = snapshot.positions[list(snapshot.leo_ids)]
    elev = elevation_matrix(cell_pos, leo_pos)
    best = np.argmax(elev, axis=1)
    best[elev[np.arange(len(cells)), best] < 0.0] = -1
    return best


def map_to_satellites(
    cells: list[GroundCell],
    demands: np.ndarray,
    snapshot: NetworkSnapshot,
    slot_index: int = 0,
) -> TrafficMatrix:
    """Aggregate cell-pair demand onto (serving LEO, serving LEO) pairs.

    Pairs that land on a single LEO are local traffic and are dropped;
    demand from cells with no visible LEO is dropped and reported.
    """
    serving = serving_satellites(cells, snapshot)
    n_leo = len(snapshot.leo_ids)
    served = serving >= 0

    unserved = float(demands[~served, :].sum() + demands[:, ~served].sum()
                     - demands[np.ix_(~served, ~served)].sum())

    sel = np.zeros((len(cells), n_leo))
    sel[np.nonzero(served)[0], serving[served]] = 1.0
    rates = sel.T @ demands @ sel
    local = float(np.trace(rates))
    np.fill_diagonal(rates, 0.0)

    return TrafficMatrix(
        slot_index=slot_index,
        leo_ids=snapshot.leo_ids,
        rates=rates,
        unserved_rate=unserved,
        local_rate=local,
    )


def slot_traffic_matrix(
    cells: list[GroundCell],
    static_demand: np.ndarray,
    snapshot: NetworkSnapshot,
    slot_index: int,
    params: TrafficParams,
) -> TrafficMatrix:
    """Cell demand with the diurnal factor applied at both endpoints, mapped
    onto the snapshot's serving satellites."""
    f = _diurnal_vector(cells, snapshot.time_s, params.diurnal_floor)
    demands = static_demand * np.outer(f, f)
    return map_to_satellites(cells, demands, snapshot, slot_index=slot_index)

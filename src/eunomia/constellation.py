"""Walker-style constellation generation and circular two-body propagation.

All downstream geometry runs in an Earth-fixed (rotating) frame so ground
stations are static. Satellites fly circular orbits on a spherical Earth
(R = 6371 km); the per-shell eccentricity of the preset tables is recorded
but not propagated. Stored velocities are the orbital (inertial) velocity
expressed in Earth-fixed axes: the frame-rotation transport term is omitted
so that |v| = 2*pi*r/T and the sign of the latitude rate is preserved, which
is what flight-direction classification consumes.

The constellation is held as arrays only: one array per orbital element,
indexed by satellite id (satellite ``s`` of plane ``p`` of a shell of ``S``
satellites per plane is row ``p * S + s`` of that shell, LEOs first), and
the LEO shell's +Grid links as one sorted (E, 2) array of (low, high) ids,
which ``IslTopology`` holds and every snapshot shares.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

R_EARTH_KM = 6371.0
MU_KM3_S2 = 398600.4418
EARTH_ROTATION_RAD_S = 7.2921159e-5
C_LIGHT_KM_S = 299792.458


class Role(str, Enum):
    LEO = "leo"
    MEO = "meo"
    GS = "gs"


ROLE_CODE: dict[Role, int] = {role: c for c, role in enumerate(Role)}


@dataclass(frozen=True)
class ShellSpec:
    """One circular Walker shell (a LEO switch layer or a MEO controller layer)."""

    altitude_km: float
    inclination_deg: float
    num_planes: int
    sats_per_plane: int
    phasing_offset: float | None = None  # fraction of in-plane spacing, [0, 1); None = 1/num_planes
    name: str = ""
    eccentricity: float = 0.0  # recorded from preset tables, not propagated

    def __post_init__(self) -> None:
        if self.altitude_km <= 0:
            raise ValueError(f"altitude_km: {self.altitude_km} is not positive")
        if not 0.0 <= self.inclination_deg <= 180.0:
            raise ValueError(f"inclination_deg: {self.inclination_deg} outside [0, 180]")
        for key in ("num_planes", "sats_per_plane"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key}: {getattr(self, key)} is less than 1")
        if self.phasing_offset is not None and not 0.0 <= self.phasing_offset < 1.0:
            raise ValueError(f"phasing_offset: {self.phasing_offset} outside [0, 1)")

    @property
    def orbital_radius_km(self) -> float:
        return R_EARTH_KM + self.altitude_km

    @property
    def total_sats(self) -> int:
        return self.num_planes * self.sats_per_plane

    def effective_phasing(self) -> float:
        return 1.0 / self.num_planes if self.phasing_offset is None else self.phasing_offset


@dataclass(frozen=True)
class GroundStationNode:
    id: int = field(metadata={"config": False})
    name: str
    latitude_deg: float = field(metadata={"key": "lat"})
    longitude_deg: float = field(metadata={"key": "lon"})

    def __post_init__(self) -> None:
        if abs(self.latitude_deg) > 90.0:
            raise ValueError(f"lat: {self.latitude_deg} outside [-90, 90]")
        if abs(self.longitude_deg) > 180.0:
            raise ValueError(f"lon: {self.longitude_deg} outside [-180, 180]")

    def position_km(self) -> np.ndarray:
        return geodetic_to_ecef(self.latitude_deg, self.longitude_deg)


def orbital_period(radius_km: float) -> float:
    """Circular two-body period in seconds for an orbit of the given radius."""
    if radius_km <= R_EARTH_KM:
        raise ValueError(f"orbital radius {radius_km} km is not above the Earth surface")
    return 2.0 * math.pi * math.sqrt(radius_km**3 / MU_KM3_S2)


def geodetic_to_ecef(lat_deg: float, lon_deg: float) -> np.ndarray:
    """Spherical-Earth surface point in km for the given latitude/longitude."""
    lat = math.radians(lat_deg)
    lon = math.radians(lon_deg)
    return R_EARTH_KM * np.array(
        [math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat)]
    )


def generate_shell(spec: ShellSpec) -> np.ndarray:
    """Lay out a Walker shell: RAAN spread over a full 2*pi, uniform in-plane
    phases, and an inter-plane phase offset of ``phasing_offset`` in-plane slots.

    Returns a (5, P * S) array whose rows are each satellite's RAAN, initial
    argument of latitude (both radians), inclination (radians), orbital
    radius (km) and angular rate (rad/s); column ``p * S + s`` is satellite
    ``s`` of plane ``p``.
    """
    n = spec.total_sats
    plane, slot = np.divmod(np.arange(n), spec.sats_per_plane)
    slot_step = 2.0 * math.pi / spec.sats_per_plane
    phase_shift = spec.effective_phasing() * slot_step
    return np.stack(
        [
            2.0 * math.pi * plane / spec.num_planes,
            (slot * slot_step + plane * phase_shift) % (2.0 * math.pi),
            np.full(n, math.radians(spec.inclination_deg)),
            np.full(n, spec.orbital_radius_km),
            np.full(n, 2.0 * math.pi / orbital_period(spec.orbital_radius_km)),
        ]
    )


def _ecef_rotation(t: float) -> np.ndarray:
    """Rotation matrix taking inertial vectors into Earth-fixed axes at time t."""
    phi = EARTH_ROTATION_RAD_S * t
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])


def grid_edges(spec: ShellSpec) -> np.ndarray:
    """+Grid inter-satellite links of a shell laid out by ``generate_shell``:
    ring neighbours within each plane plus the same-slot satellite in each
    adjacent plane (both modular), as a sorted (E, 2) array of (low, high) ids."""
    ids = np.arange(spec.total_sats).reshape(spec.num_planes, spec.sats_per_plane)
    nxt = np.stack([np.roll(ids, -1, axis=1), np.roll(ids, -1, axis=0)])  # next slot, next plane
    pairs = np.sort(np.column_stack([np.broadcast_to(ids, nxt.shape).ravel(), nxt.ravel()]))
    # a single-slot plane or a single plane links a satellite to itself: no link
    return np.unique(pairs[pairs[:, 0] != pairs[:, 1]], axis=0)


def index_dtype(count: int) -> type:
    """The type of ids below ``count``: int16 below 2**15, else int32 (both hold -9999)."""
    return np.int16 if count < 2**15 else np.int32


def norm(v: np.ndarray) -> np.ndarray:
    """Euclidean length along the last axis.

    ``np.vecdot`` runs the same dot kernel as ``np.linalg.norm`` of a single
    vector, so every value matches that scalar norm bit for bit;
    ``np.linalg.norm(v, axis=-1)`` sums differently and does not.
    """
    return np.sqrt(np.vecdot(v, v))


_TREE_ENTRIES = 1 << 17  # distances one shortest_path call may return (1 MiB of float64)


@dataclass(eq=False)
class _HopTrees:
    """The hop trees computed so far: ``store[:count]`` holds one predecessor
    row per source, in order of computation and the ``index_dtype`` of |V|,
    and ``row[s]`` is source ``s``'s row (-1 until computed). The store's
    capacity doubles as it fills: all sources copy O(|V|^2) entries in all."""

    row: np.ndarray
    store: np.ndarray
    count: int = 0


@dataclass(frozen=True, eq=False)
class IslTopology:
    """The ISL edges among ``leo_ids``, held once as ``edge_array``: a sorted
    (E, 2) int64 array of (low id, high id) rows. The sparse graph, whose
    row ``i`` lists the neighbours of ``i`` in id order, is a view of it,
    built on first use, and the hop trees are computed once per source and
    kept; all snapshots of a constellation share its one topology."""

    edge_array: np.ndarray
    leo_ids: tuple[int, ...]

    @cached_property
    def graph(self) -> csr_matrix:
        """The adjacency as a symmetric 0/1 sparse matrix over LEO ids, in
        canonical CSR form (each row's column indices sorted)."""
        ends = self.edge_array
        n = len(self.leo_ids)
        return csr_matrix(
            (np.ones(ends.size), (ends.ravel(), ends[:, ::-1].ravel())), shape=(n, n)
        )

    @cached_property
    def _hop_trees(self) -> _HopTrees:
        n = len(self.leo_ids)
        return _HopTrees(np.full(n, -1, dtype=np.intp), np.empty((0, n), dtype=index_dtype(n)))

    def hop_predecessors(self, sources: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hop-count shortest-path predecessor trees of ``sources`` over LEO
        ids, as ``(trees, rows)``: ``trees[rows[i]]`` is scipy's predecessor
        row from source ``sources[i]`` (-9999 at the source and where
        unreachable), in the ``index_dtype`` of |V|.

        Only the trees of requested sources are held. Those missing so far
        come from ``shortest_path`` calls of at most ``_TREE_ENTRIES``
        distances each and are kept, so each source's tree is computed once
        per topology. Dijkstra runs each source on its own, so a row does
        not depend on which other sources were requested with it.
        """
        trees = self._hop_trees
        n = len(trees.row)
        missing = np.unique(sources[trees.row[sources] < 0])
        if missing.size:
            end = trees.count + missing.size
            if end > len(trees.store):
                grown = np.empty((max(end, 2 * len(trees.store)), n), trees.store.dtype)
                grown[: trees.count] = trees.store[: trees.count]
                trees.store = grown
            chunk = max(1, _TREE_ENTRIES // n)
            for lo in range(0, missing.size, chunk):
                at, batch = trees.count + lo, missing[lo : lo + chunk]
                _, trees.store[at : at + batch.size] = shortest_path(
                    self.graph, method="D", unweighted=True, return_predecessors=True,
                    indices=batch,
                )
            trees.row[missing] = np.arange(trees.count, end)
            trees.count = end
        return trees.store[: trees.count], trees.row[sources]

    def __getstate__(self) -> dict:
        # the hop trees are rebuilt on demand, not sent to worker processes
        return {k: v for k, v in self.__dict__.items() if k != "_hop_trees"}


@dataclass
class NetworkSnapshot:
    """All node positions, the ISL topology and the controller/switch split at one instant.

    Node ids are contiguous, so ``positions`` and ``velocities`` are (N, 3)
    arrays and ``roles`` a tuple, all indexed by node id. The LEOs come
    first, ``leo_ids == (0, ..., n - 1)``, so a LEO id also indexes every
    per-LEO array, and controller ``k`` is row ``k - n`` of a per-controller
    one; any other layout, or a ``topology`` over other LEO ids, raises ValueError.
    """

    time_s: float
    positions: np.ndarray
    velocities: np.ndarray
    topology: IslTopology = field(repr=False, compare=False)
    leo_ids: tuple[int, ...]
    controller_ids: tuple[int, ...]
    roles: tuple[Role, ...]

    def __post_init__(self) -> None:
        if self.leo_ids != tuple(range(len(self.leo_ids))):
            raise ValueError(f"LEO ids must be 0..n-1 in order, got {self.leo_ids[:10]}")
        if sorted(self.controller_ids) != list(range(len(self.leo_ids), len(self.roles))):
            raise ValueError("controller ids must be the node ids after the LEOs")
        if self.topology.leo_ids != self.leo_ids:
            raise ValueError("the topology's LEO ids are not the snapshot's")

    @cached_property
    def role_codes(self) -> np.ndarray:
        """Each node's ``ROLE_CODE``, indexed by node id."""
        return np.array([ROLE_CODE[r] for r in self.roles])


@dataclass(eq=False)
class Constellation:
    """A LEO switch shell, controller satellites and ground stations.

    The element arrays are indexed by satellite id, the LEO shell's first,
    then the MEO shell's; ground stations take the ids after them.
    ``topology`` holds the LEO shell's ISL edges.
    """

    raan: np.ndarray  # radians
    phase0: np.ndarray  # argument of latitude at t = 0, radians
    inclination: np.ndarray  # radians
    radius_km: np.ndarray
    rate: np.ndarray  # angular rate, rad/s
    topology: IslTopology
    ground_stations: list[GroundStationNode]

    def __post_init__(self) -> None:
        n_leo, n_meo = len(self.leo_ids), len(self.raan) - len(self.leo_ids)
        gs = self.ground_stations
        self._gs_pos = np.array([g.position_km() for g in gs]).reshape(-1, 3)
        self.controller_ids = tuple(range(n_leo, n_leo + n_meo)) + tuple(g.id for g in gs)
        self._roles = (Role.LEO,) * n_leo + (Role.MEO,) * n_meo + (Role.GS,) * len(gs)

    @classmethod
    def build(
        cls,
        leo_spec: ShellSpec,
        meo_spec: ShellSpec | None,
        stations: list[tuple[str, float, float]],
    ) -> "Constellation":
        shells = [leo_spec] if meo_spec is None else [leo_spec, meo_spec]
        elements = np.hstack([generate_shell(spec) for spec in shells])
        n_sat = elements.shape[1]
        gs = [
            GroundStationNode(id=n_sat + k, name=name, latitude_deg=lat, longitude_deg=lon)
            for k, (name, lat, lon) in enumerate(stations)
        ]
        topology = IslTopology(grid_edges(leo_spec), tuple(range(leo_spec.total_sats)))
        return cls(*elements, topology=topology, ground_stations=gs)

    @property
    def leo_ids(self) -> tuple[int, ...]:
        return self.topology.leo_ids

    def snapshot(self, t: float) -> NetworkSnapshot:
        u = self.phase0 + self.rate * t
        cu, su = np.cos(u), np.sin(u)
        co, so = np.cos(self.raan), np.sin(self.raan)
        ci, si = np.cos(self.inclination), np.sin(self.inclination)
        r = self.radius_km
        pos = np.stack(
            [
                r * (cu * co - su * so * ci),
                r * (cu * so + su * co * ci),
                r * su * si,
            ],
            axis=1,
        )
        speed = r * self.rate
        vel = np.stack(
            [
                speed * (-su * co - cu * so * ci),
                speed * (-su * so + cu * co * ci),
                speed * cu * si,
            ],
            axis=1,
        )
        rot = _ecef_rotation(t).T  # right-multiplication by transpose rotates row vectors
        return NetworkSnapshot(
            time_s=t,
            positions=np.vstack([pos @ rot, self._gs_pos]),
            velocities=np.vstack([vel @ rot, np.zeros_like(self._gs_pos)]),
            topology=self.topology,
            leo_ids=self.topology.leo_ids,
            controller_ids=self.controller_ids,
            roles=self._roles,
        )


# Preset shells from published constellation parameters. Periods follow from
# the circular model; eccentricities are kept for the record only.
MEO_SHELLS: dict[str, ShellSpec] = {
    "meo3000": ShellSpec(3000.0, 63.4, 6, 6, name="meo3000", eccentricity=0.1),
    "meo6000": ShellSpec(6000.0, 55.0, 4, 8, name="meo6000", eccentricity=0.01),
    "meo8070": ShellSpec(8070.0, 53.1, 5, 4, name="meo8070", eccentricity=0.001),
    "meo10354": ShellSpec(10354.0, 39.4, 2, 3, name="meo10354", eccentricity=0.0001),
}

LEO_SHELLS: dict[str, ShellSpec] = {
    "iridium780": ShellSpec(780.0, 86.4, 6, 11, name="iridium780"),
    "telesat1015": ShellSpec(1015.0, 98.98, 27, 13, name="telesat1015"),
    "oneweb1200": ShellSpec(1200.0, 87.9, 18, 40, name="oneweb1200"),
    "starlink550": ShellSpec(550.0, 53.0, 72, 22, name="starlink550"),
    "cscn365": ShellSpec(365.0, 40.0, 33, 56, name="cscn365"),
}

# Nine densely populated cities used as the ground-station preset.
NINE_CITIES: list[tuple[str, float, float]] = [
    ("new_york", 40.7128, -74.0060),
    ("london", 51.5074, -0.1278),
    ("tokyo", 35.6762, 139.6503),
    ("sydney", -33.8688, 151.2093),
    ("sao_paulo", -23.5505, -46.6333),
    ("cairo", 30.0444, 31.2357),
    ("mumbai", 19.0760, 72.8777),
    ("beijing", 39.9042, 116.4074),
    ("lagos", 6.5244, 3.3792),
]

CITY_COORDS: dict[str, tuple[float, float]] = {name: (lat, lon) for name, lat, lon in NINE_CITIES}

"""Walker-style constellation generation and circular two-body propagation.

All downstream geometry runs in an Earth-fixed (rotating) frame so ground
stations are static. Satellites fly circular orbits on a spherical Earth
(R = 6371 km); the per-shell eccentricity of the preset tables is recorded
but not propagated. Stored velocities are the orbital (inertial) velocity
expressed in Earth-fixed axes: the frame-rotation transport term is omitted
so that |v| = 2*pi*r/T and the sign of the latitude rate is preserved, which
is what flight-direction classification consumes.
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
    role: Role = field(default=Role.LEO, metadata={"config": False})  # set by the scenario
    name: str = ""
    eccentricity: float = 0.0  # recorded from preset tables, not propagated

    def __post_init__(self) -> None:
        if self.altitude_km <= 0:
            raise ValueError(f"altitude must be positive, got {self.altitude_km}")
        if not 0.0 <= self.inclination_deg <= 180.0:
            raise ValueError(f"inclination must be in [0, 180], got {self.inclination_deg}")
        if self.num_planes < 1 or self.sats_per_plane < 1:
            raise ValueError("num_planes and sats_per_plane must be >= 1")
        if self.phasing_offset is not None and not 0.0 <= self.phasing_offset < 1.0:
            raise ValueError(f"phasing_offset must be in [0, 1), got {self.phasing_offset}")

    @property
    def orbital_radius_km(self) -> float:
        return R_EARTH_KM + self.altitude_km

    @property
    def total_sats(self) -> int:
        return self.num_planes * self.sats_per_plane

    def effective_phasing(self) -> float:
        return 1.0 / self.num_planes if self.phasing_offset is None else self.phasing_offset


@dataclass(frozen=True)
class SatelliteNode:
    id: int
    role: Role
    plane_index: int
    slot_index: int
    raan: float  # radians
    phase0: float  # radians, argument of latitude at t=0
    inclination_rad: float
    orbital_radius_km: float
    period_s: float


@dataclass(frozen=True)
class GroundStationNode:
    id: int = field(metadata={"config": False})
    name: str
    latitude_deg: float = field(metadata={"key": "lat"})
    longitude_deg: float = field(metadata={"key": "lon"})

    def __post_init__(self) -> None:
        if abs(self.latitude_deg) > 90.0:
            raise ValueError(f"latitude out of range: {self.latitude_deg}")
        if abs(self.longitude_deg) > 180.0:
            raise ValueError(f"longitude out of range: {self.longitude_deg}")

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


def generate_shell(spec: ShellSpec, start_id: int = 0) -> list[SatelliteNode]:
    """Lay out a Walker shell: RAAN spread over a full 2*pi, uniform in-plane
    phases, and an inter-plane phase offset of ``phasing_offset`` in-plane slots."""
    radius = spec.orbital_radius_km
    period = orbital_period(radius)
    incl = math.radians(spec.inclination_deg)
    slot_step = 2.0 * math.pi / spec.sats_per_plane
    phase_shift = spec.effective_phasing() * slot_step

    nodes: list[SatelliteNode] = []
    node_id = start_id
    for p in range(spec.num_planes):
        raan = 2.0 * math.pi * p / spec.num_planes
        for s in range(spec.sats_per_plane):
            phase0 = (s * slot_step + p * phase_shift) % (2.0 * math.pi)
            nodes.append(
                SatelliteNode(
                    id=node_id,
                    role=spec.role,
                    plane_index=p,
                    slot_index=s,
                    raan=raan,
                    phase0=phase0,
                    inclination_rad=incl,
                    orbital_radius_km=radius,
                    period_s=period,
                )
            )
            node_id += 1
    return nodes


def _ecef_rotation(t: float) -> np.ndarray:
    """Rotation matrix taking inertial vectors into Earth-fixed axes at time t."""
    phi = EARTH_ROTATION_RAD_S * t
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])


def build_isl_topology(leo_nodes: list[SatelliteNode]) -> frozenset[tuple[int, int]]:
    """+Grid inter-satellite links: ring neighbours within each plane plus the
    same-slot satellite in each adjacent plane (both modular)."""
    by_coord = {(n.plane_index, n.slot_index): n.id for n in leo_nodes}
    planes = max(n.plane_index for n in leo_nodes) + 1
    slots = max(n.slot_index for n in leo_nodes) + 1
    edges: set[tuple[int, int]] = set()

    def add(a: int, b: int) -> None:
        if a != b:
            edges.add((a, b) if a < b else (b, a))

    for (p, s), nid in by_coord.items():
        if slots > 1:
            add(nid, by_coord[(p, (s + 1) % slots)])
            add(nid, by_coord[(p, (s - 1) % slots)])
        if planes > 1:
            add(nid, by_coord[((p + 1) % planes, s)])
            add(nid, by_coord[((p - 1) % planes, s)])
    return frozenset(edges)


def norm(v: np.ndarray) -> np.ndarray:
    """Euclidean length along the last axis.

    ``np.vecdot`` runs the same dot kernel as ``np.linalg.norm`` of a single
    vector, so every value matches that scalar norm bit for bit;
    ``np.linalg.norm(v, axis=-1)`` sums differently and does not.
    """
    return np.sqrt(np.vecdot(v, v))


@dataclass(frozen=True)
class IslTopology:
    """The ISL edges among ``leo_ids`` in the forms consumers read, each built
    on first use; all snapshots of a constellation share its one topology."""

    edges: frozenset[tuple[int, int]]
    leo_ids: tuple[int, ...]

    @cached_property
    def neighbors(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {i: [] for i in self.leo_ids}
        for a, b in self.edge_array.tolist():
            adj[a].append(b)
            adj[b].append(a)
        return {i: tuple(sorted(v)) for i, v in adj.items()}

    @cached_property
    def edge_array(self) -> np.ndarray:
        """The edges as an (E, 2) array of node ids, in sorted order."""
        return np.array(sorted(self.edges), dtype=np.int64).reshape(-1, 2)

    @cached_property
    def graph(self) -> csr_matrix:
        """The adjacency as a symmetric 0/1 sparse matrix over LEO ids."""
        ends = self.edge_array
        n = len(self.leo_ids)
        return csr_matrix(
            (np.ones(ends.size), (ends.ravel(), ends[:, ::-1].ravel())), shape=(n, n)
        )

    @cached_property
    def _hop_trees(self) -> tuple[np.ndarray, np.ndarray]:
        """(predecessor rows, which rows are filled); zero pages until written."""
        n = len(self.leo_ids)
        return np.zeros((n, n), dtype=np.int32), np.zeros(n, dtype=bool)

    def hop_predecessors(self, sources: np.ndarray) -> np.ndarray:
        """Hop-count shortest-path predecessors over LEO ids: row ``s`` is
        scipy's predecessor row from source ``s`` (-9999 at ``s`` and where
        unreachable), filled for every ``s`` in ``sources``; rows not yet
        requested are zeros.

        The rows missing so far come from one ``shortest_path`` call and are
        kept, so each source's tree is computed once per topology. Dijkstra
        runs each source on its own, so a row does not depend on which other
        sources were requested with it.
        """
        preds, filled = self._hop_trees
        want = np.zeros(len(filled), dtype=bool)
        want[sources] = True
        missing = np.flatnonzero(want & ~filled)
        if missing.size:
            _, preds[missing] = shortest_path(
                self.graph, method="D", unweighted=True, return_predecessors=True,
                indices=missing,
            )
            filled[missing] = True
        return preds

    def __getstate__(self) -> dict:
        # the hop trees are rebuilt on demand, not sent to worker processes
        return {k: v for k, v in self.__dict__.items() if k != "_hop_trees"}


@dataclass
class NetworkSnapshot:
    """All node positions, ISL edges and the controller/switch split at one instant.

    Node ids are contiguous, so ``positions`` and ``velocities`` are (N, 3)
    arrays and ``roles`` a tuple, all indexed by node id. The LEOs come
    first, ``leo_ids == (0, ..., n - 1)``, so a LEO id also indexes every
    per-LEO array; any other layout raises ValueError. A snapshot given no
    ``topology`` of its ``isl_edges`` and ``leo_ids`` builds its own.
    """

    time_s: float
    positions: np.ndarray
    velocities: np.ndarray
    isl_edges: frozenset[tuple[int, int]]
    leo_ids: tuple[int, ...]
    controller_ids: tuple[int, ...]
    roles: tuple[Role, ...]
    topology: IslTopology = field(default=None, repr=False, compare=False)  # type: ignore

    def __post_init__(self) -> None:
        if self.leo_ids != tuple(range(len(self.leo_ids))):
            raise ValueError(f"LEO ids must be 0..n-1 in order, got {self.leo_ids[:10]}")
        t = self.topology
        if t is None or (t.edges, t.leo_ids) != (self.isl_edges, self.leo_ids):
            self.topology = IslTopology(self.isl_edges, self.leo_ids)

    @cached_property
    def role_codes(self) -> np.ndarray:
        """Each node's ``ROLE_CODE``, indexed by node id."""
        return np.array([ROLE_CODE[r] for r in self.roles])


@dataclass
class Constellation:
    """A LEO switch shell, controller satellites, and ground stations."""

    leo_nodes: list[SatelliteNode]
    meo_nodes: list[SatelliteNode]
    ground_stations: list[GroundStationNode]
    isl_edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not self.isl_edges and self.leo_nodes:
            self.isl_edges = build_isl_topology(self.leo_nodes)
        self._sats = self.leo_nodes + self.meo_nodes
        # per-satellite parameter arrays, used by the vectorised snapshot path
        self._raan = np.array([n.raan for n in self._sats])
        self._phase0 = np.array([n.phase0 for n in self._sats])
        self._incl = np.array([n.inclination_rad for n in self._sats])
        self._radius = np.array([n.orbital_radius_km for n in self._sats])
        self._rate = 2.0 * math.pi / np.array([n.period_s for n in self._sats])
        self._gs_pos = np.array(
            [g.position_km() for g in self.ground_stations]
        ).reshape(-1, 3)
        self._roles = tuple(n.role for n in self._sats) + (Role.GS,) * len(self.ground_stations)
        self.topology = IslTopology(self.isl_edges, self.leo_ids)

    @classmethod
    def build(
        cls,
        leo_spec: ShellSpec,
        meo_spec: ShellSpec | None,
        stations: list[tuple[str, float, float]],
    ) -> "Constellation":
        leos = generate_shell(leo_spec, start_id=0)
        next_id = len(leos)
        meos: list[SatelliteNode] = []
        if meo_spec is not None:
            meos = generate_shell(meo_spec, start_id=next_id)
            next_id += len(meos)
        gs = [
            GroundStationNode(id=next_id + k, name=name, latitude_deg=lat, longitude_deg=lon)
            for k, (name, lat, lon) in enumerate(stations)
        ]
        return cls(leo_nodes=leos, meo_nodes=meos, ground_stations=gs)

    @property
    def leo_ids(self) -> tuple[int, ...]:
        return tuple(n.id for n in self.leo_nodes)

    @property
    def controller_ids(self) -> tuple[int, ...]:
        return tuple(n.id for n in self.meo_nodes) + tuple(g.id for g in self.ground_stations)

    def snapshot(self, t: float) -> NetworkSnapshot:
        u = self._phase0 + self._rate * t
        cu, su = np.cos(u), np.sin(u)
        co, so = np.cos(self._raan), np.sin(self._raan)
        ci, si = np.cos(self._incl), np.sin(self._incl)
        r = self._radius
        pos = np.stack(
            [
                r * (cu * co - su * so * ci),
                r * (cu * so + su * co * ci),
                r * su * si,
            ],
            axis=1,
        )
        speed = r * self._rate
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
            isl_edges=self.isl_edges,
            leo_ids=self.topology.leo_ids,
            controller_ids=self.controller_ids,
            roles=self._roles,
            topology=self.topology,
        )


# Preset shells from published constellation parameters. Periods follow from
# the circular model; eccentricities are kept for the record only.
MEO_SHELLS: dict[str, ShellSpec] = {
    "meo3000": ShellSpec(3000.0, 63.4, 6, 6, role=Role.MEO, name="meo3000", eccentricity=0.1),
    "meo6000": ShellSpec(6000.0, 55.0, 4, 8, role=Role.MEO, name="meo6000", eccentricity=0.01),
    "meo8070": ShellSpec(8070.0, 53.1, 5, 4, role=Role.MEO, name="meo8070", eccentricity=0.001),
    "meo10354": ShellSpec(10354.0, 39.4, 2, 3, role=Role.MEO, name="meo10354", eccentricity=0.0001),
}

LEO_SHELLS: dict[str, ShellSpec] = {
    "iridium780": ShellSpec(780.0, 86.4, 6, 11, role=Role.LEO, name="iridium780"),
    "telesat1015": ShellSpec(1015.0, 98.98, 27, 13, role=Role.LEO, name="telesat1015"),
    "oneweb1200": ShellSpec(1200.0, 87.9, 18, 40, role=Role.LEO, name="oneweb1200"),
    "starlink550": ShellSpec(550.0, 53.0, 72, 22, role=Role.LEO, name="starlink550"),
    "cscn365": ShellSpec(365.0, 40.0, 33, 56, role=Role.LEO, name="cscn365"),
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

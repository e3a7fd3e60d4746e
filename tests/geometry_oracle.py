"""Scalar references for the package's vectorised geometry.

One satellite, one observer-target pair or one ISL edge at a time, written
the direct way: ``shell_nodes`` and ``grid_edges``, a shell's elements and
+Grid links built node by node, against ``constellation.generate_shell`` and
``constellation.grid_edges``; ``propagate`` against
``Constellation.snapshot``; ``elevation_angle`` against
``visibility.elevation_matrix``; ``fov_sets``, each controller's FOV as a
set from its own elevation row, against ``visibility.compute_fov_domains``;
and a union-find over the ISL edges against
``visibility.compute_overlap_regions``. Also ``serving_satellites``, the
full cell x LEO elevation matrix against the narrowed
``traffic.serving_satellites``, and ``by_distance``, one node's candidates
ranked alone, against the batched ``partition._by_distance``.
"""
import math

import numpy as np

from eunomia.constellation import EARTH_ROTATION_RAD_S, Role, ShellSpec, norm, orbital_period
from eunomia.visibility import OverlapRegion, elevation_matrix

# one satellite's (RAAN, initial argument of latitude, inclination, orbital
# radius in km, angular rate in rad/s), angles in radians
Elements = tuple[float, float, float, float, float]


def shell_nodes(spec: ShellSpec) -> list[Elements]:
    """A Walker shell's satellites one at a time, plane by plane and slot by
    slot within a plane."""
    radius = spec.orbital_radius_km
    period = orbital_period(radius)
    incl = math.radians(spec.inclination_deg)
    slot_step = 2.0 * math.pi / spec.sats_per_plane
    phase_shift = spec.effective_phasing() * slot_step
    nodes = []
    for p in range(spec.num_planes):
        raan = 2.0 * math.pi * p / spec.num_planes
        for s in range(spec.sats_per_plane):
            phase0 = (s * slot_step + p * phase_shift) % (2.0 * math.pi)
            nodes.append((raan, phase0, incl, radius, 2.0 * math.pi / period))
    return nodes


def grid_edges(spec: ShellSpec) -> list[tuple[int, int]]:
    """The sorted +Grid links of a shell whose satellite ``s`` of plane ``p``
    has id ``p * S + s``, added node by node: ring neighbours within each
    plane plus the same-slot satellite in each adjacent plane (both modular)."""
    planes, slots = spec.num_planes, spec.sats_per_plane
    by_coord = {(p, s): p * slots + s for p in range(planes) for s in range(slots)}
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
    return sorted(edges)


def elements(constellation, i: int) -> Elements:
    """Satellite ``i``'s elements, read from the constellation's arrays."""
    return tuple(
        float(a[i])
        for a in (
            constellation.raan,
            constellation.phase0,
            constellation.inclination,
            constellation.radius_km,
            constellation.rate,
        )
    )


def propagate_inertial(node: Elements, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Position/velocity (km, km/s) in the non-rotating frame at time t."""
    raan, phase0, incl, r, rate = node
    u = phase0 + rate * t
    cu, su = math.cos(u), math.sin(u)
    co, so = math.cos(raan), math.sin(raan)
    ci, si = math.cos(incl), math.sin(incl)
    pos = np.array([r * (cu * co - su * so * ci), r * (cu * so + su * co * ci), r * su * si])
    speed = r * rate
    vel = np.array(
        [
            speed * (-su * co - cu * so * ci),
            speed * (-su * so + cu * co * ci),
            speed * cu * si,
        ]
    )
    return pos, vel


def propagate(node: Elements, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Earth-fixed position and orbital velocity (in Earth-fixed axes) at time t."""
    pos, vel = propagate_inertial(node, t)
    phi = EARTH_ROTATION_RAD_S * t
    c, s = math.cos(phi), math.sin(phi)
    rot = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    return rot @ pos, rot @ vel


def elevation_angle(observer_pos: np.ndarray, target_pos: np.ndarray) -> float:
    """Elevation of the target above the observer's local horizontal, degrees.

    With alpha the geocentric angle between the two position vectors and
    rho = |observer| / |target|, the elevation is atan2(cos(alpha) - rho,
    sin(alpha)); a target straight overhead gives +90.
    """
    r_obs = float(np.linalg.norm(observer_pos))
    r_tgt = float(np.linalg.norm(target_pos))
    if r_obs == 0.0 or r_tgt == 0.0:
        raise ValueError("elevation undefined for a zero position vector")
    cos_alpha = float(np.dot(observer_pos, target_pos)) / (r_obs * r_tgt)
    cos_alpha = max(-1.0, min(1.0, cos_alpha))
    alpha = math.acos(cos_alpha)
    rho = r_obs / r_tgt
    return math.degrees(math.atan2(math.cos(alpha) - rho, math.sin(alpha)))


def serving_satellites(cell_pos: np.ndarray, snapshot) -> np.ndarray:
    """Index (into snapshot.leo_ids) of each cell's maximum-elevation LEO,
    or -1 when no LEO is above the horizon: the argmax of every cell's row
    of the full elevation matrix."""
    leo_pos = snapshot.positions[list(snapshot.leo_ids)]
    elev = elevation_matrix(cell_pos, leo_pos)
    best = np.argmax(elev, axis=1)
    best[elev[np.arange(len(cell_pos)), best] < 0.0] = -1
    return best


def fov_sets(snapshot, thresholds) -> dict[int, frozenset[int]]:
    """Controller id -> the LEOs at or above its role's minimum elevation,
    one controller at a time, from that controller's own elevation row."""
    leo_pos = snapshot.positions[list(snapshot.leo_ids)]
    out = {}
    for k in sorted(snapshot.controller_ids):
        role, own = snapshot.roles[k], snapshot.positions[k][None]
        if role is Role.GS:
            elev = elevation_matrix(own, leo_pos)[0]
        else:
            elev = elevation_matrix(leo_pos, own)[:, 0]
        threshold = thresholds[role]
        out[k] = frozenset(leo for leo, e in zip(snapshot.leo_ids, elev.tolist()) if e >= threshold)
    return out


def as_sets(fov) -> dict[int, frozenset[int]]:
    """A (controller x LEO) FOV array as controller id -> set of LEOs."""
    n_leo = fov.shape[1]
    return {n_leo + c: frozenset(np.flatnonzero(row).tolist()) for c, row in enumerate(fov)}


def coverage(fov_sets) -> dict[int, tuple[int, ...]]:
    """LEO id -> ascending ids of the controllers whose FOV sets hold it;
    a LEO in no set is not a key."""
    cover: dict[int, list[int]] = {}
    for k in sorted(fov_sets):
        for leo in fov_sets[k]:
            cover.setdefault(leo, []).append(k)
    return {leo: tuple(ks) for leo, ks in cover.items()}


def overlap_regions(fov_sets, snapshot) -> list[OverlapRegion]:
    """Union-find over ISL edges between contested LEOs that share a
    covering controller, from each controller's FOV set; regions ordered by
    their smallest member."""
    cover = coverage(fov_sets)
    contested = sorted(leo for leo, ks in cover.items() if len(ks) >= 2)
    contested_set = set(contested)
    parent = {leo: leo for leo in contested}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in snapshot.topology.edge_array.tolist():
        if a in contested_set and b in contested_set and set(cover[a]) & set(cover[b]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

    groups: dict[int, set[int]] = {}
    for leo in contested:
        groups.setdefault(find(leo), set()).add(leo)
    return [
        OverlapRegion(
            leo_ids=frozenset(groups[root]),
            controller_ids=tuple(sorted({k for leo in groups[root] for k in cover[leo]})),
        )
        for root in sorted(groups)
    ]


def by_distance(snapshot, node: int, candidates) -> list[int]:
    """``candidates`` from the nearest to ``node`` to the farthest, ties by id."""
    ks = np.array(candidates)
    dist = norm(snapshot.positions[node] - snapshot.positions[ks])
    return ks[np.lexsort((ks, dist))].tolist()

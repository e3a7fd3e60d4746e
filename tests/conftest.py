import math

import numpy as np
import pytest

from eunomia.constellation import NetworkSnapshot, Role
from eunomia.scenario import build_scenario, desk_config
from eunomia.visibility import TimeSlot


def make_ring_snapshot(
    n_leo: int = 8,
    ctrl_lons: tuple[float, ...] = (0.0, 180.0),
    ctrl_roles: tuple[Role, ...] | None = None,
    leo_radius_km: float = 7151.0,
    ctrl_radius_km: float = 16725.0,
    leo_lons: tuple[float, ...] | None = None,
    time_s: float = 0.0,
) -> NetworkSnapshot:
    """Equatorial LEO ring plus controllers above (MEO) or below (GS) it."""
    n_ctrl = len(ctrl_lons)
    positions = np.zeros((n_leo + n_ctrl, 3))
    velocities = np.zeros((n_leo + n_ctrl, 3))
    leo_ids = tuple(range(n_leo))
    lons = leo_lons if leo_lons is not None else tuple(360.0 * i / n_leo for i in range(n_leo))
    for i, lon in zip(leo_ids, lons):
        th = math.radians(lon)
        positions[i] = leo_radius_km * np.array([math.cos(th), math.sin(th), 0.0])
        velocities[i] = 7.45 * np.array([-math.sin(th), math.cos(th), 0.0])
    ctrl_ids = tuple(range(n_leo, n_leo + n_ctrl))
    croles = ctrl_roles or tuple(Role.MEO for _ in ctrl_lons)
    for k, lon, role in zip(ctrl_ids, ctrl_lons, croles):
        th = math.radians(lon)
        r = 6371.0 if role is Role.GS else ctrl_radius_km
        positions[k] = r * np.array([math.cos(th), math.sin(th), 0.0])
        if role is not Role.GS:
            velocities[k] = 4.9 * np.array([-math.sin(th), math.cos(th), 0.0])
    edges = set()
    for i in range(n_leo):
        j = (i + 1) % n_leo
        if i != j:
            edges.add((min(i, j), max(i, j)))
    return NetworkSnapshot(
        time_s=time_s,
        positions=positions,
        velocities=velocities,
        isl_edges=frozenset(edges),
        leo_ids=leo_ids,
        controller_ids=ctrl_ids,
        roles=(Role.LEO,) * n_leo + tuple(croles),
    )


def make_slot(snapshot: NetworkSnapshot, duration_s: float = 60.0, index: int = 0) -> TimeSlot:
    return TimeSlot(index, snapshot.time_s, snapshot.time_s + duration_s, snapshot)


@pytest.fixture(scope="session")
def desk_scenario():
    """The full desk scenario (one LEO orbital period); built once per session."""
    return build_scenario(desk_config())


@pytest.fixture(scope="session")
def desk_scenario_short():
    """Desk scenario truncated to a short horizon for cheaper tests."""
    return build_scenario(desk_config(), horizon_s=600.0)

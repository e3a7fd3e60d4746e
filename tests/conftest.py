import ctypes
import glob
import math
from pathlib import Path

import numpy as np
import pytest

from eunomia.constellation import IslTopology, NetworkSnapshot, Role
from eunomia.corg import Corg
from eunomia.emulator import (
    EmulationStats,
    EmulatorParams,
    generate_arrivals,
    queue_arrivals,
    run_slot,
)
from eunomia.overhead import slot_plan
from eunomia.partition import DomainAssignment
from eunomia.scenario import build_scenario, default_config, desk_config
from eunomia.traffic import TrafficMatrix
from eunomia.visibility import TimeSlot


def _openblas(symbols: tuple[str, ...], restype):
    """Result of the first of ``symbols`` that numpy's bundled OpenBLAS
    exports (found as ``benchmarks/job.py`` finds it), or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = restype
                return fn()
    return None


def openblas_corename() -> str | None:
    """Name of the kernel numpy's bundled OpenBLAS runs on this CPU.

    The pinned goldens and benchmark digests hold for one kernel: the BLAS
    products in the traffic model and elsewhere round differently on others.
    """
    name = _openblas(("scipy_openblas_get_corename64_", "openblas_get_corename"), ctypes.c_char_p)
    return name.decode() if name is not None else None


def openblas_threads() -> int | None:
    """Number of threads numpy's bundled OpenBLAS runs with. The traffic
    blocks are summed without BLAS, and the goldens hold at 1 and 2
    threads; other BLAS calls may still round differently at other counts."""
    return _openblas(
        ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"), ctypes.c_int
    )


def pytest_report_header(config):
    return f"openblas core: {openblas_corename()}, threads: {openblas_threads()}"


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
        topology=IslTopology(np.array(sorted(edges), dtype=np.int64).reshape(-1, 2), leo_ids),
        leo_ids=leo_ids,
        controller_ids=ctrl_ids,
        roles=(Role.LEO,) * n_leo + tuple(croles),
    )


def make_snapshot(leo_pos, ctrl_pos, ctrl_roles) -> NetworkSnapshot:
    """LEOs and controllers at the given positions (km, one row each), with
    no ISL edges."""
    n, positions = len(leo_pos), np.vstack([leo_pos, ctrl_pos])
    return NetworkSnapshot(
        time_s=0.0,
        positions=positions,
        velocities=np.zeros_like(positions),
        topology=IslTopology(np.empty((0, 2), dtype=np.int64), tuple(range(n))),
        leo_ids=tuple(range(n)),
        controller_ids=tuple(range(n, len(positions))),
        roles=(Role.LEO,) * n + tuple(ctrl_roles),
    )


def compact_traffic(leo_ids, full: np.ndarray, slot_index: int = 0) -> TrafficMatrix:
    """The |V| x |V| rate matrix ``full`` stored as its block among the LEOs
    with a nonzero rate in their row or column."""
    active = np.flatnonzero(full.any(axis=0) | full.any(axis=1))
    return TrafficMatrix(slot_index, tuple(leo_ids), active, full[np.ix_(active, active)])


def corg_from_edges(leo_ids, virtual_ids, edges: dict[tuple[int, int], float]) -> Corg:
    """A CORG over ``leo_ids`` and ``virtual_ids`` from a {(low id, high id): xi} dict."""
    pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    xi = np.array(list(edges.values()), dtype=float)
    return Corg(tuple(leo_ids), tuple(virtual_ids), pairs, xi)


def fov_array(snapshot: NetworkSnapshot, members: dict[int, set[int]]) -> np.ndarray:
    """A read-only (controller x LEO) FOV array of ``snapshot`` from
    controller id -> the LEOs it sees; a controller not given sees none."""
    n_leo = len(snapshot.leo_ids)
    fov = np.zeros((len(snapshot.roles) - n_leo, n_leo), dtype=bool)
    for k, leos in members.items():
        fov[k - n_leo, list(leos)] = True
    fov.flags.writeable = False
    return fov


def assignment(n_leo: int, controller_of: dict[int, int], slot_index: int = 0, **kw):
    """A ``DomainAssignment`` of ``n_leo`` LEOs from LEO id -> controller id;
    a LEO not given is unmanaged. ``kw`` holds its other fields."""
    controller = np.full(n_leo, -1)
    controller[list(controller_of)] = list(controller_of.values())
    return DomainAssignment(slot_index, controller, **kw)


def domains(a: DomainAssignment) -> dict[int, tuple[int, ...]]:
    """The members of each domain of ``a`` in id order, keyed by controller
    in id order, all as Python ints: a dict-of-tuples view rebuilt from the
    controller array one LEO at a time."""
    members: dict[int, list[int]] = {}
    for leo, k in enumerate(a.controller.tolist()):
        if k >= 0:
            members.setdefault(k, []).append(leo)
    return {k: tuple(members[k]) for k in sorted(members)}


def make_slot(snapshot: NetworkSnapshot, duration_s: float = 60.0, index: int = 0) -> TimeSlot:
    return TimeSlot(index, snapshot.time_s, snapshot.time_s + duration_s, snapshot)


def emulate(slot, assignment, traffic, params, fov_domains, seed, **kwargs) -> EmulationStats:
    """``run_slot`` on the queue of the assignment's slot plan and the
    slot's gamma = 1 arrivals for ``seed``, as ``run_scenario`` builds it."""
    plan = slot_plan(assignment, slot.snapshot, params, fov_domains)
    arrivals = generate_arrivals(traffic, slot.end_s - slot.start_s, seed, slot.index)
    queue = queue_arrivals(slot, plan, arrivals)
    return run_slot(slot, assignment, queue, params, EmulatorParams(), seed, **kwargs)


@pytest.fixture(scope="session")
def desk_scenario():
    """The full desk scenario (one LEO orbital period); built once per session."""
    return build_scenario(desk_config())


@pytest.fixture(scope="session")
def desk_scenario_short():
    """Desk scenario truncated to a short horizon for cheaper tests."""
    return build_scenario(desk_config(), horizon_s=600.0)


@pytest.fixture(scope="session")
def default_scenario_partition():
    """The 1584-switch default scenario over 240 s (16 slots), as the
    default-partition benchmark builds it."""
    return build_scenario(default_config(), horizon_s=240.0)


@pytest.fixture(scope="session")
def default_scenario_short():
    """The 1584-switch default scenario over 60 s (4 slots)."""
    return build_scenario(default_config(), horizon_s=60.0)

"""Elevation geometry, controller field-of-view domains, overlap regions,
and topology-stable time-slot segmentation.

Elevation is computed from the geocentric separation angle between observer
and target position vectors. For controller satellites the observer is the
LEO switch (the inter-layer antenna cone is expressed as a minimum elevation
at the switch); for ground stations the observer is the station itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import ROLE_CODE, Constellation, NetworkSnapshot, Role

# Minimum elevation (degrees) per controller role. The ground-station bound
# is a mask angle above the local horizon.
DEFAULT_THRESHOLDS: dict[Role, float] = {Role.MEO: 40.0, Role.GS: 0.0}


@dataclass(frozen=True)
class FovDomain:
    """All LEO switches a controller can reach directly."""

    controller_id: int
    member_leo_ids: frozenset[int]


@dataclass(frozen=True)
class OverlapRegion:
    """A maximal ISL-connected group of LEOs contested by two or more controllers."""

    leo_ids: frozenset[int]
    controller_ids: tuple[int, ...]


@dataclass(frozen=True)
class TimeSlot:
    """An interval over which every controller's FOV membership is constant
    at the sampling resolution."""

    index: int
    start_s: float
    end_s: float
    snapshot: NetworkSnapshot


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


def elevation_matrix(observer_pos: np.ndarray, target_pos: np.ndarray) -> np.ndarray:
    """Pairwise elevations (degrees) for rows of observers against rows of targets."""
    r_obs = np.linalg.norm(observer_pos, axis=1)
    r_tgt = np.linalg.norm(target_pos, axis=1)
    cos_alpha = (observer_pos @ target_pos.T) / np.outer(r_obs, r_tgt)
    cos_alpha = np.clip(cos_alpha, -1.0, 1.0)
    alpha = np.arccos(cos_alpha)
    rho = np.outer(r_obs, 1.0 / r_tgt)
    return np.degrees(np.arctan2(np.cos(alpha) - rho, np.sin(alpha)))


def compute_fov_domains(
    snapshot: NetworkSnapshot, thresholds: dict[Role, float] | None = None
) -> list[FovDomain]:
    """FOV domain of every controller, ordered by controller id.

    The observer is chosen by role: the ground station itself, or the LEO
    switch for a controller satellite; one elevation matrix per role.
    """
    thr = DEFAULT_THRESHOLDS if thresholds is None else thresholds
    leo_ids = np.array(snapshot.leo_ids)
    leo_pos = snapshot.positions[leo_ids]
    ctrls = np.array(snapshot.controller_ids)
    visible = np.zeros((len(ctrls), len(leo_ids)), dtype=bool)
    for role in {snapshot.roles[k] for k in ctrls}:
        sel = snapshot.role_codes[ctrls] == ROLE_CODE[role]
        ctrl_pos = snapshot.positions[ctrls[sel]]
        if role is Role.GS:
            elev = elevation_matrix(ctrl_pos, leo_pos)
        else:
            elev = elevation_matrix(leo_pos, ctrl_pos).T
        visible[sel] = elev >= thr[role]
    return [
        FovDomain(controller_id=int(k), member_leo_ids=frozenset(leo_ids[row].tolist()))
        for k, row in zip(ctrls, visible)
    ]


def coverage_map(fov_domains: list[FovDomain]) -> dict[int, tuple[int, ...]]:
    """LEO id -> ordered tuple of controller ids that cover it."""
    cover: dict[int, list[int]] = {}
    for dom in fov_domains:
        for leo in dom.member_leo_ids:
            cover.setdefault(leo, []).append(dom.controller_id)
    return {leo: tuple(sorted(ks)) for leo, ks in cover.items()}


def compute_overlap_regions(
    fov_domains: list[FovDomain], snapshot: NetworkSnapshot
) -> list[OverlapRegion]:
    """Group multiply-covered LEOs into maximal regions.

    Two overlap LEOs belong to the same region when they are ISL-adjacent and
    their covering-controller sets intersect; regions are the transitive
    closure of that relation, so each region is connected through contested
    LEOs only.
    """
    cover = coverage_map(fov_domains)
    contested = sorted(leo for leo, ks in cover.items() if len(ks) >= 2)
    contested_set = set(contested)

    parent: dict[int, int] = {leo: leo for leo in contested}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for a, b in snapshot.isl_edges:
        if a in contested_set and b in contested_set:
            if set(cover[a]) & set(cover[b]):
                union(a, b)

    groups: dict[int, set[int]] = {}
    for leo in contested:
        groups.setdefault(find(leo), set()).add(leo)

    regions = []
    for root in sorted(groups):
        members = groups[root]
        ctrls = sorted({k for leo in members for k in cover[leo]})
        regions.append(
            OverlapRegion(leo_ids=frozenset(members), controller_ids=tuple(ctrls))
        )
    return regions


def membership_fingerprint(fov_domains: list[FovDomain]) -> tuple[frozenset[int], ...]:
    return tuple(d.member_leo_ids for d in fov_domains)


@dataclass
class SlotGeometry:
    """Per-slot visibility products shared by partitioners and the emulator."""

    slot: TimeSlot
    fov_domains: list[FovDomain]
    regions: list[OverlapRegion]
    future_fov: dict[int, frozenset[int]]  # FOV membership at slot start + lookahead
    step_fov: dict[int, frozenset[int]]  # FOV membership at the next sampling instant


def _fov_membership_at(
    constellation: Constellation, t: float, thresholds: dict[Role, float] | None
) -> dict[int, frozenset[int]]:
    snap = constellation.snapshot(t)
    return {d.controller_id: d.member_leo_ids for d in compute_fov_domains(snap, thresholds)}


def build_slot_geometry(
    constellation: Constellation,
    slot: TimeSlot,
    thresholds: dict[Role, float] | None = None,
    lookahead_s: float = 0.0,
    step_s: float | None = None,
) -> SlotGeometry:
    fov = compute_fov_domains(slot.snapshot, thresholds)
    regions = compute_overlap_regions(fov, slot.snapshot)
    future: dict[int, frozenset[int]] = {}
    step_future: dict[int, frozenset[int]] = {}
    if lookahead_s > 0:
        t0 = slot.snapshot.time_s
        future = _fov_membership_at(constellation, t0 + lookahead_s, thresholds)
        step = step_s if step_s is not None else lookahead_s / 2.0
        step_future = _fov_membership_at(constellation, t0 + step, thresholds)
    return SlotGeometry(
        slot=slot, fov_domains=fov, regions=regions, future_fov=future, step_fov=step_future
    )


def segment_time_slots(
    constellation: Constellation,
    horizon_s: float,
    step_s: float,
    thresholds: dict[Role, float] | None = None,
) -> list[TimeSlot]:
    """Sample snapshots every ``step_s`` and open a new slot whenever any
    controller's FOV membership changes. Slot durations are multiples of the step."""
    if step_s <= 0:
        raise ValueError("step must be positive")
    if horizon_s < step_s:
        raise ValueError("horizon shorter than one step")

    n_samples = int(horizon_s // step_s)
    slots: list[TimeSlot] = []
    current_fp = None
    current_start = 0.0
    current_snapshot = None

    for k in range(n_samples):
        t = k * step_s
        snap = constellation.snapshot(t)
        fp = membership_fingerprint(compute_fov_domains(snap, thresholds))
        if current_fp is None:
            current_fp, current_start, current_snapshot = fp, t, snap
        elif fp != current_fp:
            slots.append(
                TimeSlot(len(slots), current_start, t, current_snapshot)
            )
            current_fp, current_start, current_snapshot = fp, t, snap
    assert current_snapshot is not None
    slots.append(TimeSlot(len(slots), current_start, n_samples * step_s, current_snapshot))
    return slots

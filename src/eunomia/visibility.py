"""Elevation geometry, controller field-of-view domains, overlap regions,
and topology-stable time-slot segmentation. Segmentation and slot geometry
read the constellation and thresholds from one ``FovTimeline``.

Elevation is computed from the geocentric separation angle between observer
and target position vectors. For controller satellites the observer is the
LEO switch (the inter-layer antenna cone is expressed as a minimum elevation
at the switch); for ground stations the observer is the station itself.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .constellation import ROLE_CODE, Constellation, NetworkSnapshot, Role

# Minimum elevation (degrees) per controller role. The ground-station bound
# is a mask angle above the local horizon.
DEFAULT_THRESHOLDS: dict[Role, float] = {Role.MEO: 40.0, Role.GS: 0.0}


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


def separation(observer_pos: np.ndarray, target_pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos alpha, rho) for rows of observers against rows of targets: the
    cosine of the geocentric angle between them and |observer| / |target|.
    The target is above the observer's horizon where cos alpha >= rho."""
    r_obs = np.linalg.norm(observer_pos, axis=1)
    r_tgt = np.linalg.norm(target_pos, axis=1)
    cos_alpha = (observer_pos @ target_pos.T) / np.outer(r_obs, r_tgt)
    return np.clip(cos_alpha, -1.0, 1.0), np.outer(r_obs, 1.0 / r_tgt)


def elevation(cos_alpha: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Elevations (degrees) from ``separation``'s arrays, elementwise."""
    alpha = np.arccos(cos_alpha)
    return np.degrees(np.arctan2(np.cos(alpha) - rho, np.sin(alpha)))


def elevation_matrix(observer_pos: np.ndarray, target_pos: np.ndarray) -> np.ndarray:
    """Pairwise elevations (degrees) for rows of observers against rows of targets."""
    return elevation(*separation(observer_pos, target_pos))


def compute_fov_domains(
    snapshot: NetworkSnapshot, thresholds: dict[Role, float] | None = None
) -> dict[int, frozenset[int]]:
    """FOV domain of every controller: controller id -> the LEOs it can reach
    directly, one key per controller in ascending id order, a controller
    that sees no LEO included.

    The observer is chosen by role: the ground station itself, or the LEO
    switch for a controller satellite; one elevation matrix per role.
    """
    thr = DEFAULT_THRESHOLDS if thresholds is None else thresholds
    leo_pos = snapshot.positions[: len(snapshot.leo_ids)]
    ctrls = np.sort(snapshot.controller_ids)
    visible = np.zeros((len(ctrls), len(leo_pos)), dtype=bool)
    for role in {snapshot.roles[k] for k in ctrls}:
        sel = snapshot.role_codes[ctrls] == ROLE_CODE[role]
        ctrl_pos = snapshot.positions[ctrls[sel]]
        if role is Role.GS:
            elev = elevation_matrix(ctrl_pos, leo_pos)
        else:
            elev = elevation_matrix(leo_pos, ctrl_pos).T
        visible[sel] = elev >= thr[role]
    return {k: frozenset(np.flatnonzero(row).tolist()) for k, row in zip(ctrls.tolist(), visible)}


def coverage_map(fov_domains: dict[int, frozenset[int]]) -> dict[int, tuple[int, ...]]:
    """LEO id -> ordered tuple of controller ids that cover it."""
    cover: dict[int, list[int]] = {}
    for k, members in fov_domains.items():
        for leo in members:
            cover.setdefault(leo, []).append(k)
    return {leo: tuple(sorted(ks)) for leo, ks in cover.items()}


def compute_overlap_regions(
    fov_domains: dict[int, frozenset[int]], snapshot: NetworkSnapshot
) -> list[OverlapRegion]:
    """Group multiply-covered LEOs into maximal regions.

    Two overlap LEOs belong to the same region when they are ISL-adjacent and
    their covering-controller sets intersect; regions are the transitive
    closure of that relation, so each region is connected through contested
    LEOs only.
    """
    covers = np.zeros((len(snapshot.roles), len(fov_domains)), dtype=bool)
    for c, members in enumerate(fov_domains.values()):
        covers[list(members), c] = True
    contested = np.flatnonzero(covers.sum(axis=1) >= 2)
    pos = np.full(len(snapshot.roles), -1)  # node id -> index among contested
    pos[contested] = np.arange(len(contested))
    a, b = snapshot.topology.edge_array.T
    keep = (pos[a] >= 0) & (pos[b] >= 0) & (covers[a] & covers[b]).any(axis=1)
    graph = csr_matrix(
        (np.ones(keep.sum()), (pos[a[keep]], pos[b[keep]])), shape=(len(contested),) * 2
    )
    _, labels = connected_components(graph, directed=False)

    # labels in order of first appearance, so regions sort by smallest member
    groups: dict[int, list[int]] = {}
    for leo, label in zip(contested.tolist(), labels.tolist()):
        groups.setdefault(label, []).append(leo)
    ctrl_ids = np.array(list(fov_domains))
    return [
        OverlapRegion(
            leo_ids=frozenset(members),
            controller_ids=tuple(sorted(set(ctrl_ids[covers[members].any(axis=0)].tolist()))),
        )
        for members in groups.values()
    ]


@dataclass
class SlotGeometry:
    """Per-slot visibility products shared by partitioners and the emulator."""

    slot: TimeSlot
    fov_domains: dict[int, frozenset[int]]
    regions: list[OverlapRegion]
    future_fov: dict[int, frozenset[int]]  # FOV membership at slot start + lookahead
    step_fov: dict[int, frozenset[int]]  # FOV membership at the next sampling instant
    cover: dict[int, tuple[int, ...]] = field(init=False, repr=False)  # of fov_domains

    def __post_init__(self) -> None:
        self.cover = coverage_map(self.fov_domains)


class FovTimeline:
    """FOV domains of one constellation under one set of thresholds, each
    instant computed once and kept by its exact time.

    ``segment_time_slots`` fills it at its sampling instants ``k * step_s``;
    ``build_slot_geometry`` reads a slot's start, +step and +lookahead back
    wherever those times are equal floats, and computes (and keeps) any
    other instant, such as one past the horizon or off a non-dyadic grid.
    """

    def __init__(
        self, constellation: Constellation | None, thresholds: dict[Role, float] | None = None
    ) -> None:
        self.constellation = constellation
        self.thresholds = thresholds
        self._fov: dict[float, dict[int, frozenset[int]]] = {}

    def at(self, t: float, snapshot: NetworkSnapshot | None = None) -> dict[int, frozenset[int]]:
        """``compute_fov_domains`` at time ``t``; ``snapshot``, if given, is
        the constellation's snapshot at ``t``."""
        if t not in self._fov:
            snap = self.constellation.snapshot(t) if snapshot is None else snapshot
            self._fov[t] = compute_fov_domains(snap, self.thresholds)
        return self._fov[t]


def build_slot_geometry(
    timeline: FovTimeline, slot: TimeSlot, step_s: float, lookahead_s: float = 0.0
) -> SlotGeometry:
    """Overlap regions and FOV domains of ``slot``, with the FOV membership
    at the next sampling instant (start + ``step_s``) and at start +
    ``lookahead_s`` when the lookahead is positive.

    FOV domains are read from ``timeline`` at the instants it holds and
    computed at the others; the timeline's constellation is only needed for
    instants after the slot start.
    """
    t0, ahead = slot.snapshot.time_s, lookahead_s > 0
    fov = timeline.at(t0, slot.snapshot)
    return SlotGeometry(
        slot=slot,
        fov_domains=fov,
        regions=compute_overlap_regions(fov, slot.snapshot),
        future_fov=timeline.at(t0 + lookahead_s) if ahead else {},
        step_fov=timeline.at(t0 + step_s) if ahead else {},
    )


def segment_time_slots(timeline: FovTimeline, horizon_s: float, step_s: float) -> list[TimeSlot]:
    """Sample the timeline's constellation every ``step_s`` and open a new
    slot whenever any controller's FOV membership changes. Slot durations
    are multiples of the step.

    The FOV domains of every sampled instant are kept in ``timeline`` for
    ``build_slot_geometry`` to read back."""
    if step_s <= 0:
        raise ValueError("step must be positive")
    if horizon_s < step_s:
        raise ValueError("horizon shorter than one step")

    n_samples = int(horizon_s // step_s)
    starts: list[tuple[float, NetworkSnapshot]] = []
    current_fov = None
    for k in range(n_samples):
        t = k * step_s
        snap = timeline.constellation.snapshot(t)
        fov = timeline.at(t, snap)
        if fov != current_fov:
            starts.append((t, snap))
            current_fov = fov
    ends = [t for t, _ in starts[1:]] + [n_samples * step_s]
    return [TimeSlot(i, t, end, snap) for i, ((t, snap), end) in enumerate(zip(starts, ends))]

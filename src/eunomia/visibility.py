"""Elevation geometry, controller field-of-view domains, overlap regions,
and topology-stable time-slot segmentation.

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
    covers = np.zeros((len(snapshot.roles), len(fov_domains)), dtype=bool)
    for c, dom in enumerate(fov_domains):
        covers[list(dom.member_leo_ids), c] = True
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
    ctrl_ids = np.array([d.controller_id for d in fov_domains])
    return [
        OverlapRegion(
            leo_ids=frozenset(members),
            controller_ids=tuple(sorted(set(ctrl_ids[covers[members].any(axis=0)].tolist()))),
        )
        for members in groups.values()
    ]


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
        self._fov: dict[float, list[FovDomain]] = {}

    def at(self, t: float, snapshot: NetworkSnapshot | None = None) -> list[FovDomain]:
        """``compute_fov_domains`` at time ``t``; ``snapshot``, if given, is
        the constellation's snapshot at ``t``."""
        if t not in self._fov:
            snap = self.constellation.snapshot(t) if snapshot is None else snapshot
            self._fov[t] = compute_fov_domains(snap, self.thresholds)
        return self._fov[t]


def _timeline(
    constellation: Constellation | None,
    thresholds: dict[Role, float] | None,
    timeline: FovTimeline | None,
) -> FovTimeline:
    """``timeline``, checked to belong to ``constellation`` and ``thresholds``,
    or a new one for them."""
    if timeline is None:
        return FovTimeline(constellation, thresholds)
    if constellation is not timeline.constellation or thresholds != timeline.thresholds:
        raise ValueError("the FOV timeline belongs to another constellation or thresholds")
    return timeline


def _membership(fov_domains: list[FovDomain]) -> dict[int, frozenset[int]]:
    return {d.controller_id: d.member_leo_ids for d in fov_domains}


def build_slot_geometry(
    constellation: Constellation | None,
    slot: TimeSlot,
    thresholds: dict[Role, float] | None = None,
    lookahead_s: float = 0.0,
    step_s: float | None = None,
    timeline: FovTimeline | None = None,
) -> SlotGeometry:
    """Overlap regions and FOV domains of ``slot``, with the FOV membership
    at the next sampling instant (start + ``step_s``, by default half the
    lookahead) and at start + ``lookahead_s`` when the lookahead is positive.

    FOV domains are read from ``timeline`` (built for ``constellation`` and
    ``thresholds``) at the instants it holds and computed at the others; the
    three instants' results are the same either way. ``constellation`` is
    only needed for instants after the slot start.
    """
    timeline = _timeline(constellation, thresholds, timeline)
    t0 = slot.snapshot.time_s
    fov = timeline.at(t0, slot.snapshot)
    regions = compute_overlap_regions(fov, slot.snapshot)
    future: dict[int, frozenset[int]] = {}
    step_future: dict[int, frozenset[int]] = {}
    if lookahead_s > 0:
        future = _membership(timeline.at(t0 + lookahead_s))
        step = step_s if step_s is not None else lookahead_s / 2.0
        step_future = _membership(timeline.at(t0 + step))
    return SlotGeometry(
        slot=slot, fov_domains=fov, regions=regions, future_fov=future, step_fov=step_future
    )


def segment_time_slots(
    constellation: Constellation,
    horizon_s: float,
    step_s: float,
    thresholds: dict[Role, float] | None = None,
    timeline: FovTimeline | None = None,
) -> list[TimeSlot]:
    """Sample snapshots every ``step_s`` and open a new slot whenever any
    controller's FOV membership changes. Slot durations are multiples of the step.

    The FOV domains of every sampled instant are kept in ``timeline`` (built
    for ``constellation`` and ``thresholds``), if one is given, for
    ``build_slot_geometry`` to read back."""
    if step_s <= 0:
        raise ValueError("step must be positive")
    if horizon_s < step_s:
        raise ValueError("horizon shorter than one step")

    timeline = _timeline(constellation, thresholds, timeline)
    n_samples = int(horizon_s // step_s)
    slots: list[TimeSlot] = []
    current_fp = None
    current_start = 0.0
    current_snapshot = None

    for k in range(n_samples):
        t = k * step_s
        snap = constellation.snapshot(t)
        fp = membership_fingerprint(timeline.at(t, snap))
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

"""Elevation geometry, controller field-of-view domains, overlap regions,
and topology-stable time-slot segmentation. Segmentation and slot geometry
read the constellation and thresholds from one ``FovTimeline``, which holds
each instant's FOV domains as one read-only (controller x LEO) boolean array.

Elevation is computed from the geocentric separation angle between observer
and target position vectors. For controller satellites the observer is the
LEO switch (the inter-layer antenna cone is expressed as a minimum elevation
at the switch); for ground stations the observer is the station itself.

FOV membership is an elevation at or above a threshold. It is decided by
the sign of sin(elevation) - sin(threshold), which takes a square root but
no trigonometry, wherever that sign clears a rounding margin; only the pairs
inside the margin, next to the threshold, get ``elevation``. The margin's
rounding argument is written out in ``_at_or_above``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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


def _at_or_above(cos_alpha: np.ndarray, rho: np.ndarray, threshold: float) -> np.ndarray:
    """``elevation(cos_alpha, rho) >= threshold``, elementwise, with the
    trigonometry taken only for the pairs within a rounding margin of the
    threshold.

    Why the sign of g decides every other pair. With c and rho as computed,
    let E = atan2(y, x), y = c - rho, x = sqrt(1 - c**2), be the exact
    elevation of those inputs and n = |(y, x)| <= 1 + rho; E >= t exactly
    where g = y - sin(t) * n >= 0, sin being increasing on [-90, 90] degrees,
    and |E - t| >= |g| / n, sin being 1-Lipschitz. ``elevation``'s radians
    are within 25 * (1 + rho) * u / n of E (u = 2**-53; see
    ``traffic.serving_satellites``), and its degrees and t's radians differ
    from exact conversions by at most 4u. g below is within 14 * (1 + rho)
    * u of the exact g, so where |g| exceeds 1e-12 * (1 + rho), over 200
    times the sum of those bounds, its sign is the comparison's. A threshold
    beyond +-90 degrees takes the sine of the nearer end, which no elevation
    passes (or fails) outside the margin either.
    """
    y = cos_alpha - rho
    n = np.sqrt(y * y + (1.0 - cos_alpha) * (1.0 + cos_alpha))
    g = y - math.sin(math.radians(min(max(threshold, -90.0), 90.0))) * n
    margin = 1e-12 * (1.0 + rho)
    visible = g > margin
    near = np.flatnonzero(np.abs(g) <= margin)
    visible.flat[near] = elevation(cos_alpha.flat[near], rho.flat[near]) >= threshold
    return visible


def compute_fov_domains(
    snapshot: NetworkSnapshot, thresholds: dict[Role, float] | None = None
) -> np.ndarray:
    """FOV domain of every controller, as one read-only boolean array of
    shape (controllers, LEOs): entry [c, leo] says whether controller
    ``n_LEO + c`` (the c-th in ascending id order) reaches ``leo`` directly.

    The observer is chosen by role: the ground station itself, or the LEO
    switch for a controller satellite; one ``separation`` per role, with
    elevations computed only for the pairs next to the role's threshold.
    """
    thr = DEFAULT_THRESHOLDS if thresholds is None else thresholds
    n_leo = len(snapshot.leo_ids)
    leo_pos, ctrl_pos = snapshot.positions[:n_leo], snapshot.positions[n_leo:]
    visible = np.zeros((len(ctrl_pos), n_leo), dtype=bool)
    for role in set(snapshot.roles[n_leo:]):
        sel = snapshot.role_codes[n_leo:] == ROLE_CODE[role]
        if role is Role.GS:
            visible[sel] = _at_or_above(*separation(ctrl_pos[sel], leo_pos), thr[role])
        else:
            visible[sel] = _at_or_above(*separation(leo_pos, ctrl_pos[sel]), thr[role]).T
    visible.flags.writeable = False
    return visible


def compute_overlap_regions(
    fov_domains: np.ndarray, snapshot: NetworkSnapshot
) -> list[OverlapRegion]:
    """Group multiply-covered LEOs of a FOV array into maximal regions.

    Two overlap LEOs belong to the same region when they are ISL-adjacent and
    their covering-controller sets intersect; regions are the transitive
    closure of that relation, so each region is connected through contested
    LEOs only.
    """
    n_leo = fov_domains.shape[1]
    contested = np.flatnonzero(fov_domains.sum(axis=0) >= 2)
    pos = np.full(n_leo, -1)  # LEO id -> index among contested
    pos[contested] = np.arange(len(contested))
    a, b = snapshot.topology.edge_array.T
    keep = (pos[a] >= 0) & (pos[b] >= 0) & (fov_domains[:, a] & fov_domains[:, b]).any(axis=0)
    graph = csr_matrix(
        (np.ones(keep.sum()), (pos[a[keep]], pos[b[keep]])), shape=(len(contested),) * 2
    )
    _, labels = connected_components(graph, directed=False)

    # labels in order of first appearance, so regions sort by smallest member
    groups: dict[int, list[int]] = {}
    for leo, label in zip(contested.tolist(), labels.tolist()):
        groups.setdefault(label, []).append(leo)
    return [
        OverlapRegion(
            leo_ids=frozenset(members),
            controller_ids=tuple(
                (n_leo + np.flatnonzero(fov_domains[:, members].any(axis=1))).tolist()
            ),
        )
        for members in groups.values()
    ]


@dataclass
class SlotGeometry:
    """Per-slot visibility products shared by partitioners and the emulator;
    each FOV is a ``compute_fov_domains`` array, None without a lookahead."""

    slot: TimeSlot
    fov_domains: np.ndarray
    regions: list[OverlapRegion]
    future_fov: np.ndarray | None  # FOV membership at slot start + lookahead
    step_fov: np.ndarray | None  # FOV membership at the next sampling instant


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
        self._fov: dict[float, np.ndarray] = {}

    def at(self, t: float, snapshot: NetworkSnapshot | None = None) -> np.ndarray:
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
        future_fov=timeline.at(t0 + lookahead_s) if ahead else None,
        step_fov=timeline.at(t0 + step_s) if ahead else None,
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
        if current_fov is None or not np.array_equal(fov, current_fov):
            starts.append((t, snap))
            current_fov = fov
    ends = [t for t, _ in starts[1:]] + [n_samples * step_s]
    return [TimeSlot(i, t, end, snap) for i, ((t, snap), end) in enumerate(zip(starts, ends))]

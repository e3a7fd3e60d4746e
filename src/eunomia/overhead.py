"""Analytic control-overhead model and the partitioning objective.

Every component is expressed in seconds of control-plane work per second of
operation: flow rates (1/s) multiply per-message times (s), and the sync and
migration terms multiply per-event times by event frequencies. The total
splits as W_CTL = W_FLOW + W_SYNC_in + W_SYNC_out + W_MIG, with path
computation W_CPT weighted into the objective by a tradeoff factor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .constellation import C_LIGHT_KM_S, ROLE_CODE, NetworkSnapshot, Role, norm
from .visibility import FovDomain

if TYPE_CHECKING:
    from .partition import DomainAssignment
    from .traffic import TrafficMatrix


class LinkClass(str, Enum):
    ISL = "isl"
    MEO_LEO = "meo_leo"
    GS_LEO = "gs_leo"
    CTL_CTL = "ctl_ctl"


DEFAULT_BANDWIDTH_BPS: dict[LinkClass, float] = {
    LinkClass.ISL: 1e9,
    LinkClass.MEO_LEO: 5e8,
    LinkClass.GS_LEO: 1e9,
    LinkClass.CTL_CTL: 1e10,
}

# processing-capability ratio GS : MEO : LEO
DEFAULT_CAPACITY_RATIO: dict[Role, float] = {Role.GS: 1e5, Role.MEO: 1e2, Role.LEO: 1.0}


class DisconnectedDomainError(RuntimeError):
    """A domain member cannot reach its controller through intra-domain links."""


@dataclass(frozen=True)
class ConstraintViolation:
    constraint: str
    message: str
    offenders: tuple = ()


class ConstraintViolationError(ValueError):
    def __init__(self, violations: list[ConstraintViolation]):
        self.violations = violations
        names = ", ".join(sorted({v.constraint for v in violations}))
        super().__init__(f"assignment violates constraints: {names}")


@dataclass(frozen=True)
class MigrationParams:
    flow_entry_bytes: int = 36
    state_bandwidth_bps: float = 1e10
    ho_msg_bytes: int = 36
    per_sat_processing_s: float = 1e-4  # OpenFlow-style ops complete in under 100 us
    mean_flow_lifetime_s: float = 10.0


@dataclass(frozen=True)
class OverheadParams:
    m_fl_bytes: int = 36
    m_sync_bytes: int = 24
    f_sync_hz: float = 0.5
    bandwidth_bps: dict[LinkClass, float] = field(
        default_factory=lambda: dict(DEFAULT_BANDWIDTH_BPS)
    )
    capacity_unit_ops: float = 1.0
    capacity_ratio: dict[Role, float] = field(
        default_factory=lambda: dict(DEFAULT_CAPACITY_RATIO)
    )
    capacity_override_ops: dict[int, float] = field(default_factory=dict)
    tradeoff_lambda: float = 0.1  # control overhead dominates the objective
    cpt_complexity: str = "quadratic"  # quadratic | nlogn | cubic
    migration: MigrationParams = field(default_factory=MigrationParams)

    def capacity_of(self, controller_id: int, role: Role) -> float:
        if controller_id in self.capacity_override_ops:
            return self.capacity_override_ops[controller_id]
        return self.capacity_unit_ops * self.capacity_ratio[role]

    @cached_property
    def bandwidth_by_role(self) -> np.ndarray:
        """Bandwidth (bps) of the link between two roles, indexed by ``ROLE_CODE``."""
        return np.array(
            [[self.bandwidth_bps[link_class(ra, rb)] for rb in ROLE_CODE] for ra in ROLE_CODE]
        )

    def cpt_cost(self, n: int) -> float:
        if self.cpt_complexity == "quadratic":
            return float(n * n)
        if self.cpt_complexity == "nlogn":
            return float(n) * math.log2(n) if n > 1 else 0.0
        if self.cpt_complexity == "cubic":
            return float(n**3)
        raise ValueError(f"unknown cpt_complexity: {self.cpt_complexity}")


def link_class(role_a: Role, role_b: Role) -> LinkClass:
    pair = {role_a, role_b}
    if pair == {Role.LEO}:
        return LinkClass.ISL
    if pair == {Role.LEO, Role.MEO}:
        return LinkClass.MEO_LEO
    if pair == {Role.LEO, Role.GS}:
        return LinkClass.GS_LEO
    return LinkClass.CTL_CTL


def hop_cost(snapshot: NetworkSnapshot, params: OverheadParams, a, b, msg_bytes) -> np.ndarray:
    """Transmission plus straight-line propagation time of one message hop.

    The one-hop link cost of the package: ``a``, ``b`` (node ids) and
    ``msg_bytes`` broadcast against each other, and the bandwidth follows the
    link class of each role pair.
    """
    codes = snapshot.role_codes
    bw = params.bandwidth_by_role[codes[a], codes[b]]
    return msg_bytes * 8.0 / bw + norm(
        snapshot.positions[a] - snapshot.positions[b]
    ) / C_LIGHT_KM_S


def _fov_map(fov_domains: list[FovDomain]) -> dict[int, frozenset[int]]:
    return {d.controller_id: d.member_leo_ids for d in fov_domains}


def direct_link_map(
    assignment: "DomainAssignment", fov_domains: list[FovDomain]
) -> dict[int, dict[int, int]]:
    """Per controller: {LEO with a usable direct link -> terminal controller id}.

    Normally the terminal is the domain controller itself. Under a waived-FOV
    centralized assignment the relay controllers' FOV members all act as entry
    points, each terminating at its nearest visible relay.
    """
    fov = _fov_map(fov_domains)
    out: dict[int, dict[int, int]] = {}
    for k in assignment.domains():
        if assignment.fov_waived:
            relays = assignment.relay_controller_ids or (k,)
            seeds: dict[int, int] = {}
            for leo in sorted(set().union(*(fov.get(r, frozenset()) for r in relays))):
                visible = [r for r in relays if leo in fov.get(r, frozenset())]
                seeds[leo] = min(visible)  # deterministic relay choice
            out[k] = seeds
        else:
            out[k] = {leo: k for leo in fov.get(k, frozenset())}
    return out


def control_routes(
    assignment: "DomainAssignment",
    snapshot: NetworkSnapshot,
    fov_domains: list[FovDomain],
) -> dict[int, tuple[int, ...]]:
    """Control path for every assigned LEO: [leo, isl hops..., entry, controller].

    A LEO with a direct link gets [leo, controller]; otherwise the path runs
    over intra-domain ISL edges to the nearest member holding a direct link.
    Raises DisconnectedDomainError when some member has no such path.
    """
    neighbors = snapshot.neighbors
    direct = direct_link_map(assignment, fov_domains)
    routes: dict[int, tuple[int, ...]] = {}
    for k, members in assignment.domains().items():
        member_set = set(members)
        usable = {leo: ctrl for leo, ctrl in direct[k].items() if leo in member_set}
        # multi-source BFS from all direct-link members, stepping only inside the domain
        parent: dict[int, int | None] = {leo: None for leo in usable}
        frontier = sorted(usable)
        while frontier:
            nxt: list[int] = []
            for node in frontier:
                for nb in neighbors.get(node, ()):
                    if nb in member_set and nb not in parent:
                        parent[nb] = node
                        nxt.append(nb)
            frontier = sorted(nxt)
        missing = member_set - parent.keys()
        if missing:
            raise DisconnectedDomainError(
                f"domain of controller {k}: members {sorted(missing)} cannot reach a direct link"
            )
        for leo in members:
            path = [leo]
            node = leo
            while parent[node] is not None:
                node = parent[node]  # type: ignore[assignment]
                path.append(node)
            path.append(usable[node])
            routes[leo] = tuple(path)
    return routes


def route_costs(
    routes: list[tuple[int, ...]],
    snapshot: NetworkSnapshot,
    params: OverheadParams,
    msg_bytes: int,
) -> list[float]:
    """Cost of each control path: its hop costs summed in path order."""
    if not routes:
        return []
    length = max(len(r) for r in routes)
    # repeat each route's last node up to the common length; the padding hops cost 0
    padded = np.array([r + r[-1:] * (length - len(r)) for r in routes])
    src, dst = padded[:, :-1], padded[:, 1:]
    costs = np.where(src == dst, 0.0, hop_cost(snapshot, params, src, dst, msg_bytes))
    # a running sum adds one hop at a time; np.sum adds pairwise, which can
    # differ in the last bit on paths of more than eight hops
    return np.cumsum(costs, axis=1)[:, -1].tolist()


def control_hops(
    leo_id: int,
    assignment: "DomainAssignment",
    snapshot: NetworkSnapshot,
    fov_domains: list[FovDomain],
) -> int:
    """Hop count of the control path from a LEO to its domain controller."""
    if leo_id not in assignment.domain_of:
        raise KeyError(f"LEO {leo_id} is not assigned to any domain")
    routes = control_routes(assignment, snapshot, fov_domains)
    return len(routes[leo_id]) - 1


def flow_overhead(
    assignment: "DomainAssignment",
    traffic: "TrafficMatrix",
    snapshot: NetworkSnapshot,
    params: OverheadParams,
    fov_domains: list[FovDomain],
) -> float:
    """Flow-table request/update overhead: per-source control-path cost
    weighted by the source's total flow arrival rate."""
    routes = control_routes(assignment, snapshot, fov_domains)
    costs = route_costs(list(routes.values()), snapshot, params, params.m_fl_bytes)
    total = 0.0
    for leo, cost in zip(routes, costs):
        rate = traffic.outbound_rate(leo)
        if rate > 0.0:
            total += rate * cost
    return total


def intra_domain_edges(members: set[int], snapshot: NetworkSnapshot) -> int:
    return sum(1 for a, b in snapshot.isl_edges if a in members and b in members)


def sync_overhead(
    assignment: "DomainAssignment",
    snapshot: NetworkSnapshot,
    params: OverheadParams,
) -> tuple[float, float]:
    """(intra, inter) synchronization overhead.

    Intra: per domain, the slowest member's report of the whole domain edge
    state. Inter: the worst controller's cost of pushing its domain view to
    every other active controller. Both scale with the sync frequency.
    """
    domains = assignment.domains()
    w_in = 0.0
    for k, members in domains.items():
        if not members:
            continue
        e_d = intra_domain_edges(set(members), snapshot)
        worst = hop_cost(snapshot, params, list(members), k, e_d * params.m_sync_bytes).max()
        w_in += params.f_sync_hz * float(worst)

    active = np.array(sorted(k for k, members in domains.items() if members))
    w_out = 0.0
    if len(active) > 1:
        size = np.array([len(domains[k]) for k in active])
        cost = hop_cost(
            snapshot, params, active[:, None], active, size[:, None] * params.m_sync_bytes
        )
        np.fill_diagonal(cost, 0.0)
        # summed in controller order, as a running sum
        w_out = params.f_sync_hz * float(np.cumsum(cost, axis=1)[:, -1].max())
    return w_in, w_out


def count_migrations(
    prev: "DomainAssignment | None", current: "DomainAssignment"
) -> dict[int, int]:
    """Per (new) domain: members whose controller changed since the previous slot."""
    changed: dict[int, int] = {}
    if prev is None:
        return {k: 0 for k in current.domains()}
    for k, members in current.domains().items():
        n = 0
        for i in members:
            before = prev.domain_of.get(i)
            if before is not None and before != k:
                n += 1
        changed[k] = n
    return changed


def migration_overhead(
    prev: "DomainAssignment | None",
    current: "DomainAssignment",
    snapshot: NetworkSnapshot,
    traffic: "TrafficMatrix",
    params: OverheadParams,
    slot_duration_s: float,
) -> float:
    """State-transfer plus handover-notification cost of controller changes,
    scaled by each domain's migration frequency over the slot."""
    if prev is None:
        return 0.0
    mig = params.migration
    changed = count_migrations(prev, current)
    total = 0.0
    for k, members in current.domains().items():
        n_changed = changed[k]
        if n_changed == 0:
            continue
        f_mig = n_changed / slot_duration_s
        live_flows = sum(traffic.outbound_rate(i) for i in members) * mig.mean_flow_lifetime_s
        w_st = mig.flow_entry_bytes * 8.0 * live_flows / mig.state_bandwidth_bps
        ctrl_bw = params.bandwidth_bps[
            link_class(Role.LEO, snapshot.roles[k])
        ]
        w_ho = n_changed * (mig.ho_msg_bytes * 8.0 / ctrl_bw + mig.per_sat_processing_s)
        total += f_mig * (w_st + w_ho)
    return total


def _domain_rates(
    assignment: "DomainAssignment", traffic: "TrafficMatrix"
) -> dict[int, tuple[float, float]]:
    """Per domain: (intra-domain, inter-domain) flow request rates."""
    idx = traffic.index_of
    n = len(traffic.leo_ids)
    labels = np.full(n, -1, dtype=int)
    keys = sorted(assignment.domains())
    for label, k in enumerate(keys):
        for i in assignment.domains()[k]:
            labels[idx[i]] = label
    assigned = labels >= 0
    out: dict[int, tuple[float, float]] = {}
    for label, k in enumerate(keys):
        mine = labels == label
        rows = traffic.rates[mine]
        intra = float(rows[:, mine].sum())
        inter = float(rows[:, assigned & ~mine].sum())
        out[k] = (intra, inter)
    return out


def path_compute_overhead(
    assignment: "DomainAssignment",
    traffic: "TrafficMatrix",
    params: OverheadParams,
    snapshot: NetworkSnapshot,
) -> tuple[float, float]:
    """(intra, inter) route-computation load across controllers."""
    domains = assignment.domains()
    n_domains = sum(1 for members in domains.values() if members)
    rates = _domain_rates(assignment, traffic)
    w_intra = w_inter = 0.0
    for k, members in domains.items():
        if not members:
            continue
        cap = params.capacity_of(k, snapshot.roles[k])
        f_prop, f_inter = rates[k]
        w_intra += params.cpt_cost(len(members)) / cap * f_prop
        w_inter += params.cpt_cost(n_domains) / cap * f_inter
    return w_intra, w_inter


def validate_assignment(
    assignment: "DomainAssignment",
    snapshot: NetworkSnapshot,
    fov_domains: list[FovDomain],
) -> list[ConstraintViolation]:
    """Check the five constraint families; empty list means valid."""
    violations: list[ConstraintViolation] = []
    fov = _fov_map(fov_domains)
    domains = assignment.domains()

    bad_ctrl = sorted(k for k in domains if k not in snapshot.controller_ids)
    if bad_ctrl:
        violations.append(
            ConstraintViolation(
                "one_controller_per_domain",
                f"domains keyed by non-controller nodes: {bad_ctrl}",
                tuple(bad_ctrl),
            )
        )

    assigned = set(assignment.domain_of)
    uncovered = set(assignment.uncovered)
    leo_set = set(snapshot.leo_ids)
    if assigned & uncovered:
        violations.append(
            ConstraintViolation(
                "unique_membership",
                f"LEOs both assigned and uncovered: {sorted(assigned & uncovered)}",
                tuple(sorted(assigned & uncovered)),
            )
        )
    stray = sorted((assigned | uncovered) - leo_set)
    missing = sorted(leo_set - assigned - uncovered)
    if stray or missing:
        violations.append(
            ConstraintViolation(
                "unique_membership",
                f"assignment does not partition the LEO set (stray={stray}, missing={missing})",
                tuple(stray + missing),
            )
        )

    # binary-consistency: x(i, j) = [domain_of[i] == domain_of[j]] agrees with
    # the domain view when every LEO is listed once, under its own controller;
    # checked per LEO rather than per pair
    listed = {j: k for k, members in domains.items() for j in members}
    duplicated = len(listed) != sum(len(members) for members in domains.values())
    for i in sorted(assigned):
        if duplicated or listed.get(i) != assignment.domain_of[i]:
            violations.append(
                ConstraintViolation(
                    "binary_consistency",
                    f"x view inconsistent with domain of LEO {i}",
                    (i,),
                )
            )
            break

    if not assignment.fov_waived:
        for k, members in domains.items():
            outside = sorted(set(members) - fov.get(k, frozenset()))
            if outside:
                violations.append(
                    ConstraintViolation(
                        "fov_containment",
                        f"LEOs {outside} assigned to controller {k} outside its FOV",
                        tuple(outside),
                    )
                )

    try:
        control_routes(assignment, snapshot, fov_domains)
    except DisconnectedDomainError as exc:
        violations.append(ConstraintViolation("connectivity", str(exc)))

    return violations


@dataclass
class OverheadReport:
    """All overhead components for one slot, in seconds of work per second."""

    slot_index: int
    w_flow: float
    w_sync_in: float
    w_sync_out: float
    w_mig: float
    w_cpt_intra: float
    w_cpt_inter: float
    objective: float
    eta_control: float | None
    drop_rate: float | None = None
    per_domain: dict[int, dict[str, float]] = field(default_factory=dict)

    @property
    def w_ctl(self) -> float:
        return self.w_flow + self.w_sync_in + self.w_sync_out + self.w_mig

    def to_dict(self) -> dict:
        return {
            "slot_index": self.slot_index,
            "w_flow": self.w_flow,
            "w_sync_in": self.w_sync_in,
            "w_sync_out": self.w_sync_out,
            "w_mig": self.w_mig,
            "w_ctl": self.w_ctl,
            "w_cpt_intra": self.w_cpt_intra,
            "w_cpt_inter": self.w_cpt_inter,
            "objective": self.objective,
            "eta_control": self.eta_control,
            "drop_rate": self.drop_rate,
        }

    def to_csv_rows(self) -> list[tuple[int, str, float]]:
        """(slot, component, value) rows; None-valued metrics are skipped."""
        rows = []
        for component, value in self.to_dict().items():
            if component == "slot_index" or value is None:
                continue
            rows.append((self.slot_index, component, float(value)))
        return rows


def control_efficiency(report: OverheadReport) -> float | None:
    """Share of control overhead spent on flow-table work; None when idle."""
    if report.w_ctl <= 0.0:
        return None
    return report.w_flow / report.w_ctl


def evaluate(
    assignment: "DomainAssignment",
    traffic: "TrafficMatrix",
    snapshot: NetworkSnapshot,
    params: OverheadParams,
    fov_domains: list[FovDomain],
    prev_assignment: "DomainAssignment | None" = None,
    slot_duration_s: float = 1.0,
    validate: bool = True,
) -> OverheadReport:
    """Evaluate every overhead component and the objective for one slot.

    Raises ConstraintViolationError when the assignment breaks any of the
    five constraint families (unless validation is disabled).
    """
    if validate:
        violations = validate_assignment(assignment, snapshot, fov_domains)
        if violations:
            raise ConstraintViolationError(violations)
    w_flow = flow_overhead(assignment, traffic, snapshot, params, fov_domains)
    w_in, w_out = sync_overhead(assignment, snapshot, params)
    w_mig = migration_overhead(
        prev_assignment, assignment, snapshot, traffic, params, slot_duration_s
    )
    w_cpt_intra, w_cpt_inter = path_compute_overhead(assignment, traffic, params, snapshot)
    w_ctl = w_flow + w_in + w_out + w_mig
    report = OverheadReport(
        slot_index=assignment.slot_index,
        w_flow=w_flow,
        w_sync_in=w_in,
        w_sync_out=w_out,
        w_mig=w_mig,
        w_cpt_intra=w_cpt_intra,
        w_cpt_inter=w_cpt_inter,
        objective=w_ctl + params.tradeoff_lambda * (w_cpt_intra + w_cpt_inter),
        eta_control=None,
    )
    report.eta_control = control_efficiency(report)
    return report


def objective(
    assignment: "DomainAssignment",
    traffic: "TrafficMatrix",
    snapshot: NetworkSnapshot,
    params: OverheadParams,
    fov_domains: list[FovDomain],
    prev_assignment: "DomainAssignment | None" = None,
    slot_duration_s: float = 1.0,
) -> float:
    """Objective value W_CTL + lambda * W_CPT; raises on constraint violations."""
    return evaluate(
        assignment,
        traffic,
        snapshot,
        params,
        fov_domains,
        prev_assignment=prev_assignment,
        slot_duration_s=slot_duration_s,
    ).objective

"""Analytic control-overhead model and the partitioning objective.

Every component is expressed in seconds of control-plane work per second of
operation: flow rates (1/s) multiply per-message times (s), and the sync and
migration terms multiply per-event times by event frequencies. The total
splits as W_CTL = W_FLOW + W_SYNC_in + W_SYNC_out + W_MIG, with path
computation W_CPT weighted into the objective by a tradeoff factor. Direct
links and FOV containment read ``visibility.compute_fov_domains``' array;
every per-domain term (keys, sizes, members, direct links and control
routes) is read from the assignment's controller-per-LEO array.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Literal

import numpy as np

from .codecs import EDGE_SYNC_BYTES, FLOW_REQUEST_FIXED_BYTES, FLOW_UPDATE_BYTES
from .constellation import C_LIGHT_KM_S, ROLE_CODE, NetworkSnapshot, Role, norm

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
    flow_entry_bytes: int = FLOW_UPDATE_BYTES
    state_bandwidth_bps: float = 1e10
    ho_msg_bytes: int = FLOW_UPDATE_BYTES
    per_sat_processing_s: float = 1e-4  # OpenFlow-style ops complete in under 100 us
    mean_flow_lifetime_s: float = 10.0

    def __post_init__(self) -> None:
        if not self.state_bandwidth_bps > 0.0:
            raise ValueError(f"state_bandwidth_bps: {self.state_bandwidth_bps} is not positive")
        keys = ("flow_entry_bytes", "ho_msg_bytes", "per_sat_processing_s", "mean_flow_lifetime_s")
        for key in keys:
            if not getattr(self, key) >= 0.0:
                raise ValueError(f"{key}: {getattr(self, key)} is negative")


@dataclass(frozen=True)
class OverheadParams:
    m_fl_bytes: int = FLOW_UPDATE_BYTES
    m_sync_bytes: int = EDGE_SYNC_BYTES
    f_sync_hz: float = 0.5
    bandwidth_bps: dict[LinkClass, float] = field(
        default_factory=lambda: dict(DEFAULT_BANDWIDTH_BPS)
    )
    capacity_unit_ops: float = 1.0
    capacity_ratio: dict[Role, float] = field(
        default_factory=lambda: dict(DEFAULT_CAPACITY_RATIO), metadata={"config": False}
    )
    capacity_override_ops: dict[int, float] = field(
        default_factory=dict, metadata={"config": False}
    )
    tradeoff_lambda: float = 0.1  # control overhead dominates the objective
    cpt_complexity: Literal["quadratic", "nlogn", "cubic"] = "quadratic"
    migration: MigrationParams = field(default_factory=MigrationParams)

    def __post_init__(self) -> None:
        for key in ("f_sync_hz", "tradeoff_lambda", "m_fl_bytes", "m_sync_bytes"):
            if not getattr(self, key) >= 0.0:
                raise ValueError(f"{key}: {getattr(self, key)} is negative")
        if not self.capacity_unit_ops > 0.0:
            raise ValueError(f"capacity_unit_ops: {self.capacity_unit_ops} is not positive")
        for link, bps in self.bandwidth_bps.items():
            if not bps > 0.0:
                raise ValueError(f"bandwidth_bps.{link.value}: {bps} is not positive")

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

    def cpt_costs(self, n: int) -> list[float]:
        """``cpt_cost(m)`` for every m in 0..n, at index m (the list may run
        further): one table per params object, extended on demand."""
        table = self.__dict__.setdefault("_cpt_costs", [])
        table.extend(self.cpt_cost(m) for m in range(len(table), n + 1))
        return table

    def __getstate__(self) -> dict:
        # the cpt_cost table is rebuilt on demand, not sent to worker processes
        return {k: v for k, v in self.__dict__.items() if k != "_cpt_costs"}


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


def direct_link_map(assignment: "DomainAssignment", fov_domains: np.ndarray) -> np.ndarray:
    """Per LEO: the controller its direct control link terminates at, or -1
    when it has none (an unmanaged LEO has none).

    Normally the terminal is the LEO's own controller, where that
    controller's FOV row sees the LEO. Under a waived-FOV centralized
    assignment the relay controllers' FOV members all act as entry points,
    each terminating at the lowest-id relay that sees it.
    """
    controller = assignment.controller
    n_ctrl, n_leo = fov_domains.shape
    if assignment.fov_waived and assignment.relay_controller_ids:
        relays = np.unique(assignment.relay_controller_ids)
        relays = relays[(relays >= n_leo) & (relays < n_leo + n_ctrl)]  # a non-controller sees none
        # each LEO's lowest-id relay that sees it, else a last row, -1, that sees every LEO
        sees = np.vstack([fov_domains[relays - n_leo], np.ones(n_leo, dtype=bool)])
        return np.where(controller >= 0, np.append(relays, -1)[sees.argmax(axis=0)], -1)
    row = controller - n_leo
    is_ctrl = (row >= 0) & (row < n_ctrl)
    sees = is_ctrl & fov_domains[np.where(is_ctrl, row, 0), np.arange(n_leo)]
    return np.where(sees, controller, -1)


def _frozen(a) -> np.ndarray:
    a = np.asarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ControlRoutes:
    """Every managed LEO's control path, as arrays over LEO ids: a path runs
    from its LEO along ``parent`` to a LEO with a direct link, then to that
    LEO's ``terminal`` controller."""

    routed: np.ndarray  # the managed LEOs, in (controller, LEO id) order
    parent: np.ndarray  # next LEO on the path; -1 at a direct link, -2 unmanaged
    terminal: np.ndarray  # the controller of each LEO's direct link, -1 for none


def control_routes(
    assignment: "DomainAssignment",
    snapshot: NetworkSnapshot,
    fov_domains: np.ndarray,
) -> ControlRoutes:
    """Control paths of every managed LEO.

    A LEO with a direct link reaches its terminal controller in one hop;
    otherwise the path runs over intra-domain ISL edges to the nearest
    member holding a direct link, found by one multi-source BFS for the
    whole slot that steps only along edges whose two ends share a
    controller. Raises DisconnectedDomainError, naming the lowest-id
    controller with members that have no such path.
    """
    controller = assignment.controller
    terminal = direct_link_map(assignment, fov_domains)
    # the managed LEOs in (controller, id) order: the unmanaged (-1) sort first
    leos = np.argsort(controller, kind="stable")[np.count_nonzero(controller < 0) :]
    parent = np.where(terminal >= 0, -1, -2)  # -2: not reached, -1: a direct link
    frontier = np.flatnonzero(terminal >= 0)
    if frontier.size < leos.size:  # not every member has a direct link
        # one level at a time over the rows of the ISL graph, from every
        # direct-link LEO at once: a node's parent is the lowest-id frontier
        # node next to it in its own domain
        graph = snapshot.topology.graph
        row_len = np.diff(graph.indptr)
        while frontier.size:
            start, count = graph.indptr[frontier], row_len[frontier]
            # each frontier node's row in turn, in id order
            ends = np.cumsum(count)
            nb = graph.indices[np.arange(ends[-1]) + np.repeat(start - ends + count, count)]
            src = np.repeat(frontier, count)
            new = (controller[nb] == controller[src]) & (parent[nb] == -2)
            frontier, first = np.unique(nb[new], return_index=True)
            parent[frontier] = src[new][first]
        missing = np.flatnonzero((controller >= 0) & (parent == -2))
        if missing.size:
            k = controller[missing].min()
            raise DisconnectedDomainError(
                f"domain of controller {k}: members "
                f"{missing[controller[missing] == k].tolist()} cannot reach a direct link"
            )
    return ControlRoutes(routed=_frozen(leos), parent=_frozen(parent), terminal=_frozen(terminal))


def path_costs(
    routes: ControlRoutes,
    snapshot: NetworkSnapshot,
    params: OverheadParams,
    sizes: tuple[int, ...],
) -> list[np.ndarray]:
    """Per LEO id, for each message size of ``sizes``: that message's cost
    over the LEO's control path, 0.0 for an unmanaged LEO.

    Each LEO's next hop is costed once, by ``hop_cost``'s expression with
    its propagation term shared by the sizes. The paths are then walked
    together along ``parent``, every LEO one hop per step, adding the hops
    in path order as a running sum does (``np.sum`` adds pairwise, which
    can differ in the last bit on paths of more than eight hops).
    """
    leos, parent = routes.routed, routes.parent
    up = parent[leos]
    nxt = np.where(up >= 0, up, routes.terminal[leos])
    codes, pos = snapshot.role_codes, snapshot.positions
    bw = params.bandwidth_by_role[codes[leos], codes[nxt]]
    prop = norm(pos[leos] - pos[nxt]) / C_LIGHT_KM_S
    hops = []
    for size in sizes:
        hop = np.zeros(len(parent))
        hop[leos] = size * 8.0 / bw + prop
        hops.append(hop)
    totals = [hop.copy() for hop in hops]  # each path's first hop
    at, node = leos[up >= 0], up[up >= 0]  # the LEOs still walking, and where they are
    while at.size:
        for total, hop in zip(totals, hops):
            total[at] += hop[node]
        node = parent[node]
        at, node = at[node >= 0], node[node >= 0]
    return totals


def flow_overhead(
    assignment: "DomainAssignment",
    traffic: "TrafficMatrix",
    snapshot: NetworkSnapshot,
    params: OverheadParams,
    fov_domains: np.ndarray,
    plan: "SlotPlan | None" = None,
) -> float:
    """Flow-table request/update overhead: per-source control-path cost
    weighted by the source's total flow arrival rate.

    The path costs come from ``plan``, the slot plan of this assignment, or
    from a fresh one when it is not given.
    """
    if plan is None:
        plan = slot_plan(assignment, snapshot, params, fov_domains)
    rates = traffic.outbound_of(plan.routed)
    weighted = np.where(rates > 0.0, rates * plan.mfl_cost[plan.routed], 0.0)
    # summed in control_routes order, one source at a time
    return float(np.cumsum(weighted)[-1]) if weighted.size else 0.0


def intra_domain_edges(
    assignment: "DomainAssignment", snapshot: NetworkSnapshot
) -> dict[int, int]:
    """Per domain, in controller order: ISL edges with both ends in it,
    counted in one edge pass."""
    controller = assignment.controller
    keys = np.unique(controller[controller >= 0])
    a, b = controller[snapshot.topology.edge_array].T
    counts = np.bincount(np.searchsorted(keys, a[(a == b) & (a >= 0)]), minlength=len(keys))
    return dict(zip(keys.tolist(), counts.tolist()))


def _sync_terms(
    assignment: "DomainAssignment", snapshot: NetworkSnapshot, params: OverheadParams
) -> tuple[dict[int, int], np.ndarray, tuple[float, float]]:
    """Per domain, its intra-domain ISL edge count and its slowest member's
    report time, in controller order; and ``sync_overhead``'s pair from them."""
    controller = assignment.controller
    leos = np.argsort(controller, kind="stable")[np.count_nonzero(controller < 0) :]
    keys, start, size = np.unique(controller[leos], return_index=True, return_counts=True)
    e_counts = intra_domain_edges(assignment, snapshot)
    # every member's report of its domain's edge state in one batch, then
    # the slowest of each domain
    edges = np.repeat(np.fromiter(e_counts.values(), np.int64, len(keys)), size)
    cost = hop_cost(snapshot, params, leos, controller[leos], edges * params.m_sync_bytes)
    reports = np.maximum.reduceat(cost, start) if leos.size else cost
    w_in = 0.0
    for worst in reports.tolist():
        w_in += params.f_sync_hz * worst

    w_out = 0.0
    if len(keys) > 1:
        cost = hop_cost(
            snapshot, params, keys[:, None], keys, size[:, None] * params.m_sync_bytes
        )
        np.fill_diagonal(cost, 0.0)
        # summed in controller order, as a running sum
        w_out = params.f_sync_hz * float(np.cumsum(cost, axis=1)[:, -1].max())
    return e_counts, reports, (w_in, w_out)


def sync_overhead(
    assignment: "DomainAssignment", snapshot: NetworkSnapshot, params: OverheadParams
) -> tuple[float, float]:
    """(intra, inter) synchronization overhead.

    Intra: per domain, the slowest member's report of the whole domain edge
    state. Inter: the worst controller's cost of pushing its domain view to
    every other active controller. Both scale with the sync frequency.
    """
    return _sync_terms(assignment, snapshot, params)[2]


def count_migrations(
    prev: "DomainAssignment | None", current: "DomainAssignment"
) -> dict[int, int]:
    """Per (new) domain that gained a LEO from another controller since the
    previous slot, in controller order: how many it gained. A LEO unmanaged
    in either slot has not changed controller."""
    now = current.controller
    before = now if prev is None else prev.controller
    keys, counts = np.unique(now[(before != now) & (before >= 0) & (now >= 0)], return_counts=True)
    return dict(zip(keys.tolist(), counts.tolist()))


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
    changed = count_migrations(prev, current)
    if not changed:  # no previous slot, or no LEO changed controller
        return 0.0
    mig = params.migration
    # the outbound rates of every member of a domain that changed, in id order
    members = np.flatnonzero(np.isin(current.controller, list(changed)))
    rates, owner = traffic.outbound_of(members), current.controller[members]
    total = 0.0
    for k, n_changed in changed.items():
        f_mig = n_changed / slot_duration_s
        # a running sum, one member at a time in id order
        out_rate = float(np.cumsum(rates[owner == k])[-1])
        live_flows = out_rate * mig.mean_flow_lifetime_s
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
    """Per domain: (intra-domain, inter-domain) flow request rates, each the
    sum of the full matrix's masked gather (the domain's rows, and its own
    or the other managed LEOs' columns) as ``TrafficMatrix.gather_sum``
    takes it, piece by piece from the block."""
    assigned = assignment.controller >= 0
    keys = np.unique(assignment.controller[assigned])
    labels = np.where(assigned, np.searchsorted(keys, assignment.controller), -1)
    out: dict[int, tuple[float, float]] = {}
    for label, k in enumerate(keys.tolist()):
        mine = labels == label
        out[k] = (traffic.gather_sum(mine, mine), traffic.gather_sum(mine, assigned & ~mine))
    return out


def path_compute_overhead(
    assignment: "DomainAssignment",
    traffic: "TrafficMatrix",
    params: OverheadParams,
    snapshot: NetworkSnapshot,
) -> tuple[float, float]:
    """(intra, inter) route-computation load across controllers."""
    controller = assignment.controller
    keys, sizes = np.unique(controller[controller >= 0], return_counts=True)
    rates = _domain_rates(assignment, traffic)
    w_intra = w_inter = 0.0
    for k, size in zip(keys.tolist(), sizes.tolist()):
        cap = params.capacity_of(k, snapshot.roles[k])
        f_prop, f_inter = rates[k]
        w_intra += params.cpt_cost(size) / cap * f_prop
        w_inter += params.cpt_cost(len(keys)) / cap * f_inter
    return w_intra, w_inter


def validate_assignment(
    assignment: "DomainAssignment",
    snapshot: NetworkSnapshot,
    fov_domains: np.ndarray,
    routes: ControlRoutes | None = None,
) -> list[ConstraintViolation]:
    """Check the constraint families; empty list means valid.

    Unique membership and binary consistency (x(i, j) = [controller[i] ==
    controller[j]]) hold by construction: the read-only ``controller`` array
    holds one entry per LEO, and every domain is read from it. What is
    checked here:

    - unique membership: an array whose length is not the LEO count, and a
      LEO left unmanaged (-1) although some controller sees it;
    - one controller per domain: a value that is neither -1 nor a controller id;
    - FOV containment, and connectivity.

    The connectivity check builds the control routes, unless ``routes``
    already holds ``control_routes``' result for this assignment. It runs
    only under a waived FOV or a failed FOV containment: a contained domain
    gives every member a direct link, so no member can be cut off.
    """
    controller = assignment.controller
    n_ctrl, n_leo = fov_domains.shape
    if len(controller) != len(snapshot.leo_ids):
        return [
            ConstraintViolation(
                "unique_membership",
                f"{len(controller)} controller entries for {len(snapshot.leo_ids)} LEOs",
            )
        ]
    violations: list[ConstraintViolation] = []

    is_ctrl = (controller >= n_leo) & (controller < n_leo + n_ctrl)
    bad_ctrl = np.unique(controller[~is_ctrl & (controller != -1)]).tolist()
    if bad_ctrl:
        violations.append(
            ConstraintViolation(
                "one_controller_per_domain",
                f"domains keyed by non-controller nodes: {bad_ctrl}",
                tuple(bad_ctrl),
            )
        )

    lost = np.flatnonzero((controller == -1) & fov_domains.any(axis=0)).tolist()
    if lost:
        violations.append(
            ConstraintViolation(
                "unique_membership",
                f"LEOs seen by a controller but unmanaged: {lost}",
                tuple(lost),
            )
        )

    contained = True
    if not assignment.fov_waived:
        # a member without a direct link is outside its controller's FOV
        bad = np.flatnonzero((controller != -1) & (direct_link_map(assignment, fov_domains) < 0))
        contained = not bad.size
        for k in np.unique(controller[bad]).tolist():
            outside = bad[controller[bad] == k].tolist()
            violations.append(
                ConstraintViolation(
                    "fov_containment",
                    f"LEOs {outside} assigned to controller {k} outside its FOV",
                    tuple(outside),
                )
            )

    if routes is None and (assignment.fov_waived or not contained):
        try:
            control_routes(assignment, snapshot, fov_domains)
        except DisconnectedDomainError as exc:
            violations.append(ConstraintViolation("connectivity", str(exc)))

    return violations


def plan_key(assignment: "DomainAssignment") -> tuple:
    """Everything of ``assignment`` that ``slot_plan`` reads: two assignments
    of one slot with equal keys have equal plans."""
    return (
        assignment.controller.tobytes(),
        assignment.fov_waived,
        assignment.relay_controller_ids,
    )


@dataclass(frozen=True)
class SlotPlan:
    """What one slot's control plane costs under one assignment, before any
    traffic: the validation verdict, the control-path costs, the controller
    tables and the synchronization load. None of it depends on the traffic
    scale, the seed or the previous slot, so one plan serves every run of
    the same (slot, assignment content); see ``plan_key``.

    Per-LEO arrays are indexed by LEO id, as the traffic matrices are;
    per-controller ones by row of ``active``. The path costs come from the
    ``control_routes`` arrays by ``path_costs``' walk, with no per-path
    tuple built. A plan holds O(nd * |LEO|) numbers for nd active domains,
    most of them the ``deliver`` table.
    """

    violations: tuple[ConstraintViolation, ...]
    ctrl_of: np.ndarray  # each LEO's controller, -1 when unmanaged
    routed: np.ndarray  # the managed LEOs, in control_routes order
    req_cost: np.ndarray  # a flow request's cost over each LEO's control path
    mfl_cost: np.ndarray  # a flow update's cost over the same path
    active: np.ndarray  # controllers with a domain, in id order
    row_of: np.ndarray  # node id -> row of active
    service_intra: np.ndarray  # per-request service time, within the domain
    service_inter: np.ndarray  # per-request service time, across domains
    cc_hop: np.ndarray  # (nd, nd) one-hop cost of a flow update between controllers
    # (nd, |LEO|) a flow update's delivery cost from each controller to each
    # LEO, one controller hop more when the LEO is in another domain
    deliver: np.ndarray
    sync_delay_mean: float  # mean over domains of the slowest intra-domain report
    sync_bytes_per_tick: int
    sync: tuple[float, float]  # sync_overhead's (w_in, w_out)


def slot_plan(
    assignment: "DomainAssignment",
    snapshot: NetworkSnapshot,
    params: OverheadParams,
    fov_domains: np.ndarray,
) -> SlotPlan:
    """Build the slot plan of ``assignment``: its control routes once, as
    arrays, the validation of the assignment on those routes, and the
    tables derived from them. Raises ConstraintViolationError when the
    controller array does not hold one entry per LEO, or when some member
    cannot reach its controller, since such an assignment has no control
    routes."""
    if len(assignment.controller) != len(snapshot.leo_ids):
        raise ConstraintViolationError(validate_assignment(assignment, snapshot, fov_domains))
    try:
        routes = control_routes(assignment, snapshot, fov_domains)
    except DisconnectedDomainError as exc:
        raise ConstraintViolationError(
            validate_assignment(assignment, snapshot, fov_domains)
        ) from exc
    violations = validate_assignment(assignment, snapshot, fov_domains, routes)

    n = len(snapshot.leo_ids)
    req_cost, mfl_cost = path_costs(
        routes, snapshot, params, (FLOW_REQUEST_FIXED_BYTES, params.m_fl_bytes)
    )
    ctrl_of = assignment.controller

    roles = snapshot.roles
    act, sizes = np.unique(ctrl_of[ctrl_of >= 0], return_counts=True)
    active, sizes = act.tolist(), sizes.tolist()
    nd = len(active)
    row_of = np.zeros(len(roles), dtype=np.int64)
    row_of[act] = np.arange(nd)
    service_intra = [
        params.cpt_cost(m) / params.capacity_of(k, roles[k]) for k, m in zip(active, sizes)
    ]
    service_inter = [params.cpt_cost(nd) / params.capacity_of(k, roles[k]) for k in active]

    cc_hop = hop_cost(snapshot, params, act[:, None], act, params.m_fl_bytes)
    deliver = hop_cost(snapshot, params, act[:, None], np.arange(n), params.m_fl_bytes)
    if nd:
        relayed = (ctrl_of >= 0) & (ctrl_of != act[:, None])
        deliver = np.where(relayed, deliver + cc_hop[:, row_of[ctrl_of]], deliver)

    e_counts, intra_delay, sync = _sync_terms(assignment, snapshot, params)
    per_tick_bytes = sum(e * params.m_sync_bytes for e in e_counts.values())
    if nd > 1:
        per_tick_bytes += sum((nd - 1) * m * params.m_sync_bytes for m in sizes)

    return SlotPlan(
        violations=tuple(violations),
        ctrl_of=_frozen(ctrl_of),
        routed=routes.routed,
        req_cost=_frozen(req_cost),
        mfl_cost=_frozen(mfl_cost),
        active=_frozen(act),
        row_of=_frozen(row_of),
        service_intra=_frozen(np.array(service_intra)),
        service_inter=_frozen(np.array(service_inter)),
        cc_hop=_frozen(cc_hop),
        deliver=_frozen(deliver),
        sync_delay_mean=float(np.mean(intra_delay)) if nd else 0.0,
        sync_bytes_per_tick=per_tick_bytes,
        sync=sync,
    )


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
    fov_domains: np.ndarray,
    prev_assignment: "DomainAssignment | None" = None,
    slot_duration_s: float = 1.0,
    validate: bool = True,
    plan: SlotPlan | None = None,
) -> OverheadReport:
    """Evaluate every overhead component and the objective for one slot.

    ``plan`` is the slot plan of this assignment; a fresh one is built when
    it is not given. Raises ConstraintViolationError when the assignment
    breaks any of the constraint families (unless validation is
    disabled), and always when a domain is disconnected.
    """
    if plan is None:
        plan = slot_plan(assignment, snapshot, params, fov_domains)
    if validate and plan.violations:
        raise ConstraintViolationError(list(plan.violations))
    w_flow = flow_overhead(assignment, traffic, snapshot, params, fov_domains, plan)
    w_in, w_out = plan.sync
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


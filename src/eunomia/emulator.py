"""Deterministic control-plane emulation.

One slot is emulated as follows. Flow arrivals are Poisson processes drawn
once per (slot, seed) at the gamma=1 rates and thinned per-arrival to the
requested gamma, so runs with different strategies or traffic scales share
the same underlying randomness. Each arrival sends a flow-table request over
the source's control path; the controller serves requests FIFO, taking
f(|domain|)/capacity per intra-domain request and f(#domains)/capacity plus
one controller-to-controller round trip per inter-domain request. A request
whose queueing delay would exceed the queue window is dropped, as is any
request from an unmanaged switch or toward an unmanaged destination. Flow
updates go to every node of the data path; edge synchronization ticks at the
sync frequency; handover notifications fire at the slot boundary for every
migrated switch. The event loop is single-threaded: per-controller queues
are swept in timestamp order and the merged trace is hashed for
reproducibility checks.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from .codecs import FlowRequest, encode_flow_request
from .constellation import NetworkSnapshot
from .overhead import (
    ConstraintViolationError,
    OverheadParams,
    control_routes,
    count_migrations,
    evaluate,
    hop_cost,
    intra_domain_edges,
    route_costs,
    validate_assignment,
)
from .partition import (
    DomainAssignment,
    greedy_partition,
    odc_partition,
    partition_slot,
)
from .traffic import TrafficMatrix, scale
from .visibility import FovDomain, TimeSlot, compute_fov_domains

if TYPE_CHECKING:
    from .scenario import Scenario

STRATEGIES = ("eunomia", "odc", "greedy")

# event codes for the trace
EV_ARRIVAL = 1
EV_AT_CONTROLLER = 2
EV_SERVED = 3
EV_DROPPED = 4
EV_RESPONSE = 5
EV_SYNC = 6
EV_HANDOVER = 7


@dataclass(frozen=True)
class EmulatorParams:
    queue_window_s: float = 1.0  # backlog bound, in seconds of controller capacity


@dataclass
class ControllerRuntime:
    controller_id: int
    capacity_ops: float
    queue_window_s: float
    busy_until: float = 0.0


@dataclass
class EmulationStats:
    slot_index: int
    strategy: str
    gamma: float
    seed: int
    duration_s: float
    requests_total: int
    requests_dropped: int
    drop_rate: float
    resp_mean_s: float
    resp_median_s: float
    resp_p95_s: float
    sync_delay_mean_s: float
    bytes_flow: int
    bytes_sync: int
    bytes_handover: int
    measured_w_flow: float
    migrated: int
    trace_hash: str

    def to_row(self) -> dict:
        return {
            "slot": self.slot_index,
            "strategy": self.strategy,
            "gamma": self.gamma,
            "seed": self.seed,
            "requests": self.requests_total,
            "drops": self.requests_dropped,
            "drop_rate": self.drop_rate,
            "mean_resp_s": self.resp_mean_s,
            "p95_resp_s": self.resp_p95_s,
            "sync_delay_s": self.sync_delay_mean_s,
            "bytes_flow": self.bytes_flow,
            "bytes_sync": self.bytes_sync,
            "bytes_ho": self.bytes_handover,
        }


CSV_COLUMNS = [
    "slot",
    "strategy",
    "gamma",
    "seed",
    "requests",
    "drops",
    "drop_rate",
    "mean_resp_s",
    "p95_resp_s",
    "sync_delay_s",
    "bytes_flow",
    "bytes_sync",
    "bytes_ho",
]


def generate_arrivals(
    base_traffic: TrafficMatrix, duration_s: float, seed: int, slot_index: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Poisson arrivals at the gamma=1 rates: (times, src idx, dst idx, marks).

    Marks are uniform [0, 1) thinning labels: keeping arrivals with
    mark < gamma yields exact Poisson(gamma * rate) processes nested across
    gamma values, which makes drop counts comparable across traffic scales.
    """
    rng = np.random.default_rng([seed, slot_index])
    src_nz, dst_nz = np.nonzero(base_traffic.rates)
    lam = base_traffic.rates[src_nz, dst_nz] * duration_s
    counts = rng.poisson(lam)
    total = int(counts.sum())
    srcs = np.repeat(src_nz, counts)
    dsts = np.repeat(dst_nz, counts)
    times = rng.random(total) * duration_s
    marks = rng.random(total)
    order = np.argsort(times, kind="stable")
    return times[order], srcs[order], dsts[order], marks[order]


def _isl_paths(snapshot: NetworkSnapshot, index_of: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
    n = len(index_of)
    rows, cols = [], []
    for a, b in snapshot.isl_edges:
        rows += [index_of[a], index_of[b]]
        cols += [index_of[b], index_of[a]]
    graph = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    hops, preds = shortest_path(
        graph, method="D", unweighted=True, return_predecessors=True
    )
    return hops, preds


def _walk_path(preds: np.ndarray, src: int, dst: int) -> list[int]:
    if src == dst:
        return [src]
    if preds[src, dst] < 0:
        return [src]
    path = [dst]
    node = dst
    while node != src:
        node = int(preds[src, node])
        path.append(node)
    path.reverse()
    return path


def run_slot(
    slot: TimeSlot,
    assignment: DomainAssignment,
    base_traffic: TrafficMatrix,
    params: OverheadParams,
    emu: EmulatorParams,
    seed: int,
    gamma: float = 1.0,
    prev_assignment: DomainAssignment | None = None,
    fov_domains: list[FovDomain] | None = None,
    strategy: str = "",
) -> EmulationStats:
    """Emulate one slot under a fixed assignment; see the module docstring."""
    snap = slot.snapshot
    duration = slot.end_s - slot.start_s
    if fov_domains is None:
        fov_domains = compute_fov_domains(snap)
    violations = validate_assignment(assignment, snap, fov_domains)
    if violations:
        raise ConstraintViolationError(violations)

    leo_ids = base_traffic.leo_ids
    idx = base_traffic.index_of
    n = len(leo_ids)
    roles = snap.roles

    routes = control_routes(assignment, snap, fov_domains)
    routed = [idx[leo] for leo in routes]
    req_len = len(encode_flow_request(FlowRequest()))
    req_cost = np.zeros(n)
    mfl_cost = np.zeros(n)
    req_cost[routed] = route_costs(list(routes.values()), snap, params, req_len)
    mfl_cost[routed] = route_costs(list(routes.values()), snap, params, params.m_fl_bytes)

    ctrl_of = np.full(n, -1, dtype=np.int64)
    for leo, k in assignment.domain_of.items():
        ctrl_of[idx[leo]] = k

    domains = assignment.domains()
    active = sorted(k for k, members in domains.items() if members)
    nd = len(active)
    ctrl_row = {k: r for r, k in enumerate(active)}
    service_intra = {
        k: params.cpt_cost(len(domains[k])) / params.capacity_of(k, roles[k])
        for k in active
    }
    service_inter = {
        k: params.cpt_cost(nd) / params.capacity_of(k, roles[k]) for k in active
    }
    act = np.array(active, dtype=np.int64)
    cc_hop = hop_cost(snap, params, act[:, None], act, params.m_fl_bytes)
    cc_rtt = (2.0 * cc_hop).tolist()

    # flow-update delivery cost from each controller to each switch (one extra
    # controller hop when the switch belongs to another domain)
    deliver = hop_cost(snap, params, act[:, None], np.array(leo_ids), params.m_fl_bytes)
    if nd:
        owner_row = np.array([ctrl_row.get(k, 0) for k in ctrl_of.tolist()])
        relayed = (ctrl_of >= 0) & (ctrl_of != act[:, None])
        deliver = np.where(relayed, deliver + cc_hop[:, owner_row], deliver)

    _, preds = _isl_paths(snap, idx)

    times, srcs, dsts, marks = generate_arrivals(base_traffic, duration, seed, slot.index)
    keep = marks < gamma
    times, srcs, dsts = times[keep] + slot.start_s, srcs[keep], dsts[keep]

    events: list[tuple[float, int, int]] = []
    requests_total = len(times)
    dropped = 0
    bytes_flow = 0
    measured_flow_s = 0.0
    responses: list[float] = []

    src_ctrl = ctrl_of[srcs] if requests_total else np.zeros(0, dtype=np.int64)
    for r in range(requests_total):
        events.append((float(times[r]), EV_ARRIVAL, int(leo_ids[srcs[r]])))

    runtimes = {
        k: ControllerRuntime(k, params.capacity_of(k, roles[k]), emu.queue_window_s)
        for k in active
    }

    # uncovered sources never reach a controller
    uncovered_requests = np.nonzero(src_ctrl < 0)[0]
    for r in uncovered_requests:
        dropped += 1
        events.append((float(times[r]), EV_DROPPED, int(leo_ids[srcs[r]])))

    managed = np.nonzero(src_ctrl >= 0)[0]
    t_at_ctrl = times[managed] + req_cost[srcs[managed]]
    bytes_flow += req_len * len(managed)
    measured_flow_s += float(mfl_cost[srcs[managed]].sum())
    for pos, r in enumerate(managed):
        events.append((float(t_at_ctrl[pos]), EV_AT_CONTROLLER, int(src_ctrl[r])))

    order = np.lexsort((np.arange(len(managed)), t_at_ctrl, src_ctrl[managed]))
    for pos in order:
        r = managed[pos]
        k = int(src_ctrl[r])
        runtime = runtimes[k]
        ta = float(t_at_ctrl[pos])
        wait = runtime.busy_until - ta
        if wait > runtime.queue_window_s:
            dropped += 1
            events.append((ta, EV_DROPPED, k))
            continue
        dst_k = int(ctrl_of[dsts[r]])
        if dst_k < 0:
            dropped += 1
            events.append((ta, EV_DROPPED, k))
            continue
        start = max(runtime.busy_until, ta)
        intra = dst_k == k
        runtime.busy_until = start + (service_intra[k] if intra else service_inter[k])
        ready = (
            runtime.busy_until
            if intra
            else runtime.busy_until + cc_rtt[ctrl_row[k]][ctrl_row[dst_k]]
        )
        events.append((runtime.busy_until, EV_SERVED, k))

        path = _walk_path(preds, int(srcs[r]), int(dsts[r]))
        bytes_flow += params.m_fl_bytes * len(path)
        if not intra:
            bytes_flow += 2 * params.m_fl_bytes
        delivery = float(deliver[ctrl_row[k], path].max())
        resp_at = ready + delivery
        responses.append(resp_at - float(times[r]))
        events.append((resp_at, EV_RESPONSE, int(leo_ids[srcs[r]])))

    # edge synchronization ticks
    e_counts = {k: intra_domain_edges(set(domains[k]), snap) for k in active}
    intra_delay = {
        k: hop_cost(snap, params, list(domains[k]), k, e_counts[k] * params.m_sync_bytes).max()
        for k in active
    }
    n_ticks = int(np.floor(duration * params.f_sync_hz + 1e-9))
    per_tick_bytes = sum(e_counts[k] * params.m_sync_bytes for k in active)
    if nd > 1:
        per_tick_bytes += sum(
            (nd - 1) * len(domains[k]) * params.m_sync_bytes for k in active
        )
    bytes_sync = n_ticks * per_tick_bytes
    for m in range(n_ticks):
        events.append((slot.start_s + m / params.f_sync_hz, EV_SYNC, -1))
    sync_delay_mean = float(np.mean([intra_delay[k] for k in active])) if active else 0.0

    # handover notifications at the slot boundary
    migrated = sum(count_migrations(prev_assignment, assignment).values())
    bytes_ho = migrated * params.migration.ho_msg_bytes
    for _ in range(migrated):
        events.append((slot.end_s, EV_HANDOVER, -1))

    events.sort(key=lambda e: e[0])
    digest = hashlib.sha256()
    for t, code, node in events:
        digest.update(struct.pack(">dii", t, code, node))

    resp = np.array(responses)
    return EmulationStats(
        slot_index=slot.index,
        strategy=strategy or assignment.strategy,
        gamma=gamma,
        seed=seed,
        duration_s=duration,
        requests_total=requests_total,
        requests_dropped=dropped,
        drop_rate=dropped / requests_total if requests_total else 0.0,
        resp_mean_s=float(resp.mean()) if resp.size else 0.0,
        resp_median_s=float(np.median(resp)) if resp.size else 0.0,
        resp_p95_s=float(np.percentile(resp, 95)) if resp.size else 0.0,
        sync_delay_mean_s=sync_delay_mean,
        bytes_flow=int(bytes_flow),
        bytes_sync=int(bytes_sync),
        bytes_handover=int(bytes_ho),
        measured_w_flow=measured_flow_s / duration if duration > 0 else 0.0,
        migrated=migrated,
        trace_hash=digest.hexdigest(),
    )


@dataclass
class RunResult:
    strategy: str
    gamma: float
    seed: int
    stats: list[EmulationStats]
    reports: list  # OverheadReport per slot
    migrations: int


def partition_chain(
    scn: "Scenario",
    strategy: str,
    gamma: float,
    seed: int,
    lookahead_override: float | None = None,
) -> list[DomainAssignment]:
    """Partition every slot in order, feeding each slot the previous slot's
    traffic and assignment."""
    ctx = scn.ctx
    if lookahead_override is not None:
        ctx = replace(ctx, lookahead_s=lookahead_override)
    assignments: list[DomainAssignment] = []
    prev: DomainAssignment | None = None
    for t, geom in enumerate(scn.geometries):
        slot = geom.slot
        if strategy == "eunomia":
            traffic_in = scale(scn.base_traffic[max(t - 1, 0)], gamma)
            current = partition_slot(ctx, slot, traffic_in, prev, seed, geometry=geom)
        elif strategy == "odc":
            current = odc_partition(ctx, slot)
        elif strategy == "greedy":
            current = greedy_partition(ctx, slot, geometry=geom)
        else:
            raise ValueError(f"unknown strategy: {strategy}")
        assignments.append(current)
        prev = current
    return assignments


def run_scenario(
    scn: "Scenario",
    strategy: str,
    gammas: list[float],
    seeds: list[int],
) -> list[RunResult]:
    """Partition and emulate every slot for each (gamma, seed) combination."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy: {strategy}, expected one of {STRATEGIES}")
    results: list[RunResult] = []
    static_chain: list[DomainAssignment] | None = None
    for gamma in gammas:
        for seed in seeds:
            if strategy == "eunomia":
                chain = partition_chain(scn, strategy, gamma, seed)
            else:
                if static_chain is None:
                    static_chain = partition_chain(scn, strategy, gamma, seed)
                chain = static_chain
            stats: list[EmulationStats] = []
            reports = []
            migrations = 0
            prev: DomainAssignment | None = None
            for t, geom in enumerate(scn.geometries):
                slot = geom.slot
                assignment = chain[t]
                st = run_slot(
                    slot,
                    assignment,
                    scn.base_traffic[t],
                    scn.ctx.overhead_params,
                    scn.emu_params,
                    seed,
                    gamma=gamma,
                    prev_assignment=prev,
                    fov_domains=geom.fov_domains,
                    strategy=strategy,
                )
                report = evaluate(
                    assignment,
                    scale(scn.base_traffic[t], gamma),
                    slot.snapshot,
                    scn.ctx.overhead_params,
                    geom.fov_domains,
                    prev_assignment=prev,
                    slot_duration_s=slot.end_s - slot.start_s,
                    validate=False,
                )
                report.drop_rate = st.drop_rate
                stats.append(st)
                reports.append(report)
                migrations += st.migrated
                prev = assignment
            results.append(
                RunResult(
                    strategy=strategy,
                    gamma=gamma,
                    seed=seed,
                    stats=stats,
                    reports=reports,
                    migrations=migrations,
                )
            )
    return results

"""Scalar reference for ``emulator.run_slot``: one Python step per request.

The per-request pipeline is written the direct way: an all-pairs hop-count
Dijkstra over the ISL graph, each flow path walked node by node, one FIFO
queue object per controller, every event appended to a list, the list sorted
by time and packed into the hash one event at a time. The control routes,
delivery and controller round-trip costs come from the package, so a
mismatch points at the per-request pipeline. ``route_costs`` prices each
route as a tuple of node ids, padded to a common length and summed by a
running ``cumsum``: the reference for ``overhead.path_costs``' walk.
"""
import hashlib
import struct

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from eunomia.codecs import FlowRequest, encode_flow_request
from eunomia.emulator import (
    EV_ARRIVAL,
    EV_AT_CONTROLLER,
    EV_DROPPED,
    EV_HANDOVER,
    EV_RESPONSE,
    EV_SERVED,
    EV_SYNC,
    EmulationStats,
    generate_arrivals,
)
from eunomia.overhead import (
    ConstraintViolationError,
    control_routes,
    count_migrations,
    hop_cost,
    validate_assignment,
)

import conftest


class _Queue:
    def __init__(self, window_s):
        self.window_s = window_s
        self.busy_until = 0.0


def _all_pairs_preds(snapshot):
    n = len(snapshot.leo_ids)
    rows, cols = [], []
    for a, b in snapshot.topology.edge_array.tolist():
        rows += [a, b]
        cols += [b, a]
    graph = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    _, preds = shortest_path(graph, method="D", unweighted=True, return_predecessors=True)
    return preds


def _walk_path(preds, src, dst):
    if src == dst or preds[src, dst] < 0:
        return [src]
    path = [dst]
    node = dst
    while node != src:
        node = int(preds[src, node])
        path.append(node)
    path.reverse()
    return path


def _intra_edges(members, snapshot):
    return sum(
        1 for a, b in snapshot.topology.edge_array.tolist() if a in members and b in members
    )


def route_costs(routes, snapshot, params, msg_bytes) -> list[float]:
    """Cost of each control path, a tuple of node ids: its hop costs summed
    in path order."""
    if not routes:
        return []
    length = max(len(r) for r in routes)
    # repeat each route's last node up to the common length; the padding hops cost 0
    padded = np.array([r + r[-1:] * (length - len(r)) for r in routes])
    src, dst = padded[:, :-1], padded[:, 1:]
    costs = np.where(src == dst, 0.0, hop_cost(snapshot, params, src, dst, msg_bytes))
    # a running sum adds one hop at a time
    return np.cumsum(costs, axis=1)[:, -1].tolist()


def oracle_run_slot(slot, assignment, base_traffic, params, emu, seed, fov_domains, gamma=1.0,
                    prev_assignment=None, strategy=""):
    snap = slot.snapshot
    duration = slot.end_s - slot.start_s
    violations = validate_assignment(assignment, snap, fov_domains)
    if violations:
        raise ConstraintViolationError(violations)

    leo_ids = base_traffic.leo_ids
    n = len(leo_ids)
    roles = snap.roles

    routes = conftest.route_paths(control_routes(assignment, snap, fov_domains))
    routed = list(routes)
    req_len = len(encode_flow_request(FlowRequest()))
    req_cost = np.zeros(n)
    mfl_cost = np.zeros(n)
    req_cost[routed] = route_costs(list(routes.values()), snap, params, req_len)
    mfl_cost[routed] = route_costs(list(routes.values()), snap, params, params.m_fl_bytes)

    domains = conftest.domains(assignment)
    ctrl_of = np.full(n, -1, dtype=np.int64)
    for k, members in domains.items():
        ctrl_of[list(members)] = k

    active = sorted(domains)
    nd = len(active)
    ctrl_row = {k: r for r, k in enumerate(active)}
    service_intra = {
        k: params.cpt_cost(len(domains[k])) / params.capacity_of(k, roles[k]) for k in active
    }
    service_inter = {k: params.cpt_cost(nd) / params.capacity_of(k, roles[k]) for k in active}
    act = np.array(active, dtype=np.int64)
    cc_hop = hop_cost(snap, params, act[:, None], act, params.m_fl_bytes)
    cc_rtt = (2.0 * cc_hop).tolist()
    deliver = hop_cost(snap, params, act[:, None], np.array(leo_ids), params.m_fl_bytes)
    if nd:
        owner_row = np.array([ctrl_row.get(k, 0) for k in ctrl_of.tolist()])
        relayed = (ctrl_of >= 0) & (ctrl_of != act[:, None])
        deliver = np.where(relayed, deliver + cc_hop[:, owner_row], deliver)

    preds = _all_pairs_preds(snap)

    times, srcs, dsts, marks = generate_arrivals(base_traffic, duration, seed, slot.index)
    keep = marks < gamma
    times, srcs, dsts = times[keep] + slot.start_s, srcs[keep], dsts[keep]

    events = []
    requests_total = len(times)
    dropped = 0
    bytes_flow = 0
    measured_flow_s = 0.0
    responses = []

    src_ctrl = ctrl_of[srcs]
    for r in range(requests_total):
        events.append((float(times[r]), EV_ARRIVAL, int(srcs[r])))
    queues = {k: _Queue(emu.queue_window_s) for k in active}

    for r in np.nonzero(src_ctrl < 0)[0]:
        dropped += 1
        events.append((float(times[r]), EV_DROPPED, int(srcs[r])))

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
        queue = queues[k]
        ta = float(t_at_ctrl[pos])
        if queue.busy_until - ta > queue.window_s:
            dropped += 1
            events.append((ta, EV_DROPPED, k))
            continue
        dst_k = int(ctrl_of[dsts[r]])
        if dst_k < 0:
            dropped += 1
            events.append((ta, EV_DROPPED, k))
            continue
        start = max(queue.busy_until, ta)
        intra = dst_k == k
        queue.busy_until = start + (service_intra[k] if intra else service_inter[k])
        ready = (
            queue.busy_until if intra else queue.busy_until + cc_rtt[ctrl_row[k]][ctrl_row[dst_k]]
        )
        events.append((queue.busy_until, EV_SERVED, k))
        path = _walk_path(preds, int(srcs[r]), int(dsts[r]))
        bytes_flow += params.m_fl_bytes * len(path)
        if not intra:
            bytes_flow += 2 * params.m_fl_bytes
        resp_at = ready + float(deliver[ctrl_row[k], path].max())
        responses.append(resp_at - float(times[r]))
        events.append((resp_at, EV_RESPONSE, int(srcs[r])))

    e_counts = {k: _intra_edges(set(domains[k]), snap) for k in active}
    intra_delay = {
        k: hop_cost(snap, params, list(domains[k]), k, e_counts[k] * params.m_sync_bytes).max()
        for k in active
    }
    n_ticks = int(np.floor(duration * params.f_sync_hz + 1e-9))
    per_tick_bytes = sum(e_counts[k] * params.m_sync_bytes for k in active)
    if nd > 1:
        per_tick_bytes += sum((nd - 1) * len(domains[k]) * params.m_sync_bytes for k in active)
    for m in range(n_ticks):
        events.append((slot.start_s + m / params.f_sync_hz, EV_SYNC, -1))
    sync_delay_mean = float(np.mean([intra_delay[k] for k in active])) if active else 0.0

    migrated = sum(count_migrations(prev_assignment, assignment).values())
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
        bytes_sync=int(n_ticks * per_tick_bytes),
        bytes_handover=int(migrated * params.migration.ho_msg_bytes),
        measured_w_flow=measured_flow_s / duration if duration > 0 else 0.0,
        migrated=migrated,
        trace_hash=digest.hexdigest(),
    )

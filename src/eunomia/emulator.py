"""Deterministic control-plane emulation.

One slot is emulated on the queue its caller built from the slot plan and
arrivals. Flow
arrivals are Poisson processes drawn once per (slot, seed) at the gamma=1
rates and thinned per-arrival to the requested gamma, so runs with
different strategies or traffic scales share the same underlying
randomness. Each arrival sends a flow-table request over the source's
control path; the controller serves requests FIFO, taking
f(|domain|)/capacity per intra-domain request and f(#domains)/capacity plus
one controller-to-controller round trip per inter-domain request. A request
whose queueing delay would exceed the queue window is dropped, as is any
request from an unmanaged switch or toward an unmanaged destination. Flow
updates go to every node of the data path; edge synchronization ticks at the
sync frequency; handover notifications fire at the slot boundary for every
migrated switch.

The per-request work runs on arrays. A ``SlotQueue`` holds what does not
depend on gamma: the gamma = 1 queue order by (controller, arrival at
controller, index), and each served request's data path length and largest
delivery cost. Thinning keeps arrival order and the queue key is a total
order, so a gamma's queue is the subsequence of the gamma = 1 one that its
marks keep. The queue's order and path lengths and the arrivals' LEO ids are
kept in their ``index_dtype`` (int16 at the presets), and a run converts them
to intp once to index with them. Data paths are shortest ISL hop paths,
walked back from every destination at once over the requesting sources'
predecessor trees (which the shared ISL topology computes once per source and
keeps, holding no tree of a source that never sent a served request), and
only for requests that no earlier run on the queue has served. The one
sequential step is each controller's FIFO recurrence, busy = max(busy,
arrival) + service, with the queue-window drop; requests that find their
controller idle are served in one array step and only busy stretches run in
Python. Only a caller that asks for it (``trace=True``, as the tests that pin
it do) gets the event trace: (time, code, node) columns in generation order,
stably sorted by time, and hashed as one big-endian structured array for
reproducibility checks.

``run_scenario`` keeps on the scenario, for later calls: each partition
chain, each slot's plan per assignment content, its gamma = 1 arrivals per
seed and its queue per (seed, assignment content), and each slot's overhead
report per (chain, gamma). The assignment content is ``overhead.plan_key``:
the bytes of the assignment's controller array, its FOV waiver and its
relay controllers.
"""
from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING, Literal, get_args

import numpy as np

from .codecs import FLOW_REQUEST_FIXED_BYTES
from .constellation import index_dtype
from .overhead import (
    ConstraintViolationError,
    OverheadParams,
    OverheadReport,
    SlotPlan,
    count_migrations,
    evaluate,
    plan_key,
    slot_plan,
    validate_assignment,  # noqa: F401  (benchmarks/tests/test_bench_tracing.py patches it here)
)
from .partition import (
    DomainAssignment,
    greedy_partition,
    odc_partition,
    partition_slot,
)
from .traffic import TrafficMatrix, check_gamma, scale
from .visibility import TimeSlot

if TYPE_CHECKING:
    from .scenario import Scenario

Strategy = Literal["eunomia", "odc", "greedy"]
STRATEGIES: tuple[str, ...] = get_args(Strategy)

# event codes for the trace
EV_ARRIVAL = 1
EV_AT_CONTROLLER = 2
EV_SERVED = 3
EV_DROPPED = 4
EV_RESPONSE = 5
EV_SYNC = 6
EV_HANDOVER = 7
# one trace record: the 16 bytes of struct.pack(">dii", t, code, node)
TRACE_DTYPE = np.dtype([("t", ">f8"), ("c", ">i4"), ("n", ">i4")])
# traffic block rows per Poisson draw in generate_arrivals: the draw's
# temporaries stay small however many rates the slot has
_ARRIVAL_ROWS = 64


@dataclass(frozen=True)
class EmulatorParams:
    queue_window_s: float = 1.0  # backlog bound, in seconds of controller capacity

    def __post_init__(self) -> None:
        if not self.queue_window_s >= 0.0:
            raise ValueError(f"queue_window_s: {self.queue_window_s} is negative")


# stats.csv column -> EmulationStats field, in column order
_CSV_FIELDS = {
    "slot": "slot_index", "strategy": "strategy", "gamma": "gamma", "seed": "seed",
    "requests": "requests_total", "drops": "requests_dropped", "drop_rate": "drop_rate",
    "mean_resp_s": "resp_mean_s", "p95_resp_s": "resp_p95_s",
    "sync_delay_s": "sync_delay_mean_s", "bytes_flow": "bytes_flow",
    "bytes_sync": "bytes_sync", "bytes_ho": "bytes_handover",
}


@dataclass
class EmulationStats:
    """One slot's emulation outcome. ``trace_hash`` is the SHA-256 of the
    slot's event trace, built only when ``run_slot`` is asked for it, and
    None otherwise."""

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
    trace_hash: str | None

    def to_row(self) -> dict:
        return {column: getattr(self, name) for column, name in _CSV_FIELDS.items()}


CSV_COLUMNS = list(_CSV_FIELDS)


def generate_arrivals(
    base_traffic: TrafficMatrix, duration_s: float, seed: int, slot_index: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Poisson arrivals at the gamma=1 rates: (times, src ids, dst ids, marks),
    the ids in the ``index_dtype`` of the LEO count.

    Marks are uniform [0, 1) thinning labels: keeping arrivals with
    mark < gamma yields exact Poisson(gamma * rate) processes nested across
    gamma values, which makes drop counts comparable across traffic scales.

    The counts are drawn over the block's nonzero rates in row-major order
    (so over LEO ids too), ``_ARRIVAL_ROWS`` block rows per ``rng.poisson``
    call, keeping only the entries drawn positive. The generator draws
    element by element in C order, so the calls consume it exactly as one
    call over every nonzero rate would.
    """
    rng = np.random.default_rng([seed, slot_index])
    ids = base_traffic.active.astype(index_dtype(len(base_traffic.leo_ids)))
    rates = base_traffic.rates
    k = len(rates)
    picks, counts = [], []
    for lo in range(0, max(k, 1), _ARRIVAL_ROWS):  # one empty block when k = 0
        flat = rates[lo : lo + _ARRIVAL_ROWS].ravel()
        nz = np.flatnonzero(flat)
        drawn = rng.poisson(flat[nz] * duration_s)
        hit = drawn > 0
        picks.append(lo * k + nz[hit])
        counts.append(drawn[hit])
    a, b = np.divmod(np.concatenate(picks), k)
    count = np.concatenate(counts)
    total = int(count.sum())
    srcs = np.repeat(ids[a], count)
    dsts = np.repeat(ids[b], count)
    times = rng.random(total) * duration_s
    marks = rng.random(total)
    order = np.argsort(times, kind="stable")
    return times[order], srcs[order], dsts[order], marks[order]


def _walk_paths(
    trees: np.ndarray, rows: np.ndarray, src: np.ndarray, dst: np.ndarray,
    cost: np.ndarray, cost_rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Node count and largest ``cost[cost_rows[i], node]`` over the ISL path
    of each flow ``src[i] -> dst[i]``, walking the predecessor tree
    ``trees[rows[i]]`` of its source (as ``IslTopology.hop_predecessors``
    gives them) back from the destination, all flows one hop per step. A
    flow to its own source, or to a node it cannot reach, has the one-node
    path [src]."""
    node = np.where(trees[rows, dst] >= 0, dst, src)
    length = np.ones(len(node), dtype=np.int64)
    worst = cost[cost_rows, node]
    live = np.flatnonzero(node != src)
    while live.size:
        node[live] = trees[rows[live], node[live]]
        length[live] += 1
        worst[live] = np.maximum(worst[live], cost[cost_rows[live], node[live]])
        live = live[node[live] != src[live]]
    return length, worst


def _serve_fifo(
    ctrl: np.ndarray, arrive: np.ndarray, service: np.ndarray, window_s: float
) -> np.ndarray:
    """Completion time of each request, NaN where the queue window drops it.

    Requests come grouped by controller, in queue order within a group; each
    controller starts idle and serves FIFO, ``busy = max(busy, ta) + s``,
    dropping a request that would wait longer than ``window_s``.

    A request finds its controller idle, and completes at ``ta + s``, when it
    arrives after the busy time left by its predecessor in the group (0 for
    the first) and is not dropped. Where that predecessor found it idle too,
    the busy time is the predecessor's ``ta + s``, so all such requests are
    settled in one array step; the recurrence runs in Python only from each
    other request to the next one that finds its controller idle.
    """
    done = arrive + service
    n = len(done)
    opens = np.ones(n, dtype=bool)
    opens[1:] = ctrl[1:] != ctrl[:-1]
    before = np.zeros(n)
    before[1:] = done[:-1]
    before[opens] = 0.0
    contended = np.flatnonzero(~((arrive > before) & ~(before - arrive > window_s)))
    if not contended.size:
        return done
    # the end of each contended request's group
    group_end = np.append(np.flatnonzero(opens)[1:], n)[np.cumsum(opens)[contended] - 1]
    done_l, arrive_l, service_l = done.tolist(), arrive.tolist(), service.tolist()
    settled = 0  # done_l[:settled] is final, and request settled - 1 found its controller idle
    for c, end, first in zip(contended.tolist(), group_end.tolist(), opens[contended].tolist()):
        if c < settled:
            continue
        busy = 0.0 if first else done_l[c - 1]
        for i in range(c, end):
            ta = arrive_l[i]
            if busy - ta > window_s:
                done_l[i] = np.nan
            elif ta > busy:  # idle: max(busy, ta) is ta
                done_l[i] = busy = ta + service_l[i]
                break
            else:
                done_l[i] = busy = busy + service_l[i]
        settled = i + 1
    return np.array(done_l)


def _trace_hash(blocks: list[tuple]) -> str:
    """SHA-256 of the events of ``blocks``, (times, codes, nodes) with scalar
    codes or nodes repeated, laid end to end, stably sorted by time and
    packed as records."""
    total = sum(len(times) for times, _, _ in blocks)
    t = np.empty(total)
    codes = np.empty(total, dtype=np.int32)
    nodes = np.empty(total, dtype=np.int32)
    at = 0
    for block_t, block_c, block_n in blocks:
        end = at + len(block_t)
        t[at:end], codes[at:end], nodes[at:end] = block_t, block_c, block_n
        at = end
    by_time = np.argsort(t, kind="stable")
    trace = np.empty(total, dtype=TRACE_DTYPE)
    trace["t"], trace["c"], trace["n"] = t[by_time], codes[by_time], nodes[by_time]
    return hashlib.sha256(trace.tobytes()).hexdigest()


def _median_p95(values: np.ndarray) -> tuple[float, float]:
    """``np.median(values)`` and ``np.percentile(values, 95)`` from one
    partition of the order statistics they read, by numpy's own formulas: the
    mean of the middle pair (``_median``), and the linear method's lerp at the
    virtual index (n - 1) * 0.95 (``_quantile`` with ``_get_indexes``,
    ``_get_gamma`` and ``_lerp``). ``values`` is non-empty, with no NaN and no
    -0.0 beside a 0.0, between which numpy's own partition order would pick."""
    n = len(values)
    mid = [n // 2 - 1, n // 2] if n % 2 == 0 else [n // 2]
    virtual = (n - 1) * 0.95
    lo = math.floor(virtual)
    hi = lo + 1
    if virtual >= n - 1:  # only at n = 1: both sides read the last value
        lo = hi = -1
    gamma = virtual - lo
    s = np.partition(values, sorted({*mid, lo % n, hi % n})).tolist()
    # the mean sums from the additive identity, so a -0.0 median reads 0.0
    median = (0.0 + s[mid[0]] + s[mid[-1]]) / 2.0 if n % 2 == 0 else 0.0 + s[mid[0]]
    a, b = s[lo], s[hi]
    diff = b - a
    return median, b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma


@dataclass(eq=False)
class SlotQueue:
    """One slot's gamma = 1 arrivals for one seed, queued under one slot plan.

    ``order`` lists the managed arrivals (indices into ``arrivals``) by
    (controller, arrival at controller, index); a gamma's queue is the
    subsequence its marks keep. ``path_len`` and ``delivery`` hold each
    queued request's data path length and largest delivery cost, filled
    when a run first serves it (``path_len`` 0 until then). ``order`` is in
    the ``index_dtype`` of the arrival count and ``path_len`` in that of the
    LEO count, int16 at the presets.
    """

    plan: SlotPlan
    arrivals: tuple[np.ndarray, ...]
    order: np.ndarray
    path_len: np.ndarray
    delivery: np.ndarray


def queue_arrivals(
    slot: TimeSlot, plan: SlotPlan, arrivals: tuple[np.ndarray, ...]
) -> SlotQueue:
    """The ``SlotQueue`` of ``arrivals``, a ``generate_arrivals`` draw for
    ``slot``, under ``plan``."""
    times, srcs, _, _ = arrivals
    src_ctrl = plan.ctrl_of[srcs]
    managed = np.flatnonzero(src_ctrl >= 0)
    t_at_ctrl = (times[managed] + slot.start_s) + plan.req_cost[srcs[managed]]
    order = managed[np.lexsort((managed, t_at_ctrl, src_ctrl[managed]))]
    return SlotQueue(
        plan=plan,
        arrivals=arrivals,
        order=order.astype(index_dtype(len(times))),
        path_len=np.zeros(len(order), dtype=index_dtype(len(slot.snapshot.leo_ids))),
        delivery=np.zeros(len(order)),
    )


def _paths(
    slot: TimeSlot, queue: SlotQueue, served: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Data path length and largest delivery cost of the requests at queue
    positions ``served``, walking only those no earlier run has served."""
    todo = served[queue.path_len[served] == 0]
    if todo.size:
        _, srcs, dsts, _ = queue.arrivals
        flows = queue.order[todo].astype(np.intp)
        src, dst = srcs[flows].astype(np.intp), dsts[flows].astype(np.intp)  # once per walk
        plan = queue.plan
        queue.path_len[todo], queue.delivery[todo] = _walk_paths(
            *slot.snapshot.topology.hop_predecessors(src), src, dst,
            plan.deliver, plan.row_of[plan.ctrl_of[src]],
        )
    return queue.path_len[served], queue.delivery[served]


def run_slot(
    slot: TimeSlot,
    assignment: DomainAssignment,
    queue: SlotQueue,
    params: OverheadParams,
    emu: EmulatorParams,
    seed: int,
    gamma: float = 1.0,
    prev_assignment: DomainAssignment | None = None,
    strategy: str = "",
    *,
    trace: bool = False,
) -> EmulationStats:
    """Emulate one slot under a fixed assignment; see the module docstring.

    ``queue`` is the ``queue_arrivals`` of the assignment's ``slot_plan``
    and the slot's ``generate_arrivals`` draw for ``seed``; it keeps the
    data paths this run walks for later runs on it. With ``trace`` the
    stats carry the hash of the slot's event trace. Raises ValueError
    unless gamma is in [0, 1], and ConstraintViolationError when the plan
    holds violations.
    """
    check_gamma(gamma)
    duration = slot.end_s - slot.start_s
    plan, arrivals = queue.plan, queue.arrivals
    if plan.violations:
        raise ConstraintViolationError(list(plan.violations))

    ctrl_of, row_of = plan.ctrl_of, plan.row_of
    cc_rtt = 2.0 * plan.cc_hop

    all_times, all_srcs, all_dsts, marks = arrivals
    keep = marks < gamma
    srcs = all_srcs[keep].astype(np.intp)
    requests_total = len(srcs)
    src_ctrl = ctrl_of[srcs]

    # uncovered sources never reach a controller; the rest arrive over their
    # control path and queue at their controller
    uncovered = src_ctrl < 0
    managed = np.flatnonzero(~uncovered)
    measured_flow_s = float(plan.mfl_cost[srcs[managed]].sum())
    # positions in the gamma = 1 queue, and the gamma = 1 arrivals there
    order = queue.order.astype(np.intp)  # converted once, not at each gather below
    in_queue = np.flatnonzero(keep[order])
    queued = order[in_queue]
    q_srcs = all_srcs[queued].astype(np.intp)
    k_q, dst_k = ctrl_of[q_srcs], ctrl_of[all_dsts[queued]]
    ta_q = (all_times[queued] + slot.start_s) + plan.req_cost[q_srcs]
    intra = dst_k == k_q
    service = np.where(intra, plan.service_intra[row_of[k_q]], plan.service_inter[row_of[k_q]])

    # a request toward an unmanaged destination is dropped without touching
    # its controller's queue; every other request runs the FIFO recurrence
    done = np.full(len(queued), np.nan)
    ok = np.flatnonzero(dst_k >= 0)
    done[ok] = _serve_fifo(k_q[ok], ta_q[ok], service[ok], emu.queue_window_s)
    lost = np.isnan(done)
    served = np.flatnonzero(~lost)
    r_s, k_s, intra_s = queued[served], k_q[served], intra[served]
    finish = done[served]
    ready = np.where(intra_s, finish, finish + cc_rtt[row_of[k_s], row_of[dst_k[served]]])

    # flow updates reach every node of the data path
    path_len, delivery = _paths(slot, queue, in_queue[served])
    resp_at = ready + delivery
    resp = resp_at - (all_times[r_s] + slot.start_s)
    bytes_flow = FLOW_REQUEST_FIXED_BYTES * len(managed) + params.m_fl_bytes * (
        int(path_len.sum()) + 2 * int(np.count_nonzero(~intra_s))
    )
    dropped = int(np.count_nonzero(uncovered)) + len(queued) - len(served)

    # edge synchronization ticks
    n_ticks = int(np.floor(duration * params.f_sync_hz + 1e-9))
    bytes_sync = n_ticks * plan.sync_bytes_per_tick

    # handover notifications at the slot boundary
    migrated = sum(count_migrations(prev_assignment, assignment).values())
    bytes_ho = migrated * params.migration.ho_msg_bytes

    trace_hash = None
    if trace:
        # the trace in generation order; per queued request, its drop or its
        # service, and after a service the response
        times = all_times[keep] + slot.start_s
        t_at_ctrl = times[managed] + plan.req_cost[srcs[managed]]
        first = np.arange(len(queued))
        first[1:] += np.cumsum(~lost[:-1])
        q_t = np.empty(len(queued) + len(served))
        q_c = np.empty(len(q_t), dtype=np.int32)
        q_n = np.empty(len(q_t), dtype=np.int32)
        q_t[first] = np.where(lost, ta_q, done)
        q_c[first] = np.where(lost, EV_DROPPED, EV_SERVED)
        q_n[first] = k_q
        response = first[served] + 1
        q_t[response], q_c[response], q_n[response] = resp_at, EV_RESPONSE, q_srcs[served]
        trace_hash = _trace_hash([
            (times, EV_ARRIVAL, srcs),
            (times[uncovered], EV_DROPPED, srcs[uncovered]),
            (t_at_ctrl, EV_AT_CONTROLLER, src_ctrl[managed]),
            (q_t, q_c, q_n),
            (slot.start_s + np.arange(n_ticks) / params.f_sync_hz, EV_SYNC, -1),
            (np.full(migrated, slot.end_s), EV_HANDOVER, -1),
        ])

    median, p95 = _median_p95(resp) if resp.size else (0.0, 0.0)
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
        resp_median_s=median,
        resp_p95_s=p95,
        sync_delay_mean_s=plan.sync_delay_mean,
        bytes_flow=int(bytes_flow),
        bytes_sync=int(bytes_sync),
        bytes_handover=int(bytes_ho),
        measured_w_flow=measured_flow_s / duration if duration > 0 else 0.0,
        migrated=migrated,
        trace_hash=trace_hash,
    )


@dataclass
class RunResult:
    strategy: str
    gamma: float
    seed: int
    stats: list[EmulationStats]
    reports: list[OverheadReport]  # per slot
    migrations: int


def _chain_gamma(strategy: str, gamma: float) -> float:
    """The gamma a chain is built at: the odc and greedy partitioners do not
    read it, so theirs is always 1."""
    return 1.0 if strategy in ("odc", "greedy") else gamma


def partition_chain(
    scn: "Scenario",
    strategy: str,
    gamma: float,
    seed: int | None = None,
) -> list[DomainAssignment]:
    """Partition every slot in order, feeding each slot the previous slot's
    traffic and assignment.

    No partitioner draws random numbers, so the chain ignores ``seed``. Each
    chain is built once per (strategy, gamma) and kept on ``scn``; the odc
    and greedy chains do not read gamma, so each has one.
    """
    gamma = _chain_gamma(strategy, gamma)
    return list(scn.memo(("chain", strategy, gamma), partial(_chain, scn, strategy, gamma)))


def _scaled(scn: "Scenario", t: int, gamma: float) -> TrafficMatrix:
    """Slot ``t``'s traffic at ``gamma``, built on each call and not kept:
    whatever reads it is kept instead."""
    return scale(scn.base_traffic[t], gamma)


def _report(scn: "Scenario", t: int, gamma: float, assignment: DomainAssignment,
            *args, **kwargs) -> OverheadReport:
    """``evaluate`` of ``assignment`` on slot ``t``'s traffic at ``gamma``."""
    return evaluate(assignment, _scaled(scn, t, gamma), *args, **kwargs)


def _chain(scn: "Scenario", strategy: str, gamma: float) -> list[DomainAssignment]:
    ctx = scn.ctx
    assignments: list[DomainAssignment] = []
    prev: DomainAssignment | None = None
    for t, geom in enumerate(scn.geometries):
        if strategy == "eunomia":
            current = partition_slot(ctx, geom, _scaled(scn, max(t - 1, 0), gamma), prev)
        elif strategy == "odc":
            current = odc_partition(ctx, geom)
        elif strategy == "greedy":
            current = greedy_partition(ctx, geom)
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
    *,
    trace: bool = False,
) -> list[RunResult]:
    """Partition and emulate every slot for each (gamma, seed) combination.

    Everything a run builds that another run can reuse is kept on ``scn``
    (see the module docstring); each run's reports are copies carrying its
    own drop rates. ``trace`` is passed to every ``run_slot``. Raises
    ValueError for an unknown strategy, a gamma outside [0, 1] or a seed
    that is not a non-negative integer before any work.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy: {strategy}, expected one of {STRATEGIES}")
    for gamma in gammas:
        check_gamma(gamma)
    for seed in seeds:
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    params = scn.ctx.overhead_params
    results: list[RunResult] = []
    for gamma in gammas:
        chain_gamma = _chain_gamma(strategy, gamma)
        for seed in seeds:
            chain = partition_chain(scn, strategy, gamma)
            stats: list[EmulationStats] = []
            reports: list[OverheadReport] = []
            migrations = 0
            prev: DomainAssignment | None = None
            for t, geom in enumerate(scn.geometries):
                slot = geom.slot
                duration = slot.end_s - slot.start_s
                assignment = chain[t]
                key = plan_key(assignment)
                plan = scn.memo(
                    ("plan", t, key),
                    partial(slot_plan, assignment, slot.snapshot, params, geom.fov_domains),
                )
                arrivals = scn.memo(
                    ("arrivals", t, seed),
                    partial(generate_arrivals, scn.base_traffic[t], duration, seed, slot.index),
                )
                queue = scn.memo(
                    ("queue", t, seed, key), partial(queue_arrivals, slot, plan, arrivals)
                )
                st = run_slot(
                    slot,
                    assignment,
                    queue,
                    params,
                    scn.emu_params,
                    seed,
                    gamma=gamma,
                    prev_assignment=prev,
                    strategy=strategy,
                    trace=trace,
                )
                report = scn.memo(
                    ("report", strategy, chain_gamma, gamma, t),
                    partial(_report, scn, t, gamma, assignment, slot.snapshot, params,
                            geom.fov_domains, prev_assignment=prev, slot_duration_s=duration,
                            validate=False, plan=plan),
                )
                stats.append(st)
                reports.append(replace(report, drop_rate=st.drop_rate))
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

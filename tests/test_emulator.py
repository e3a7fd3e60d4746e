import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eunomia import emulator
from eunomia.codecs import FlowRequest, encode_flow_request
from eunomia.constellation import C_LIGHT_KM_S, Role
from eunomia.emulator import EmulatorParams, generate_arrivals, queue_arrivals, run_slot
from eunomia.overhead import (
    ConstraintViolationError,
    LinkClass,
    OverheadParams,
    flow_overhead,
    slot_plan,
)
from eunomia.traffic import scale

from conftest import (
    assignment,
    compact_traffic,
    domains,
    emulate,
    fov_array,
    make_ring_snapshot,
    make_slot,
)


def _traffic(snap, entries):
    n = len(snap.leo_ids)
    rates = np.zeros((n, n))
    for (i, j), lam in entries.items():
        rates[i, j] = lam
    return compact_traffic(snap.leo_ids, rates)


def _pair_world(lam=1.0):
    snap = make_ring_snapshot(n_leo=2, leo_lons=(0.0, 20.0), ctrl_lons=(10.0,))
    k = snap.controller_ids[0]
    fov = fov_array(snap, {k: {0, 1}})
    a = assignment(2, {0: k, 1: k})
    tm = _traffic(snap, {(0, 1): lam})
    return snap, k, fov, a, tm


def test_gamma_zero_yields_no_requests_but_sync_bytes():
    snap, k, fov, assignment, tm = _pair_world()
    stats = emulate(
        make_slot(snap, 120.0), assignment, tm, OverheadParams(), fov,
        seed=1, gamma=0.0,
    )
    assert stats.requests_total == 0
    assert stats.drop_rate == 0.0
    assert stats.bytes_flow == 0
    assert stats.bytes_sync > 0


def test_single_flow_response_delay_hand_value():
    snap, k, fov, assignment, tm = _pair_world(lam=0.01)
    params = OverheadParams()
    # find a seed giving exactly one arrival kept at gamma=1
    chosen = None
    for seed in range(1, 60):
        times, srcs, dsts, marks = generate_arrivals(tm, 100.0, seed, 0)
        if len(times) == 1:
            chosen = seed
            break
    assert chosen is not None
    stats = emulate(
        make_slot(snap, 100.0), assignment, tm, params, fov,
        seed=chosen, gamma=1.0,
    )
    assert stats.requests_total == 1
    assert stats.requests_dropped == 0

    req_len = len(encode_flow_request(FlowRequest()))
    bw = params.bandwidth_bps[LinkClass.MEO_LEO]
    d0k = float(np.linalg.norm(snap.positions[0] - snap.positions[k]))
    d1k = float(np.linalg.norm(snap.positions[1] - snap.positions[k]))
    req_cost = req_len * 8 / bw + d0k / C_LIGHT_KM_S
    service = 4.0 / 100.0  # f(2) ops at MEO capacity
    delivery = max(
        36 * 8 / bw + d0k / C_LIGHT_KM_S, 36 * 8 / bw + d1k / C_LIGHT_KM_S
    )
    assert stats.resp_mean_s == pytest.approx(req_cost + service + delivery, abs=1e-9)


def test_saturated_controller_drops_most_requests():
    snap, k, fov, assignment, tm = _pair_world(lam=100.0)
    params = OverheadParams(capacity_override_ops={k: 1.0})  # f(2)/1 = 4 s per request
    stats = emulate(
        make_slot(snap, 10.0), assignment, tm, params, fov,
        seed=3, gamma=1.0,
    )
    assert stats.requests_total > 500
    assert stats.drop_rate > 0.9


def test_uncovered_source_and_destination_drops():
    snap = make_ring_snapshot(n_leo=3, leo_lons=(0.0, 20.0, 180.0), ctrl_lons=(10.0,))
    k = snap.controller_ids[0]
    fov = fov_array(snap, {k: {0, 1}})
    a = assignment(3, {0: k, 1: k})
    tm = _traffic(snap, {(2, 0): 5.0, (0, 2): 5.0})
    stats = emulate(
        make_slot(snap, 200.0), a, tm, OverheadParams(), fov,
        seed=4, gamma=1.0,
    )
    assert stats.requests_total > 0
    assert stats.drop_rate == 1.0  # every flow touches the unmanaged switch


def test_run_slot_rejects_invalid_assignment():
    snap, k, fov, _, tm = _pair_world()
    bad = assignment(2, {0: k})  # LEO 1 unmanaged, though the controller sees it
    with pytest.raises(ConstraintViolationError):
        emulate(make_slot(snap), bad, tm, OverheadParams(), fov, seed=1)


@pytest.mark.parametrize("gamma", [1.5, -0.5, math.nan])
def test_run_slot_rejects_gamma_outside_unit_interval_before_any_work(gamma, monkeypatch):
    snap, k, fov, assignment, tm = _pair_world()
    slot = make_slot(snap)
    plan = slot_plan(assignment, snap, OverheadParams(), fov)
    queue = queue_arrivals(slot, plan, generate_arrivals(tm, 60.0, 1, 0))

    def no_work(*args, **kwargs):
        raise AssertionError("run_slot started work on a bad gamma")

    for name in ("_serve_fifo", "_paths", "_walk_paths", "_trace_hash"):
        monkeypatch.setattr(emulator, name, no_work)
    with pytest.raises(ValueError, match=r"gamma must be in \[0, 1\], got"):
        run_slot(slot, assignment, queue, OverheadParams(), EmulatorParams(), seed=1, gamma=gamma)


def _fifo_reference(ctrl, arrive, service, window_s):
    """The FIFO recurrence one request at a time."""
    done, current, busy = [], None, 0.0
    for k, ta, s in zip(ctrl.tolist(), arrive.tolist(), service.tolist()):
        if k != current:
            current, busy = k, 0.0
        if busy - ta > window_s:
            done.append(math.nan)
            continue
        busy = max(busy, ta) + s
        done.append(busy)
    return np.array(done, dtype=float)


# (controller, arrival, service) on a grid of ``unit``, so that arrivals tie
# and services are zero often; a small window against long services drops,
# and a negative one drops even requests that find their controller idle
fifo_requests = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 30), st.integers(0, 6)), max_size=80
)


@settings(max_examples=300, deadline=None)
@given(
    fifo_requests,
    st.sampled_from([-0.5, 0.0, 0.5, 1.0, 4.0]),
    st.sampled_from([0.25, 0.1, 1.0 / 3.0]),
    st.booleans(),
)
def test_serve_fifo_equals_the_sequential_recurrence(requests, window_s, unit, in_order):
    # grouped by controller; within a group in arrival order, or as drawn
    requests.sort(key=(lambda r: r[:2]) if in_order else (lambda r: r[0]))
    ctrl = np.array([r[0] for r in requests], dtype=np.int64)
    arrive = np.array([r[1] * unit for r in requests], dtype=float)
    service = np.array([r[2] * unit for r in requests], dtype=float)
    got = emulator._serve_fifo(ctrl, arrive, service, window_s)
    want = _fifo_reference(ctrl, arrive, service, window_s)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_trace_hash_deterministic_and_seed_sensitive():
    snap, k, fov, assignment, tm = _pair_world(lam=2.0)
    a, b, c = (
        emulate(make_slot(snap, 300.0), assignment, tm, OverheadParams(), fov, seed, gamma=0.7,
                trace=True)
        for seed in (5, 5, 6)
    )
    assert a.trace_hash == b.trace_hash
    assert a.trace_hash != c.trace_hash


def test_arrival_thinning_is_nested():
    snap, k, fov, assignment, tm = _pair_world(lam=3.0)
    times, srcs, dsts, marks = generate_arrivals(tm, 500.0, 11, 0)
    kept_small = set(np.nonzero(marks < 0.3)[0].tolist())
    kept_large = set(np.nonzero(marks < 0.8)[0].tolist())
    assert kept_small <= kept_large
    # thinning preserves the Poisson mean within sampling tolerance
    assert len(kept_large) / len(times) == pytest.approx(0.8, abs=0.05)


def test_drop_rate_nondecreasing_in_gamma():
    snap, k, fov, assignment, tm = _pair_world(lam=20.0)
    params = OverheadParams(capacity_override_ops={k: 10.0})
    for seed in (1, 2, 3):
        drops = []
        for gamma in (0.25, 0.5, 0.75, 1.0):
            stats = emulate(
                make_slot(snap, 120.0), assignment, tm, params, fov,
                seed=seed, gamma=gamma,
            )
            drops.append(stats.drop_rate)
        assert drops == sorted(drops)


def test_measured_flow_overhead_matches_analytic_when_drop_free():
    snap, k, fov, assignment, tm = _pair_world(lam=1.0)
    params = OverheadParams(capacity_override_ops={k: 1e9})
    for seed in (1, 2, 3):
        stats = emulate(
            make_slot(snap, 2000.0), assignment, tm, params, fov,
            seed=seed, gamma=1.0,
        )
        assert stats.requests_dropped == 0
        analytic = flow_overhead(assignment, tm, snap, params, fov)
        assert stats.measured_w_flow == pytest.approx(analytic, rel=0.05)


def test_sync_and_handover_byte_accounting():
    snap = make_ring_snapshot(n_leo=6, ctrl_lons=(0.0, 180.0), ctrl_radius_km=1e5)
    k1, k2 = snap.controller_ids
    fov = fov_array(snap, {k1: snap.leo_ids, k2: snap.leo_ids})
    prev = assignment(6, {i: k1 for i in snap.leo_ids})
    cur = assignment(6, {i: (k1 if i < 3 else k2) for i in snap.leo_ids}, slot_index=1)
    tm = _traffic(snap, {})
    params = OverheadParams(f_sync_hz=0.5)
    duration = 60.0
    stats = emulate(
        make_slot(snap, duration, index=1), cur, tm, params, fov,
        seed=1, gamma=1.0, prev_assignment=prev,
    )
    members = domains(cur)
    e1, e2 = (
        sum(1 for a, b in snap.topology.edge_array.tolist() if a in members[k] and b in members[k])
        for k in (k1, k2)
    )
    per_tick = (e1 + e2) * 24 + (len(members[k1]) + len(members[k2])) * 24  # 2 ctrls
    n_ticks = int(duration * 0.5)
    assert stats.bytes_sync == n_ticks * per_tick
    assert stats.migrated == 3
    assert stats.bytes_handover == 3 * params.migration.ho_msg_bytes

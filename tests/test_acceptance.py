"""Acceptance suite: one test per acceptance criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to see them all).
The desk scenario is the 66-switch shell with the 10354 km controller shell
and three ground stations over one full LEO orbital period at a 15 s step.
"""
import itertools
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from eunomia.constellation import (
    LEO_SHELLS,
    MEO_SHELLS,
    NINE_CITIES,
    R_EARTH_KM,
    Constellation,
    orbital_period,
)
from eunomia.emulator import partition_chain, run_scenario
from eunomia.hungarian import solve_lexicographic
from eunomia.overhead import (
    OverheadParams,
    count_migrations,
    evaluate,
    flow_overhead,
    validate_assignment,
)
from eunomia.partition import (
    PartitionContext,
    brute_force_partition,
    partition_slot,
    spectral_cluster,
)
from eunomia.scenario import desk_config
from eunomia.traffic import (
    TrafficParams,
    build_grid,
    cell_positions,
    city_density_field,
    demand_matrix,
    scale,
    slot_traffic_matrix,
)
from eunomia.visibility import DEFAULT_THRESHOLDS, FovTimeline, TimeSlot, build_slot_geometry

from conftest import corg_from_edges
from test_partition import _FakeSnap, _ncut_oracle, _toy_ctx, _toy_instance


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ------------------------------------------------------------------ 1


def test_criterion_1_orbital_validity():
    table = {3000.0: 150.46, 6000.0: 228.23, 8070.0: 287.93, 10354.0: 358.76}
    start = time.perf_counter()
    errors = {
        alt: abs(orbital_period(R_EARTH_KM + alt) / 60.0 - want) / want
        for alt, want in table.items()
    }
    elapsed = time.perf_counter() - start
    ok = all(err < 0.005 for err in errors.values()) and elapsed < 1.0
    assert _report(
        "1 orbital validity",
        ok,
        f"max rel err {max(errors.values()):.2e}, runtime {elapsed * 1e3:.2f} ms",
    )


# ------------------------------------------------------------------ 2


def test_criterion_2_constraint_suite(desk_scenario):
    scn = desk_scenario
    violations = 0
    slots = 0
    for strategy in ("eunomia", "odc", "greedy"):
        chain = partition_chain(scn, strategy, gamma=1.0, seed=scn.config.seeds[0])
        for geom, assignment in zip(scn.geometries, chain):
            slots += 1
            violations += len(
                validate_assignment(assignment, geom.slot.snapshot, geom.fov_domains)
            )
    ok = violations == 0
    assert _report(
        "2 constraint suite",
        ok,
        f"{slots} (strategy, slot) checks across {len(scn.slots)} slots, "
        f"{violations} violations",
    )


# ------------------------------------------------------------------ 3


def test_criterion_3_km_oracle():
    rng = np.random.default_rng(2024)
    exact = 0
    for _ in range(100):
        m = int(rng.integers(2, 7))
        cost = np.round(rng.uniform(0, 50, size=(m, m)), 1)  # ties are common
        best_total, lex_first = np.inf, None
        for perm in itertools.permutations(range(m)):
            total = sum(cost[i, perm[i]] for i in range(m))
            if total < best_total - 1e-9:
                best_total, lex_first = total, list(perm)
        got = solve_lexicographic(cost)
        if got == lex_first:
            exact += 1
    ok = exact == 100
    assert _report("3 KM oracle", ok, f"{exact}/100 matchings equal the exhaustive optimum")


# ------------------------------------------------------------------ 4


def _planted_corg(seed):
    rng = np.random.default_rng(seed)
    edges = {}
    group_a, group_b = (0, 1, 2), (3, 4, 5)
    for grp in (group_a, group_b):
        for a, b in itertools.combinations(grp, 2):
            edges[(a, b)] = float(rng.uniform(0.05, 0.3))
    edges[(2, 3)] = float(rng.uniform(1.5, 3.0))
    if rng.random() < 0.5:
        edges[(1, 4)] = float(rng.uniform(1.5, 3.0))
    for leo in group_a:
        edges[(leo, 100)] = float(rng.uniform(0.05, 0.3))
    for leo in group_b:
        edges[(leo, 101)] = float(rng.uniform(0.05, 0.3))
    return corg_from_edges(range(6), (100, 101), edges)


def _disconnected_corg(seed):
    rng = np.random.default_rng(seed)
    edges = {}
    for grp, virt in (((0, 1, 2), 100), ((3, 4, 5), 101)):
        for a, b in itertools.combinations(grp, 2):
            edges[(a, b)] = float(rng.uniform(0.05, 0.5))
        for leo in grp:
            edges[(leo, virt)] = float(rng.uniform(0.05, 0.5))
    return corg_from_edges(range(6), (100, 101), edges)


def test_criterion_4_spectral_oracle():
    ncut_matches = 0
    for t in range(20):
        corg = _planted_corg(1000 + t)
        clusters, fallback = spectral_cluster(corg, 2, snapshot=_FakeSnap(corg.node_ids))
        split = {frozenset(c.member_leo_ids) for c in clusters}
        if not fallback and _ncut_oracle(corg) in split:
            ncut_matches += 1
    component_matches = 0
    for t in range(20):
        corg = _disconnected_corg(2000 + t)
        clusters, fallback = spectral_cluster(corg, 2, snapshot=_FakeSnap(corg.node_ids))
        split = {frozenset(c.member_leo_ids): c.virtual_controller_id for c in clusters}
        if (
            not fallback
            and split.get(frozenset({0, 1, 2})) == 100
            and split.get(frozenset({3, 4, 5})) == 101
        ):
            component_matches += 1
    ok = ncut_matches >= 18 and component_matches == 20
    assert _report(
        "4 spectral oracle",
        ok,
        f"min-ncut matches {ncut_matches}/20 (need >= 18), "
        f"components {component_matches}/20 (need 20)",
    )


# ------------------------------------------------------------------ 5


def test_criterion_5_end_to_end_oracle():
    worst = 0.0
    for seed in range(10):
        snap, slot, geometry, tm = _toy_instance(seed + 100)
        ctx = _toy_ctx()
        heuristic = partition_slot(ctx, geometry, tm, None)
        _, best = brute_force_partition(ctx, geometry, tm)
        got = evaluate(
            heuristic, tm, snap, ctx.overhead_params, geometry.fov_domains, validate=False
        ).objective
        worst = max(worst, got / best)
    ok = worst <= 1.10
    assert _report(
        "5 end-to-end oracle", ok, f"worst objective ratio {worst:.4f} over 10 toys (cap 1.10)"
    )


# ------------------------------------------------------------------ 6


def test_criterion_6_analytic_emulated_consistency(desk_scenario):
    scn = desk_scenario
    gamma = 0.15  # light load keeps the centralized baseline drop-free
    worst = 0.0
    drops = 0
    for result in run_scenario(scn, "odc", [gamma], [1, 2, 3]):
        drops += sum(s.requests_dropped for s in result.stats)
        measured = sum(s.measured_w_flow * s.duration_s for s in result.stats)
        analytic = 0.0
        for t, geom in enumerate(scn.geometries):
            assignment_traffic = scale(scn.base_traffic[t], gamma)
            analytic += (
                flow_overhead(
                    _odc_assignment(scn, t),
                    assignment_traffic,
                    geom.slot.snapshot,
                    scn.ctx.overhead_params,
                    geom.fov_domains,
                )
                * (geom.slot.end_s - geom.slot.start_s)
            )
        worst = max(worst, abs(measured - analytic) / analytic)
    ok = drops == 0 and worst < 0.05
    assert _report(
        "6 analytic vs emulated",
        ok,
        f"drop-free={drops == 0}, worst relative W_FLOW gap {worst:.3%} over 3 seeds",
    )


_ODC_CACHE = {}


def _odc_assignment(scn, t):
    key = (id(scn), t)
    if key not in _ODC_CACHE:
        from eunomia.partition import odc_partition

        _ODC_CACHE[key] = odc_partition(scn.ctx, scn.geometries[t])
    return _ODC_CACHE[key]


# ------------------------------------------------------------------ 7


def test_criterion_7_codecs():
    from eunomia.codecs import (
        decode_edge_sync,
        decode_flow_request,
        decode_flow_update,
        encode_edge_sync,
        encode_flow_request,
        encode_flow_update,
    )

    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(1000):
        upd = _random_flow_update(rng)
        data = encode_flow_update(upd)
        assert len(data) == 36
        assert decode_flow_update(data) == upd
        sync = _random_edge_sync(rng)
        data = encode_edge_sync(sync)
        assert len(data) == 24
        back = decode_edge_sync(data)
        assert abs(back.weight - sync.weight) <= 1e-3
        req = _random_flow_request(rng)
        data = encode_flow_request(req)
        assert len(data) == 38 + len(req.payload)
        assert decode_flow_request(data) == req
        checked += 1
    assert _report("7 codec suite", checked == 1000, f"{checked} triple round-trips, exact lengths")


def _random_flow_update(rng):
    from eunomia.codecs import FlowUpdate

    return FlowUpdate(
        command=int(rng.integers(0, 2**8)),
        idle_timeout=int(rng.integers(0, 2**16)),
        hard_timeout=int(rng.integers(0, 2**16)),
        priority=int(rng.integers(0, 2**16)),
        buffer_id=int(rng.integers(0, 2**32)),
        out_port=int(rng.integers(0, 2**32)),
        out_group=int(rng.integers(0, 2**32)),
        cookie=int(rng.integers(0, 2**63)),
        flags=int(rng.integers(0, 2**16)),
        match_src=int(rng.integers(0, 2**16)),
        match_dst=int(rng.integers(0, 2**16)),
    )


def _random_edge_sync(rng):
    from eunomia.codecs import EdgeSync

    return EdgeSync(
        link_type=int(rng.integers(0, 2**8)),
        status=int(rng.integers(0, 2**8)),
        bandwidth_kbps=int(rng.integers(0, 2**32)),
        weight=float(rng.integers(0, 4_000_000)) / 1000.0,
        src_id=int(rng.integers(0, 2**32)),
        dst_id=int(rng.integers(0, 2**32)),
        timestamp_ms=int(rng.integers(0, 2**48)),
    )


def _random_flow_request(rng):
    from eunomia.codecs import FlowRequest

    return FlowRequest(
        xid=int(rng.integers(0, 2**32)),
        buffer_id=int(rng.integers(0, 2**32)),
        total_len=int(rng.integers(0, 2**16)),
        reason=int(rng.integers(0, 2**8)),
        table_id=int(rng.integers(0, 2**8)),
        cookie=int(rng.integers(0, 2**63)),
        eth_type=int(rng.integers(0, 2**16)),
        src_ip=int(rng.integers(0, 2**32)),
        dst_ip=int(rng.integers(0, 2**32)),
        src_port=int(rng.integers(0, 2**16)),
        dst_port=int(rng.integers(0, 2**16)),
        payload=bytes(rng.integers(0, 256, size=int(rng.integers(0, 32))).astype(np.uint8)),
    )


# ------------------------------------------------------------------ 8


@pytest.fixture(scope="module")
def gamma_sweep(desk_scenario):
    """Emulation grid shared by the directional-trend checks."""
    scn = desk_scenario
    seeds = [1, 2, 3]
    runs = {
        "eunomia": run_scenario(scn, "eunomia", [0.25, 0.5, 0.75, 1.0], seeds),
        "greedy": run_scenario(scn, "greedy", [0.25, 0.5, 0.75, 1.0], seeds),
        "odc": run_scenario(scn, "odc", [1.0], seeds),
    }
    return runs


def _mean_wctl(results, gamma):
    values = [
        np.mean([rep.w_ctl for rep in r.reports]) for r in results if r.gamma == gamma
    ]
    return float(np.mean(values))


def _mean_response(results, gamma):
    per_seed = []
    for r in results:
        if r.gamma != gamma:
            continue
        served = sum(s.requests_total - s.requests_dropped for s in r.stats)
        weighted = sum(
            s.resp_mean_s * (s.requests_total - s.requests_dropped) for s in r.stats
        )
        per_seed.append(weighted / served if served else 0.0)
    return float(np.mean(per_seed))


def _mean_drop(results, gamma):
    per_seed = []
    for r in results:
        if r.gamma != gamma:
            continue
        total = sum(s.requests_total for s in r.stats)
        per_seed.append(sum(s.requests_dropped for s in r.stats) / total if total else 0.0)
    return float(np.mean(per_seed))


def test_criterion_8a_control_overhead_below_odc(gamma_sweep):
    eu = _mean_wctl(gamma_sweep["eunomia"], 1.0)
    odc = _mean_wctl(gamma_sweep["odc"], 1.0)
    ok = eu < odc
    assert _report(
        "8a W_CTL trend", ok, f"eunomia {eu:.3f} vs odc {odc:.3f} s/s at gamma=1"
    )


def test_criterion_8b_response_delay_below_odc(gamma_sweep):
    eu = _mean_response(gamma_sweep["eunomia"], 1.0)
    odc = _mean_response(gamma_sweep["odc"], 1.0)
    ok = eu < odc
    assert _report(
        "8b response trend", ok, f"eunomia {eu:.4f} s vs odc {odc:.4f} s at gamma=1"
    )


def test_criterion_8c_drop_rate_vs_greedy(gamma_sweep):
    """The three-step partitioner drops no more requests than the
    nearest-controller baseline at 3 of 4 traffic scales on the desk scenario.

    Every drop difference between the two is MEO queue overflow: both leave
    the same switches unmanaged, and ground stations never overflow. Matching
    costs and the keep-or-release choice for a contested switch are priced by
    the partitioning objective (W_FLOW + lambda * W_CPT), which charges a
    controller for its domain size and traffic over its capacity, so
    contested switches leave loaded MEOs for less loaded or ground
    controllers. Measured margins on seeds 1-3: -0.061, -0.071, -0.073 and
    -0.100 percentage points at gamma 0.25, 0.5, 0.75 and 1 (seeds 4-6:
    -0.057 to -0.102). See README, Known limitations.
    """
    points = []
    for gamma in (0.25, 0.5, 0.75, 1.0):
        eu = _mean_drop(gamma_sweep["eunomia"], gamma)
        gr = _mean_drop(gamma_sweep["greedy"], gamma)
        points.append((gamma, eu, gr, eu <= gr))
    wins = sum(1 for *_rest, ok in points if ok)
    detail = "; ".join(
        f"g={g}: {eu:.4f} vs {gr:.4f} {'<=' if ok else '>'}" for g, eu, gr, ok in points
    )
    assert _report("8c drop trend vs greedy", wins >= 3, f"{wins}/4 points ({detail})")


# ------------------------------------------------------------------ 9


def test_criterion_9_fine_tuning_migrations(desk_scenario):
    scn = desk_scenario

    def windowed_migrations(chain):
        # compare over the common transition window: the final transition is
        # excluded because moves pre-pay handovers whose no-tuning twin falls
        # beyond the horizon
        total = 0
        for t in range(1, len(chain) - 1):
            total += sum(count_migrations(chain[t - 1], chain[t]).values())
        return total

    with_ft = windowed_migrations(partition_chain(scn, "eunomia", 1.0, 1))
    no_tuning = replace(scn, ctx=replace(scn.ctx, lookahead_s=0.0))
    without = windowed_migrations(partition_chain(no_tuning, "eunomia", 1.0, 1))
    reduction = (without - with_ft) / without if without else 0.0
    ok = with_ft <= without
    assert _report(
        "9 fine-tuning migrations",
        ok,
        f"with={with_ft} without={without}; measured reduction {reduction:.1%} "
        f"(reported against the published up-to-40% claim; no pass threshold)",
    )


# ------------------------------------------------------------------ 10


def test_criterion_10_partitioner_scaling():
    cells = build_grid(city_density_field())
    params = TrafficParams(gravity_constant=1.25e6)
    static = demand_matrix(cells, params)
    cell_pos = cell_positions(cells)
    timings = {}
    for name in ("iridium780", "telesat1015", "oneweb1200", "starlink550"):
        const = Constellation.build(LEO_SHELLS[name], MEO_SHELLS["meo10354"], NINE_CITIES)
        ctx = PartitionContext(overhead_params=OverheadParams(), allow_uncovered=True)
        slot = TimeSlot(0, 0.0, 15.0, const.snapshot(0.0))
        timeline = FovTimeline(const, dict(DEFAULT_THRESHOLDS))
        geometry = build_slot_geometry(timeline, slot, 15.0, 30.0)
        tm = slot_traffic_matrix(cells, cell_pos, static, slot.snapshot, 0, params)
        start = time.perf_counter()
        partition_slot(ctx, geometry, tm, None)
        timings[len(const.leo_ids)] = time.perf_counter() - start
    sizes = sorted(timings)
    slope = float(
        np.polyfit(np.log([float(s) for s in sizes]), np.log([timings[s] for s in sizes]), 1)[0]
    )
    ok = slope <= 2.2 and timings[1584] < 60.0
    assert _report(
        "10 scaling",
        ok,
        f"wall times {dict((k, round(v, 3)) for k, v in sorted(timings.items()))} s, "
        f"log-log slope {slope:.2f} (cap 2.2), 1584-switch slot {timings[1584]:.2f} s (cap 60)",
    )


# ------------------------------------------------------------------ 11


def test_criterion_11_determinism(tmp_path):
    from eunomia.cli import main

    tiny = Path(__file__).parent / "data" / "tiny_config.yaml"
    pairs = []
    for cmd in (
        ["partition", "--config", str(tiny), "--seed", "1"],
        ["emulate", "--config", str(tiny)],
    ):
        out_a, out_b = tmp_path / (cmd[0] + "_a"), tmp_path / (cmd[0] + "_b")
        assert main(cmd + ["--out-dir", str(out_a)]) == 0
        assert main(cmd + ["--out-dir", str(out_b)]) == 0
        for path_a in sorted(out_a.iterdir()):
            path_b = out_b / path_a.name
            pairs.append(path_a.read_bytes() == path_b.read_bytes())
    ok = all(pairs)
    assert _report("11 determinism", ok, f"{len(pairs)} output files bit-identical on rerun")

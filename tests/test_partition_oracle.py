"""The partitioner's pricing, its nearest-controller pick and the control
routes, checked bit for bit against their array and BFS references on
``default`` slots."""
import numpy as np

from eunomia import emulator
from eunomia.overhead import control_routes
from eunomia.partition import (
    MarginalObjective,
    _by_distance,
    _nearest,
    step1_exclusive_assign,
)

import partition_oracle


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_prices_match_the_array_oracle_over_a_sequence_of_fixes(default_scenario_short):
    scn = default_scenario_short
    params = scn.ctx.overhead_params
    kinds = {"idle": 0, "single": 0, "group": 0, "idle group": 0}
    for t in (1, 2):
        geom, traffic = scn.geometries[t], scn.base_traffic[t - 1]
        snap, cover = geom.slot.snapshot, geom.cover
        assigned, _, contested = step1_exclusive_assign(cover, geom.regions, snap.leo_ids)
        n_domains = sum(1 for members in geom.fov_domains.values() if members)
        fast = MarginalObjective(traffic, snap, params, n_domains, assigned)
        oracle = partition_oracle.MarginalObjective(traffic, snap, params, n_domains, assigned)

        def check(leos, ks):
            assert _same_bits(fast.cost(leos, ks), oracle.cost(leos, ks))

        def fix(leos, k):
            check(leos, [k])  # a fix right after its price reuses that price's flows
            for pricing in (fast, oracle):
                pricing.fix(leos, k)
            assert _same_bits(fast.intra, oracle.intra)
            assert list(fast.size) == oracle.size.tolist()

        assert _same_bits(fast.intra, oracle.intra)
        leos = sorted(contested)
        for step, leo in enumerate(leos):
            ks = cover[leo]
            check((leo,), ks)
            kinds["single" if traffic.block_row[leo] >= 0 else "idle"] += 1
            # fix every third LEO, and now and then a group, so the prices run
            # against a growing set of fixed domains
            if step % 3 == 0:
                fix((leo,), ks[step % len(ks)])
            if step % 40 == 39:
                fixed = _fixed(oracle)
                group = tuple(x for x in leos[step + 1 : step + 30] if x not in fixed)
                check(group, cover[group[0]])
                fix(group, cover[group[0]][0])
                kinds["group"] += 1
        # groups of LEOs without traffic price in closed form too
        idle = tuple(leo for leo in leos if traffic.block_row[leo] < 0)[:5]
        check(idle, snap.controller_ids)
        kinds["idle group"] += 1
        # each region's still unfixed LEOs, as one cluster per controller
        fixed = _fixed(oracle)
        for region in geom.regions:
            residual = tuple(leo for leo in sorted(region.leo_ids) if leo not in fixed)
            if residual:
                check(residual, region.controller_ids)
                kinds["group"] += 1
        check((), snap.controller_ids)
    assert min(kinds.values()) > 0, kinds


def _fixed(oracle) -> set[int]:
    """LEOs the oracle holds in a fixed domain."""
    return set(np.flatnonzero(oracle.label < len(oracle.size)).tolist())


def test_control_routes_match_the_bfs_oracle(default_scenario_short):
    scn = default_scenario_short
    shortcut = bfs = 0
    for strategy in ("eunomia", "greedy", "odc"):
        chain = emulator.partition_chain(scn, strategy, 1.0)
        for geom, assignment in list(zip(scn.geometries, chain))[:2]:
            snap, fov = geom.slot.snapshot, geom.fov_domains
            got = control_routes(assignment, snap, fov)
            assert list(got.items()) == list(
                partition_oracle.control_routes(assignment, snap, fov).items()
            )
            hops = [len(route) - 1 for route in got.values()]
            shortcut += hops.count(1)
            bfs += len(hops) - hops.count(1)
    assert shortcut > 0 and bfs > 0


def test_nearest_is_the_first_of_the_ranking(default_scenario_short):
    scn = default_scenario_short
    for geom in scn.geometries[:2]:
        snap, cover = geom.slot.snapshot, geom.cover
        leos = [leo for leo in sorted(snap.leo_ids) if leo in cover]
        assert _nearest(snap, leos, cover) == [r[0] for r in _by_distance(snap, leos, cover)]
        # every controller as a candidate, as the spectral rejoin ranks them
        pools = dict.fromkeys(leos[::7], snap.controller_ids)
        nodes = list(pools)
        assert _nearest(snap, nodes, pools) == [r[0] for r in _by_distance(snap, nodes, pools)]


"""The partitioner's CORG, its spectral clusters, its pricing and
keep-or-release decision, its nearest-controller pick (greedy's too) and the
control routes, checked bit for bit against their per-region, reference
pipeline, array, scalar and BFS references on ``default`` slots and the
desk orbit's eunomia chain."""
import dataclasses

import numpy as np
import pytest

from eunomia import emulator, partition
from eunomia.corg import build_corg, corg_edges, similarity
from eunomia.overhead import DisconnectedDomainError, control_routes
from eunomia.partition import (
    MarginalObjective,
    _by_distance,
    _nearest,
    step1_exclusive_assign,
)

import geometry_oracle
import partition_oracle
from conftest import route_paths


def _cover(geom) -> dict[int, tuple[int, ...]]:
    """LEO id -> the ids of the controllers that see it, in the slot's geometry."""
    return geometry_oracle.coverage(geometry_oracle.as_sets(geom.fov_domains))


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_prices_match_the_array_oracle_over_a_sequence_of_fixes(default_scenario_short):
    scn = default_scenario_short
    params = scn.ctx.overhead_params
    kinds = {"idle": 0, "single": 0, "group": 0, "idle group": 0, "fixed": 0}
    for t in (1, 2):
        geom, traffic = scn.geometries[t], scn.base_traffic[t - 1]
        snap, cover = geom.slot.snapshot, _cover(geom)
        assigned = step1_exclusive_assign(geom.fov_domains)
        contested = np.flatnonzero(geom.fov_domains.sum(axis=0) >= 2).tolist()
        n_domains = int(geom.fov_domains.any(axis=1).sum())
        # LEOs fixed at construction that carry traffic: two priced, one not
        busy = [leo for leo in np.flatnonzero(assigned >= 0) if traffic.block_row[leo] >= 0][:3]
        priced = contested + busy[:2]
        fast = MarginalObjective(traffic, snap, params, n_domains, assigned, priced)
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
        # LEOs fixed at construction price the same, and one outside ``priced`` raises
        check((busy[0],), snap.controller_ids)
        check((busy[1], leos[0]), snap.controller_ids)
        with pytest.raises(ValueError, match=f"LEO {busy[2]} is not among the priced"):
            fast.cost((leos[0], busy[2]), snap.controller_ids)
        kinds["fixed"] += 1
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


def _moved_across_the_boundary(assignment, snap, fov) -> np.ndarray:
    """The controller array of ``assignment`` (FOV-contained) with each
    boundary LEO that an ISL neighbour's controller does not see moved to
    that controller, at most once per LEO and never one that another moved
    LEO hangs on: every moved LEO is reached over ISL hops, some over two."""
    controller = assignment.controller.copy()
    n_leo = fov.shape[1]
    ends = snap.topology.edge_array
    moved, anchors = set(), set()
    for i, j in np.concatenate([ends, ends[:, ::-1]]).tolist():
        k = controller[j]
        if i in moved | anchors or min(controller[i], k) < 0 or controller[i] == k:
            continue
        if not fov[k - n_leo, i]:
            controller[i] = k
            moved.add(i)
            anchors.add(j)
    return controller


def _cut_off(assignment, snap, fov) -> tuple[np.ndarray, int, list[int]]:
    """The controller array of ``assignment`` (FOV-contained) with the two
    lowest-id controllers each given LEOs that they do not see and that have
    no ISL neighbour in their domain: two disconnected domains. Also returns
    the lower controller and its cut-off members."""
    controller = assignment.controller.copy()
    n_leo = fov.shape[1]
    graph = snap.topology.graph
    low, high = np.unique(controller[controller >= 0])[:2].tolist()
    taken = {low: [], high: []}
    for leo in np.flatnonzero(controller >= 0).tolist():
        nbrs = graph.indices[graph.indptr[leo] : graph.indptr[leo + 1]]
        for k in (low, high):
            free = controller[leo] not in (low, high) and not fov[k - n_leo, leo]
            if free and len(taken[k]) < 2 and not (assignment.controller[nbrs] == k).any():
                taken[k].append(leo)
                break
    for k, leos in taken.items():
        controller[leos] = k
    assert len(taken[low]) == 2 and taken[high]
    return controller, low, taken[low]


def _paths(*args) -> dict[int, tuple[int, ...]]:
    """``control_routes(*args)`` as one path tuple per LEO."""
    return route_paths(control_routes(*args))


def _routes_or_error(routes, *args) -> list | str:
    """``routes(*args)`` as a list of items, or its DisconnectedDomainError message."""
    try:
        return list(routes(*args).items())
    except DisconnectedDomainError as exc:
        return str(exc)


def test_control_routes_match_the_bfs_oracle(default_scenario_short, desk_scenario_short):
    scn = default_scenario_short
    shortcut = bfs = 0
    for strategy in ("eunomia", "greedy", "odc"):
        chain = emulator.partition_chain(scn, strategy, 1.0)
        for geom, assignment in list(zip(scn.geometries, chain))[:2]:
            snap, fov = geom.slot.snapshot, geom.fov_domains
            got = route_paths(control_routes(assignment, snap, fov))
            assert list(got.items()) == list(
                partition_oracle.control_routes(assignment, snap, fov).items()
            )
            hops = [len(route) - 1 for route in got.values()]
            shortcut += hops.count(1)
            bfs += len(hops) - hops.count(1)
    assert shortcut > 0 and bfs > 0

    # desk: several domains that need ISL hops at once, then two cut-off domains
    geom = desk_scenario_short.geometries[0]
    snap, fov = geom.slot.snapshot, geom.fov_domains
    greedy = partition.greedy_partition(desk_scenario_short.ctx, geom)
    across = dataclasses.replace(
        greedy, controller=_moved_across_the_boundary(greedy, snap, fov)
    )
    got = route_paths(control_routes(across, snap, fov))
    assert list(got.items()) == list(partition_oracle.control_routes(across, snap, fov).items())
    assert len({route[-1] for route in got.values() if len(route) > 2}) >= 2
    assert max(len(route) for route in got.values()) > 3  # a route of two ISL hops

    # a relay id that is no controller gives no direct link
    odc = partition.odc_partition(desk_scenario_short.ctx, geom)
    for relays in ((0,) + odc.relay_controller_ids, (0, len(snap.roles))):
        stray = dataclasses.replace(odc, relay_controller_ids=relays)
        assert _routes_or_error(_paths, stray, snap, fov) == _routes_or_error(
            partition_oracle.control_routes, stray, snap, fov
        )

    controller, low, cut = _cut_off(greedy, snap, fov)
    split = dataclasses.replace(greedy, controller=controller)
    message = f"domain of controller {low}: members {sorted(cut)} cannot reach a direct link"
    for routes in (_paths, partition_oracle.control_routes):
        assert _routes_or_error(routes, split, snap, fov) == message


def test_nearest_is_the_first_of_the_ranking(default_scenario_short):
    scn = default_scenario_short
    for geom in scn.geometries[:2]:
        snap, cover, fov = geom.slot.snapshot, _cover(geom), geom.fov_domains
        ks = np.array(sorted(snap.controller_ids))
        leos = [leo for leo in sorted(snap.leo_ids) if leo in cover]
        ranked = _by_distance(snap, leos, ks, fov[:, leos])
        assert ranked == [geometry_oracle.by_distance(snap, leo, cover[leo]) for leo in leos]
        assert _nearest(snap, leos, ks, fov[:, leos]) == [r[0] for r in ranked]
        # every controller as a candidate, as the spectral rejoin ranks them
        nodes = leos[::7]
        reach = np.ones((len(ks), len(nodes)), dtype=bool)
        assert _nearest(snap, nodes, ks, reach) == [
            r[0] for r in _by_distance(snap, nodes, ks, reach)
        ]
    reach[:, 0] = False
    with pytest.raises(ValueError, match="without candidates"):
        _nearest(snap, nodes, ks, reach)


def test_greedy_picks_the_nearest_covering_controller(default_scenario_short):
    scn = default_scenario_short
    chain = emulator.partition_chain(scn, "greedy", 1.0)
    for geom, assignment in zip(scn.geometries, chain):
        snap, cover = geom.slot.snapshot, _cover(geom)
        want = {leo: geometry_oracle.by_distance(snap, leo, cover[leo])[0] for leo in cover}
        assert {leo: k for _, leo, k in assignment.to_rows()} == want


def _check_corgs(regions, traffic, snap, params, fov, weights) -> int:
    """Compare every region's CORG from the slot edge table, and its
    similarity, with the per-region references; returns the edge count."""
    edges = corg_edges(regions, traffic, snap, params, fov, weights)
    sets = geometry_oracle.as_sets(fov)
    n_edges = 0
    for region in regions:
        got = build_corg(region, edges)
        node_ids, want = partition_oracle.build_corg(region, traffic, snap, params, sets, weights)
        assert got.node_ids == node_ids
        assert [tuple(p) for p in got.pairs.tolist()] == list(want)
        assert _same_bits(got.xi, list(want.values()))
        sim = similarity(got)
        values, sigma = partition_oracle.similarity(node_ids, want)
        assert sim.sigma == sigma
        assert _same_bits(sim.values, values)
        n_edges += len(want)
    return n_edges


def test_corgs_and_similarities_match_the_per_region_reference(default_scenario_short):
    scn = default_scenario_short
    n_regions = n_edges = 0
    for geom, traffic in zip(scn.geometries[:2], scn.base_traffic):
        n_edges += _check_corgs(
            geom.regions, traffic, geom.slot.snapshot, scn.ctx.overhead_params,
            geom.fov_domains, scn.ctx.corg_weights,
        )
        n_regions += len(geom.regions)
    assert n_regions >= 30 and n_edges > 1000, (n_regions, n_edges)


@pytest.mark.parametrize("scenario", ["desk_scenario", "default_scenario_short"])
def test_eunomia_chains_cluster_on_the_reference_corgs(scenario, monkeypatch, request):
    """Every residual region a eunomia chain clusters, and every
    keep-or-release decision it makes, against the references: the desk
    orbit and the four slots of ``default`` at 60 s."""
    scn = request.getfixturevalue(scenario)
    calls = {"regions": 0, "keeps": 0}
    table = partition.corg_edges

    def checked_table(regions, traffic, snap, params, fov, weights):
        calls["regions"] += len(regions)
        _check_corgs(regions, traffic, snap, params, fov, weights)
        return table(regions, traffic, snap, params, fov, weights)

    keep = MarginalObjective.keep

    def checked_keep(self, leo, k, controllers):
        costs = self.cost((leo,), controllers)
        want = costs[controllers.index(k)] <= costs.min()
        calls["keeps"] += 1
        assert keep(self, leo, k, controllers) == want
        return want

    monkeypatch.setattr(partition, "corg_edges", checked_table)
    monkeypatch.setattr(MarginalObjective, "keep", checked_keep)
    chain = emulator._chain(scn, "eunomia", 1.0)  # not the chain kept on the scenario
    assert [a.to_rows() for a in chain] == [
        a.to_rows() for a in emulator.partition_chain(scn, "eunomia", 1.0)
    ]
    assert calls["regions"] > 40 and calls["keeps"] > 100, calls


@pytest.mark.parametrize(
    "scenario, regions", [("desk_scenario", 100), ("default_scenario_partition", 151)]
)
def test_spectral_clusters_match_the_reference_on_every_region(
    scenario, regions, monkeypatch, request
):
    """Every region a eunomia chain clusters, against the reference
    pipeline: the desk orbit, and the 151 regions of ``default`` at 240 s."""
    scn = request.getfixturevalue(scenario)
    cluster = partition.spectral_cluster
    sizes = []

    def checked(corg, m, snapshot, sigma=None):
        got = cluster(corg, m, snapshot, sigma=sigma)
        assert got == partition_oracle.spectral_cluster(corg, m, snapshot, sigma)
        sizes.append(len(corg.leo_ids))
        return got

    monkeypatch.setattr(partition, "spectral_cluster", checked)
    emulator._chain(scn, "eunomia", 1.0)
    if scenario == "default_scenario_partition":
        assert len(sizes) == regions and max(sizes) > 100, sizes
    else:
        assert len(sizes) >= regions, sizes


def test_keep_decisions_match_the_array_prices(default_scenario_short):
    """Every contested LEO of three ``default`` slots, kept or released by
    ``keep`` against the oracle's array prices, and each kept LEO fixed alike."""
    scn = default_scenario_short
    params = scn.ctx.overhead_params
    kinds = {"idle": 0, "single": 0, "kept": 0, "released": 0}
    for t in (1, 2, 3):
        geom, traffic = scn.geometries[t], scn.base_traffic[t - 1]
        snap, cover = geom.slot.snapshot, _cover(geom)
        assigned = step1_exclusive_assign(geom.fov_domains)
        contested = np.flatnonzero(geom.fov_domains.sum(axis=0) >= 2).tolist()
        n_domains = int(geom.fov_domains.any(axis=1).sum())
        pricing = MarginalObjective(traffic, snap, params, n_domains, assigned, contested)
        oracle = partition_oracle.MarginalObjective(traffic, snap, params, n_domains, assigned)
        for step, leo in enumerate(sorted(contested)):
            ks = cover[leo]
            costs = oracle.cost((leo,), ks)
            # the cheapest controller now and then, so that LEOs are kept
            k = ks[int(np.argmin(costs))] if step % 3 == 0 else ks[step % len(ks)]
            want = bool(costs[ks.index(k)] <= costs.min())
            assert pricing.keep(leo, k, ks) == want
            if want:
                oracle.fix((leo,), k)
            kinds["kept" if want else "released"] += 1
            kinds["single" if traffic.block_row[leo] >= 0 else "idle"] += 1
        assert _same_bits(pricing.intra, oracle.intra)
        assert list(pricing.size) == oracle.size.tolist()
    assert min(kinds.values()) > 0, kinds

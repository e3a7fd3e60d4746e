"""Slot plans, arrivals and baseline chains kept on a ``Scenario`` across runs.

``run_scenario`` keeps each slot's plan per assignment content, each slot's
gamma = 1 arrivals per seed, and each partition chain per (strategy, gamma)
on the scenario.
Reusing them must change no output bit, traced or not, must not let an
invalid assignment through on the strength of a valid one's plan, and must
stay out of the pickles sent to ``emulate --threads`` workers.
"""
import dataclasses
import pickle
from pathlib import Path

import numpy as np
import pytest

from eunomia import emulator, overhead
from eunomia.emulator import STRATEGIES, run_scenario
from eunomia.overhead import ConstraintViolationError, plan_key
from eunomia.scenario import build_scenario, load_config

TINY_CONFIG = Path(__file__).parent / "data" / "tiny_config.yaml"
GAMMAS = (0.0, 0.5, 1.0)
SEEDS = (1, 2)


def _outputs(scn, strategy, gamma, seed, trace=True):
    """Everything ``eunomia emulate`` writes for one (strategy, gamma, seed),
    and each slot's trace hash."""
    result = run_scenario(scn, strategy, [gamma], [seed], trace=trace)[0]
    return (
        [st.to_row() for st in result.stats],
        [st.trace_hash for st in result.stats],
        [rep.to_dict() for rep in result.reports],
        result.migrations,
    )


def _count_calls(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.fixture
def counts(monkeypatch):
    """Calls of the memoised builders, as ``run_scenario`` looks them up."""
    out: dict[str, int] = {}
    for name in (
        "slot_plan", "generate_arrivals", "greedy_partition", "odc_partition", "partition_slot"
    ):
        _count_calls(monkeypatch, emulator, name, out)
    return out


def test_one_scenario_across_the_grid_gives_the_outputs_of_fresh_ones(counts):
    config = load_config(TINY_CONFIG)
    shared = build_scenario(config)
    grid = [(s, g, sd) for s in STRATEGIES for g in GAMMAS for sd in SEEDS]
    reused = [_outputs(shared, *point) for point in grid]
    n_slots = len(shared.slots)
    assert counts["generate_arrivals"] == n_slots * len(SEEDS)
    assert counts["greedy_partition"] == counts["odc_partition"] == n_slots
    # one plan per slot for each baseline chain, at most one per run for eunomia
    assert counts["slot_plan"] <= n_slots * (2 + len(GAMMAS) * len(SEEDS))
    for point, got in zip(grid, reused):
        assert got == _outputs(build_scenario(config), *point), point


def test_an_untraced_run_builds_no_trace_and_moves_no_output(monkeypatch):
    config = load_config(TINY_CONFIG)
    grid = [(s, g, sd) for s in STRATEGIES for g in GAMMAS for sd in SEEDS]
    want = {point: _outputs(build_scenario(config), *point) for point in grid}
    shared = build_scenario(config)
    # seed 1 is traced before any untraced run; seed 2's queues first get
    # their data paths from untraced runs
    for point in [p for p in grid if p[2] == SEEDS[0]]:
        assert _outputs(shared, *point) == want[point], point

    def no_trace(*args, **kwargs):
        raise AssertionError("an untraced run built the trace")

    with monkeypatch.context() as patched:
        patched.setattr(emulator, "_trace_hash", no_trace)
        for point in grid:
            rows, hashes, reports, migrations = _outputs(shared, *point, trace=False)
            want_rows, _, want_reports, want_migrations = want[point]
            assert hashes == [None] * len(shared.slots)
            assert (rows, reports, migrations) == (want_rows, want_reports, want_migrations)
    for point in grid:
        assert _outputs(shared, *point) == want[point], point


def test_eunomia_chain_is_built_once_per_gamma_for_any_seeds(counts):
    scn = build_scenario(load_config(TINY_CONFIG))
    n_slots = len(scn.slots)
    run_scenario(scn, "eunomia", [1.0], [1, 2])
    assert counts["partition_slot"] == n_slots
    run_scenario(scn, "eunomia", [0.5, 1.0], [3])
    assert counts["partition_slot"] == 2 * n_slots
    # the seed is still accepted, and ignored
    chain = emulator.partition_chain(scn, "eunomia", 0.5, seed=9)
    assert chain == emulator.partition_chain(scn, "eunomia", 0.5)
    assert counts["partition_slot"] == 2 * n_slots


def _moved_outside_fov(scn, assignment, t):
    """``assignment`` with one LEO given to a controller that cannot see it."""
    fov = scn.geometries[t].fov_domains
    n_leo = fov.shape[1]
    for _, leo, k in assignment.to_rows():
        for other in range(n_leo, n_leo + len(fov)):
            if other != k and not fov[other - n_leo, leo]:
                moved = assignment.controller.copy()
                moved[leo] = other
                return dataclasses.replace(assignment, controller=moved)
    raise AssertionError("every controller sees every LEO")


def test_a_cached_plan_does_not_validate_a_different_assignment(monkeypatch):
    scn = build_scenario(load_config(TINY_CONFIG))
    run_scenario(scn, "greedy", [1.0], [1])  # every slot's valid plan is cached
    valid = emulator.partition_chain(scn, "greedy", 1.0, 1)
    t = 1
    invalid = _moved_outside_fov(scn, valid[t], t)
    assert plan_key(invalid) != plan_key(valid[t])
    assert overhead.validate_assignment(
        invalid, scn.slots[t].snapshot, scn.geometries[t].fov_domains
    )
    chain = valid[:t] + [invalid] + valid[t + 1:]
    monkeypatch.setattr(emulator, "partition_chain", lambda *args: chain)
    with pytest.raises(ConstraintViolationError):
        run_scenario(scn, "greedy", [1.0], [1])


def test_assignments_with_equal_content_share_one_plan(monkeypatch, counts):
    scn = build_scenario(load_config(TINY_CONFIG))
    want = _outputs(scn, "greedy", 1.0, 1)
    built = counts["slot_plan"]
    # new objects with the same content, under other labels
    copies = [
        dataclasses.replace(a, strategy="copy", signature=np.ones((1, len(a.controller)), np.uint8))
        for a in emulator.partition_chain(scn, "greedy", 1.0, 1)
    ]
    monkeypatch.setattr(emulator, "partition_chain", lambda *args: copies)
    assert _outputs(scn, "greedy", 1.0, 1) == want
    assert counts["slot_plan"] == built


def test_the_memo_stays_out_of_pickles():
    scn = build_scenario(load_config(TINY_CONFIG))
    # the first run also fills each snapshot's own lazily built ISL adjacency
    run_scenario(scn, "odc", [1.0], [1])
    before = len(pickle.dumps(scn))
    run_scenario(scn, "eunomia", [0.5, 1.0], SEEDS)
    run_scenario(scn, "greedy", [1.0], SEEDS)
    assert len(pickle.dumps(scn)) == before
    copy = pickle.loads(pickle.dumps(scn))
    assert _outputs(copy, "eunomia", 0.5, 2) == _outputs(scn, "eunomia", 0.5, 2)


def test_hop_trees_stay_out_of_pickles():
    scn = build_scenario(load_config(TINY_CONFIG))
    want = _outputs(scn, "greedy", 1.0, 1)
    topology = scn.constellation.topology
    assert all(slot.snapshot.topology is topology for slot in scn.slots)
    assert (topology._hop_trees.row >= 0).any()
    copy = pickle.loads(pickle.dumps(scn))
    assert "_hop_trees" not in copy.constellation.topology.__dict__
    assert all(slot.snapshot.topology is copy.constellation.topology for slot in copy.slots)
    assert _outputs(copy, "greedy", 1.0, 1) == want

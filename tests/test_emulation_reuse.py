"""What ``run_scenario`` reuses across runs on one scenario.

Each slot's gamma = 1 queue and served data paths are kept per (seed, plan)
and each overhead report per (chain, gamma, slot). Whatever order the runs
come in, every output must be that of a fresh scenario running the one
(gamma, seed) alone, a run alone must walk the data paths of exactly the
requests it serves, and the scenario keeps no gamma-scaled traffic.
"""
import tracemalloc
from dataclasses import asdict

import pytest

from eunomia import emulator
from eunomia.emulator import run_scenario
from eunomia.scenario import build_scenario, desk_config
from eunomia.traffic import TrafficMatrix

HORIZON_S = 120.0
GAMMAS = (1.0, 0.25, 0.75, 0.5)
SEEDS = (1, 2)
# what the scenario may keep after the eunomia and greedy grid: 0.68 MiB with
# int16 LEO ids, queue indices and path lengths, 0.88 MiB with int64 ids and
# int32 indices, 1.72 MiB when each (slot, gamma) copy of scaled traffic was kept
KEPT_BOUND_MIB = 0.78


def _outputs(result):
    # traced, so each request's event times, drop and response are compared too
    assert all(st.trace_hash is not None for st in result.stats)
    return [asdict(st) for st in result.stats], [rep.to_dict() for rep in result.reports]


@pytest.fixture(scope="module")
def alone():
    """Outputs of each (strategy, gamma, seed) run alone on a fresh scenario."""
    return {
        (strategy, gamma, seed): _outputs(
            run_scenario(build_scenario(desk_config(), HORIZON_S), strategy, [gamma], [seed],
                         trace=True)[0]
        )
        for strategy in ("eunomia", "greedy")
        for gamma in GAMMAS
        for seed in SEEDS
    }


@pytest.mark.parametrize("strategy", ["eunomia", "greedy"])
@pytest.mark.parametrize("gammas", [GAMMAS, GAMMAS[::-1]], ids=["forward", "reverse"])
def test_runs_in_any_gamma_order_give_the_outputs_of_runs_alone(alone, strategy, gammas):
    results = run_scenario(build_scenario(desk_config(), HORIZON_S), strategy, list(gammas),
                           list(SEEDS), trace=True)
    assert [(r.gamma, r.seed) for r in results] == [(g, s) for g in gammas for s in SEEDS]
    for r in results:
        assert _outputs(r) == alone[strategy, r.gamma, r.seed], (r.gamma, r.seed)
    for first, second in zip(results[::2], results[1::2]):
        for st1, rep1, st2, rep2 in zip(first.stats, first.reports, second.stats, second.reports):
            assert rep1 is not rep2
            assert (rep1.drop_rate, rep2.drop_rate) == (st1.drop_rate, st2.drop_rate)


def test_a_run_alone_walks_the_paths_of_exactly_its_served_requests(monkeypatch):
    walked = []
    original = emulator._walk_paths

    def counted(trees, rows, src, *args):
        walked.append(len(src))
        return original(trees, rows, src, *args)

    monkeypatch.setattr(emulator, "_walk_paths", counted)
    scn = build_scenario(desk_config(), HORIZON_S)
    result = run_scenario(scn, "eunomia", [0.5], [1], trace=True)[0]
    assert sum(walked) == sum(st.requests_total - st.requests_dropped for st in result.stats)
    # the same run again walks nothing, and gives the same outputs
    walked.clear()
    again = run_scenario(scn, "eunomia", [0.5], [1], trace=True)[0]
    assert walked == [] and _outputs(again) == _outputs(result)


def test_run_scenario_rejects_a_bad_gamma_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("run_scenario started work on a bad gamma")

    for name in ("partition_chain", "slot_plan", "generate_arrivals", "run_slot"):
        monkeypatch.setattr(emulator, name, no_work)
    scn = build_scenario(desk_config(), HORIZON_S)
    with pytest.raises(ValueError, match=r"gamma must be in \[0, 1\], got 1.5"):
        run_scenario(scn, "greedy", [1.0, 1.5], [1])


@pytest.mark.parametrize("seed", [-1, 1.0, True, "1"])
def test_run_scenario_rejects_a_bad_seed_before_any_work(monkeypatch, seed):
    def no_work(*args, **kwargs):
        raise AssertionError("run_scenario started work on a bad seed")

    for name in ("partition_chain", "slot_plan", "generate_arrivals", "run_slot"):
        monkeypatch.setattr(emulator, name, no_work)
    scn = build_scenario(desk_config(), HORIZON_S)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got "):
        run_scenario(scn, "greedy", [1.0], [1, seed])


def test_a_grid_keeps_no_scaled_traffic():
    scn = build_scenario(desk_config(), HORIZON_S)
    tracemalloc.start()
    try:
        for strategy in ("eunomia", "greedy"):
            run_scenario(scn, strategy, list(GAMMAS), list(SEEDS))
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not [key for key, value in scn._memo.items() if isinstance(value, TrafficMatrix)]
    assert kept < KEPT_BOUND_MIB * 2**20, kept / 2**20

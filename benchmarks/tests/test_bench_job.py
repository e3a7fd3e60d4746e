"""Self-tests for the benchmark's output checks and digests."""
import copy
from pathlib import Path

import pytest

import job
import tracing
from eunomia.scenario import build_scenario, load_config

TINY = Path(__file__).resolve().parents[2] / "tests" / "data" / "tiny_config.yaml"
TINY_EMULATE = job.Workload(
    "tiny", 60.0, "emulate",
    (("eunomia", (0.5, 1.0)), ("greedy", (0.5, 1.0)), ("odc", (1.0,))), n_seeds=2,
)
TINY_PARTITION = job.Workload("tiny", 60.0, "partition", (("eunomia", (1.0,)), ("odc", (1.0,))))


@pytest.fixture(scope="module")
def tiny():
    return build_scenario(load_config(TINY))


@pytest.fixture(scope="module")
def rows(tiny):
    from eunomia import emulator

    results = [
        emulator.run_scenario(tiny, s, [g], [sd])[0]
        for s, gammas in TINY_EMULATE.grid for g in gammas
        for sd in range(1, 1 + TINY_EMULATE.n_seeds)
    ]
    return [st.to_row() for r in results for st in r.stats]


def test_checks_pass_clean_rows(rows):
    assert rows and job.check_stats(rows) == set()


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: r.update(drops=r["requests"] + 1),
        lambda r: r.update(drops=-1),
        lambda r: r.update(requests=r["requests"] + 1),  # breaks cross-strategy equality
    ],
)
def test_checks_reject_a_corrupted_row(rows, corrupt):
    rows = copy.deepcopy(rows)
    target = next(r for r in rows if r["strategy"] == "greedy" and r["gamma"] == 1.0)
    corrupt(target)
    bad = job.check_stats(rows)
    key = (target["strategy"], target["gamma"], target["seed"], target["slot"])
    assert key in bad


def test_checks_reject_requests_falling_as_gamma_grows(rows):
    rows = copy.deepcopy(rows)
    low = next(r for r in rows if r["gamma"] == 0.5 and r["requests"] > 0)
    point = (low["slot"], low["seed"])
    for r in rows:  # every strategy at gamma 1 drops below gamma 0.5, equally
        if r["gamma"] == 1.0 and (r["slot"], r["seed"]) == point:
            r["requests"], r["drops"] = low["requests"] - 1, 0
    bad = job.check_stats(rows)
    assert bad == {(s, 1.0, low["seed"], low["slot"]) for s in ("eunomia", "greedy")}


def test_digest_is_stable_and_tracing_does_not_change_outputs(tiny):
    _, first = job.run_emulate(tiny, TINY_EMULATE, seed=1)
    _, again = job.run_emulate(tiny, TINY_EMULATE, seed=1)
    with tracing.installed(tracing.Tracer()) as tracer:
        _, traced = job.run_emulate(tiny, TINY_EMULATE, seed=1)
    assert first.digest == again.digest == traced.digest
    assert tracer.calls["emulator.run_slot"] == first.attempted
    _, other_seed = job.run_emulate(tiny, TINY_EMULATE, seed=2)
    assert other_seed.digest != first.digest


def test_partition_digest_is_stable(tiny):
    _, first = job.run_partition(tiny, TINY_PARTITION, seed=1)
    _, again = job.run_partition(tiny, TINY_PARTITION, seed=1)
    assert first.failed == set()
    assert first.attempted == 2 * len(tiny.slots)
    assert first.digest == again.digest

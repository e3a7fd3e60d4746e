"""Pinned emulation outputs: stats rows, overhead slot dicts and trace hashes.

The runs here ask ``run_scenario`` for the event trace (``trace=True``),
which it builds and hashes only on request.

Three scenarios are pinned exactly: ``tests/data/tiny_config.yaml`` for
every strategy at gamma 0, 0.5 and 1, the 600 s desk scenario at gamma 1, and
the full-size ``default`` scenario at 60 s and gamma 1 (1584 switches, ISL
paths up to 47 hops), all with seed 1. Floats are stored as ``repr`` strings,
so a change in the last bit of any value fails the comparison.

Regenerate (only after an intended behaviour change, recorded in CHANGES.md):

    PYTHONPATH=src python tests/test_golden_runs.py
"""
import json
import sys
from pathlib import Path

from eunomia.emulator import STRATEGIES, run_scenario
from eunomia.scenario import build_scenario, default_config, desk_config, load_config

DATA_DIR = Path(__file__).parent / "data"
TINY_CONFIG = DATA_DIR / "tiny_config.yaml"
GOLDEN_TINY = DATA_DIR / "golden_runs_tiny.json"
GOLDEN_DESK = DATA_DIR / "golden_runs_desk600.json"
GOLDEN_DEFAULT = DATA_DIR / "golden_runs_default60.json"


def _exact(value):
    """JSON-ready copy with every float replaced by its repr."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {k: _exact(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_exact(v) for v in value]
    return value


def golden_runs(scn, gammas, seeds) -> list[dict]:
    """One entry per (strategy, gamma, seed): what ``eunomia emulate`` writes
    to stats.csv and overhead.json, plus each slot's trace hash."""
    out = []
    for strategy in STRATEGIES:
        for result in run_scenario(scn, strategy, gammas, seeds, trace=True):
            out.append(_exact({
                "strategy": result.strategy,
                "gamma": result.gamma,
                "seed": result.seed,
                "migrations": result.migrations,
                "stats": [st.to_row() for st in result.stats],
                "trace_hash": [st.trace_hash for st in result.stats],
                "overhead": [rep.to_dict() for rep in result.reports],
            }))
    return out


def _tiny_runs():
    cfg = load_config(TINY_CONFIG)
    return golden_runs(build_scenario(cfg), [0.0, 0.5, 1.0], [1])


def _desk_runs(scn):
    return golden_runs(scn, [1.0], [1])


def _default_runs():
    return golden_runs(build_scenario(default_config(), horizon_s=60.0), [1.0], [1])


def test_tiny_runs_match_golden():
    assert _tiny_runs() == json.loads(GOLDEN_TINY.read_text())


def test_desk_600s_runs_match_golden(desk_scenario_short):
    assert _desk_runs(desk_scenario_short) == json.loads(GOLDEN_DESK.read_text())


def test_default_60s_runs_match_golden():
    assert _default_runs() == json.loads(GOLDEN_DEFAULT.read_text())


if __name__ == "__main__":
    GOLDEN_TINY.write_text(json.dumps(_tiny_runs(), indent=1) + "\n")
    desk = build_scenario(desk_config(), horizon_s=600.0)
    GOLDEN_DESK.write_text(json.dumps(_desk_runs(desk), indent=1) + "\n")
    GOLDEN_DEFAULT.write_text(json.dumps(_default_runs(), indent=1) + "\n")
    sys.exit(0)

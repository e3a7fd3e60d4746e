"""One repetition of a benchmark workload, run in a fresh process.

    python3 benchmarks/job.py --workload desk-sweep --seed 1 --trace 0

Builds the workload's scenario (timed as setup), runs its CLI-shaped job
through the same public functions the ``eunomia`` CLI calls (timed as run),
checks the outputs, hashes what the CLI would write, and prints one JSON
object on stdout. With ``--trace 1`` the per-layer metrics of
``tracing.layer_metrics`` are added.
"""
from __future__ import annotations

import argparse
import csv
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from eunomia import emulator, overhead, scenario  # noqa: E402

import tracing  # noqa: E402


@dataclass(frozen=True)
class Workload:
    """A CLI-shaped job: ``eunomia partition`` or ``eunomia emulate``."""

    preset: str
    horizon_s: float
    job: str  # "partition" or "emulate"
    # (strategy, gammas) pairs; partition jobs use the strategies at gamma 1
    grid: tuple[tuple[str, tuple[float, ...]], ...]
    n_seeds: int = 1  # emulate seeds are s, s+1, ...


SWEEP = (0.25, 0.5, 0.75, 1.0)

# Why each workload exists is recorded in BENCHMARK.json; sizes keep one
# repetition at 5-10 s so that several fit in one timed run.
WORKLOADS = {
    # per-request emulator loop; every slot emulated 8 times under one greedy chain
    "desk-sweep": Workload(
        "desk", 600.0, "emulate",
        (("eunomia", SWEEP), ("greedy", SWEEP), ("odc", (1.0,))), n_seeds=2,
    ),
    # full-scale setup, then partitioner and constraint validation only
    "default-partition": Workload(
        "default", 240.0, "partition", (("eunomia", (1.0,)), ("greedy", (1.0,))),
    ),
    # few requests: per-slot emulator setup and odc's 1584-switch validation
    "default-emulate": Workload(
        "default", 60.0, "emulate",
        (("eunomia", (1.0,)), ("greedy", (1.0,)), ("odc", (1.0,))),
    ),
}


@dataclass
class Outcome:
    """Result of one job: operations attempted and failed, and a digest of
    what the CLI would write."""

    attempted: int
    failed: set
    digest: str


def _sha256(*sections: str) -> str:
    h = hashlib.sha256()
    for text in sections:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def stats_csv(rows: list[dict]) -> str:
    """stats.csv body as ``eunomia emulate`` writes it, without provenance."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=emulator.CSV_COLUMNS)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
    return buf.getvalue()


def check_stats(rows: list[dict]) -> set:
    """Keys (strategy, gamma, seed, slot) of stats rows that break a check.

    Arrivals are drawn once per (slot, seed) and thinned by gamma, so
    requests agree across strategies at each (slot, gamma, seed) and never
    decrease as gamma grows; drops lie in [0, requests].
    """
    def key(row):
        return (row["strategy"], row["gamma"], row["seed"], row["slot"])

    bad = {key(r) for r in rows if not 0 <= r["drops"] <= r["requests"]}
    by_point: dict[tuple, list[dict]] = {}
    by_series: dict[tuple, list[dict]] = {}
    for r in rows:
        by_point.setdefault((r["slot"], r["gamma"], r["seed"]), []).append(r)
        by_series.setdefault((r["strategy"], r["seed"], r["slot"]), []).append(r)
    for group in by_point.values():
        if len({r["requests"] for r in group}) > 1:
            bad.update(key(r) for r in group)
    for series in by_series.values():
        series.sort(key=lambda r: r["gamma"])
        for lower, higher in zip(series, series[1:]):
            if higher["requests"] < lower["requests"]:
                bad.add(key(higher))
    return bad


def run_emulate(scn, wl: Workload, seed: int) -> tuple[float, Outcome]:
    """``eunomia emulate``: one run_scenario call per (strategy, gamma, seed).

    run_slot validates every assignment and raises on a violation, so a
    violation fails the operations of its call.
    """
    seeds = [seed + i for i in range(wl.n_seeds)]
    tasks = [(s, g, sd) for s, gammas in wl.grid for g in gammas for sd in seeds]
    n_slots = len(scn.slots)
    results, failed = [], set()
    t0 = perf_counter()
    for s, g, sd in tasks:
        try:
            results.append(emulator.run_scenario(scn, s, [g], [sd])[0])
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed.update((s, g, sd, t) for t in range(n_slots))
    run_s = perf_counter() - t0

    rows = [st.to_row() for r in results for st in r.stats]
    failed |= check_stats(rows)
    runs = [
        {
            "strategy": r.strategy,
            "gamma": r.gamma,
            "seed": r.seed,
            "migrations": r.migrations,
            "slots": [rep.to_dict() for rep in r.reports],
        }
        for r in results
    ]
    digest = _sha256(scn.config_hash, stats_csv(rows), json.dumps(runs, sort_keys=True))
    return run_s, Outcome(len(tasks) * n_slots, failed, digest)


def run_partition(scn, wl: Workload, seed: int) -> tuple[float, Outcome]:
    """``eunomia partition``: partition_chain per strategy, then
    validate_assignment on every slot."""
    n_slots = len(scn.slots)
    rows: dict[str, list] = {}
    report: dict[str, dict] = {}
    failed = set()
    t0 = perf_counter()
    for strategy, _gammas in wl.grid:
        try:
            chain = emulator.partition_chain(scn, strategy, gamma=1.0, seed=seed)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed.update((strategy, t) for t in range(n_slots))
            continue
        rows[strategy] = []
        violations_by_slot = {}
        for t, (geom, assignment) in enumerate(zip(scn.geometries, chain)):
            rows[strategy].extend(assignment.to_rows())
            try:
                violations = overhead.validate_assignment(
                    assignment, geom.slot.snapshot, geom.fov_domains
                )
            except Exception:
                traceback.print_exc(file=sys.stderr)
                failed.add((strategy, t))
                continue
            if violations:
                failed.add((strategy, t))
                violations_by_slot[str(geom.slot.index)] = [
                    {"constraint": v.constraint, "message": v.message} for v in violations
                ]
        report[strategy] = {
            "violations": violations_by_slot,
            "uncovered_per_slot": {
                str(a.slot_index): len(a.uncovered) for a in chain if a.uncovered
            },
        }
    run_s = perf_counter() - t0
    digest = _sha256(
        scn.config_hash, json.dumps(rows, sort_keys=True), json.dumps(report, sort_keys=True)
    )
    return run_s, Outcome(len(wl.grid) * n_slots, failed, digest)


JOBS = {"emulate": run_emulate, "partition": run_partition}


def run_workload(wl: Workload, seed: int) -> dict:
    """Set up and run one workload in this process; timings exclude checks."""
    config = scenario.PRESET_CONFIGS[wl.preset]()
    t0 = perf_counter()
    scn = scenario.build_scenario(config, wl.horizon_s)
    setup_s = perf_counter() - t0
    run_s, outcome = JOBS[wl.job](scn, wl, seed)
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "slots": len(scn.slots),
        "attempted": outcome.attempted,
        "failed": len(outcome.failed),
        "digest": outcome.digest,
    }


def blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it can be found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": blas_threads(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    wl = WORKLOADS[args.workload]
    if args.trace:
        with tracing.installed(tracing.Tracer()) as tracer:
            result = run_workload(wl, args.seed)
        result["layers"] = tracing.layer_metrics(tracer)
    else:
        result = run_workload(wl, args.seed)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

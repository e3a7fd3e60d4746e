"""Batch experiment CLI: partition, emulate, and report subcommands.

Every output file embeds the config hash and seeds on a leading comment line
(CSV) or in dedicated fields (JSON), so results are traceable to their
configuration. Reruns with identical config and seeds are bit-identical.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .emulator import CSV_COLUMNS, STRATEGIES, RunResult, partition_chain, run_scenario
from .overhead import validate_assignment
from .scenario import (
    PRESET_CONFIGS,
    ConfigError,
    Scenario,
    ScenarioConfig,
    build_scenario,
    load_config,
    read_input,
)

CONFIG_ENV_VAR = "EUNOMIA_CONFIG"


def _resolve_config(value: str | None) -> ScenarioConfig:
    if value is None:
        value = os.environ.get(CONFIG_ENV_VAR)
    if value is None:
        raise ConfigError(
            f"no config given; pass --config or set {CONFIG_ENV_VAR}"
        )
    if value in PRESET_CONFIGS:
        return PRESET_CONFIGS[value]()
    return load_config(value)


def _slot_range(text: str | None) -> tuple[int, int | None]:
    """``--slots start:end``; an empty bound is open (end None: the last slot)."""
    if not text:
        return 0, None
    start, _, end = text.partition(":")
    try:
        return (int(start) if start else 0), (int(end) if end else None)
    except ValueError:
        raise ConfigError(f"--slots: expected integer bounds start:end, got {text!r}") from None


def _seeds(seed: int | None, config: ScenarioConfig) -> list[int]:
    """``--seed``, a non-negative integer, or the config's seeds."""
    if seed is None:
        return config.seeds
    if seed < 0:
        raise ConfigError(f"--seed: expected a non-negative integer, got {seed}")
    return [seed]


def _strategies(text: str | None, config: ScenarioConfig) -> list[str]:
    """``--strategies``: comma-separated strategy names, or the config's."""
    if not text:
        return config.strategies
    strategies = text.split(",")
    unknown = [s for s in strategies if s not in STRATEGIES]
    if unknown:
        raise ConfigError(f"--strategies: unknown {unknown}; expected some of {list(STRATEGIES)}")
    return strategies


def _gammas(text: str) -> list[float]:
    """``--gamma``: comma-separated traffic scales, each in [0, 1]."""
    try:
        gammas = [float(g) for g in text.split(",")]
    except ValueError:
        raise ConfigError(f"--gamma: expected comma-separated numbers, got {text!r}") from None
    outside = [g for g in gammas if not 0.0 <= g <= 1.0]
    if outside:
        raise ConfigError(f"--gamma: {outside} outside [0, 1]")
    return gammas


def _provenance_line(scn: Scenario, seeds: list[int]) -> str:
    return f"# config_sha256={scn.config_hash} seeds={','.join(map(str, seeds))}"


def _write_stats_csv(path: Path, scn: Scenario, results: list[RunResult]) -> None:
    with path.open("w", newline="") as fh:
        fh.write(_provenance_line(scn, sorted({r.seed for r in results})) + "\n")
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for result in results:
            for st in result.stats:
                row = st.to_row()
                writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})


def _write_overhead_json(path: Path, scn: Scenario, results: list[RunResult]) -> None:
    payload = {
        "config_sha256": scn.config_hash,
        "scenario": scn.name,
        "runs": [
            {
                "strategy": r.strategy,
                "gamma": r.gamma,
                "seed": r.seed,
                "migrations": r.migrations,
                "slots": [rep.to_dict() for rep in r.reports],
            }
            for r in results
        ],
    }
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def cmd_partition(args: argparse.Namespace) -> int:
    config = _resolve_config(args.config)
    strategies = _strategies(args.strategies, config)
    seed = _seeds(args.seed, config)[0]
    lo, hi = _slot_range(args.slots)
    scn = build_scenario(config)
    if hi is None:
        hi = len(scn.slots)
    if not 0 <= lo <= hi <= len(scn.slots):
        raise ConfigError(f"--slots: {args.slots!r} is not a range within [0, {len(scn.slots)}]")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    any_violation = False
    report: dict = {"config_sha256": scn.config_hash, "seed": seed, "strategies": {}}
    for strategy in strategies:
        chain = partition_chain(scn, strategy, gamma=1.0)
        rows = []
        violations_by_slot = {}
        for geom, assignment in list(zip(scn.geometries, chain))[lo:hi]:
            rows.extend(assignment.to_rows())
            # partition_slot has validated every eunomia assignment; it raises on a violation
            violations = [] if strategy == "eunomia" else validate_assignment(
                assignment, geom.slot.snapshot, geom.fov_domains
            )
            if violations:
                any_violation = True
                violations_by_slot[geom.slot.index] = [
                    {"constraint": v.constraint, "message": v.message} for v in violations
                ]
        csv_path = out_dir / f"assignments_{strategy}.csv"
        with csv_path.open("w", newline="") as fh:
            fh.write(_provenance_line(scn, [seed]) + "\n")
            writer = csv.writer(fh)
            writer.writerow(["slot", "leo_id", "controller_id"])
            writer.writerows(rows)
        (out_dir / f"assignments_{strategy}.json").write_text(
            json.dumps(
                {
                    "config_sha256": scn.config_hash,
                    "seed": seed,
                    "strategy": strategy,
                    "assignments": [
                        {"slot": s, "leo_id": leo, "controller_id": k}
                        for s, leo, k in rows
                    ],
                },
                sort_keys=True,
                indent=2,
            )
            + "\n"
        )
        report["strategies"][strategy] = {
            "slots_checked": hi - lo,
            "violations": violations_by_slot,
            "uncovered_per_slot": {
                str(a.slot_index): len(a.uncovered) for a in chain[lo:hi] if a.uncovered
            },
        }
        print(f"{strategy}: {hi - lo} slots partitioned, "
              f"{len(violations_by_slot)} slots with violations -> {csv_path}")
    (out_dir / "constraint_report.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n"
    )
    return 1 if any_violation else 0


def _run_one(scn: Scenario, strategy: str, gamma: float, seed: int) -> RunResult:
    return run_scenario(scn, strategy, [gamma], [seed])[0]


# set only inside ``emulate --threads`` worker processes, once, by the pool initializer
_worker_scenario: Scenario | None = None


def _init_worker(scn: Scenario) -> None:
    global _worker_scenario
    _worker_scenario = scn


def _run_in_worker(strategy: str, gamma: float, seed: int) -> RunResult:
    return _run_one(_worker_scenario, strategy, gamma, seed)


def cmd_emulate(args: argparse.Namespace) -> int:
    if args.threads < 1:
        raise ConfigError(f"--threads: expected a positive worker count, got {args.threads}")
    config = _resolve_config(args.config)
    strategies = _strategies(args.strategies, config)
    gammas = _gammas(args.gamma) if args.gamma else config.gammas
    seeds = _seeds(args.seed, config)
    scn = build_scenario(config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    tasks = [(s, g, sd) for s in strategies for g in gammas for sd in seeds]
    results: list[RunResult] = []
    if args.threads > 1:
        with ProcessPoolExecutor(
            max_workers=args.threads, initializer=_init_worker, initargs=(scn,)
        ) as pool:
            futures = [pool.submit(_run_in_worker, s, g, sd) for s, g, sd in tasks]
            results = [f.result() for f in futures]
    else:
        for s, g, sd in tasks:
            results.append(_run_one(scn, s, g, sd))

    stats_path = out_dir / "stats.csv"
    _write_stats_csv(stats_path, scn, results)
    _write_overhead_json(out_dir / "overhead.json", scn, results)
    with (out_dir / "overhead.csv").open("w", newline="") as fh:
        fh.write(_provenance_line(scn, sorted({r.seed for r in results})) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["strategy", "gamma", "seed", "slot", "component", "value"])
        for result in results:
            for report in result.reports:
                for slot, component, value in report.to_csv_rows():
                    writer.writerow(
                        [result.strategy, repr(result.gamma), result.seed,
                         slot, component, repr(value)]
                    )
    total_req = sum(st.requests_total for r in results for st in r.stats)
    print(f"{len(results)} runs over {len(scn.slots)} slots, "
          f"{total_req} requests -> {stats_path}")
    return 0


# the stats columns the report reads, and how each is parsed
_REPORT_NUMBERS = {
    "gamma": float, "seed": int, "requests": float, "drops": float, "mean_resp_s": float,
    "bytes_flow": float, "bytes_sync": float, "bytes_ho": float,
}


def _read_stats_csv(path: Path) -> list[dict]:
    """The rows of a stats file, with the columns the report reads parsed;
    ConfigError names the path, the data row and the column of a value
    that does not parse."""
    lines = [ln for ln in io.StringIO(read_input(path)) if not ln.startswith("#")]
    reader = csv.DictReader(lines)
    if reader.fieldnames != CSV_COLUMNS:
        raise ConfigError(
            f"{path}: unexpected columns {reader.fieldnames}, expected {CSV_COLUMNS}"
        )
    rows = list(reader)
    for n, row in enumerate(rows, start=1):
        for column, parse in _REPORT_NUMBERS.items():
            try:
                row[column] = parse(row[column])
            except (TypeError, ValueError):
                raise ConfigError(
                    f"{path}: row {n}: {column} = {row[column]!r} is not a number"
                ) from None
    return rows


def _read_overhead_json(path: str) -> list[tuple[str, float, list[tuple]]]:
    """(strategy, gamma, per-slot components) of each run of an overhead file,
    the components as the report averages them: w_flow, w_sync, w_mig,
    w_ctl, w_cpt and eta_control (None where undefined). ConfigError names
    the path and what is missing or malformed."""
    try:
        return [
            (
                run["strategy"],
                float(run["gamma"]),
                [
                    (s["w_flow"], s["w_sync_in"] + s["w_sync_out"], s["w_mig"], s["w_ctl"],
                     s["w_cpt_intra"] + s["w_cpt_inter"], s["eta_control"])
                    for s in run["slots"]
                ],
            )
            for run in json.loads(read_input(path))["runs"]
        ]
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not JSON: {exc}") from None
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed runs: {exc}") from None


def _mean_cell(values: list[float]) -> str:
    """The mean as the report writes it, or an empty cell for no values."""
    return repr(float(np.mean(values))) if values else ""


def cmd_report(args: argparse.Namespace) -> int:
    rows: list[dict] = []
    for path in args.stats:
        rows.extend(_read_stats_csv(Path(path)))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # per (strategy, gamma, seed): totals over slots
    summed = ("requests", "drops", "bytes_flow", "bytes_sync", "bytes_ho")
    per_seed: dict[tuple[str, float, int], dict[str, float]] = {}
    for row in rows:
        key = (row["strategy"], row["gamma"], row["seed"])
        agg = per_seed.setdefault(key, dict.fromkeys((*summed, "served", "resp_weighted"), 0.0))
        for name in summed:
            agg[name] += row[name]
        served = row["requests"] - row["drops"]
        agg["served"] += served
        agg["resp_weighted"] += row["mean_resp_s"] * served

    groups: dict[tuple[str, float], list[dict[str, float]]] = {}
    for (strategy, gamma, _seed), agg in sorted(per_seed.items()):
        groups.setdefault((strategy, gamma), []).append(agg)

    report_path = out_dir / "report_by_gamma.csv"
    with report_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["strategy", "gamma", "seeds", "requests_mean",
             "drop_rate_mean", "drop_rate_std",
             "mean_resp_s_mean", "mean_resp_s_std",
             "bytes_flow_mean", "bytes_sync_mean", "bytes_ho_mean"]
        )
        for (strategy, gamma), aggs in sorted(groups.items()):
            drop_rates = [
                a["drops"] / a["requests"] if a["requests"] else 0.0 for a in aggs
            ]
            resp_means = [
                a["resp_weighted"] / a["served"] if a["served"] else 0.0 for a in aggs
            ]
            writer.writerow([
                strategy,
                repr(gamma),
                len(aggs),
                repr(float(np.mean([a["requests"] for a in aggs]))),
                repr(float(np.mean(drop_rates))),
                repr(float(np.std(drop_rates))),
                repr(float(np.mean(resp_means))),
                repr(float(np.std(resp_means))),
                repr(float(np.mean([a["bytes_flow"] for a in aggs]))),
                repr(float(np.mean([a["bytes_sync"] for a in aggs]))),
                repr(float(np.mean([a["bytes_ho"] for a in aggs]))),
            ])
    print(f"{len(groups)} (strategy, gamma) groups -> {report_path}")

    if args.overhead:
        oh_groups: dict[tuple[str, float], list[tuple]] = {}
        for path in args.overhead:
            for strategy, gamma, slots in _read_overhead_json(path):
                oh_groups.setdefault((strategy, gamma), []).extend(slots)
        oh_path = out_dir / "report_overhead.csv"
        with oh_path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["strategy", "gamma", "w_flow_mean", "w_sync_mean",
                             "w_mig_mean", "w_ctl_mean", "w_cpt_mean", "eta_mean"])
            for (strategy, gamma), slots in sorted(oh_groups.items()):
                *components, etas = zip(*slots) if slots else ([],) * 6
                writer.writerow([
                    strategy,
                    repr(gamma),
                    *(_mean_cell(list(c)) for c in components),
                    _mean_cell([e for e in etas if e is not None]),
                ])
        print(f"overhead aggregation -> {oh_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eunomia",
        description="Domain partitioning and control-plane emulation for "
                    "hierarchical satellite networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config",
        help=f"scenario YAML path or preset name ({', '.join(PRESET_CONFIGS)}); "
             f"defaults to ${CONFIG_ENV_VAR}",
    )
    common.add_argument("--out-dir", default="out", help="output directory")
    common.add_argument("--seed", type=int, default=None,
                        help="override config seeds (they seed the emulator's arrivals; "
                             "partition assignments do not depend on them)")
    common.add_argument("--strategies", help="comma-separated strategy override")

    p_part = sub.add_parser("partition", parents=[common],
                            help="partition slots and check constraints")
    p_part.add_argument("--slots", help="slot range start:end")
    p_part.set_defaults(func=cmd_partition)

    p_emu = sub.add_parser("emulate", parents=[common],
                           help="run the control-plane emulation grid")
    p_emu.add_argument("--gamma", help="comma-separated traffic scales override")
    p_emu.add_argument("--threads", type=int, default=1,
                       help="parallel worker processes")
    p_emu.set_defaults(func=cmd_emulate)

    p_rep = sub.add_parser("report", help="aggregate stats files across seeds")
    p_rep.add_argument("stats", nargs="+", help="stats CSV files")
    p_rep.add_argument("--overhead", nargs="*", help="overhead JSON files")
    p_rep.add_argument("--out-dir", default="out", help="output directory")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

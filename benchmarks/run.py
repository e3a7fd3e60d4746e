"""eunomia benchmark: time CLI-shaped jobs end to end, and layer by layer.

    python3 benchmarks/run.py --workload desk-sweep --seed 1 --seconds 30 --trace 0

Workloads, metric names and units are declared in BENCHMARK.json at the
repository root. Each repetition runs ``job.py`` in a fresh process with one
BLAS thread; repetitions continue until ``--seconds`` have passed and at
least MIN_REPS have run. End-to-end metrics summarise the untraced
repetitions: setup_s and peak_rss_mb by their median, run_s by its mean.
With ``--trace 1`` one more, traced, repetition supplies the per-layer
metrics instead, together with the tracing overhead: its run_s minus the
untraced mean.

The outputs are correct when every operation passes its checks and every
repetition hashes to the same digest. The last line of stdout is the result
as one JSON object; the lines before it are for people.

benchmarks/baseline.json records the environment and the numbers measured
at the commit that introduced the benchmark. Self-tests:
python3 -m pytest benchmarks/tests
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 3
BUDGET_S = 170.0  # the whole benchmark must end within 180 s
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def repetition(workload: str, seed: int, trace: bool, timeout_s: float) -> dict:
    """Run job.py once in a fresh process and return its JSON result."""
    cmd = [sys.executable, str(HERE / "job.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env={**os.environ, **SINGLE_THREAD},
            capture_output=True, text=True, timeout=timeout_s,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"repetition exceeded {timeout_s:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"repetition exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit() -> str:
    """The checked-out commit, when the checkout is a git work tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else "unknown"
    return ref


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "eunomia" / "__init__.py").is_file():
        raise BenchError(f"no eunomia package under {ROOT / 'src'}")

    start = monotonic()
    reps: list[dict] = []
    while True:
        elapsed = monotonic() - start
        if len(reps) >= MIN_REPS and elapsed >= args.seconds:
            break
        if reps and elapsed + 2 * max(r["wall_s"] for r in reps) > BUDGET_S:
            break  # a traced repetition may still have to follow
        t0 = monotonic()
        rep = repetition(args.workload, args.seed, False, BUDGET_S - elapsed)
        rep["wall_s"] = monotonic() - t0
        reps.append(rep)
        print(f"rep {len(reps)}: setup_s={rep['setup_s']:.4f} run_s={rep['run_s']:.4f} "
              f"peak_rss_mb={rep['peak_rss_mb']:.1f} slots={rep['slots']} "
              f"failed={rep['failed']}/{rep['attempted']} digest={rep['digest'][:16]}")
    reps_checked = list(reps)
    if args.trace:
        traced = repetition(args.workload, args.seed, True, BUDGET_S - (monotonic() - start))
        reps_checked.append(traced)

    # run_s is the mean over repetitions: the host's slow spells make
    # per-repetition times bimodal, and a median of a few such samples jumps
    # between the modes while the mean moves with the share of slow time
    summary = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "run_s": statistics.mean(r["run_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    attempted = sum(r["attempted"] for r in reps_checked)
    # a repetition whose digest differs from the first fails all its operations
    failed = sum(
        r["attempted"] if r["digest"] != reps[0]["digest"] else r["failed"]
        for r in reps_checked
    )

    env = reps[0]["env"]
    print(f"env: python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
          f"nproc {env['nproc']} openblas_threads {env['openblas_threads']} commit {commit()}")
    print(f"{args.workload} seed={args.seed} reps={len(reps)} digest={reps[0]['digest']}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in summary.items():
        print(f"  {name:<12} {value:12.4f} {units[name]}")
    print(f"  {'failed_frac':<12} {failed / attempted:12.4f} ratio ({failed} of {attempted})")

    if args.trace:
        layers = dict(traced["layers"])
        layers["trace.run_s"] = traced["run_s"]
        layers["trace.overhead_s"] = traced["run_s"] - summary["run_s"]
        names = [m["name"] for m in spec["per_layer"]]
        missing = sorted(set(names) - layers.keys())
        if missing:
            raise BenchError(f"traced run lacks per-layer metrics {missing}")
        for name in names:
            print(f"  {name:<48} {layers[name]:14.6g} {units[name]}")
        values = {name: layers[name] for name in names}
    else:
        values = {m["name"]: summary[m["name"]] for m in spec["end_to_end"]}

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)

"""Per-layer tracing for the benchmark, installed from outside the package.

Each target is a public function or method of an ``eunomia`` module. The
tracer replaces it, for the duration of a ``with installed(tracer):`` block,
at every module attribute or class attribute that holds it, which is where
callers look it up at run time. Nothing inside ``src/`` is edited.

Timed targets record one span per call: key, start, end and the span that
was open when it started. Counted targets, the hot scalar helpers, only count
calls, so tracing does not multiply their cost. A target missing from the
package is skipped and reports 0 calls.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

# Percentiles a tail may be reported at, highest first. A tail needs at least
# TAIL_BEYOND samples above it; below p50 it would not be a tail.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


@dataclass
class Span:
    key: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level


class Tracer:
    """Spans and counters recorded by the wrappers ``installed`` puts in place."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    def timed(self, key: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = Span(key, 0.0, 0.0, self._open[-1] if self._open else -1)
            self.spans.append(span)
            self.calls[key] += 1
            self._open.append(index)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{key}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                span.end = perf_counter()
                self._open.pop()
            if on_result is not None:
                on_result(self, out)
            return out

        return wrapper

    def counted(self, key: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper


def _spectral_result(tracer: Tracer, out) -> None:
    # spectral_cluster returns (clusters, fallback_used)
    if isinstance(out, tuple) and len(out) == 2 and out[1]:
        tracer.counts["partition.spectral_cluster.fallbacks"] += 1


def _run_slot_result(tracer: Tracer, out) -> None:
    tracer.counts["emulator.requests"] += out.requests_total
    tracer.counts["emulator.dropped"] += out.requests_dropped


def _traffic_result(tracer: Tracer, out) -> None:
    rates = out.rates
    if hasattr(rates, "nnz"):  # scipy.sparse storage
        stored = rates.data.nbytes + rates.indices.nbytes + rates.indptr.nbytes
        nonzero = rates.nnz
    else:
        stored = rates.nbytes
        nonzero = int((rates != 0).sum())
    tracer.counts["traffic.stored_bytes"] += stored
    tracer.counts["traffic.nonzero"] += nonzero
    tracer.counts["traffic.entries"] += rates.shape[0] * rates.shape[1]


# (module, attribute path, result hook); the metric key is module.<last name>
TIMED = (
    ("constellation", "Constellation.snapshot", None),
    ("visibility", "segment_time_slots", None),
    ("visibility", "build_slot_geometry", None),
    ("visibility", "compute_fov_domains", None),
    ("traffic", "slot_traffic_matrix", _traffic_result),
    ("traffic", "scale", None),
    ("partition", "partition_slot", None),
    ("partition", "greedy_partition", None),
    ("partition", "odc_partition", None),
    ("partition", "km_match", None),
    ("partition", "fine_tune_boundaries", None),
    ("partition", "spectral_cluster", _spectral_result),
    ("corg", "build_corg", None),
    ("corg", "similarity", None),
    ("spectral", "spectral_embedding", None),
    ("spectral", "kmeans", None),
    ("hungarian", "solve_lexicographic", None),
    ("overhead", "validate_assignment", None),
    ("overhead", "control_routes", None),
    ("overhead", "evaluate", None),
    ("emulator", "run_slot", _run_slot_result),
    ("emulator", "generate_arrivals", None),
)
# scalar helpers called up to millions of times per run: calls only
COUNTED = (
    ("constellation", "NetworkSnapshot.distance_km"),
    ("overhead", "hop_cost"),
    ("partition", "DomainAssignment.domains"),
)


def _resolve(module_name: str, path: str):
    """(owner, attribute name, original) or None when the target is gone."""
    try:
        owner = importlib.import_module(f"eunomia.{module_name}")
    except ModuleNotFoundError:
        return None
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            return None
    original = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if original is None:
        return None
    return owner, name, original


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target that exists, and restore the originals on exit."""
    patches: list[tuple[object, str, object]] = []
    targets = [(m, p, "timed", hook) for m, p, hook in TIMED]
    targets += [(m, p, "counted", None) for m, p in COUNTED]
    try:
        for module_name, path, mode, hook in targets:
            found = _resolve(module_name, path)
            if found is None:
                continue
            owner, name, original = found
            key = f"{module_name}.{name}"
            wrapper = (
                tracer.timed(key, original, hook)
                if mode == "timed"
                else tracer.counted(key, original)
            )
            if isinstance(owner, type):
                patches.append((owner, name, original))
                setattr(owner, name, wrapper)
                continue
            # a module-level function: rebind every module global that holds
            # it, since `from .x import f` copies the reference into callers
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "eunomia" or mod_name.startswith("eunomia.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(i)
    out = []
    for i, span in enumerate(spans):
        intervals = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children.get(i, ())
        )
        covered, reach = 0.0, span.start  # union length of the child intervals
        for start, end in intervals:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank of a percentile, in integers (pct has one decimal)."""
    return -(-round(pct * 10) * n // 1000)


def tail_pct(n: int) -> float | None:
    """Highest ladder percentile with at least TAIL_BEYOND samples above its
    nearest-rank value, or None when no percentile qualifies."""
    for pct in TAIL_LADDER:
        if n - _rank(pct, n) >= TAIL_BEYOND:
            return pct
    return None


def latency_summary(durations_s: list[float]) -> dict[str, float]:
    """p50, tail and sample count in ms; a missing tail reads 0."""
    n = len(durations_s)
    pct = tail_pct(n)
    ordered = sorted(durations_s)
    return {
        "p50_ms": 1e3 * statistics.median(ordered) if n else 0.0,
        "tail_ms": 1e3 * ordered[_rank(pct, n) - 1] if pct else 0.0,
        "tail_pct": pct or 0.0,
        "n": n,
    }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Flatten spans and counters into ``<module>.<function>.<stat>`` values."""
    inclusive: Counter[str] = Counter()
    exclusive: Counter[str] = Counter()
    samples: dict[str, list[float]] = {}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        inclusive[span.key] += span.end - span.start
        exclusive[span.key] += own
        samples.setdefault(span.key, []).append(span.end - span.start)

    out: dict[str, float] = {}
    for module_name, path, _hook in TIMED:
        key = f"{module_name}.{path.split('.')[-1]}"
        out[f"{key}.calls"] = tracer.calls[key]
        out[f"{key}.s"] = inclusive[key]
        out[f"{key}.self_s"] = exclusive[key]
    for module_name, path in COUNTED:
        key = f"{module_name}.{path.split('.')[-1]}"
        out[f"{key}.calls"] = tracer.calls[key]
    for key in ("partition.partition_slot", "emulator.run_slot"):
        for stat, value in latency_summary(samples.get(key, [])).items():
            out[f"{key}.{stat}"] = value

    counts = tracer.counts
    out["partition.km_match.infeasible"] = counts[
        "partition.km_match.raised.InfeasibleMatchingError"
    ]
    fallbacks = counts["partition.spectral_cluster.fallbacks"]
    clustered = tracer.calls["partition.spectral_cluster"]
    out["partition.spectral_cluster.fallbacks"] = fallbacks
    out["partition.spectral_cluster.fallback_frac"] = fallbacks / clustered if clustered else 0.0
    out["traffic.rates_mb"] = counts["traffic.stored_bytes"] / 2**20
    entries = counts["traffic.entries"]
    out["traffic.nonzero_frac"] = counts["traffic.nonzero"] / entries if entries else 0.0
    out["emulator.requests"] = counts["emulator.requests"]
    out["emulator.dropped"] = counts["emulator.dropped"]
    run_slot_s = inclusive["emulator.run_slot"]
    out["emulator.requests_per_s"] = counts["emulator.requests"] / run_slot_s if run_slot_s else 0.0
    return out

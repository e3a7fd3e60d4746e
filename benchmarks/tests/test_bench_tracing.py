"""Self-tests for the benchmark's tracing arithmetic and patching."""
import json
from pathlib import Path

import pytest

import tracing
from tracing import Span, Tracer, installed, latency_summary, layer_metrics, self_times, tail_pct

ROOT = Path(__file__).resolve().parents[2]


def test_self_time_subtracts_nested_children():
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 4.0, 0),
        Span("c", 2.0, 3.0, 1),  # grandchild: counts against b only
        Span("d", 6.0, 7.5, 0),
        Span("e", 20.0, 21.0, -1),
    ]
    assert self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 2.0, 5.0, 0),
        Span("c", 4.0, 6.0, 0),  # overlaps b: union 2..6
        Span("d", 9.0, 12.0, 0),  # runs past the parent: clipped to 9..10
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (1, None), (5, None), (10, None), (11, None), (19, None),
     (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (1000, 99.0), (10000, 99.9)],
)
def test_tail_pct_leaves_ten_samples_beyond(n, expected):
    assert tail_pct(n) == expected


def test_latency_summary_reports_no_tail_below_enough_samples():
    few = latency_summary([0.001 * i for i in range(1, 11)])
    assert few["n"] == 10 and few["tail_pct"] == 0.0 and few["tail_ms"] == 0.0
    assert few["p50_ms"] == pytest.approx(5.5)
    many = latency_summary([0.001 * i for i in range(1, 101)])
    assert many["tail_pct"] == 90.0
    assert many["tail_ms"] == pytest.approx(90.0)  # nearest rank: 10 samples above it


def test_installed_wraps_callers_and_restores():
    from eunomia import emulator, overhead

    original = overhead.validate_assignment
    tracer = Tracer()
    with installed(tracer):
        assert emulator.validate_assignment is not original  # the caller's copy
        assert overhead.validate_assignment is emulator.validate_assignment
    assert emulator.validate_assignment is original
    assert overhead.validate_assignment is original


def test_missing_target_reports_zero_calls(monkeypatch):
    monkeypatch.setattr(
        tracing, "TIMED", tracing.TIMED + (("overhead", "no_such_function", None),)
    )
    monkeypatch.setattr(
        tracing, "COUNTED", tracing.COUNTED + (("no_such_module", "f"), ("partition", "Nope.f"))
    )
    tracer = Tracer()
    with installed(tracer):
        pass
    metrics = layer_metrics(tracer)
    assert metrics["overhead.no_such_function.calls"] == 0
    assert metrics["no_such_module.f.calls"] == 0


def test_layer_metrics_cover_the_declared_per_layer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    added_by_run = {"trace.run_s", "trace.overhead_s"}
    assert declared - added_by_run <= layer_metrics(Tracer()).keys()

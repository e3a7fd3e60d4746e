"""The three-step partitioner, step by step, on one desk-scenario slot.

Shows exclusive assignment, per-region spectral clustering on the
control-overhead relationship graph, optimal cluster-controller matching,
movement-aware fine-tuning, and the constraint validation of the result.
A small brute-force comparison puts the heuristic's objective in context.
"""
import numpy as np

from eunomia.corg import build_corg, corg_edges, similarity
from eunomia.overhead import evaluate, validate_assignment
from eunomia.partition import (
    brute_force_partition,
    greedy_partition,
    odc_partition,
    partition_slot,
    step1_exclusive_assign,
)
from eunomia.scenario import build_scenario, desk_config

scn = build_scenario(desk_config(), horizon_s=300.0)
geom = scn.geometries[0]
snap = geom.slot.snapshot
traffic = scn.base_traffic[0]

print("=== Step 1: exclusive zones ===")
assigned = step1_exclusive_assign(geom.fov_domains)
count = geom.fov_domains.sum(axis=0)
print(f"direct assignments: {(assigned >= 0).sum()}; contested: {(count >= 2).sum()}; "
      f"uncovered: {(count == 0).sum()}")

print("\n=== Step 2: spectral clustering per overlap region ===")
edges = corg_edges(geom.regions, traffic, snap, scn.ctx.overhead_params, geom.fov_domains)
for region in geom.regions:
    corg = build_corg(region, edges)
    sim = similarity(corg)
    print(f"region {sorted(region.leo_ids)} (controllers {region.controller_ids}): "
          f"{len(corg.xi)} edges, kernel bandwidth {sim.sigma:.4f}")

print("\n=== Step 3: full pipeline and baselines ===")
assignments = {
    "eunomia": partition_slot(scn.ctx, geom, traffic, None),
    "odc": odc_partition(scn.ctx, geom),
    "greedy": greedy_partition(scn.ctx, geom),
}
for name, assignment in assignments.items():
    violations = validate_assignment(assignment, snap, geom.fov_domains)
    report = evaluate(
        assignment, traffic, snap, scn.ctx.overhead_params, geom.fov_domains, validate=False
    )
    managed = assignment.controller[assignment.controller >= 0]
    sizes = sorted(np.unique(managed, return_counts=True)[1].tolist())
    print(f"{name:8s} domains {sizes}  W_CTL {report.w_ctl:7.3f} s/s  "
          f"objective {report.objective:7.3f}  violations {len(violations)}")

print("\n=== Brute-force oracle on a tiny synthetic instance ===")
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from test_partition import _toy_ctx, _toy_instance  # noqa: E402

toy_snap, toy_slot, toy_geom, toy_tm = _toy_instance(100)
ctx = _toy_ctx()
heuristic = partition_slot(ctx, toy_geom, toy_tm, None)
optimal, best_value = brute_force_partition(ctx, toy_geom, toy_tm)
got = evaluate(
    heuristic, toy_tm, toy_snap, ctx.overhead_params, toy_geom.fov_domains, validate=False
).objective
print(f"heuristic objective {got:.4f} vs exhaustive optimum {best_value:.4f} "
      f"(ratio {got / best_value:.3f})")

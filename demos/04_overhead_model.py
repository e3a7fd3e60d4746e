"""Analytic control-overhead decomposition across strategies.

Evaluates every overhead component (flow-table updates, intra/inter
synchronization, migration, path computation) for one slot under each
partitioning strategy, and traces how the components respond to the sync
frequency and the traffic scale.
"""
from eunomia.emulator import partition_chain
from eunomia.overhead import evaluate
from eunomia.scenario import build_scenario, desk_config
from eunomia.traffic import scale

scn = build_scenario(desk_config(), horizon_s=300.0)
geom = scn.geometries[1]
traffic = scn.base_traffic[1]

print(f"slot {geom.slot.index}: [{geom.slot.start_s}, {geom.slot.end_s}) s")
header = f"{'strategy':8s} {'W_FLOW':>8s} {'W_SYNCi':>8s} {'W_SYNCo':>8s} {'W_MIG':>8s} " \
         f"{'W_CTL':>8s} {'W_CPT':>8s} {'eta':>6s}"
print(header)
for strategy in ("eunomia", "odc", "greedy"):
    chain = partition_chain(scn, strategy, gamma=1.0)
    report = evaluate(
        chain[1],
        traffic,
        geom.slot.snapshot,
        scn.ctx.overhead_params,
        geom.fov_domains,
        prev_assignment=chain[0],
        slot_duration_s=geom.slot.end_s - geom.slot.start_s,
        validate=False,
    )
    print(
        f"{strategy:8s} {report.w_flow:8.4f} {report.w_sync_in:8.4f} "
        f"{report.w_sync_out:8.4f} {report.w_mig:8.6f} {report.w_ctl:8.4f} "
        f"{report.w_cpt_intra + report.w_cpt_inter:8.4f} "
        f"{report.eta_control if report.eta_control is not None else float('nan'):6.3f}"
    )

print("\n=== Traffic scaling (eunomia, gamma sweep) ===")
chain = partition_chain(scn, "eunomia", gamma=1.0)
for gamma in (0.0, 0.25, 0.5, 1.0):
    report = evaluate(
        chain[1],
        scale(traffic, gamma),
        geom.slot.snapshot,
        scn.ctx.overhead_params,
        geom.fov_domains,
        validate=False,
    )
    eta = f"{report.eta_control:.3f}" if report.eta_control is not None else "n/a"
    print(f"gamma {gamma:4.2f}: W_FLOW {report.w_flow:7.4f}  W_CTL {report.w_ctl:7.4f}  "
          f"control efficiency {eta}")
print("\nFlow-table work scales with traffic while synchronization stays fixed, "
      "so control efficiency rises with load.")

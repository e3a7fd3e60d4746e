"""Walk through constellation generation, propagation, and visibility.

Builds the desk network (66-switch shell, 6 controller satellites at
10354 km, three ground stations), prints orbital parameters, and shows how
controller fields of view carve the switch population into exclusive zones,
contested overlap regions, and uncovered satellites.
"""
import numpy as np

from eunomia.constellation import (
    LEO_SHELLS,
    MEO_SHELLS,
    R_EARTH_KM,
    Constellation,
    orbital_period,
)
from eunomia.visibility import (
    FovTimeline,
    compute_fov_domains,
    compute_overlap_regions,
    segment_time_slots,
)

print("=== Preset shells ===")
for name, spec in {**LEO_SHELLS, **MEO_SHELLS}.items():
    period_min = orbital_period(spec.orbital_radius_km) / 60.0
    print(
        f"{name:13s} alt {spec.altitude_km:7.0f} km  inc {spec.inclination_deg:6.2f} deg  "
        f"{spec.num_planes:2d} x {spec.sats_per_plane:2d} sats  period {period_min:7.2f} min"
    )

const = Constellation.build(
    LEO_SHELLS["iridium780"],
    MEO_SHELLS["meo10354"],
    [("new_york", 40.7128, -74.0060), ("london", 51.5074, -0.1278), ("tokyo", 35.6762, 139.6503)],
)
snap = const.snapshot(0.0)
print(f"\n=== Snapshot at t=0 ===")
print(f"{len(snap.leo_ids)} switches, {len(snap.controller_ids)} controllers, "
      f"{len(snap.topology.edge_array)} inter-satellite links")

fov = compute_fov_domains(snap)  # (controller x switch), row c is controller n_LEO + c
n_cover = fov.sum(axis=0)
exclusive = int((n_cover == 1).sum())
contested = int((n_cover >= 2).sum())
uncovered = int((n_cover == 0).sum())
print(f"\n=== Field-of-view structure ===")
for k, row in enumerate(fov, start=len(snap.leo_ids)):
    role = snap.roles[k].value
    print(f"controller {k} ({role}): sees {row.sum()} switches")
print(f"exclusive {exclusive}, contested {contested}, uncovered {uncovered} "
      f"(the low-inclination controller shell cannot reach polar passes)")

regions = compute_overlap_regions(fov, snap)
print(f"\n=== Overlap regions ===")
for region in regions:
    print(f"  {sorted(region.leo_ids)} contested by controllers {region.controller_ids}")

print("\n=== Topology-stable time slots (first 10 over 30 min) ===")
slots = segment_time_slots(FovTimeline(const), 1800.0, 15.0)
for slot in slots[:10]:
    print(f"  slot {slot.index}: [{slot.start_s:7.1f} s, {slot.end_s:7.1f} s)")
durations = [s.end_s - s.start_s for s in slots]
print(f"{len(slots)} slots; median duration {np.median(durations):.0f} s")

"""Ground-cell gravity traffic and its mapping onto satellites.

Shows the 648-cell grid, the diurnal cycle, and how cell-pair demand turns
into a switch-to-switch flow arrival matrix through serving-satellite
selection.
"""
import numpy as np

from eunomia.constellation import LEO_SHELLS, Constellation
from eunomia.traffic import (
    TrafficParams,
    build_grid,
    cell_positions,
    city_density_field,
    demand_matrix,
    diurnal_factors,
    slot_traffic_matrix,
)

params = TrafficParams(gravity_constant=1.25e6)
cells = build_grid(city_density_field(params.city_sigma_deg, params.background_density))
weights = np.array([c.density_weight for c in cells])
print(f"{len(cells)} cells; weight range [{weights.min():.3f}, {weights.max():.3f}]")
top = sorted(cells, key=lambda c: -c.density_weight)[:5]
print("heaviest cells (lat, lon):", [c.center for c in top])

print("\n=== Diurnal factor over a day (London cell) ===")
london = min(cells, key=lambda c: (c.center[0] - 51.5) ** 2 + (c.center[1] - (-0.1)) ** 2)
for hour in range(0, 24, 3):
    f = diurnal_factors([london], hour * 3600.0)[0]
    bar = "#" * int(40 * f)
    print(f"  {hour:02d}:00 UTC  {f:4.2f} {bar}")

const = Constellation.build(LEO_SHELLS["iridium780"], None, [])
static = demand_matrix(cells, params)
cell_pos = cell_positions(cells)
print("\n=== Mapping onto the 66-switch shell at three instants ===")
for t in (0.0, 1800.0, 3600.0):
    tm = slot_traffic_matrix(cells, cell_pos, static, const.snapshot(t), 0, params)
    nz = (tm.rates > 0).sum()
    print(
        f"t={t:6.0f} s: total {tm.total_rate():6.2f} flows/s over {nz} pairs; "
        f"local {tm.local_rate:6.2f}, unserved {tm.unserved_rate:.4f}"
    )

tm = slot_traffic_matrix(cells, cell_pos, static, const.snapshot(0.0), 0, params)
busiest = sorted(tm.nonzero_pairs(), key=lambda x: -x[2])[:5]
print("\nbusiest switch pairs (src, dst, flows/s):")
for src, dst, rate in busiest:
    print(f"  {src:3d} -> {dst:3d}  {rate:7.3f}")

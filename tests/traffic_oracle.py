"""Dense reference for ``traffic.map_to_satellites``: one |V| x |V| matrix.

The mapping is written the direct way: every cell's position is rebuilt from
its centre on each call, every LEO gets a column of the cell-to-satellite
selection matrix whether or not it serves a cell, and the full product
``sel.T @ demands @ sel`` is returned. Poisson arrivals are drawn from the
nonzero entries of that full matrix. Tests compare the package's compact
block, its row and column gathers and its arrivals against these.
"""
import math

import numpy as np

from eunomia.constellation import R_EARTH_KM
from eunomia.visibility import elevation_matrix


def oracle_serving_satellites(cells, snapshot):
    """Index (into snapshot.leo_ids) of each cell's maximum-elevation visible
    LEO, or -1 when no LEO is above the horizon."""
    cell_pos = np.array(
        [
            R_EARTH_KM
            * np.array(
                [
                    math.cos(math.radians(c.center[0])) * math.cos(math.radians(c.center[1])),
                    math.cos(math.radians(c.center[0])) * math.sin(math.radians(c.center[1])),
                    math.sin(math.radians(c.center[0])),
                ]
            )
            for c in cells
        ]
    )
    leo_pos = snapshot.positions[list(snapshot.leo_ids)]
    elev = elevation_matrix(cell_pos, leo_pos)
    best = np.argmax(elev, axis=1)
    best[elev[np.arange(len(cells)), best] < 0.0] = -1
    return best


def oracle_map_to_satellites(cells, demands, snapshot):
    """(dense rates, unserved rate, local rate) over all LEOs of ``snapshot``."""
    serving = oracle_serving_satellites(cells, snapshot)
    n_leo = len(snapshot.leo_ids)
    served = serving >= 0

    unserved = float(demands[~served, :].sum() + demands[:, ~served].sum()
                     - demands[np.ix_(~served, ~served)].sum())

    sel = np.zeros((len(cells), n_leo))
    sel[np.nonzero(served)[0], serving[served]] = 1.0
    rates = sel.T @ demands @ sel
    local = float(np.trace(rates))
    np.fill_diagonal(rates, 0.0)
    return rates, unserved, local


def oracle_generate_arrivals(full, duration_s, seed, slot_index):
    """``emulator.generate_arrivals`` over the dense matrix ``full``."""
    rng = np.random.default_rng([seed, slot_index])
    src_nz, dst_nz = np.nonzero(full)
    lam = full[src_nz, dst_nz] * duration_s
    counts = rng.poisson(lam)
    total = int(counts.sum())
    srcs = np.repeat(src_nz, counts)
    dsts = np.repeat(dst_nz, counts)
    times = rng.random(total) * duration_s
    marks = rng.random(total)
    order = np.argsort(times, kind="stable")
    return times[order], srcs[order], dsts[order], marks[order]

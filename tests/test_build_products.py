"""Pinned scenario build products: one SHA-256 per slot and product.

``build_scenario``'s per-slot outputs for the desk preset at 600 s and the
``default`` preset at 240 s: the gamma = 1 traffic block (``active``, the
``rates`` bytes, ``unserved_rate`` and ``local_rate``), the FOV arrays at the
slot start, the next sampling instant and the lookahead, and each overlap
region's members and controllers. A drift in setup fails here, naming the
slot and the product, before it reaches the emulation goldens.

Regenerate (only after an intended behaviour change, recorded in CHANGES.md):

    PYTHONPATH=src:tests python tests/test_build_products.py
"""
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from eunomia.scenario import build_scenario, default_config, desk_config

GOLDEN = Path(__file__).parent / "data" / "golden_build_products.json"


def _digest(*parts) -> str:
    """SHA-256 over each part: an array's dtype, shape and C-order bytes, a
    float's hex form, anything else its repr."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, float):
            h.update(part.hex().encode())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def build_products(scn) -> list[dict[str, str]]:
    """Per slot, one digest per build product of ``scn``."""
    out = []
    for geo, tm in zip(scn.geometries, scn.base_traffic):
        out.append({
            "active": _digest(tm.active),
            "rates": _digest(tm.rates),
            "unserved_rate": _digest(tm.unserved_rate),
            "local_rate": _digest(tm.local_rate),
            "fov_now": _digest(geo.fov_domains),
            "fov_step": _digest(geo.step_fov),
            "fov_lookahead": _digest(geo.future_fov),
            "regions": _digest(
                [(sorted(r.leo_ids), list(r.controller_ids)) for r in geo.regions]
            ),
        })
    return out


def _check(name: str, scn) -> None:
    golden = json.loads(GOLDEN.read_text())[name]
    got = build_products(scn)
    assert len(got) == len(golden), f"{name}: {len(got)} slots, pinned {len(golden)}"
    for index, (have, pinned) in enumerate(zip(got, golden)):
        drift = [key for key in pinned if have[key] != pinned[key]]
        assert not drift, f"{name} slot {index}: {drift} differ from the pinned build"


def test_desk_600s_build_products_match_golden(desk_scenario_short):
    _check("desk600", desk_scenario_short)


def test_default_240s_build_products_match_golden(default_scenario_partition):
    _check("default240", default_scenario_partition)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({
        "desk600": build_products(build_scenario(desk_config(), horizon_s=600.0)),
        "default240": build_products(build_scenario(default_config(), horizon_s=240.0)),
    }, indent=1) + "\n")
    sys.exit(0)

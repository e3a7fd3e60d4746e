"""Scenario configuration: YAML schema, presets, and scenario assembly.

A scenario bundles a constellation, visibility thresholds, traffic and
overhead parameters, and the experiment grid (strategies, gammas, seeds).
Configs are strict: unknown keys are rejected with their full path, and
parse -> serialize -> parse is the identity on the parsed object.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import yaml

from .constellation import (
    CITY_COORDS,
    LEO_SHELLS,
    MEO_SHELLS,
    Constellation,
    Role,
    ShellSpec,
    orbital_period,
)
from .corg import CorgWeights
from .emulator import STRATEGIES, EmulatorParams
from .overhead import LinkClass, MigrationParams, OverheadParams
from .partition import PartitionContext
from .traffic import (
    GroundCell,
    TrafficMatrix,
    TrafficParams,
    build_grid,
    city_density_field,
    demand_matrix,
    slot_traffic_matrix,
)
from .visibility import SlotGeometry, TimeSlot, build_slot_geometry, segment_time_slots

# Gravity constant calibrated so the desk scenario at gamma=1 offers roughly
# twice the centralized baseline's service capacity (near saturation).
DESK_GRAVITY_CONSTANT = 1.25e6


class ConfigError(ValueError):
    pass


def _check_keys(mapping: dict, allowed: set[str], path: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown keys at {path}: {sorted(unknown)}")


def _number(value, path: str, kind: type = float):
    """A number from the config, also where PyYAML read it as a string: YAML
    1.1 reads ``1.25e6`` (no sign in the exponent) or a quoted number so."""
    if isinstance(value, str):
        try:
            return kind(value)
        except ValueError:
            pass
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    expected = "an integer" if kind is int else "a number"
    raise ConfigError(f"{path}: expected {expected}, got {value!r}")


def _numbers(raw: dict, path: str, ints: tuple[str, ...] = (), keep: tuple[str, ...] = ()) -> dict:
    """``raw`` with each value parsed by ``_number``, as an int for keys in
    ``ints``; the values of keys in ``keep`` are left as they are."""
    return {
        k: v if k in keep else _number(v, f"{path}.{k}", int if k in ints else float)
        for k, v in raw.items()
    }


def _params_from(cls, raw: dict, path: str):
    """An all-numeric parameter dataclass from its config mapping: the keys are
    its fields, and each value is parsed as a number of its default's type."""
    kinds = {f.name: f.default for f in fields(cls)}
    _check_keys(raw, set(kinds), path)
    ints = tuple(k for k, default in kinds.items() if isinstance(default, int))
    return cls(**_numbers(raw, path, ints=ints))


def _shell_from(value, role: Role, path: str) -> ShellSpec | None:
    if value is None:
        return None
    presets = LEO_SHELLS if role is Role.LEO else MEO_SHELLS
    if isinstance(value, str):
        if value not in presets:
            raise ConfigError(
                f"{path}: unknown preset {value!r}; expected one of {sorted(presets)}"
            )
        return presets[value]
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a preset name or a mapping")
    allowed = {
        "altitude_km",
        "inclination_deg",
        "num_planes",
        "sats_per_plane",
        "phasing_offset",
        "name",
        "eccentricity",
    }
    _check_keys(value, allowed, path)
    try:
        return ShellSpec(role=role, **value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _shell_to(spec: ShellSpec | None) -> dict | None:
    if spec is None:
        return None
    return {
        "altitude_km": spec.altitude_km,
        "inclination_deg": spec.inclination_deg,
        "num_planes": spec.num_planes,
        "sats_per_plane": spec.sats_per_plane,
        "phasing_offset": spec.phasing_offset,
        "name": spec.name,
        "eccentricity": spec.eccentricity,
    }


def _stations_from(value, path: str) -> list[tuple[str, float, float]]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list")
    out: list[tuple[str, float, float]] = []
    for k, item in enumerate(value):
        if isinstance(item, str):
            if item not in CITY_COORDS:
                raise ConfigError(
                    f"{path}[{k}]: unknown city {item!r}; expected one of {sorted(CITY_COORDS)}"
                )
            lat, lon = CITY_COORDS[item]
            out.append((item, lat, lon))
        elif isinstance(item, dict):
            _check_keys(item, {"name", "lat", "lon"}, f"{path}[{k}]")
            out.append((str(item["name"]), float(item["lat"]), float(item["lon"])))
        else:
            raise ConfigError(f"{path}[{k}]: expected a city name or mapping")
    return out


@dataclass
class ScenarioConfig:
    name: str
    leo_shell: ShellSpec
    meo_shell: ShellSpec | None
    ground_stations: list[tuple[str, float, float]]
    thresholds: dict[Role, float]
    horizon_s: float | None
    step_s: float
    traffic: TrafficParams
    overhead: OverheadParams
    corg: CorgWeights
    lookahead_s: float
    sigma: float | None
    allow_uncovered: bool
    greedy_cap: int | None
    emulator: EmulatorParams
    strategies: list[str]
    gammas: list[float]
    seeds: list[int]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "leo_shell": _shell_to(self.leo_shell),
            "meo_shell": _shell_to(self.meo_shell),
            "ground_stations": [
                {"name": n, "lat": lat, "lon": lon} for n, lat, lon in self.ground_stations
            ],
            "thresholds": {
                "meo_min_elevation_deg": self.thresholds[Role.MEO],
                "gs_min_elevation_deg": self.thresholds[Role.GS],
            },
            "horizon_s": self.horizon_s,
            "step_s": self.step_s,
            "traffic": asdict(self.traffic),
            "overhead": {
                "m_fl_bytes": self.overhead.m_fl_bytes,
                "m_sync_bytes": self.overhead.m_sync_bytes,
                "f_sync_hz": self.overhead.f_sync_hz,
                "tradeoff_lambda": self.overhead.tradeoff_lambda,
                "cpt_complexity": self.overhead.cpt_complexity,
                "capacity_unit_ops": self.overhead.capacity_unit_ops,
                "bandwidth_bps": {
                    lc.value: self.overhead.bandwidth_bps[lc] for lc in LinkClass
                },
                "migration": asdict(self.overhead.migration),
            },
            "partition": {
                "alpha": self.corg.alpha,
                "beta": self.corg.beta,
                "mig_unit_s": self.corg.mig_unit_s,
                "lookahead_s": self.lookahead_s,
                "sigma": self.sigma,
                "allow_uncovered": self.allow_uncovered,
                "greedy_cap": self.greedy_cap,
            },
            "emulator": asdict(self.emulator),
            "strategies": list(self.strategies),
            "gammas": list(self.gammas),
            "seeds": list(self.seeds),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be a mapping")
        allowed = {
            "name",
            "leo_shell",
            "meo_shell",
            "ground_stations",
            "thresholds",
            "horizon_s",
            "step_s",
            "traffic",
            "overhead",
            "partition",
            "emulator",
            "strategies",
            "gammas",
            "seeds",
        }
        _check_keys(data, allowed, "<root>")
        if "leo_shell" not in data:
            raise ConfigError("config requires a leo_shell")

        leo = _shell_from(data["leo_shell"], Role.LEO, "leo_shell")
        assert leo is not None
        meo = _shell_from(data.get("meo_shell"), Role.MEO, "meo_shell")
        stations = _stations_from(data.get("ground_stations", []), "ground_stations")

        thr_raw = data.get("thresholds", {})
        _check_keys(thr_raw, {"meo_min_elevation_deg", "gs_min_elevation_deg"}, "thresholds")
        thresholds = {
            Role.MEO: float(thr_raw.get("meo_min_elevation_deg", 40.0)),
            Role.GS: float(thr_raw.get("gs_min_elevation_deg", 0.0)),
        }

        traffic = _params_from(TrafficParams, data.get("traffic", {}), "traffic")

        ov_raw = dict(data.get("overhead", {}))
        _check_keys(
            ov_raw,
            {
                "m_fl_bytes",
                "m_sync_bytes",
                "f_sync_hz",
                "tradeoff_lambda",
                "cpt_complexity",
                "capacity_unit_ops",
                "bandwidth_bps",
                "migration",
            },
            "overhead",
        )
        bw_raw = ov_raw.pop("bandwidth_bps", {})
        _check_keys(bw_raw, {lc.value for lc in LinkClass}, "overhead.bandwidth_bps")
        bandwidth = {
            lc: float(_number(bw_raw.get(lc.value, v), f"overhead.bandwidth_bps.{lc.value}"))
            for lc, v in OverheadParams().bandwidth_bps.items()
        }
        migration = _params_from(
            MigrationParams, ov_raw.pop("migration", {}), "overhead.migration"
        )
        overhead = OverheadParams(
            bandwidth_bps=bandwidth,
            migration=migration,
            **_numbers(
                ov_raw, "overhead", ints=("m_fl_bytes", "m_sync_bytes"), keep=("cpt_complexity",)
            ),
        )

        part_raw = data.get("partition", {})
        _check_keys(
            part_raw,
            {
                "alpha",
                "beta",
                "mig_unit_s",
                "lookahead_s",
                "sigma",
                "allow_uncovered",
                "greedy_cap",
            },
            "partition",
        )
        optional = [k for k in ("sigma", "greedy_cap") if part_raw.get(k) is None]
        part = _numbers(
            part_raw, "partition", ints=("greedy_cap",), keep=("allow_uncovered", *optional)
        )
        try:
            corg = CorgWeights(
                alpha=float(part.get("alpha", 0.5)),
                beta=float(part.get("beta", 0.3)),
                mig_unit_s=float(part.get("mig_unit_s", 1.0)),
            )
        except ValueError as exc:
            raise ConfigError(f"partition: {exc}") from exc

        strategies = list(data.get("strategies", ["eunomia"]))
        for s in strategies:
            if s not in STRATEGIES:
                raise ConfigError(f"strategies: unknown strategy {s!r}")
        gammas = [float(g) for g in data.get("gammas", [1.0])]
        for g in gammas:
            if not 0.0 <= g <= 1.0:
                raise ConfigError(f"gammas: {g} outside [0, 1]")
        seeds = [int(s) for s in data.get("seeds", [0])]

        horizon = data.get("horizon_s")
        return cls(
            name=str(data.get("name", "scenario")),
            leo_shell=leo,
            meo_shell=meo,
            ground_stations=stations,
            thresholds=thresholds,
            horizon_s=None if horizon is None else float(horizon),
            step_s=float(data.get("step_s", 15.0)),
            traffic=traffic,
            overhead=overhead,
            corg=corg,
            lookahead_s=float(part.get("lookahead_s", 30.0)),
            sigma=None if part.get("sigma") is None else float(part["sigma"]),
            allow_uncovered=bool(part.get("allow_uncovered", True)),
            greedy_cap=None if part.get("greedy_cap") is None else int(part["greedy_cap"]),
            emulator=_params_from(EmulatorParams, data.get("emulator", {}), "emulator"),
            strategies=strategies,
            gammas=gammas,
            seeds=seeds,
        )

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()


def load_config(path: str | Path) -> ScenarioConfig:
    text = Path(path).read_text()
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return ScenarioConfig.from_dict(data)


def dump_config(config: ScenarioConfig) -> str:
    return yaml.safe_dump(config.to_dict(), sort_keys=False)


def desk_config() -> ScenarioConfig:
    """Iridium-class shell, the 10354 km controller shell, three stations."""
    return ScenarioConfig.from_dict(
        {
            "name": "desk",
            "leo_shell": "iridium780",
            "meo_shell": "meo10354",
            "ground_stations": ["new_york", "london", "tokyo"],
            "step_s": 15.0,
            "horizon_s": None,
            "traffic": {"gravity_constant": DESK_GRAVITY_CONSTANT},
            "strategies": ["eunomia", "odc", "greedy"],
            "gammas": [0.25, 0.5, 0.75, 1.0],
            "seeds": [1, 2, 3],
        }
    )


def default_config() -> ScenarioConfig:
    """Full-size network: the 1584-satellite shell with nine stations."""
    return ScenarioConfig.from_dict(
        {
            "name": "default",
            "leo_shell": "starlink550",
            "meo_shell": "meo10354",
            "ground_stations": [name for name in CITY_COORDS],
            "step_s": 15.0,
            "horizon_s": 900.0,
            "traffic": {"gravity_constant": DESK_GRAVITY_CONSTANT},
            "strategies": ["eunomia", "odc", "greedy"],
            "gammas": [1.0],
            "seeds": [1],
        }
    )


PRESET_CONFIGS = {"desk": desk_config, "default": default_config}


@dataclass
class Scenario:
    """A fully built experiment: constellation, slots, geometry and traffic."""

    name: str
    config: ScenarioConfig
    constellation: Constellation
    ctx: PartitionContext
    slots: list[TimeSlot]
    geometries: list[SlotGeometry]
    cells: list[GroundCell]
    base_traffic: list[TrafficMatrix]  # per slot, at gamma = 1
    emu_params: EmulatorParams
    horizon_s: float = 0.0
    config_hash: str = ""


def build_scenario(config: ScenarioConfig, horizon_s: float | None = None) -> Scenario:
    constellation = Constellation.build(
        config.leo_shell, config.meo_shell, config.ground_stations
    )
    horizon = (
        horizon_s
        or config.horizon_s
        or orbital_period(config.leo_shell.orbital_radius_km)
    )
    slots = segment_time_slots(constellation, horizon, config.step_s, config.thresholds)
    ctx = PartitionContext(
        constellation=constellation,
        thresholds=config.thresholds,
        overhead_params=config.overhead,
        corg_weights=config.corg,
        lookahead_s=config.lookahead_s,
        allow_uncovered=config.allow_uncovered,
        sigma=config.sigma,
        greedy_cap=config.greedy_cap,
    )
    geometries = [
        build_slot_geometry(
            constellation, slot, config.thresholds, config.lookahead_s, step_s=config.step_s
        )
        for slot in slots
    ]
    cells = build_grid(
        city_density_field(config.traffic.city_sigma_deg, config.traffic.background_density)
    )
    static = demand_matrix(cells, config.traffic)
    base_traffic = [
        slot_traffic_matrix(cells, static, slot.snapshot, slot.index, config.traffic)
        for slot in slots
    ]
    return Scenario(
        name=config.name,
        config=config,
        constellation=constellation,
        ctx=ctx,
        slots=slots,
        geometries=geometries,
        cells=cells,
        base_traffic=base_traffic,
        emu_params=config.emulator,
        horizon_s=horizon,
        config_hash=config.config_hash(),
    )

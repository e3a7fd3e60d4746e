"""Scenario configuration: YAML schema, presets, and scenario assembly.

A scenario bundles a constellation, visibility thresholds, traffic and
overhead parameters, and the experiment grid (strategies, gammas, seeds).
``build_scenario`` builds each per-slot input once: every slot's geometry
from one ``FovTimeline``, and every slot's gamma = 1 traffic block.

The config schema is not written out here. One parser (``_construct``) and
one serializer (``_dump``) walk the fields and resolved annotations of
``ScenarioConfig`` and the parameter dataclasses it holds, and each default
is its field's own. Field metadata adjusts the layout:

- ``config: False`` keeps a field out of the config;
- ``key`` is a field's config key where it differs from the field name, and
  ``key_format`` turns the enum members keying a dict field into keys;
- ``section`` reads a field from a sub-mapping, where a dataclass field
  lends the section its own keys;
- ``presets`` names values accepted in place of a dataclass mapping, and
  ``set`` holds constructor arguments that the containing field supplies.

Configs are strict: unknown keys and values that do not fit the annotation
are rejected with their key path, and parse -> serialize -> parse is the
identity on the parsed object.
"""
from __future__ import annotations

import hashlib
import json
import math
from contextlib import suppress
from dataclasses import MISSING, Field, dataclass, field, fields, is_dataclass
from functools import cache
from pathlib import Path
from types import UnionType
from typing import Callable, Literal, get_args, get_origin, get_type_hints

import yaml

from .constellation import (
    LEO_SHELLS,
    MEO_SHELLS,
    NINE_CITIES,
    Constellation,
    GroundStationNode,
    Role,
    ShellSpec,
    orbital_period,
)
from .corg import CorgWeights
from .emulator import EmulatorParams, Strategy
from .overhead import OverheadParams
from .partition import PartitionContext
from .traffic import (
    GroundCell,
    TrafficMatrix,
    TrafficParams,
    build_grid,
    cell_positions,
    city_density_field,
    demand_matrix,
    slot_traffic_matrix,
)
from .visibility import (
    DEFAULT_THRESHOLDS,
    FovTimeline,
    SlotGeometry,
    TimeSlot,
    build_slot_geometry,
    segment_time_slots,
)

# Gravity constant calibrated so the desk scenario at gamma=1 offers roughly
# twice the centralized baseline's service capacity (near saturation).
DESK_GRAVITY_CONSTANT = 1.25e6


class ConfigError(ValueError):
    pass


_KIND = {dict: "a mapping", list: "a list", bool: "true or false", str: "a string"}
_THRESHOLD_KEY = "{}_min_elevation_deg"
_PARTITION = {"section": "partition"}


def _error(path: str, message) -> ConfigError:
    return ConfigError(f"{path}: {message}" if path else str(message))


def _join(path: str, key: str) -> str:
    return ".".join(p for p in (path, key) if p)


def _typed(kind: type, value, path: str):
    if not isinstance(value, kind):
        raise _error(path, f"expected {_KIND[kind]}, got {value!r}")
    return value


def _number(value, kind: type, path: str):
    """A finite float or an integral int, also where PyYAML read it as a
    string: YAML 1.1 reads ``1.25e6`` (no sign in the exponent) or a quoted
    number so."""
    if isinstance(value, str):
        with suppress(ValueError):
            value = float(value)
    if isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) < math.inf:
        if kind is float:
            return float(value)
        if int(value) == value:
            return int(value)
    expected = "an integer" if kind is int else "a finite number"
    raise _error(path, f"expected {expected}, got {value!r}")


@cache
def _hints(cls) -> dict:
    return get_type_hints(cls)


def _config_fields(cls) -> list[Field]:
    return [f for f in fields(cls) if f.metadata.get("config", True)]


def _key(f: Field) -> str:
    return f.metadata.get("key", f.name)


def _entry_key(f: Field, member) -> str:
    """The config key of the entry for enum ``member`` in dict field ``f``."""
    return f.metadata.get("key_format", "{}").format(member.value)


def _parse(tp, value, path: str, f: Field):
    """``value`` from a config, checked and converted to the annotation ``tp``
    of field ``f``."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is UnionType:  # X | None
        return None if value is None else _parse(args[0], value, path, f)
    if origin is Literal:
        if value not in args:
            raise _error(path, f"expected one of {list(args)}, got {value!r}")
        return value
    if origin is list:
        items = _typed(list, value, path)
        return [_parse(args[0], v, f"{path}[{i}]", f) for i, v in enumerate(items)]
    if origin is dict:  # keyed by enum members, over the field's default
        base = f.default_factory()
        keys = {_entry_key(f, k): k for k in base}
        given = _typed(dict, value, path)
        if unknown := set(given) - set(keys):
            raise _error(path, f"unknown keys {sorted(unknown, key=str)}")
        return base | {keys[k]: _parse(args[1], v, _join(path, k), f) for k, v in given.items()}
    if is_dataclass(tp):
        presets = f.metadata.get("presets", {})
        if isinstance(value, str) and presets:
            if value not in presets:
                raise _error(path, f"unknown preset {value!r}; expected one of {sorted(presets)}")
            return presets[value]
        return _construct(tp, value, path, f.metadata.get("set", {}))
    if tp in (bool, str):
        return _typed(tp, value, path)
    return _number(value, tp, path)


def _construct(cls, raw, path: str, fixed: dict):
    """``cls`` from its config mapping ``raw``. A field with a ``section`` is
    read from that sub-mapping, where a dataclass field lends the section its
    own keys; ``fixed`` holds the arguments set by the containing field."""
    raw = _typed(dict, raw, path)
    hints, kwargs, known = _hints(cls), dict(fixed), {"": set()}
    for f in _config_fields(cls):
        tp, section = hints[f.name], f.metadata.get("section", "")
        where = _join(path, section)
        src = _typed(dict, raw.get(section, {}), where) if section else raw
        keys = known.setdefault(section, set())
        if section:
            known[""].add(section)
        if section and is_dataclass(tp):
            own = {_key(g) for g in _config_fields(tp)}
            kwargs[f.name] = _construct(tp, {k: v for k, v in src.items() if k in own}, where, {})
            keys |= own
            continue
        key = _key(f)
        keys.add(key)
        if key in src:
            kwargs[f.name] = _parse(tp, src[key], _join(where, key), f)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise _error(path, f"missing key {key!r}")
    for section, keys in known.items():
        if unknown := set(raw.get(section, {}) if section else raw) - keys:
            raise _error(_join(path, section), f"unknown keys {sorted(unknown, key=str)}")
    try:
        return cls(**kwargs)
    except ValueError as exc:  # its message starts with the key it names
        raise ConfigError(_join(path, str(exc))) from exc


def _dump(obj) -> dict:
    """The config mapping of a parameter dataclass: the inverse of ``_construct``."""
    out: dict = {}
    for f in _config_fields(type(obj)):
        value, section = getattr(obj, f.name), f.metadata.get("section")
        target = out.setdefault(section, {}) if section else out
        if section and is_dataclass(value):
            target.update(_dump(value))
        else:
            target[_key(f)] = _dump_value(value, f)
    return out


def _dump_value(value, f: Field):
    if is_dataclass(value):
        return _dump(value)
    if isinstance(value, list):
        return [_dump_value(v, f) for v in value]
    if isinstance(value, dict):
        return {_entry_key(f, k): v for k, v in value.items()}
    return value


CITY_STATIONS = {name: GroundStationNode(0, name, lat, lon) for name, lat, lon in NINE_CITIES}


@dataclass(kw_only=True)
class ScenarioConfig:
    """A scenario's parameters. The config schema is derived from the field
    annotations of this class and of the parameter dataclasses it holds; the
    defaults live on those fields."""

    name: str = "scenario"
    leo_shell: ShellSpec = field(metadata={"presets": LEO_SHELLS})
    meo_shell: ShellSpec | None = field(default=None, metadata={"presets": MEO_SHELLS})
    ground_stations: list[GroundStationNode] = field(
        metadata={"presets": CITY_STATIONS, "set": {"id": 0}}
    )
    thresholds: dict[Role, float] = field(
        default_factory=lambda: dict(DEFAULT_THRESHOLDS), metadata={"key_format": _THRESHOLD_KEY}
    )
    horizon_s: float | None = None  # None or 0: one LEO orbit
    step_s: float = 15.0
    traffic: TrafficParams = field(default_factory=TrafficParams)
    overhead: OverheadParams = field(default_factory=OverheadParams)
    corg: CorgWeights = field(default_factory=CorgWeights, metadata=_PARTITION)
    lookahead_s: float = field(default=30.0, metadata=_PARTITION)
    sigma: float | None = field(default=None, metadata=_PARTITION)
    allow_uncovered: bool = field(default=True, metadata=_PARTITION)
    greedy_cap: int | None = field(default=None, metadata=_PARTITION)
    emulator: EmulatorParams = field(default_factory=EmulatorParams)
    strategies: list[Strategy] = field(default_factory=lambda: ["eunomia"])
    gammas: list[float] = field(default_factory=lambda: [1.0])
    seeds: list[int] = field(default_factory=lambda: [0])

    def __post_init__(self) -> None:
        if not self.ground_stations:
            raise ValueError("ground_stations: expected at least one station")
        for key in ("strategies", "gammas", "seeds"):
            if not getattr(self, key):
                raise ValueError(f"{key}: expected at least one value")
        for role, deg in self.thresholds.items():
            if not -90.0 <= deg <= 90.0:
                key = _THRESHOLD_KEY.format(role.value)
                raise ValueError(f"thresholds.{key}: {deg} outside [-90, 90]")
        if not self.lookahead_s >= 0.0:
            raise ValueError(f"partition.lookahead_s: {self.lookahead_s} is negative")
        if not self.step_s > 0.0:
            raise ValueError(f"step_s: {self.step_s} is not positive")
        if self.horizon_s not in (None, 0.0) and not self.step_s <= self.horizon_s:
            raise ValueError(
                f"horizon_s: {self.horizon_s} is neither 0 nor at least step_s ({self.step_s})"
            )
        if self.sigma is not None and not self.sigma > 0.0:
            raise ValueError(f"partition.sigma: {self.sigma} is not positive")
        if self.greedy_cap is not None and self.greedy_cap < 1:
            raise ValueError(f"partition.greedy_cap: {self.greedy_cap} is less than 1")
        for g in self.gammas:
            if not 0.0 <= g <= 1.0:
                raise ValueError(f"gammas: {g} outside [0, 1]")
        for s in self.seeds:
            if s < 0:
                raise ValueError(f"seeds: {s} is negative")

    def to_dict(self) -> dict:
        return _dump(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        return _construct(cls, data, "", {})

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()


def read_input(path: str | Path) -> str:
    """The text of an input file; ConfigError names a path that cannot be read."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read: {getattr(exc, 'strerror', None) or exc}") from exc


def load_config(path: str | Path) -> ScenarioConfig:
    text = read_input(path)
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
            "ground_stations": list(CITY_STATIONS),
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
    geometries: list[SlotGeometry]
    cells: list[GroundCell]
    base_traffic: list[TrafficMatrix]  # per slot, at gamma = 1
    emu_params: EmulatorParams
    horizon_s: float = 0.0
    config_hash: str = ""
    # not pickled for worker processes, and not copied by dataclasses.replace
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def slots(self) -> tuple[TimeSlot, ...]:
        """Each slot, read from its geometry."""
        return tuple(g.slot for g in self.geometries)

    def memo(self, key: tuple, build: Callable):
        """``build()``, computed once per ``key``, which must cover every input
        of ``build`` that varies within this scenario."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_memo": {}}


def build_scenario(config: ScenarioConfig, horizon_s: float | None = None) -> Scenario:
    constellation = Constellation.build(
        config.leo_shell,
        config.meo_shell,
        [(g.name, g.latitude_deg, g.longitude_deg) for g in config.ground_stations],
    )
    horizon = (
        horizon_s
        or config.horizon_s
        or orbital_period(config.leo_shell.orbital_radius_km)
    )
    # one FOV computation per instant, shared by segmentation and slot geometry
    timeline = FovTimeline(constellation, config.thresholds)
    slots = segment_time_slots(timeline, horizon, config.step_s)
    ctx = PartitionContext(
        overhead_params=config.overhead,
        corg_weights=config.corg,
        lookahead_s=config.lookahead_s,
        allow_uncovered=config.allow_uncovered,
        sigma=config.sigma,
        greedy_cap=config.greedy_cap,
    )
    geometries = [
        build_slot_geometry(timeline, slot, config.step_s, config.lookahead_s) for slot in slots
    ]
    cells = build_grid(
        city_density_field(config.traffic.city_sigma_deg, config.traffic.background_density)
    )
    cell_pos = cell_positions(cells)
    static = demand_matrix(cells, config.traffic)
    base_traffic = [
        slot_traffic_matrix(cells, cell_pos, static, slot.snapshot, slot.index, config.traffic)
        for slot in slots
    ]
    return Scenario(
        name=config.name,
        config=config,
        constellation=constellation,
        ctx=ctx,
        geometries=geometries,
        cells=cells,
        base_traffic=base_traffic,
        emu_params=config.emulator,
        horizon_s=horizon,
        config_hash=config.config_hash(),
    )

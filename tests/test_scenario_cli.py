import csv
import json
from dataclasses import fields, is_dataclass
from pathlib import Path
from types import UnionType
from typing import Literal, get_args, get_origin, get_type_hints

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from eunomia import cli
from eunomia.cli import main
from eunomia.scenario import (
    ConfigError,
    ScenarioConfig,
    build_scenario,
    desk_config,
    dump_config,
    load_config,
)

DATA_DIR = Path(__file__).parent / "data"
TINY_CONFIG = DATA_DIR / "tiny_config.yaml"


def test_config_round_trip_identity():
    cfg = desk_config()
    again = ScenarioConfig.from_dict(yaml.safe_load(dump_config(cfg)))
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()


def test_tiny_config_round_trip_identity():
    cfg = load_config(TINY_CONFIG)
    again = ScenarioConfig.from_dict(yaml.safe_load(dump_config(cfg)))
    assert again == cfg


# every float field's range check holds on [0.01, 0.5]
_FLOATS = st.floats(0.01, 0.5)


def _values(tp, f):
    """Valid values of the annotation ``tp`` of config field ``f``."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is UnionType:  # X | None
        return st.none() | _values(args[0], f)
    if origin is Literal:
        return st.sampled_from(args)
    if origin is list:
        return st.lists(_values(args[0], f), min_size=1, max_size=3)
    if origin is dict:
        return st.fixed_dictionaries({k: _FLOATS for k in f.default_factory()})
    if is_dataclass(tp):
        return _objects(tp, f.metadata.get("set", {}))
    return {bool: st.booleans(), str: st.text(max_size=8), int: st.integers(1, 9)}.get(tp, _FLOATS)


def _build(cls, kwargs):
    try:
        return cls(**kwargs)
    except ValueError:  # a cross-field check, such as horizon_s >= step_s
        return None


def _objects(cls, fixed):
    """Instances of a parameter dataclass drawn from its config fields' types,
    with ``fixed`` set as the containing field sets it."""
    hints = get_type_hints(cls)
    drawn = {
        f.name: _values(hints[f.name], f) for f in fields(cls) if f.metadata.get("config", True)
    }
    return st.fixed_dictionaries(drawn).map(lambda kw: _build(cls, kw | fixed)).filter(bool)


@settings(max_examples=60, deadline=None)
@given(_objects(ScenarioConfig, {}))
def test_drawn_configs_round_trip(cfg):
    again = ScenarioConfig.from_dict(yaml.safe_load(dump_config(cfg)))
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()


def test_unknown_keys_rejected_with_path():
    data = yaml.safe_load(TINY_CONFIG.read_text())
    data["traffic"]["gravity_konstant"] = 1.0
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_dict(data)
    assert "traffic" in str(err.value)
    assert "gravity_konstant" in str(err.value)


def test_invalid_gamma_rejected():
    data = yaml.safe_load(TINY_CONFIG.read_text())
    data["gammas"] = [2.0]
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(data)


def test_unknown_strategy_rejected():
    data = yaml.safe_load(TINY_CONFIG.read_text())
    data["strategies"] = ["eunomia", "oracle"]
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(data)


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_dict({"leo_shell": "walker9000"})
    assert "walker9000" in str(err.value)


def test_presets_build():
    scn = build_scenario(desk_config(), horizon_s=60.0)
    assert scn.slots
    assert scn.config_hash == desk_config().config_hash()


def test_cmd_partition_writes_assignments_and_report(tmp_path):
    rc = main(["partition", "--config", str(TINY_CONFIG), "--out-dir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "constraint_report.json").read_text())
    assert report["strategies"].keys() == {"eunomia", "odc", "greedy"}
    for strategy in ("eunomia", "odc", "greedy"):
        path = tmp_path / f"assignments_{strategy}.csv"
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# config_sha256=")
        assert lines[1] == "slot,leo_id,controller_id"
        assert report["strategies"][strategy]["violations"] == {}
        as_json = json.loads((tmp_path / f"assignments_{strategy}.json").read_text())
        assert len(as_json["assignments"]) == len(lines) - 2


def test_cmd_partition_matches_golden(tmp_path):
    main(["partition", "--config", str(TINY_CONFIG), "--out-dir", str(tmp_path),
          "--seed", "1"])
    golden = (DATA_DIR / "golden_assignments_eunomia.csv").read_text()
    assert (tmp_path / "assignments_eunomia.csv").read_text() == golden


def test_cmd_emulate_outputs_and_reproducibility(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["emulate", "--config", str(TINY_CONFIG), "--out-dir", str(out1)]) == 0
    assert main(["emulate", "--config", str(TINY_CONFIG), "--out-dir", str(out2)]) == 0
    assert (out1 / "stats.csv").read_bytes() == (out2 / "stats.csv").read_bytes()
    assert (out1 / "overhead.json").read_bytes() == (out2 / "overhead.json").read_bytes()

    lines = [ln for ln in (out1 / "stats.csv").read_text().splitlines()
             if not ln.startswith("#")]
    rows = list(csv.DictReader(lines))
    groups = {(r["strategy"], r["gamma"]) for r in rows}
    cfg = load_config(TINY_CONFIG)
    assert len(groups) == len(cfg.strategies) * len(cfg.gammas)

    payload = json.loads((out1 / "overhead.json").read_text())
    assert payload["config_sha256"] == cfg.config_hash()
    assert len(payload["runs"]) == len(cfg.strategies) * len(cfg.gammas) * len(cfg.seeds)

    oh_lines = [ln for ln in (out1 / "overhead.csv").read_text().splitlines()
                if not ln.startswith("#")]
    oh_rows = list(csv.DictReader(oh_lines))
    assert {r["component"] for r in oh_rows} >= {"w_flow", "w_ctl", "objective"}


def test_cmd_report_aggregates(tmp_path):
    out = tmp_path / "runs"
    main(["emulate", "--config", str(TINY_CONFIG), "--out-dir", str(out)])
    rep = tmp_path / "report"
    rc = main(["report", str(out / "stats.csv"), "--overhead",
               str(out / "overhead.json"), "--out-dir", str(rep)])
    assert rc == 0

    with (rep / "report_by_gamma.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    cfg = load_config(TINY_CONFIG)
    assert len(rows) == len(cfg.strategies) * len(cfg.gammas)
    # single seed: zero variance across seeds
    assert all(float(r["drop_rate_std"]) == 0.0 for r in rows)

    # totals cross-check against the stats file
    stats_lines = [ln for ln in (out / "stats.csv").read_text().splitlines()
                   if not ln.startswith("#")]
    stats_rows = list(csv.DictReader(stats_lines))
    for row in rows:
        matching = [r for r in stats_rows
                    if r["strategy"] == row["strategy"] and r["gamma"] == row["gamma"]]
        assert float(row["requests_mean"]) == sum(float(r["requests"]) for r in matching)
    assert (rep / "report_overhead.csv").exists()


def test_cmd_report_rejects_mixed_schema(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("strategy,gamma\neunomia,1.0\n")
    assert main(["report", str(bad), "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "argv, path",
    [
        (["partition", "--config", "{tmp}/absent.yaml"], "absent.yaml"),
        (["emulate", "--config", "{tmp}"], "{tmp}"),  # a directory
        (["report", "{tmp}/absent.csv"], "absent.csv"),
        (["report", "{stats}", "--overhead", "{tmp}/absent.json"], "absent.json"),
    ],
)
def test_cli_unreadable_input_file_exits_2_naming_it(argv, path, tmp_path, capsys):
    stats = tmp_path / "stats.csv"
    stats.write_text(",".join(cli.CSV_COLUMNS) + "\n")
    argv = [a.format(tmp=tmp_path, stats=stats) for a in argv]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and path.format(tmp=tmp_path) in err


def _stats_row(**values) -> str:
    row = dict.fromkeys(cli.CSV_COLUMNS, "0")
    row.update(strategy="eunomia", gamma="1.0", seed="1", requests="10", drops="1")
    row.update(values)
    return ",".join(row[c] for c in cli.CSV_COLUMNS)


@pytest.mark.parametrize(
    "stats, overhead, named",
    [
        (_stats_row(gamma="abc"), None, ["stats.csv", "row 1", "gamma", "'abc'"]),
        (_stats_row(seed="1.5"), None, ["stats.csv", "row 1", "seed"]),
        (_stats_row(), '{"strategies": []}', ["overhead.json", "'runs'"]),
        (_stats_row(), '{"runs": [{"strategy": "eunomia", "gamma": 1.0}]}',
         ["overhead.json", "'slots'"]),
        (_stats_row(), "not json", ["overhead.json", "not JSON"]),
    ],
    ids=["gamma", "seed", "no-runs", "no-slots", "not-json"],
)
def test_report_rejects_malformed_inputs_naming_them(stats, overhead, named, tmp_path, capsys):
    stats_path = tmp_path / "stats.csv"
    stats_path.write_text(",".join(cli.CSV_COLUMNS) + "\n" + stats + "\n")
    argv = ["report", str(stats_path), "--out-dir", str(tmp_path / "out")]
    if overhead is not None:
        (tmp_path / "overhead.json").write_text(overhead)
        argv += ["--overhead", str(tmp_path / "overhead.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    for part in named:
        assert part in err


def test_report_leaves_eta_empty_when_no_slot_defines_it(tmp_path, recwarn):
    stats = tmp_path / "stats.csv"
    stats.write_text(",".join(cli.CSV_COLUMNS) + "\n" + _stats_row() + "\n")
    slot = dict.fromkeys(
        ("w_flow", "w_sync_in", "w_sync_out", "w_mig", "w_ctl", "w_cpt_intra", "w_cpt_inter"), 1.0
    )
    runs = [{"strategy": "eunomia", "gamma": 1.0, "slots": [{**slot, "eta_control": None}]}]
    (tmp_path / "overhead.json").write_text(json.dumps({"runs": runs}))
    argv = ["report", str(stats), "--overhead", str(tmp_path / "overhead.json"),
            "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 0
    with (tmp_path / "out" / "report_overhead.csv").open() as fh:
        (row,) = list(csv.DictReader(fh))
    assert row["eta_mean"] == "" and row["w_sync_mean"] == "2.0"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_missing_config_is_an_error(tmp_path, monkeypatch):
    monkeypatch.delenv("EUNOMIA_CONFIG", raising=False)
    assert main(["partition", "--out-dir", str(tmp_path)]) == 2


def test_config_env_var_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("EUNOMIA_CONFIG", str(TINY_CONFIG))
    assert main(["partition", "--out-dir", str(tmp_path)]) == 0


def test_numbers_read_as_strings_are_parsed():
    # YAML 1.1 reads 1.25e6 (no sign in the exponent) and quoted numbers as strings
    text = TINY_CONFIG.read_text().replace(
        "gravity_constant: 500000.0", "gravity_constant: 1.25e6"
    )
    data = yaml.safe_load(text)
    assert data["traffic"]["gravity_constant"] == "1.25e6"
    data["overhead"]["m_fl_bytes"] = "36"
    data["overhead"]["migration"] = {"state_bandwidth_bps": "1e10"}
    data["partition"]["sigma"] = "0.5"
    data["emulator"]["queue_window_s"] = "2"
    data["leo_shell"]["num_planes"] = "2"
    cfg = ScenarioConfig.from_dict(data)
    assert cfg.leo_shell.num_planes == 2 and isinstance(cfg.leo_shell.num_planes, int)
    assert cfg.traffic.gravity_constant == 1.25e6
    assert cfg.overhead.m_fl_bytes == 36 and isinstance(cfg.overhead.m_fl_bytes, int)
    assert cfg.overhead.migration.state_bandwidth_bps == 1e10
    assert cfg.sigma == 0.5
    assert cfg.emulator.queue_window_s == 2.0
    again = ScenarioConfig.from_dict(yaml.safe_load(dump_config(cfg)))
    assert again == cfg


@pytest.mark.parametrize(
    "section, key, value, path",
    [
        ("traffic", "gravity_constant", "lots", "traffic.gravity_constant"),
        ("overhead", "m_sync_bytes", "24.5", "overhead.m_sync_bytes"),
        ("partition", "lookahead_s", [30], "partition.lookahead_s"),
        ("emulator", "queue_window_s", True, "emulator.queue_window_s"),
        ("partition", "alpha", 0.9, "partition"),  # alpha + beta > 1
        ("overhead", "cpt_complexity", "foo", "overhead.cpt_complexity"),
        ("leo_shell", "num_planes", 2.5, "leo_shell.num_planes"),
        ("partition", "allow_uncovered", "no", "partition.allow_uncovered"),
        ("partition", "greedy_cap", 2.5, "partition.greedy_cap"),
        ("overhead", "m_fl_bytes", 36.5, "overhead.m_fl_bytes"),
        ("traffic", "gravity_constant", float("nan"), "traffic.gravity_constant"),
    ],
)
def test_unparsable_numbers_rejected_with_path(section, key, value, path):
    data = yaml.safe_load(TINY_CONFIG.read_text())
    data[section][key] = value
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_dict(data)
    assert path in str(err.value)


@pytest.mark.parametrize(
    "keys, value, path",
    [
        (("thresholds", "meo_min_elevation_deg"), "high", "thresholds.meo_min_elevation_deg"),
        (("horizon_s",), "long", "horizon_s"),
        (("horizon_s",), 5.0, "horizon_s"),  # shorter than one step
        (("horizon_s",), -60.0, "horizon_s"),
        (("horizon_s",), "inf", "horizon_s"),
        (("step_s",), "often", "step_s"),
        (("step_s",), -5, "step_s"),
        (("step_s",), "nan", "step_s"),
        (("gammas",), [0.5, "half"], "gammas[1]"),
        (("seeds",), ["one"], "seeds[0]"),
        (("seeds",), 3, "seeds"),
        (("ground_stations",), [{"name": "x", "lat": 10.0}], "ground_stations[0]"),
        (("ground_stations",), [{"name": "x", "lat": 95.0, "lon": 0.0}], "ground_stations[0]"),
        (("ground_stations",), [{"name": "x", "lat": "n", "lon": 0.0}], "ground_stations[0].lat"),
        (("seeds",), [1.5], "seeds[0]"),
        (("thresholds", "meo_min_elevation_deg"), 200, "thresholds.meo_min_elevation_deg"),
        (("name",), [1], "name"),
        (("strategies",), "eunomia", "strategies"),
        (("seeds",), [1, -3], "seeds"),
        (("partition", "sigma"), 0, "partition.sigma"),
        (("partition", "sigma"), -1, "partition.sigma"),
        (("partition", "greedy_cap"), -3, "partition.greedy_cap"),
        (("strategies",), [], "strategies"),
        (("gammas",), [], "gammas"),
        (("seeds",), [], "seeds"),
        (("overhead", "capacity_unit_ops"), 0, "overhead.capacity_unit_ops"),
        (("overhead", "migration"), {"state_bandwidth_bps": 0},
         "overhead.migration.state_bandwidth_bps"),
        (("overhead", "bandwidth_bps"), {"isl": 0}, "overhead.bandwidth_bps.isl"),
        (("traffic", "city_sigma_deg"), 0, "traffic.city_sigma_deg"),
        (("traffic", "gravity_constant"), -1, "traffic.gravity_constant"),
        (("traffic", "background_density"), -1, "traffic.background_density"),
        (("emulator", "queue_window_s"), -1, "emulator.queue_window_s"),
        (("overhead", "f_sync_hz"), -1, "overhead.f_sync_hz"),
        (("partition", "lookahead_s"), -15, "partition.lookahead_s"),
        (("overhead", "tradeoff_lambda"), -0.1, "overhead.tradeoff_lambda"),
        (("overhead", "m_fl_bytes"), -1, "overhead.m_fl_bytes"),
        (("overhead", "m_sync_bytes"), -1, "overhead.m_sync_bytes"),
        (("traffic", "diurnal_floor"), 1.5, "traffic.diurnal_floor"),
        (("traffic", "diurnal_floor"), -0.2, "traffic.diurnal_floor"),
        (("partition", "mig_unit_s"), -1, "partition.mig_unit_s"),
        (("overhead", "migration"), {"flow_entry_bytes": -1},
         "overhead.migration.flow_entry_bytes"),
        (("overhead", "migration"), {"ho_msg_bytes": -1}, "overhead.migration.ho_msg_bytes"),
        (("overhead", "migration"), {"per_sat_processing_s": -1e-4},
         "overhead.migration.per_sat_processing_s"),
        (("overhead", "migration"), {"mean_flow_lifetime_s": -10},
         "overhead.migration.mean_flow_lifetime_s"),
    ],
)
def test_bad_top_level_values_rejected_with_path(keys, value, path):
    data = yaml.safe_load(TINY_CONFIG.read_text())
    target = data
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_dict(data)
    assert path in str(err.value)


def test_zero_horizon_is_accepted_as_one_orbit():
    # build_scenario reads a horizon of 0 as one LEO orbit, as it reads None
    data = yaml.safe_load(TINY_CONFIG.read_text())
    data["horizon_s"] = 0
    assert ScenarioConfig.from_dict(data).horizon_s == 0.0


def test_unparsable_migration_number_rejected_with_path():
    data = yaml.safe_load(TINY_CONFIG.read_text())
    data["overhead"]["migration"] = {"ho_msg_bytes": "thirty-six"}
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_dict(data)
    assert "overhead.migration.ho_msg_bytes" in str(err.value)


def test_cli_runs_the_readme_gravity_constant(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(TINY_CONFIG.read_text().replace(
        "gravity_constant: 500000.0", "gravity_constant: 1.25e6"
    ))
    assert main(["partition", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 0


def test_cli_bad_number_in_config_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    path.write_text(TINY_CONFIG.read_text().replace(
        "gravity_constant: 500000.0", "gravity_constant: lots"
    ))
    assert main(["partition", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert "traffic.gravity_constant" in capsys.readouterr().err


def test_cli_unknown_cpt_complexity_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    path.write_text(TINY_CONFIG.read_text().replace(
        "f_sync_hz: 0.5", "f_sync_hz: 0.5\n  cpt_complexity: foo"
    ))
    assert main(["emulate", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert "overhead.cpt_complexity" in capsys.readouterr().err


def test_cli_negative_step_in_config_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    path.write_text(TINY_CONFIG.read_text().replace("step_s: 15.0", "step_s: -5"))
    assert main(["partition", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert "step_s" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["partition", "emulate"])
@pytest.mark.parametrize("key", ["strategies", "gammas", "seeds"])
def test_cli_empty_experiment_list_exits_2(key, command, tmp_path, capsys):
    data = yaml.safe_load(TINY_CONFIG.read_text())
    data[key] = []
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main([command, "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert f"{key}: expected at least one value" in capsys.readouterr().err
    assert not (tmp_path / "out" / "stats.csv").exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["partition", "--slots", "1:x"], "--slots"),
        (["emulate", "--gamma", "1.5"], "--gamma"),
        (["emulate", "--gamma", "abc"], "--gamma"),
        (["partition", "--strategies", "eunomia,oracle"], "--strategies"),
        (["emulate", "--threads", "0"], "--threads"),
        (["emulate", "--threads", "-3"], "--threads"),
        (["partition", "--slots", "0:100"], "--slots"),  # the tiny config has 4 slots
        (["partition", "--slots", "3:1"], "--slots"),
        (["partition", "--slots=-1:"], "--slots"),
        (["partition", "--seed", "-1"], "--seed"),
        (["emulate", "--seed", "-1"], "--seed"),
    ],
)
def test_cli_rejects_malformed_flags(tmp_path, capsys, argv, flag):
    rc = main(argv + ["--config", str(TINY_CONFIG), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert flag in capsys.readouterr().err


def test_partition_slot_range_bounds_the_report(tmp_path):
    assert main(["partition", "--config", str(TINY_CONFIG), "--out-dir", str(tmp_path),
                 "--slots", "1:4"]) == 0
    report = json.loads((tmp_path / "constraint_report.json").read_text())
    assert {r["slots_checked"] for r in report["strategies"].values()} == {3}


def test_partition_validates_only_what_the_partitioner_did_not(tmp_path, monkeypatch):
    # partition_slot validates each eunomia assignment itself
    checked = []
    validate = cli.validate_assignment

    def counted(assignment, *args, **kwargs):
        checked.append(assignment.strategy)
        return validate(assignment, *args, **kwargs)

    monkeypatch.setattr(cli, "validate_assignment", counted)
    assert main(["partition", "--config", str(TINY_CONFIG), "--out-dir", str(tmp_path)]) == 0
    n_slots = len(build_scenario(load_config(TINY_CONFIG)).slots)
    assert sorted(checked) == ["greedy"] * n_slots + ["odc"] * n_slots


def test_threads_reject_before_a_pool_starts(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(cli, "build_scenario", no_pool)
    argv = ["emulate", "--config", str(TINY_CONFIG), "--out-dir", str(tmp_path), "--threads"]
    assert main(argv + ["0"]) == 2
    assert main(argv + ["-3"]) == 2


def test_threaded_emulate_writes_the_serial_bytes(tmp_path):
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    base = ["emulate", "--config", str(TINY_CONFIG)]
    assert main(base + ["--out-dir", str(serial), "--threads", "1"]) == 0
    assert main(base + ["--out-dir", str(pooled), "--threads", "2"]) == 0
    for name in ("stats.csv", "overhead.json", "overhead.csv"):
        assert (pooled / name).read_bytes() == (serial / name).read_bytes()

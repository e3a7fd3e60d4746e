import csv
import json
from pathlib import Path

import pytest
import yaml

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
    cfg = ScenarioConfig.from_dict(data)
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
    ],
)
def test_unparsable_numbers_rejected_with_path(section, key, value, path):
    data = yaml.safe_load(TINY_CONFIG.read_text())
    data[section][key] = value
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_dict(data)
    assert path in str(err.value)


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


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["partition", "--slots", "1:x"], "--slots"),
        (["emulate", "--gamma", "1.5"], "--gamma"),
        (["emulate", "--gamma", "abc"], "--gamma"),
        (["partition", "--strategies", "eunomia,oracle"], "--strategies"),
    ],
)
def test_cli_rejects_malformed_flags(tmp_path, capsys, argv, flag):
    rc = main(argv + ["--config", str(TINY_CONFIG), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert flag in capsys.readouterr().err

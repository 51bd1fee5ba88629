"""Command-line behaviour: outputs, exit codes, determinism."""

import json
import struct
import zlib

import pytest

from lifeline.backup import BackupStore
from lifeline.cli import main
from lifeline.messages import EmergencyMessage, encode_message
from lifeline.metrics import validate_metrics_json
from lifeline.scenario import MalformedScenario, Scenario, build_setup


def test_setup_emit_then_run(tmp_path, capsys):
    scenario_file = tmp_path / "b.json"
    assert main(["setup", "B", "--messages", "20",
                 "--emit-scenario", str(scenario_file)]) == 0
    out_dir = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario_file),
                 "--out", str(out_dir)]) == 0
    capsys.readouterr()
    doc = json.loads((out_dir / "metrics.json").read_text())
    validate_metrics_json(doc)
    assert doc["injected"] == 20
    csv_text = (out_dir / "metrics.csv").read_text()
    assert csv_text.startswith("metric,key,value")


def test_run_without_out_prints_json(tmp_path, capsys):
    scenario_file = tmp_path / "a.json"
    main(["setup", "A", "--messages", "5", "--emit-scenario", str(scenario_file)])
    capsys.readouterr()
    assert main(["run", "--scenario", str(scenario_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["delivered"] == 5


def test_run_seed_override(tmp_path, capsys):
    scenario_file = tmp_path / "a.json"
    main(["setup", "A", "--messages", "5", "--emit-scenario", str(scenario_file)])
    capsys.readouterr()
    main(["run", "--scenario", str(scenario_file), "--seed", "99"])
    assert json.loads(capsys.readouterr().out)["seed"] == 99


def test_setup_emits_to_stdout(capsys):
    assert main(["setup", "E", "--messages", "10", "--backup-option", "4",
                 "--emit-scenario", "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "lifeline-scenario/1"
    assert doc["policies"]["backup_options"] == [{"option": 4, "threshold": 0}]


def test_cli_runs_are_deterministic(tmp_path, capsys):
    scenario_file = tmp_path / "c.json"
    main(["setup", "C", "--messages", "20", "--emit-scenario", str(scenario_file)])
    for out in ("one", "two"):
        assert main(["run", "--scenario", str(scenario_file),
                     "--out", str(tmp_path / out)]) == 0
    capsys.readouterr()
    first = (tmp_path / "one" / "metrics.json").read_bytes()
    second = (tmp_path / "two" / "metrics.json").read_bytes()
    assert first == second


def test_malformed_scenario_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "lifeline-scenario/1", "name": "x"}')
    assert main(["run", "--scenario", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("policies,path", [
    ({"scan_schedule": {"10.9.9.9": 5}}, "policies.scan_schedule"),
    ({"scan_schedule": {"10.0.0.1": "soon"}}, "policies.scan_schedule"),
    ({"hello_interval_ms": 0}, "policies.hello_interval_ms"),
    ({"tc_interval_ms": -5}, "policies.tc_interval_ms"),
    ({"wake_window_ms": 0, "duty_cycle_enabled": True},
     "policies.wake_window_ms"),
    ({"backup_options": [{"option": 3, "threshold": 500}]},
     "policies.backup_options[0]"),
    ({"backup_options": [{"option": 3, "threshold": "x"}]},
     "policies.backup_options[0]"),
], ids=["scan-unknown-node", "scan-time-text", "hello-0", "tc-negative",
        "wake-window-0", "option-3-threshold-500", "threshold-text"])
def test_bad_policies_exit_2_with_the_field_path(tmp_path, capsys, policies,
                                                  path):
    doc = build_setup("B", messages=20).to_json_dict()
    doc["policies"] = policies
    # Rejected before any run starts: some of these never finish one.
    with pytest.raises(MalformedScenario):
        Scenario.from_json_dict(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(bad)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {path}")


@pytest.mark.parametrize("option", [3, 5, 6])
def test_setup_option_without_its_threshold_exits_2(tmp_path, capsys, option):
    emitted = tmp_path / "scenario.json"
    assert main(["setup", "G", "--backup-option", str(option),
                 "--emit-scenario", str(emitted)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: backup_threshold: option {option} needs ")
    assert not emitted.exists()


def test_invalid_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["run", "--scenario", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_scenario_file_exits_1(tmp_path, capsys):
    assert main(["run", "--scenario", str(tmp_path / "absent.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_topo_renders_dot(tmp_path, capsys):
    scenario_file = tmp_path / "b.json"
    main(["setup", "B", "--messages", "20", "--emit-scenario", str(scenario_file)])
    main(["run", "--scenario", str(scenario_file), "--out", str(tmp_path / "run")])
    capsys.readouterr()
    assert main(["topo", "--run", str(tmp_path / "run"), "--at", "20000"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("graph lifeline {")
    assert '"10.0.0.1" -- "10.0.0.2"' in dot


def test_topo_before_first_snapshot_exits_1(tmp_path, capsys):
    scenario_file = tmp_path / "b.json"
    main(["setup", "B", "--messages", "20", "--emit-scenario", str(scenario_file)])
    main(["run", "--scenario", str(scenario_file), "--out", str(tmp_path / "run")])
    capsys.readouterr()
    assert main(["topo", "--run", str(tmp_path / "run"), "--at", "3"]) == 1
    assert "no topology snapshot" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["drop-mean-latency", "not-an-object"])
def test_topo_on_a_bad_metrics_document_exits_1(tmp_path, capsys, damage):
    scenario_file = tmp_path / "b.json"
    main(["setup", "B", "--messages", "20", "--emit-scenario", str(scenario_file)])
    run_dir = tmp_path / "run"
    main(["run", "--scenario", str(scenario_file), "--out", str(run_dir)])
    doc = json.loads((run_dir / "metrics.json").read_text())
    if damage == "drop-mean-latency":
        del doc["mean_latency_ms"]
    else:
        doc = []
    (run_dir / "metrics.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["topo", "--run", str(run_dir), "--at", "20000"]) == 1
    err = capsys.readouterr().err
    (line,) = err.splitlines()
    assert line.startswith("error: ")
    assert "Traceback" not in err


def test_battery_reports_hours(capsys):
    assert main(["battery", "--interval", "60s"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["interval"] == "60s"
    assert doc["lifetime_hours"] == pytest.approx(12.6, abs=0.1)


def test_battery_emits_scenario(capsys):
    assert main(["battery", "--interval", "idle", "--emit-scenario", "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["name"] == "battery-idle"
    assert doc["traffic"] == []


def test_battery_emits_scenario_to_a_file(tmp_path, capsys):
    scenario_file = tmp_path / "idle.json"
    assert main(["battery", "--interval", "idle", "--seed", "4",
                 "--emit-scenario", str(scenario_file)]) == 0
    assert capsys.readouterr().out == f"wrote {scenario_file}\n"
    doc = json.loads(scenario_file.read_text())
    assert (doc["name"], doc["seed"], doc["traffic"]) == ("battery-idle", 4, [])
    assert Scenario.from_json_dict(doc).to_json_dict() == doc


def test_dump_log_round_trip(tmp_path, capsys):
    log = tmp_path / "backup.log"
    store = BackupStore(log)
    store.persist(EmergencyMessage(
        msg_id=7, src="10.0.1.1", dst="255.255.255.1", priority=1,
        created_at=123, sender_load=5, payload=b"hello"))
    assert main(["dump-log", str(log)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc) == 1
    assert doc[0]["msg_id"] == 7
    assert doc[0]["payload_bytes"] == 5


def test_dump_log_of_a_torn_log_leaves_its_bytes_alone(tmp_path, capsys):
    log = tmp_path / "backup.log"
    BackupStore(log).persist(EmergencyMessage(
        msg_id=7, src="10.0.1.1", dst="255.255.255.1", priority=1,
        created_at=123, sender_load=5, payload=b"hello"))
    with log.open("ab") as fh:
        fh.write(b"torn record")
    before = log.read_bytes()
    assert main(["dump-log", str(log)]) == 0
    assert [row["msg_id"] for row in json.loads(capsys.readouterr().out)] == [7]
    assert log.read_bytes() == before


def test_dump_log_of_an_out_of_range_record_lists_the_empty_prefix(
        tmp_path, capsys):
    doc = encode_message(EmergencyMessage(
        msg_id=7, src="10.0.1.1", dst="255.255.255.1", priority=1,
        created_at=123, sender_load=5, payload=b"hello")).replace(
        b"<priority>1</priority>", b"<priority>7</priority>")
    log = tmp_path / "backup.log"
    log.write_bytes(struct.pack(">II", len(doc), zlib.crc32(doc)) + doc)
    assert main(["dump-log", str(log)]) == 0
    assert json.loads(capsys.readouterr().out) == []


def test_dump_log_missing_file_exits_1(tmp_path, capsys):
    assert main(["dump-log", str(tmp_path / "absent.log")]) == 1
    assert "no such log" in capsys.readouterr().err


@pytest.mark.parametrize("name,why", [("absent.log", "no such log file"),
                                      (".", "cannot read backup log")])
def test_dump_log_unreadable_path_is_one_error_line(tmp_path, capsys,
                                                    name, why):
    assert main(["dump-log", str(tmp_path / name)]) == 1
    err = capsys.readouterr().err
    (line,) = err.splitlines()
    assert line.startswith(f"error: {why}")
    assert "Traceback" not in err

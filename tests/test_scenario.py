"""Scenario schema, field-path diagnostics, and the canned builders."""

import json
import math
from dataclasses import fields

import pytest

from lifeline.backup import BackupOption
from lifeline.cli import main
from lifeline.engine import Simulator
from lifeline.messages import NodeId
from lifeline.scenario import (
    BATTERY_INTERVALS,
    LONG_LINK_P_RECV_ERROR,
    LONG_LINK_P_SEND_ERROR,
    SETUP_IDS,
    LinkModel,
    MalformedScenario,
    Policies,
    PrioritySpec,
    Scenario,
    SizeSpec,
    build_battery_scenario,
    build_boot_scenario,
    build_duty_cycle_scenario,
    build_setup,
)


def doc_for(setup_id="C", **kwargs):
    return build_setup(setup_id, messages=20, **kwargs).to_json_dict()


# -- link classes -----------------------------------------------------------


def test_loopback_link_model():
    model = LinkModel.for_distance(0.0)
    assert model.base_latency_ms == 1
    assert model.p_send_error == 0 and model.p_recv_error == 0


def test_short_link_model():
    assert LinkModel.for_distance(3.0).base_latency_ms == 5
    assert LinkModel.for_distance(4.99).p_send_error == 0


def test_long_link_model_carries_error_rates():
    model = LinkModel.for_distance(60.0)
    assert model.base_latency_ms == 15
    assert model.p_send_error == LONG_LINK_P_SEND_ERROR
    assert model.p_recv_error == LONG_LINK_P_RECV_ERROR


# -- canned setups ----------------------------------------------------------


def test_setup_a_is_one_router_with_loopback():
    scenario = build_setup("A", messages=10)
    assert len(scenario.nodes) == 1
    assert scenario.nodes[0].kind == "router"
    link = scenario.links[0]
    assert link.a == link.b
    spec = scenario.traffic[0]
    assert spec.source == spec.destination == scenario.nodes[0].node


def test_setup_b_is_a_four_router_chain():
    scenario = build_setup("B", messages=10)
    assert [n.kind for n in scenario.nodes] == ["router"] * 4
    assert len(scenario.links) == 3
    assert all(link.model.base_latency_ms == 5 for link in scenario.links)


def test_setup_c_adds_phones_at_the_ends():
    scenario = build_setup("C", messages=10)
    kinds = [n.kind for n in scenario.nodes]
    assert kinds == ["phone", "router", "router", "router", "router", "phone"]
    spec = scenario.traffic[0]
    assert spec.source == NodeId.parse("10.0.1.1")
    assert spec.destination == NodeId.parse("10.0.1.2")


def test_setup_d_uses_lossy_long_links():
    scenario = build_setup("D", messages=10)
    assert all(link.model.base_latency_ms == 15 for link in scenario.links)
    assert all(link.model.p_send_error > 0 for link in scenario.links)


def test_backup_setups_reuse_base_topologies():
    for backup_id, base_id in (("E", "A"), ("F", "B"), ("G", "C")):
        backup = build_setup(backup_id, messages=10)
        base = build_setup(base_id, messages=10)
        assert [n.to_json() for n in backup.nodes] == [n.to_json() for n in base.nodes]
        assert backup.traffic[0].priority.kind == "stratified"
        assert backup.policies.backup_options == [{"option": 1}]


def test_backup_setup_option_4_gets_a_threshold():
    scenario = build_setup("E", messages=10, backup_option=4)
    assert scenario.policies.backup_options == [{"option": 4, "threshold": 0}]


@pytest.mark.parametrize("option,needs", [
    (3, "a battery percentage in (0, 100]"),
    (5, "a load percentage in (0, 100)"),
    (6, "a sender load percentage in (0, 100)"),
])
def test_backup_setup_threshold_options_need_a_threshold(option, needs):
    for setup_id in "EFG":
        with pytest.raises(MalformedScenario) as exc:
            build_setup(setup_id, messages=10, backup_option=option)
        assert str(exc.value) == f"backup_threshold: option {option} needs {needs}"
    # Set-ups A-D enable no backup option and take none.
    assert build_setup("B", messages=10, backup_option=option).policies.backup_options == []


def test_unknown_setup_rejected():
    with pytest.raises(MalformedScenario, match="setup"):
        build_setup("Z")


def test_setup_duration_covers_all_traffic():
    for setup_id in SETUP_IDS:
        scenario = build_setup(setup_id, messages=100)
        assert scenario.traffic[0].end_ms() < scenario.duration_ms


def test_adjacency_skips_loopback_links():
    scenario = build_setup("A", messages=10)
    node = scenario.nodes[0].node
    assert scenario.adjacency() == {node: set()}


def test_link_model_lookup_is_direction_free():
    # The simulator's link table, keyed by address pair both ways.
    scenario = build_setup("B", messages=10)
    link = scenario.links[0]
    a, b = link.a.address, link.b.address
    models = Simulator(scenario)._link_models
    assert models[a, b] is models[b, a]
    assert models[a, b] == link.model
    assert (a, NodeId.parse("10.9.9.9").address) not in models


# -- battery, boot, duty-cycle builders --------------------------------------


def test_battery_idle_and_screen_carry_no_traffic():
    assert build_battery_scenario("idle").traffic == []
    screen = build_battery_scenario("screen")
    assert screen.traffic == []
    phone = next(n for n in screen.nodes if n.kind == "phone")
    assert phone.screen_on


def test_battery_interval_traffic_fits_run():
    scenario = build_battery_scenario("10s")
    spec = scenario.traffic[0]
    assert spec.interval_ms == 10_000
    assert spec.end_ms() < scenario.duration_ms


def test_battery_unknown_interval_rejected():
    with pytest.raises(MalformedScenario, match="interval"):
        build_battery_scenario("5s")
    assert "5s" not in BATTERY_INTERVALS


def test_boot_scenario_scan_order():
    scenario = build_boot_scenario()
    schedule = {str(node): at
                for node, at in scenario.policies.scan_schedule.items()}
    assert schedule == {"10.0.0.1": 0, "10.0.0.3": 500, "10.0.0.2": 1000}


def test_duty_cycle_scenario_shape():
    scenario = build_duty_cycle_scenario(True)
    assert scenario.policies.duty_cycle_enabled
    kinds = sorted(n.kind for n in scenario.nodes)
    assert kinds.count("phone") == 8
    assert kinds.count("router") == 1
    assert kinds.count("station") == 1
    center = next(n for n in scenario.nodes if n.kind == "router")
    assert center.battery_capacity > max(
        n.battery_capacity for n in scenario.nodes if n.kind == "phone")
    assert len(scenario.traffic) == 8
    assert not build_duty_cycle_scenario(False).policies.duty_cycle_enabled


# -- validation --------------------------------------------------------------


def test_duplicate_address_rejected():
    scenario = build_setup("B", messages=10)
    scenario.nodes.append(scenario.nodes[0])
    with pytest.raises(MalformedScenario, match=r"nodes\[4\].address"):
        scenario.validate()


def test_station_kind_requires_station_address():
    doc = doc_for()
    doc["nodes"][0]["kind"] = "station"
    with pytest.raises(MalformedScenario, match=r"nodes\[0\].address"):
        Scenario.from_json_dict(doc)


def test_link_to_unknown_node_rejected():
    doc = doc_for()
    doc["links"][0]["b"] = "10.9.9.9"
    with pytest.raises(MalformedScenario, match=r"links\[0\].b"):
        Scenario.from_json_dict(doc)


def test_negative_distance_rejected():
    doc = doc_for()
    doc["links"][0]["distance_m"] = -1.0
    with pytest.raises(MalformedScenario, match=r"links\[0\].distance_m"):
        Scenario.from_json_dict(doc)


def test_traffic_from_unknown_node_rejected():
    doc = doc_for()
    doc["traffic"][0]["source"] = "10.9.9.9"
    with pytest.raises(MalformedScenario, match=r"traffic\[0\].source"):
        Scenario.from_json_dict(doc)


def test_station_traffic_requires_a_station_node():
    doc = doc_for()
    doc["traffic"][0]["destination"] = "255.255.255.1"
    with pytest.raises(MalformedScenario, match=r"traffic\[0\].destination"):
        Scenario.from_json_dict(doc)


def test_zero_count_rejected():
    doc = doc_for()
    doc["traffic"][0]["count"] = 0
    with pytest.raises(MalformedScenario, match=r"traffic\[0\].count"):
        Scenario.from_json_dict(doc)


def test_run_must_outlast_traffic():
    doc = doc_for()
    doc["duration_ms"] = doc["traffic"][0]["start_ms"]
    with pytest.raises(MalformedScenario, match="duration_ms"):
        Scenario.from_json_dict(doc)


# -- parser diagnostics -------------------------------------------------------


def test_wrong_schema_rejected():
    doc = doc_for()
    doc["schema"] = "lifeline-scenario/999"
    with pytest.raises(MalformedScenario, match="schema"):
        Scenario.from_json_dict(doc)


def test_missing_field_names_its_path():
    doc = doc_for()
    del doc["nodes"][1]["kind"]
    with pytest.raises(MalformedScenario, match=r"nodes\[1\].kind"):
        Scenario.from_json_dict(doc)


def test_bool_is_not_an_int():
    doc = doc_for()
    doc["seed"] = True
    with pytest.raises(MalformedScenario, match="seed: expected int"):
        Scenario.from_json_dict(doc)


def test_bad_address_text_names_its_path():
    doc = doc_for()
    doc["nodes"][0]["address"] = "not-an-address"
    with pytest.raises(MalformedScenario, match=r"nodes\[0\].address"):
        Scenario.from_json_dict(doc)


@pytest.mark.parametrize("text", ["1_0.0.0.1", " +10.0.0.1 ", "010.0.0.1"])
def test_non_canonical_address_rejected(text):
    doc = doc_for()
    doc["links"][0]["a"] = text
    with pytest.raises(MalformedScenario, match=r"links\[0\].a"):
        Scenario.from_json_dict(doc)


def test_size_kind_diagnostic():
    doc = doc_for()
    doc["traffic"][0]["size"] = {"kind": "gaussian"}
    with pytest.raises(MalformedScenario, match=r"traffic\[0\].size.kind"):
        Scenario.from_json_dict(doc)


def test_size_bounds_diagnostic():
    doc = doc_for()
    doc["traffic"][0]["size"] = {"kind": "constant", "bytes": 9999}
    with pytest.raises(MalformedScenario, match=r"traffic\[0\].size.bytes"):
        Scenario.from_json_dict(doc)


def test_priority_value_diagnostic():
    doc = doc_for()
    doc["traffic"][0]["priority"] = {"kind": "fixed", "value": 7}
    with pytest.raises(MalformedScenario, match=r"traffic\[0\].priority.value"):
        Scenario.from_json_dict(doc)


def test_stratified_share_diagnostic():
    doc = doc_for()
    doc["traffic"][0]["priority"] = {"kind": "stratified",
                                     "priority0_share": 1.5}
    with pytest.raises(MalformedScenario,
                       match=r"traffic\[0\].priority.priority0_share"):
        Scenario.from_json_dict(doc)


def test_backup_option_range_diagnostic():
    doc = doc_for()
    doc["policies"] = {"backup_options": [{"option": 9}]}
    with pytest.raises(MalformedScenario,
                       match=r"policies.backup_options\[0\].option"):
        Scenario.from_json_dict(doc)


def test_backup_option_threshold_required_from_3_up():
    doc = doc_for()
    doc["policies"] = {"backup_options": [{"option": 3}]}
    with pytest.raises(MalformedScenario,
                       match=r"policies.backup_options\[0\].threshold"):
        Scenario.from_json_dict(doc)


def test_duty_cycle_range_diagnostic():
    doc = doc_for()
    doc["policies"] = {"duty_cycle": 0.0}
    with pytest.raises(MalformedScenario, match="policies.duty_cycle"):
        Scenario.from_json_dict(doc)


def _node(field, value):
    return lambda scenario: setattr(scenario.nodes[0], field, value)


def _traffic(field, value):
    return lambda scenario: setattr(scenario.traffic[0], field, value)


def _policy(field, value):
    return lambda scenario: setattr(scenario.policies, field, value)


# Unchecked, each of these stops a run midway (a division by zero or an
# invalid message) or runs it outside the model's ranges.
OUT_OF_RANGE = [
    pytest.param(_node("battery_capacity", 0.0),
                 "nodes[0].battery_capacity: expected a finite value > 0",
                 id="capacity=0"),
    pytest.param(_traffic("size", SizeSpec.constant(0)),
                 "traffic[0].size.bytes: expected 1..255",
                 id="bytes=0"),
    pytest.param(_traffic("size", SizeSpec.constant(256)),
                 "traffic[0].size.bytes: expected 1..255",
                 id="bytes=256"),
    pytest.param(_traffic("size", SizeSpec.uniform(0, 10)),
                 "traffic[0].size: expected 1 <= lo <= hi <= 255",
                 id="lo=0"),
    pytest.param(_traffic("size", SizeSpec.uniform(50, 20)),
                 "traffic[0].size: expected 1 <= lo <= hi <= 255",
                 id="lo>hi"),
    pytest.param(_traffic("priority", PrioritySpec.fixed(7)),
                 "traffic[0].priority.value: expected 0..4",
                 id="fixed=7"),
    pytest.param(_traffic("priority", PrioritySpec.fixed(-1)),
                 "traffic[0].priority.value: expected 0..4",
                 id="fixed=-1"),
    pytest.param(_traffic("priority", PrioritySpec.stratified(0.0)),
                 "traffic[0].priority.priority0_share: expected a share in (0, 1]",
                 id="share=0"),
    pytest.param(_traffic("priority", PrioritySpec.stratified(1.5)),
                 "traffic[0].priority.priority0_share: expected a share in (0, 1]",
                 id="share=1.5"),
    pytest.param(_policy("duty_cycle", 0.0),
                 "policies.duty_cycle: expected a value in (0, 1]",
                 id="duty_cycle=0"),
    pytest.param(_policy("location_query_hops", 0),
                 "policies.location_query_hops: must be >= 1",
                 id="hops=0"),
    pytest.param(_traffic("start_ms", -5000),
                 "traffic[0].start_ms: must be >= 0",
                 id="start=-5000"),
    pytest.param(_policy("hold_time_ms", 0),
                 "policies.hold_time_ms: must be >= 1",
                 id="hold=0"),
    pytest.param(_policy("topology_hold_ms", 0),
                 "policies.topology_hold_ms: must be >= 1",
                 id="topology_hold=0"),
    # The kind is checked before any range rule reads the bounds.
    pytest.param(_traffic("size", SizeSpec("gaussian", 0, 300)),
                 "traffic[0].size.kind: expected 'constant' or 'uniform'",
                 id="size-kind"),
    pytest.param(_traffic("priority", PrioritySpec("bogus")),
                 "traffic[0].priority.kind: expected 'fixed', 'uniform', "
                 "or 'stratified'",
                 id="priority-kind"),
]


@pytest.mark.parametrize("setup_id", ["B", "C"])
@pytest.mark.parametrize("mutate,error", OUT_OF_RANGE)
def test_range_rules_hold_for_built_scenarios(setup_id, mutate, error):
    scenario = build_setup(setup_id, messages=20)
    mutate(scenario)
    with pytest.raises(MalformedScenario) as info:
        Simulator(scenario)
    assert str(info.value) == error


# Battery values that closed-form battery accounting cannot take, each of
# which used to run: an infinite capacity raised OverflowError mid-run and
# a NaN one ValueError; a control cost of -1e-3 or NaN ran as 0 and an
# infinite one killed the relay at once; a handoff threshold of 150 turned
# traffic away from a full battery.
BAD_BATTERY_VALUES = [
    ("nodes[0]", "battery_capacity", math.inf, "a finite value > 0"),
    ("nodes[0]", "battery_capacity", math.nan, "a finite value > 0"),
    ("policies", "energy_per_control", -1e-3, "a finite value >= 0"),
    ("policies", "energy_per_control", math.nan, "a finite value >= 0"),
    ("policies", "energy_per_control", math.inf, "a finite value >= 0"),
    ("policies", "handoff_threshold_pct", 150.0, "a value in [0, 100]"),
    ("policies", "handoff_threshold_pct", -1.0, "a value in [0, 100]"),
    ("policies", "handoff_threshold_pct", math.nan, "a value in [0, 100]"),
]


@pytest.mark.parametrize(
    "where,key,value,expected", BAD_BATTERY_VALUES,
    ids=[f"{key}={value}" for _, key, value, _ in BAD_BATTERY_VALUES])
def test_battery_values_out_of_range_are_malformed(tmp_path, capsys, where,
                                                   key, value, expected):
    doc = build_battery_scenario("10s").to_json_dict()
    (doc["nodes"][0] if where == "nodes[0]" else doc["policies"])[key] = value
    error = f"{where}.{key}: expected {expected}"
    with pytest.raises(MalformedScenario) as info:
        Scenario.from_json_dict(doc)
    assert str(info.value) == error
    # json writes these as Infinity, NaN and plain numbers, which the CLI
    # reads back and rejects before running anything.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


def _every_object():
    """A document with an object at every path the schema names."""
    doc = build_setup("G", messages=20, backup_option=4).to_json_dict()
    doc["nodes"][1]["location"] = {"x": 3.0, "y": 4.0}
    return doc


# A misspelt key in any object, which the parser used to pass over
# silently, leaving the field at its default.
UNKNOWN_FIELDS = [
    (lambda doc: doc, "document", "durration_ms"),
    (lambda doc: doc["nodes"][0], "nodes[0]", "battery"),
    (lambda doc: doc["nodes"][1]["location"], "nodes[1].location", "z"),
    (lambda doc: doc["links"][0], "links[0]", "distance"),
    (lambda doc: doc["traffic"][0], "traffic[0]", "intervall_ms"),
    (lambda doc: doc["traffic"][0]["size"], "traffic[0].size", "lo"),
    (lambda doc: doc["traffic"][0]["priority"], "traffic[0].priority",
     "value"),
    (lambda doc: doc["policies"], "policies", "hello_interval"),
    (lambda doc: doc["policies"]["backup_options"][0],
     "policies.backup_options[0]", "thresold"),
]


@pytest.mark.parametrize("where,path,key", UNKNOWN_FIELDS,
                         ids=[f"{path}.{key}" for _, path, key in UNKNOWN_FIELDS])
def test_unknown_field_is_an_error_naming_its_path(tmp_path, capsys,
                                                   where, path, key):
    doc = _every_object()
    Scenario.from_json_dict(doc)
    where(doc)[key] = 1
    with pytest.raises(MalformedScenario) as info:
        Scenario.from_json_dict(doc)
    assert str(info.value) == f"{path}.{key}: unknown field"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {path}.{key}: unknown field\n"


def test_non_object_document_rejected():
    with pytest.raises(MalformedScenario, match="document"):
        Scenario.from_json_dict(["not", "an", "object"])


# -- round trips --------------------------------------------------------------


@pytest.mark.parametrize("setup_id", SETUP_IDS)
def test_setup_round_trip(setup_id):
    original = build_setup(setup_id, messages=25, backup_option=4)
    doc = original.to_json_dict()
    assert Scenario.from_json_dict(doc).to_json_dict() == doc


@pytest.mark.parametrize("interval", BATTERY_INTERVALS)
def test_battery_round_trip(interval):
    doc = build_battery_scenario(interval).to_json_dict()
    assert Scenario.from_json_dict(doc).to_json_dict() == doc


def _canned():
    yield from (build_setup(s, messages=25, backup_option=4) for s in SETUP_IDS)
    yield from (build_battery_scenario(i) for i in BATTERY_INTERVALS)
    yield build_boot_scenario()
    yield build_duty_cycle_scenario(True)
    yield build_duty_cycle_scenario(False)


# Every field away from its default, with duty cycling off: the duty
# cycle and wake window still count (roles read them) and must survive.
EVERY_POLICY_SET = dict(
    backup_options=[{"option": 3, "threshold": 20}],
    handoff_threshold_pct=15.0,
    duty_cycle_enabled=False,
    duty_cycle=0.25,
    wake_window_ms=500,
    energy_per_control=1e-5,
    hello_interval_ms=1000,
    tc_interval_ms=3000,
    hold_time_ms=4000,
    topology_hold_ms=9000,
    scan_schedule={NodeId.parse("10.0.0.2"): 100},
    location_query_hops=2,
)


def _every_policy_set():
    scenario = build_setup("B", messages=20)
    scenario.name = "every-policy-set"
    scenario.policies = Policies(**EVERY_POLICY_SET)
    return scenario


def test_every_policy_field_is_set_away_from_its_default():
    default = Policies()
    assert [f.name for f in fields(Policies)
            if f.name not in EVERY_POLICY_SET
            or EVERY_POLICY_SET[f.name] == getattr(default, f.name)] == [
        "duty_cycle_enabled"]


@pytest.mark.parametrize("scenario", [*_canned(), _every_policy_set()],
                         ids=lambda s: s.name)
def test_object_round_trip_is_lossless(scenario):
    scenario.validate()
    assert Scenario.from_json_dict(scenario.to_json_dict()) == scenario


def test_boot_and_duty_round_trip():
    for scenario in (build_boot_scenario(),
                     build_duty_cycle_scenario(True),
                     build_duty_cycle_scenario(False)):
        doc = scenario.to_json_dict()
        assert Scenario.from_json_dict(doc).to_json_dict() == doc


# -- policies -------------------------------------------------------------------


def test_scan_of_unknown_node_rejected():
    doc = doc_for("B")
    doc["policies"] = {"scan_schedule": {"10.9.9.9": 5}}
    with pytest.raises(MalformedScenario,
                       match=r"policies.scan_schedule\['10.9.9.9'\]: unknown node"):
        Scenario.from_json_dict(doc)


@pytest.mark.parametrize("at", ["soon", -1, 1.5, True, None])
def test_scan_time_must_be_a_non_negative_int(at):
    doc = doc_for("B")
    doc["policies"] = {"scan_schedule": {"10.0.0.1": at}}
    with pytest.raises(MalformedScenario,
                       match=r"policies.scan_schedule\['10.0.0.1'\]"):
        Scenario.from_json_dict(doc)


def test_scan_schedule_checked_on_built_scenarios_too():
    scenario = build_boot_scenario()
    scenario.policies.scan_schedule[NodeId.parse("10.9.9.9")] = 0
    with pytest.raises(MalformedScenario, match="policies.scan_schedule"):
        scenario.validate()


# Unchecked, each of these makes run() loop forever or divide by zero.
BAD_TIMERS = [
    {"hello_interval_ms": 0},
    {"tc_interval_ms": -5},
    {"wake_window_ms": 0, "duty_cycle_enabled": True},
]


@pytest.mark.parametrize("policies", BAD_TIMERS,
                         ids=lambda p: next(iter(p)))
def test_timers_below_one_ms_rejected(policies):
    doc = doc_for("B")
    doc["policies"] = policies
    name = next(iter(policies))
    with pytest.raises(MalformedScenario, match=f"policies.{name}: must be >= 1"):
        Scenario.from_json_dict(doc)
    scenario = build_setup("B", messages=20)
    setattr(scenario.policies, name, policies[name])
    with pytest.raises(MalformedScenario, match=f"policies.{name}"):
        scenario.validate()


@pytest.mark.parametrize("option,why", [
    ({"option": 3, "threshold": 500}, r"\[0\].threshold: option 3 threshold"),
    ({"option": 3, "threshold": "x"}, r"\[0\].threshold: expected float"),
    ({"option": 4, "threshold": True}, r"\[0\].threshold: expected float"),
    ({"option": 1, "threshold": 2}, r"\[0\].threshold: option 1 takes no"),
    ({"option": 0}, r"\[0\].option: unknown backup option"),
    ("4", r"\[0\]: expected an object"),
])
def test_backup_option_rules_name_the_row(option, why):
    doc = doc_for("B")
    doc["policies"] = {"backup_options": [option]}
    with pytest.raises(MalformedScenario, match=r"policies.backup_options" + why):
        Scenario.from_json_dict(doc)


def test_backup_rows_become_options_and_a_bad_row_stops_a_run():
    scenario = build_setup("E", messages=10, backup_option=4, backup_threshold=2)
    assert scenario.policies.enabled_backup_options() == {BackupOption(4, 2)}
    scenario.policies.backup_options.append({"option": 5, "threshold": 100})
    with pytest.raises(MalformedScenario,
                       match=r"policies.backup_options\[1\].threshold"):
        Simulator(scenario)

"""Metrics serialization, schema validation, and DOT export."""

import json

import pytest

from lifeline.engine import Simulator
from lifeline.metrics import (
    METRICS_SCHEMA,
    DeliveryRecord,
    NoSnapshot,
    RunMetrics,
    export_topology,
    validate_metrics_json,
)
from lifeline.scenario import build_setup


def record(msg_id, priority=0, created=1000, delivered=1040, hops=2):
    return DeliveryRecord(
        msg_id=msg_id, src="10.0.1.1", dst="10.0.1.2", priority=priority,
        created_at=created, delivered_at=delivered, hop_count=hops,
        deliver_node="10.0.1.2",
    )


def small_run(setup_id="C", seed=3):
    return Simulator(build_setup(setup_id, messages=30, seed=seed)).run()


# -- aggregates ---------------------------------------------------------------


def test_latency_is_delivered_minus_created():
    assert record(1, created=100, delivered=175).latency_ms == 75


def test_empty_metrics_aggregates():
    metrics = RunMetrics("empty", 0, 1000)
    assert metrics.delivered == 0
    assert metrics.delivery_ratio() == 0.0
    assert metrics.mean_latency_ms() is None
    assert metrics.latency_by_priority() == {}


def test_latency_by_priority_groups_and_averages():
    metrics = RunMetrics("grouping", 0, 1000, injected=3)
    metrics.deliveries = [
        record(1, priority=0, created=0, delivered=10),
        record(2, priority=0, created=0, delivered=30),
        record(3, priority=4, created=0, delivered=100),
    ]
    stats = metrics.latency_by_priority()
    assert stats[0] == {"count": 2, "mean_ms": 20, "min_ms": 10, "max_ms": 30}
    assert stats[4]["count"] == 1
    assert metrics.delivery_ratio() == 1.0
    assert metrics.mean_latency_ms() == pytest.approx(140 / 3)


# -- canonical serialization ---------------------------------------------------


def test_json_is_canonical_and_stable():
    metrics = small_run()
    text = metrics.to_json()
    assert text == metrics.to_json()
    doc = json.loads(text)
    assert doc["schema"] == METRICS_SCHEMA
    # Canonical form: sorted keys, no whitespace.
    assert text == json.dumps(doc, sort_keys=True, separators=(",", ":"))


def escaped_metrics() -> RunMetrics:
    """Shared and distinct estimate objects, "unknown", and strings that
    JSON must escape: a quote, a backslash and non-ASCII text."""
    shared = {"x": 1.5, "y": -2.25, "hop_distance": 2, "source_count": 3}
    metrics = RunMetrics('surge "Ω" \\ run', 7, 60_000, injected=6)
    metrics.deliveries = [
        DeliveryRecord(1, "10.0.1.1", "255.255.255.1", 0, 10, 25, 3,
                       "255.255.255.1", shared),
        DeliveryRecord(2, "10.0.1.1", "255.255.255.1", 4, 12, 40, 5,
                       "255.255.255.1", shared),
        DeliveryRecord(3, 'a"b', "c\\d", 2, 0, 1, 1, "n\u00e9ud", "unknown"),
        DeliveryRecord(4, "10.0.1.2", "10.0.1.3", 1, 5, 9, 2, "10.0.1.3",
                       {"x": 0.1, "y": 1e-7, "hop_distance": 1,
                        "source_count": 1}),
        DeliveryRecord(5, "\u2603", "\n\t", 3, 7, 7, 0, "10.0.1.3",
                       dict(shared)),
    ]
    metrics.dropped = {"ram_exhausted": 2}
    metrics.deaths = {"10.0.1.1": 500}
    return metrics


@pytest.mark.parametrize("make", [
    lambda: RunMetrics("empty", 0, 1000), escaped_metrics, small_run,
], ids=["no-deliveries", "shared-estimates-and-escapes", "real-run"])
def test_json_writer_matches_dumps_of_the_document(make):
    metrics = make()
    assert metrics.to_json() == json.dumps(
        metrics.to_json_dict(), sort_keys=True, separators=(",", ":"))


def test_json_and_csv_agree_on_counts():
    metrics = small_run()
    doc = metrics.to_json_dict()
    rows = [line.split(",") for line in metrics.to_csv().splitlines()]
    assert rows[0] == ["metric", "key", "value"]
    table = {(r[0], r[1]): r[2] for r in rows[1:]}
    assert int(table[("injected", "")]) == doc["injected"]
    assert int(table[("delivered", "")]) == doc["delivered"]
    assert float(table[("delivery_ratio", "")]) == doc["delivery_ratio"]
    assert float(table[("mean_latency_ms", "")]) == doc["mean_latency_ms"]


def test_empty_run_serializes_with_zeroed_counters():
    metrics = RunMetrics("empty", 0, 1000)
    doc = metrics.to_json_dict()
    validate_metrics_json(doc)
    assert doc["injected"] == 0
    assert doc["delivered"] == 0
    assert doc["mean_latency_ms"] is None
    assert doc["deliveries"] == []


# -- schema validation ----------------------------------------------------------


def test_real_run_passes_schema_validation():
    validate_metrics_json(small_run().to_json_dict())


def test_schema_validator_names_missing_field():
    doc = small_run().to_json_dict()
    del doc["send_errors"]
    with pytest.raises(ValueError, match="send_errors"):
        validate_metrics_json(doc)


def test_schema_validator_rejects_wrong_version():
    doc = small_run().to_json_dict()
    doc["schema"] = "lifeline-metrics/99"
    with pytest.raises(ValueError, match="schema"):
        validate_metrics_json(doc)


def test_schema_validator_checks_delivery_fields():
    doc = small_run().to_json_dict()
    del doc["deliveries"][0]["hop_count"]
    with pytest.raises(ValueError, match=r"deliveries\[0\].hop_count"):
        validate_metrics_json(doc)


def test_schema_validator_rejects_wrong_type():
    doc = small_run().to_json_dict()
    doc["injected"] = "many"
    with pytest.raises(ValueError, match="injected"):
        validate_metrics_json(doc)


@pytest.mark.parametrize("key", ["mean_latency_ms", "latency_by_priority",
                                 "lost_to_dead_node"])
def test_schema_validator_requires_every_written_key(key):
    doc = small_run().to_json_dict()
    del doc[key]
    with pytest.raises(ValueError, match=f"{key}: missing"):
        validate_metrics_json(doc)


def test_schema_validator_rejects_non_object_document():
    for doc in ([], "metrics", None, 3):
        with pytest.raises(ValueError, match="document"):
            validate_metrics_json(doc)


def test_schema_validator_raises_only_value_error():
    # Each top-level value and each nested part export_topology reads,
    # swapped for values of the wrong shape.
    good = small_run().to_json_dict()
    assert good["deliveries"] and good["snapshots"]
    damages = []
    for key in good:
        for junk in (None, [], {}, "x", 1.5, [1]):
            damages.append(lambda d, key=key, junk=junk: d.__setitem__(key, junk))
    for part in ("deliveries", "snapshots"):
        for junk in (None, [], "x", 7):
            damages.append(lambda d, part=part, junk=junk:
                           d[part].__setitem__(0, junk))
    for field in ("t", "nodes", "links", "mpr"):
        for junk in (None, "x", [[1]], {"a": 1}):
            damages.append(lambda d, field=field, junk=junk:
                           d["snapshots"][0].__setitem__(field, junk))
    for damage in damages:
        doc = json.loads(json.dumps(good))
        damage(doc)
        try:
            validate_metrics_json(doc)
        except ValueError:
            continue
        # Accepted: then the topology export must work on it.
        metrics = RunMetrics("x", 0, 1)
        metrics.snapshots = doc["snapshots"]
        try:
            export_topology(metrics, 2 ** 62)
        except NoSnapshot:
            pass


# -- topology export -------------------------------------------------------------


def test_export_picks_latest_snapshot_at_or_before_t():
    metrics = small_run()
    times = [snap["t"] for snap in metrics.snapshots]
    assert times == sorted(times) and len(times) >= 2
    dot = export_topology(metrics, times[1])
    assert f't={times[1]}ms' in dot
    # A request between snapshots falls back to the earlier one.
    dot = export_topology(metrics, times[1] + 1)
    assert f't={times[1]}ms' in dot


def test_export_before_first_snapshot_raises():
    metrics = small_run()
    with pytest.raises(NoSnapshot):
        export_topology(metrics, metrics.snapshots[0]["t"] - 1)


def test_export_matches_scenario_adjacency():
    scenario = build_setup("C", messages=30, seed=3)
    metrics = Simulator(scenario).run()
    dot = export_topology(metrics, scenario.duration_ms)
    edges = {line.split("[")[0].strip().rstrip(";").strip()
             for line in dot.splitlines() if " -- " in line}
    expected = set()
    for node, peers in scenario.adjacency().items():
        for peer in peers:
            if str(node) < str(peer):
                expected.add(f'"{node}" -- "{peer}"')
    assert edges == expected


def test_export_styles_relay_edges():
    metrics = small_run("B")
    dot = export_topology(metrics, metrics.duration_ms)
    assert 'style=bold' in dot


def test_export_labels_station_and_battery():
    from lifeline.messages import NodeId
    from lifeline.scenario import LinkSpec, NodeSpec, Scenario, TrafficSpec

    phone, station = NodeId.parse("10.0.1.1"), NodeId.parse("255.255.255.1")
    scenario = Scenario(
        name="labels",
        nodes=[NodeSpec(phone, "phone", battery_capacity=1.0),
               NodeSpec(station, "station")],
        links=[LinkSpec(phone, station, 3.0)],
        traffic=[TrafficSpec(phone, station, 5, interval_ms=10)],
        duration_ms=30_000,
    )
    dot = export_topology(Simulator(scenario).run(), 30_000)
    assert '"255.255.255.1"' in dot and "shape=box" in dot
    assert "shape=ellipse" in dot
    assert "%" in dot
    assert "mains" in dot


def test_loopback_topology_has_no_edges():
    metrics = small_run("A")
    dot = export_topology(metrics, metrics.duration_ms)
    assert " -- " not in dot
    assert '"10.0.0.1"' in dot

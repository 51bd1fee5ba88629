"""End-to-end simulator behaviour on the canned scenarios."""

import sys

import pytest

from lifeline import messages
from lifeline.engine import Simulator, run, run_battery_experiment
from lifeline.forwarding import PriorityQueueBank, ReceiveResult
from lifeline.messages import NodeId
from lifeline.scenario import (
    LinkSpec,
    NodeSpec,
    Policies,
    PrioritySpec,
    Scenario,
    TrafficSpec,
    build_boot_scenario,
    build_duty_cycle_scenario,
    build_setup,
)


def nid(text):
    return NodeId.parse(text)


# -- determinism ---------------------------------------------------------------


def test_same_seed_same_bytes():
    scenario = build_setup("C", messages=100, seed=11)
    first = Simulator(scenario).run().to_json()
    second = Simulator(build_setup("C", messages=100, seed=11)).run().to_json()
    assert first == second


def test_seed_changes_jitter_not_delivery():
    a = run(build_setup("B", messages=100), seed=1)
    b = run(build_setup("B", messages=100), seed=2)
    assert a.delivered == b.delivered == 100
    assert a.mean_latency_ms() != b.mean_latency_ms()


def test_seed_override_is_recorded():
    metrics = run(build_setup("A", messages=10, seed=0), seed=42)
    assert metrics.seed == 42


# -- routing and delivery --------------------------------------------------------


def test_idle_network_converges_and_delivers_nothing():
    r1, r2 = nid("10.0.0.1"), nid("10.0.0.2")
    scenario = Scenario(
        name="idle",
        nodes=[NodeSpec(r1, "router"), NodeSpec(r2, "router")],
        links=[LinkSpec(r1, r2, 3.0)],
        traffic=[],
        duration_ms=60_000,
    )
    sim = Simulator(scenario)
    metrics = sim.run()
    assert metrics.delivered == 0 and metrics.injected == 0
    assert sim.nodes[r1].routes[r2] == (r2, 1)
    assert sim.nodes[r2].routes[r1] == (r1, 1)


@pytest.mark.parametrize("setup_id,hops", [("A", 1), ("B", 3), ("C", 5)])
def test_hop_counts_match_chain_length(setup_id, hops):
    metrics = run(build_setup(setup_id, messages=50))
    assert metrics.delivered == 50
    assert {d.hop_count for d in metrics.deliveries} == {hops}
    assert metrics.conservation_ok


def test_latency_ladder_on_one_seed():
    means = {}
    for setup_id in "ABCD":
        metrics = run(build_setup(setup_id, messages=200, seed=5))
        assert metrics.delivered == 200
        means[setup_id] = metrics.mean_latency_ms()
    assert means["A"] < means["B"] < means["C"] < means["D"]


def test_lossy_links_retry_instead_of_dropping():
    metrics = run(build_setup("D", messages=2000, seed=9))
    assert metrics.delivered == 2000
    assert metrics.send_errors > 0
    assert metrics.recv_errors > 0
    # An errored transmission costs an extra base latency, never the message.
    assert sum(metrics.dropped.values()) == 0


def test_delivery_records_carry_priorities():
    metrics = run(build_setup("C", messages=200, seed=2))
    priorities = {d.priority for d in metrics.deliveries}
    assert priorities == {0, 1, 2, 3, 4}


# -- backup experiments ------------------------------------------------------------


def test_option_1_persists_every_message():
    metrics = run(build_setup("E", messages=50))
    assert sum(metrics.persisted.values()) == 50


def test_option_4_persists_only_priority_0():
    metrics = run(build_setup("E", messages=50, backup_option=4))
    assert sum(metrics.persisted.values()) == 10


def test_each_received_hop_is_decoded_once(monkeypatch):
    calls = {"decode": 0, "accepted": 0}
    original_decode = messages.decode_message
    original_receive = PriorityQueueBank.receive

    def counting_decode(data):
        calls["decode"] += 1
        return original_decode(data)

    def counting_receive(self, data):
        result = original_receive(self, data)
        calls["accepted"] += result is ReceiveResult.ACCEPTED
        return result

    # Modules bind decode_message by name, so replace it everywhere.
    for name, module in list(sys.modules.items()):
        if name == "lifeline" or name.startswith("lifeline."):
            for attr, value in list(vars(module).items()):
                if value is original_decode:
                    monkeypatch.setattr(module, attr, counting_decode)
    monkeypatch.setattr(PriorityQueueBank, "receive", counting_receive)
    metrics = run(build_setup("G", messages=40))
    assert metrics.persisted  # the backup policy ran on received hops
    assert calls["accepted"] > 0
    assert calls["decode"] == calls["accepted"]


def test_backup_happens_on_the_relay_path():
    metrics = run(build_setup("G", messages=40))
    # Every node that handled a message persisted it under option 1.
    assert metrics.persisted
    assert all(count > 0 for count in metrics.persisted.values())


# -- battery --------------------------------------------------------------------


def test_calibration_points_reproduced():
    assert run_battery_experiment("idle") == pytest.approx(15.0, rel=0.02)
    assert run_battery_experiment("screen") == pytest.approx(7.0, rel=0.02)
    assert run_battery_experiment("10s") == pytest.approx(7.0, rel=0.02)


def test_held_out_intervals_predicted():
    assert run_battery_experiment("60s") == pytest.approx(11.0, rel=0.15)
    assert run_battery_experiment("300s") == pytest.approx(13.0, rel=0.15)


def test_dead_node_stops_participating():
    scenario = build_setup("B", messages=1000)
    # Starve the second router so it dies while traffic still flows; its
    # neighbour keeps routing through it until the link ages out.
    scenario.nodes[1].battery_capacity = 2.96e-4
    metrics = run(scenario)
    died_at = metrics.deaths["10.0.0.2"]
    assert 14_000 < died_at < 18_000
    assert metrics.lost_to_dead_node > 0
    assert metrics.delivered < 1000
    assert metrics.conservation_ok


# -- low battery handoff ------------------------------------------------------------


def test_low_battery_hands_queued_messages_off():
    phone, station = nid("10.0.1.1"), nid("255.255.255.1")
    stranded = nid("10.0.1.99")
    # The phone queues messages for an unreachable peer; once idle drain
    # pulls it under the threshold, a beacon round hands them all to the
    # adjacent station.
    scenario = Scenario(
        name="handoff",
        nodes=[NodeSpec(phone, "phone", battery_capacity=0.002),
               NodeSpec(station, "station"),
               NodeSpec(stranded, "phone")],
        links=[LinkSpec(phone, station, 3.0)],
        traffic=[TrafficSpec(phone, stranded, 50, interval_ms=10,
                             priority=PrioritySpec.uniform())],
        duration_ms=120_000,
    )
    metrics = run(scenario)
    assert metrics.handoff_flushed == 50
    assert "10.0.1.1" in metrics.deaths
    assert metrics.conservation_ok


# -- boot trace ----------------------------------------------------------------------


def test_boot_trace_switch_join_wait():
    metrics = run(build_boot_scenario())
    decisions = [(d["node"], d["decision"]) for d in metrics.boot_decisions]
    assert decisions[0] == ("10.0.0.1", "switch")
    assert ("10.0.0.2", "join") in decisions
    # Router 3 saw nothing at first, then joined on a rescan.
    r3 = [d for d in decisions if d[0] == "10.0.0.3"]
    assert r3[0] == ("10.0.0.3", "wait")
    assert r3[-1] == ("10.0.0.3", "join")


# -- duty cycling ---------------------------------------------------------------------


def test_sleep_schedule_extends_boundary_lifetimes():
    lifetimes = {}
    runs = {}
    for enabled in (False, True):
        scenario = build_duty_cycle_scenario(enabled)
        metrics = run(scenario)
        runs[enabled] = metrics
        assert metrics.delivery_ratio() >= 0.95
        boundary = [n for n, role in metrics.roles.items()
                    if role == "boundary" and n in metrics.battery_percent]
        assert boundary
        lifetimes[enabled] = min(
            metrics.deaths.get(n, scenario.duration_ms) for n in boundary)
    assert lifetimes[True] > lifetimes[False]
    # Same topology, same classification; only the schedule differs.
    assert runs[False].roles == runs[True].roles
    assert set(runs[False].roles.values()) == {"inner", "boundary"}


# -- locating at the sink ---------------------------------------------------------------


def test_station_estimates_source_position():
    phone, router, station = nid("10.0.1.1"), nid("10.0.0.1"), nid("255.255.255.1")
    scenario = Scenario(
        name="locating",
        nodes=[NodeSpec(phone, "phone"),
               NodeSpec(router, "router"),
               NodeSpec(station, "station")],
        links=[LinkSpec(phone, router, 3.0), LinkSpec(router, station, 3.0)],
        traffic=[TrafficSpec(phone, station, 5, interval_ms=100)],
        duration_ms=30_000,
    )
    doc = scenario.to_json_dict()
    doc["nodes"][1]["location"] = {"x": 3.0, "y": 4.0, "label": "mast"}
    metrics = run(Scenario.from_json_dict(doc))
    assert metrics.delivered == 5
    estimate = metrics.deliveries[0].estimate
    assert estimate == {"x": 3.0, "y": 4.0, "hop_distance": 1,
                        "source_count": 1}


def test_unlocated_network_reports_unknown():
    metrics = run(build_setup("C", messages=10))
    assert {d.estimate for d in metrics.deliveries} == {"unknown"}


# -- energy ledger ------------------------------------------------------------------------


def test_energy_ledger_accounts_for_drain():
    laptop, phone, station = nid("10.0.2.1"), nid("10.0.1.1"), nid("255.255.255.1")
    scenario = Scenario(
        name="ledger",
        nodes=[NodeSpec(laptop, "laptop"),
               NodeSpec(phone, "phone", battery_capacity=1.0),
               NodeSpec(station, "station")],
        links=[LinkSpec(laptop, phone, 3.0), LinkSpec(phone, station, 3.0)],
        traffic=[TrafficSpec(laptop, station, 50, interval_ms=10)],
        duration_ms=60_000,
    )
    metrics = run(scenario)
    assert metrics.delivered == 50
    ledger = metrics.energy["10.0.1.1"]
    assert ledger["forward_message"] == pytest.approx(
        50 * (1 / 7 - 1 / 15) / 360)
    assert ledger["idle_hour"] > 0
    # Remaining charge mirrors what the ledger says was spent.
    spent_pct = 100 * sum(ledger.values()) / 1.0
    assert metrics.battery_percent["10.0.1.1"] == pytest.approx(
        100 - spent_pct, abs=1e-6)

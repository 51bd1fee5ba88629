"""End-to-end simulator behaviour on the canned scenarios."""

import hashlib
import heapq
import sys

import pytest

from lifeline import engine, messages
from lifeline.backup import BackupStore
from lifeline.engine import Simulator, run, run_battery_experiment
from lifeline.forwarding import PriorityQueueBank, ReceiveResult
from lifeline.locating import KnownLocation, estimate_position, passive_query
from lifeline.messages import NodeId, decode_message, encode_message, splice_hop
from lifeline.scenario import (
    LinkSpec,
    NodeSpec,
    PrioritySpec,
    Scenario,
    TrafficSpec,
    build_battery_scenario,
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
    assert sim.nodes[r1].bank.routes[r2] == (r2, 1)
    assert sim.nodes[r2].bank.routes[r1] == (r1, 1)


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


def b_with_an_extra_long_link(destination_beyond_it: bool,
                              messages: int = 1000) -> Scenario:
    """Setup B plus a router hung off its far end by a 60 m lossy link."""
    scenario = build_setup("B", messages=messages)
    spare = nid("10.0.0.9")
    scenario.nodes.append(NodeSpec(spare, "router"))
    scenario.links.append(LinkSpec(scenario.nodes[3].node, spare, 60.0))
    if destination_beyond_it:
        scenario.traffic[0].destination = spare
    scenario.validate()
    return scenario


def test_link_errors_are_not_charged_on_short_links():
    # Every message crosses short links only; the long link carries none.
    metrics = run(b_with_an_extra_long_link(destination_beyond_it=False))
    assert metrics.delivered == 1000
    assert (metrics.send_errors, metrics.recv_errors) == (0, 0)


def test_receive_errors_are_charged_on_a_long_final_hop():
    # Each message's first hop is short and its final hop long.
    metrics = run(b_with_an_extra_long_link(destination_beyond_it=True,
                                            messages=3000))
    assert metrics.delivered == 3000
    assert metrics.send_errors == 0
    assert metrics.recv_errors > 0


def test_loopback_sends_never_err_in_a_lossy_network():
    scenario = build_setup("D", messages=1000)
    scenario.traffic[0].destination = scenario.traffic[0].source
    metrics = run(scenario)
    assert metrics.delivered == 1000
    assert (metrics.send_errors, metrics.recv_errors) == (0, 0)


def test_delivery_records_carry_priorities():
    metrics = run(build_setup("C", messages=200, seed=2))
    priorities = {d.priority for d in metrics.deliveries}
    assert priorities == {0, 1, 2, 3, 4}


# -- custody without polling ----------------------------------------------------


def test_unroutable_custody_parks_instead_of_polling():
    # The relay dies at about 7 h; the laptop then holds every message it
    # injects for 9 h with no route, which 100 ms polling made 300k ticks.
    # The count is exact: an extra tick that demotes nothing moves no
    # metric, so no golden digest would see it.
    scenario = build_battery_scenario("10s")
    assert scenario.duration_ms == 16 * 3_600_000
    sim = Simulator(scenario)
    ticks = []
    on_tick = sim._on_tick
    sim._on_tick = lambda now, node: (ticks.append(now), on_tick(now, node))
    metrics = sim.run()
    assert len(ticks) == 5_041
    assert metrics.conservation_ok


def two_routers_and_an_island(traffic):
    r1, r2, island = nid("10.0.0.1"), nid("10.0.0.2"), nid("10.0.0.3")
    return Scenario(
        name="custody",
        nodes=[NodeSpec(r1, "router"), NodeSpec(r2, "router"),
               NodeSpec(island, "router")],
        links=[LinkSpec(r1, r2, 3.0)],
        traffic=traffic(r1, r2, island),
        duration_ms=60_000,
    )


def test_parked_node_still_delivers_routable_arrivals():
    # r1 parks on messages for an unreachable island, then is handed
    # lowest-priority messages for its neighbour that queue behind them.
    scenario = two_routers_and_an_island(lambda r1, r2, island: [
        TrafficSpec(r1, island, 5, interval_ms=10, start_ms=10_000,
                    priority=PrioritySpec.fixed(0)),
        TrafficSpec(r1, r2, 5, interval_ms=3_000, start_ms=20_000,
                    priority=PrioritySpec.fixed(4)),
    ])
    metrics = run(scenario)
    assert metrics.injected == 10
    assert metrics.delivered == 5
    assert {d.dst for d in metrics.deliveries} == {"10.0.0.2"}
    assert metrics.conservation_ok


def test_messages_sent_at_the_hello_that_creates_their_route():
    scenario = two_routers_and_an_island(lambda r1, r2, island: [
        TrafficSpec(r1, r2, 5, interval_ms=1, start_ms=50)])
    metrics = run(scenario)
    hello_ms = scenario.policies.hello_interval_ms
    first = min(d.delivered_at for d in metrics.deliveries)
    assert metrics.delivered == 5
    assert first > hello_ms  # injected long before the link is symmetric
    # Sent at the route's hello, plus one link latency and 1 ms spacing,
    # not at the next 100 ms retry after it.
    assert all(d.delivered_at - first < 10 for d in metrics.deliveries)
    assert first % hello_ms < 10


# -- streamed injects ---------------------------------------------------------------


def test_every_inject_event_runs_even_after_its_source_dies():
    scenario = build_setup("B", messages=1000)
    source = scenario.nodes[1]
    source.battery_capacity = 2.96e-4  # dies at about 16 s
    scenario.traffic.append(TrafficSpec(source.node, scenario.nodes[3].node,
                                        100, interval_ms=500))
    sim = Simulator(scenario)
    handled = []
    on_inject = sim._on_inject
    sim._on_inject = lambda now, *args: (handled.append(now),
                                         on_inject(now, *args))
    metrics = sim.run()
    assert str(source.node) in metrics.deaths
    assert len(handled) == 1100
    assert handled == sorted(handled)
    assert metrics.injected < 1100


# -- power events -------------------------------------------------------------------


# Digest of battery_chain()'s metrics bytes.
BATTERY_CHAIN_SHA256 = "afc2c21fd5d884d65ba8b1aafdf635b017fa9aaf449fbb72d3cbf2a112b5ed90"


def battery_chain() -> Scenario:
    """Setup B at 200 messages on full batteries: each router's death
    lies hours past the end of the 77 s run."""
    scenario = build_setup("B", messages=200, seed=0)
    for spec in scenario.nodes:
        spec.battery_capacity = 1.0
    return scenario


def test_no_power_event_is_ever_queued(monkeypatch):
    # A death is a time: nothing queues a power event, not even on runs
    # whose batteries die between charges (relay-16h) or doze (the duty-on
    # grid).
    dispatched, queued = [], []
    monkeypatch.setattr(Simulator, "_on_power",
                        lambda self, now, rt: dispatched.append(now))
    push = heapq.heappush

    def checked_push(heap, entry):
        if getattr(entry[2], "__func__", None) is Simulator._on_power:
            queued.append(entry[0])
        push(heap, entry)

    monkeypatch.setattr(heapq, "heappush", checked_push)
    sim = Simulator(battery_chain())
    metrics = sim.run()
    assert not metrics.deaths
    assert metrics.delivered == 200
    assert len(sim._heap) <= 2 * len(sim.nodes)
    assert hashlib.sha256(metrics.to_json().encode()).hexdigest() == (
        BATTERY_CHAIN_SHA256)
    for scenario in (build_battery_scenario("10s", seed=1),
                     build_duty_cycle_scenario(True)):
        assert run(scenario).deaths
    assert dispatched == queued == []


# -- backup experiments ------------------------------------------------------------


def test_option_1_persists_every_message():
    metrics = run(build_setup("E", messages=50))
    assert sum(metrics.persisted.values()) == 50


def test_option_4_persists_only_priority_0():
    metrics = run(build_setup("E", messages=50, backup_option=4))
    assert sum(metrics.persisted.values()) == 10


def test_option_3_reads_mains_nodes_as_full_batteries():
    # Mains nodes count as 100%, which is never below a threshold of 100.
    assert not run(build_setup("E", messages=50, backup_option=3,
                               backup_threshold=100)).persisted


def test_option_5_stays_quiet_under_light_load():
    # A queued 255-byte message is far below 1% of a bank's budget.
    assert not run(build_setup("E", messages=50, backup_option=5,
                               backup_threshold=1)).persisted


def count_calls(monkeypatch, original):
    """Replace original at every binding site in the package with a
    counting wrapper; returns the list the wrapper appends to."""
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    # Modules bind codec functions by name, so replace them everywhere.
    for name, module in list(sys.modules.items()):
        if name == "lifeline" or name.startswith("lifeline."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def test_each_message_is_encoded_once_at_inject(monkeypatch):
    encodes = count_calls(monkeypatch, messages.encode_message)
    metrics = run(build_setup("G", messages=40))
    # Every node backs up every message it handles (option 1), from the
    # bytes it holds; each hop sends spliced bytes.
    assert sum(metrics.persisted.values()) == 6 * 40
    assert len(encodes) == metrics.injected == 40


def test_after_forward_records_are_the_forwarded_bytes(monkeypatch):
    persist = BackupStore.persist
    on_msg = Simulator._on_msg
    sent = set()
    records = []

    def recording_on_msg(sim, now, rt, data):
        sent.add(data)
        on_msg(sim, now, rt, data)

    def recording_persist(store, msg, payload=None):
        assert payload is not None  # the engine hands over the bytes it holds
        if persist(store, msg, payload):
            records.append((msg.hop_count, payload))
            return True
        return False

    monkeypatch.setattr(Simulator, "_on_msg", recording_on_msg)
    monkeypatch.setattr(BackupStore, "persist", recording_persist)
    metrics = run(build_setup("G", messages=40, backup_option=2))
    assert len(records) == sum(metrics.persisted.values()) > 0
    for hop_count, record in records:
        decoded = decode_message(record)
        assert encode_message(decoded) == record
        assert decoded.hop_count == hop_count
        assert record in sent
    # Option 2 backs up at every node that forwards: hops 1 to 5.
    assert sorted({hop for hop, _ in records}) == [1, 2, 3, 4, 5]


def test_each_received_hop_is_decoded_once(monkeypatch):
    accepted = []
    original_receive = PriorityQueueBank.receive

    def counting_receive(self, data):
        result = original_receive(self, data)
        if result is ReceiveResult.ACCEPTED:
            accepted.append(data)
        return result

    decodes = count_calls(monkeypatch, messages.decode_message)
    monkeypatch.setattr(PriorityQueueBank, "receive", counting_receive)
    metrics = run(build_setup("G", messages=40))
    assert metrics.persisted  # the backup policy ran on received hops
    assert accepted
    assert len(decodes) == len(accepted)


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


def test_no_control_packet_is_sent_to_a_dead_neighbour():
    # After the relay dies at about 7 h none of its neighbours' packets
    # becomes an event; nor does any refresh applied at send, so only the
    # packets that change a link or a topology entry are handled.
    sim = Simulator(build_battery_scenario("10s"))
    to_dead = []
    handled = []
    on_ctl = sim._on_ctl

    def counting(now, rt, pkt):
        handled.append(now)
        if now >= rt.dies_at:
            to_dead.append(now)
        on_ctl(now, rt, pkt)

    sim._on_ctl = counting
    metrics = sim.run()
    assert metrics.deaths
    assert to_dead == []
    assert len(handled) == 16


# Events by kind on the 16 h relay run (seed 1).  A HELLO that only
# refreshes a link, and a TC of the relay's that only refreshes its
# topology entry at the laptop or the station, both leaves, is applied
# when it is sent, so only the few packets that change a link or an entry
# become `ctl` events.  The laptop and the station, with one neighbour
# each, run no TC timer.  Once the chain has formed, every HELLO of all
# three and every TC of the relay's only refresh until the relay dies, so
# they are owed in one stretch rather than sent; the `hello` events left
# are the HELLOs that form the chain, the stretch's armed ends (one a
# budget of the relay's forwards spent, and its death), and those that
# forget the dead relay, and the `tc` events the relay's TCs at 2.5 s and
# 7.5 s and the one at 12.5 s that finds the stretch on and stops.
RELAY_16H_EVENTS = {"hello": 42, "tc": 3, "ctl": 16}


def test_relay_16h_control_plane_events_by_kind():
    sim = Simulator(build_battery_scenario("10s", seed=1))
    counts = dict.fromkeys(RELAY_16H_EVENTS, 0)
    tc_nodes = set()
    for kind in RELAY_16H_EVENTS:
        def counting(now, rt, *args, kind=kind, handler=getattr(sim, f"_on_{kind}")):
            counts[kind] += 1
            if kind == "tc":
                tc_nodes.add(str(rt.node))
            handler(now, rt, *args)
        setattr(sim, f"_on_{kind}", counting)
    sim.run()
    assert counts == RELAY_16H_EVENTS
    assert tc_nodes == {"10.0.1.1"}   # the relay phone


def test_relay_16h_runs_under_16_100_events():
    sim = Simulator(build_battery_scenario("10s", seed=1))
    handled = []
    for kind in ("hello", "tc", "ctl", "tick", "msg", "inject", "scan",
                 "roles", "snapshot"):
        def counting(now, *args, kind=kind,
                     handler=getattr(sim, f"_on_{kind}")):
            handled.append(kind)
            handler(now, *args)
        setattr(sim, f"_on_{kind}", counting)
    sim.run()
    assert len(handled) < 16_100


# -- low battery handoff ------------------------------------------------------------


# Digest of the handoff run's metrics bytes.  Its flush transmits the
# bytes the bank holds, spliced, a path no golden run takes.
HANDOFF_SHA256 = "67b8d5fcf9d0cf491e950aaca302895878e81777764643106041bd5d39c62226"


def handoff_scenario(station=True):
    phone, stranded = nid("10.0.1.1"), nid("10.0.1.99")
    # The phone queues messages for an unreachable peer; once idle drain
    # pulls it under the threshold, a beacon round hands them all to the
    # adjacent station or, with a router there instead, to its backup log.
    neighbour = (NodeSpec(nid("255.255.255.1"), "station") if station
                 else NodeSpec(nid("10.0.0.1"), "router"))
    return Scenario(
        name="handoff" if station else "handoff-persist",
        nodes=[NodeSpec(phone, "phone", battery_capacity=0.002),
               neighbour,
               NodeSpec(stranded, "phone")],
        links=[LinkSpec(phone, neighbour.node, 3.0)],
        traffic=[TrafficSpec(phone, stranded, 50, interval_ms=10,
                             priority=PrioritySpec.uniform())],
        duration_ms=120_000,
    )


def test_low_battery_hands_queued_messages_off():
    metrics = run(handoff_scenario())
    assert metrics.handoff_flushed == 50
    assert "10.0.1.1" in metrics.deaths
    assert metrics.conservation_ok


def test_low_battery_handoff_metrics_bytes_match_pinned_digest():
    doc = run(handoff_scenario()).to_json()
    assert hashlib.sha256(doc.encode()).hexdigest() == HANDOFF_SHA256


def test_low_battery_handoff_encodes_nothing_again(monkeypatch):
    encodes = count_calls(monkeypatch, messages.encode_message)
    metrics = run(handoff_scenario())
    assert metrics.handoff_flushed == 50
    assert len(encodes) == metrics.injected == 50


# Digest of the persisting handoff run's metrics bytes, recorded before the
# handoff handed over held bytes.
HANDOFF_PERSIST_SHA256 = (
    "698caf93992b0c7156fc3c1b08e546908b3660b77a7771928a55c14ffdab455f")


def test_low_battery_handoff_without_a_station_persists_held_bytes(monkeypatch):
    persist = BackupStore.persist
    records = []

    def checking_persist(store, msg, payload=None):
        assert payload == encode_message(msg)  # the message as drained
        records.append(msg.msg_id)
        return persist(store, msg, payload)

    monkeypatch.setattr(BackupStore, "persist", checking_persist)
    metrics = run(handoff_scenario(station=False))
    assert metrics.handoff_persisted == 50
    assert metrics.persisted == {"10.0.1.1": 50}
    assert metrics.backed_up == {"10.0.1.1": 50}
    assert metrics.conservation_ok
    assert len(set(records)) == 50
    doc = metrics.to_json()
    assert hashlib.sha256(doc.encode()).hexdigest() == HANDOFF_PERSIST_SHA256


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


# -- facts computed once per run or per route table -----------------------------------


def located_fan_in():
    """Five phones reach a station through two located routers and an
    unlocated one, so their location estimates all differ."""
    station = nid("255.255.255.1")
    r1, r2, r3 = nid("10.0.0.1"), nid("10.0.0.2"), nid("10.0.0.3")
    phones = [nid(f"10.0.1.{n}") for n in range(1, 6)]
    nodes = [NodeSpec(station, "station"),
             NodeSpec(r1, "router", location=KnownLocation(r1, (0.0, 0.0))),
             NodeSpec(r2, "router", location=KnownLocation(r2, (10.0, 0.0))),
             NodeSpec(r3, "router")]
    nodes += [NodeSpec(p, "phone") for p in phones]
    links = [LinkSpec(r1, station, 3.0), LinkSpec(r2, station, 3.0),
             LinkSpec(r3, r1, 3.0),
             LinkSpec(phones[0], r1, 3.0), LinkSpec(phones[1], r2, 3.0),
             LinkSpec(phones[2], r1, 3.0), LinkSpec(phones[2], r2, 3.0),
             LinkSpec(phones[3], r3, 3.0), LinkSpec(phones[4], phones[3], 3.0)]
    traffic = [TrafficSpec(p, station, 20, interval_ms=50) for p in phones]
    return Scenario(name="fan-in", nodes=nodes, links=links, traffic=traffic,
                    duration_ms=30_000)


def test_location_estimate_is_queried_once_per_origin(monkeypatch):
    scenario = located_fan_in()
    queried = []
    original = engine.passive_query
    monkeypatch.setattr(engine, "passive_query",
                        lambda origin, *rest: (queried.append(origin),
                                               original(origin, *rest))[1])
    metrics = run(scenario)
    assert metrics.delivered == 100
    adjacency = scenario.adjacency()
    known = {spec.node: spec.location for spec in scenario.nodes
             if spec.location is not None}
    hops = scenario.policies.location_query_hops
    for record in metrics.deliveries:
        fresh = estimate_position(passive_query(nid(record.src), hops,
                                                adjacency, known))
        assert record.estimate == fresh.to_json()
    origins = {record.src for record in metrics.deliveries}
    assert len({str(r.estimate) for r in metrics.deliveries}) == len(origins) == 5
    assert sorted(map(str, queried)) == sorted(origins)


def test_received_entries_are_sized_by_their_encoding(monkeypatch):
    receive = PriorityQueueBank.receive
    checked = []

    def checking_receive(bank, data):
        result = receive(bank, data)
        for queue in bank.queues + [bank.swap_store]:
            for entry in queue:
                assert (splice_hop(entry.data, entry.msg.priority,
                                   entry.msg.hop_count)
                        == encode_message(entry.msg))
                checked.append(len(entry.data))
        return result

    monkeypatch.setattr(PriorityQueueBank, "receive", checking_receive)
    metrics = run(build_setup("C", messages=200))
    assert metrics.delivered == 200
    assert checked


@pytest.mark.parametrize("option", [1, 2, 4])
def test_persisted_records_are_the_message_encoding(monkeypatch, option):
    persist = BackupStore.persist
    stored = []

    def checking_persist(store, msg, payload=None):
        assert payload is not None  # the engine hands over the bytes it holds
        assert payload == encode_message(msg)
        if persist(store, msg, payload):
            stored.append(msg.msg_id)
            return True
        return False

    monkeypatch.setattr(BackupStore, "persist", checking_persist)
    metrics = run(build_setup("F", messages=100, backup_option=option))
    assert len(stored) == sum(metrics.persisted.values()) > 0

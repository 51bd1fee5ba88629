"""Generated scenarios must give the same bytes with and without the
engine's event elisions.

The strategy draws small networks (3-12 nodes, as stars, trees and trees
with cycles) with timings on both sides of the facts each elision needs:
HELLO and TC intervals against the longest link latency, the link hold
against the HELLO interval plus that latency, the topology hold against
the TC interval plus it, and a HELLO interval on both sides of the retry
tick.  Battery phones die during the run and a handoff threshold above 0
makes some cross it first; links may be lossy, nodes may doze, backup
options 2-6 may be on, and the traffic comes from leaves.  Each example
must give equal bytes with `Simulator.elisions` on and off, conserve
messages, validate against the metrics schema and give equal bytes on a
rerun.  It must also dispatch only events the all-events run
dispatches, in the same order, and end with the same positions of each
node's three streams (message plane, HELLO and TC), TC sequence numbers
and topology state, duplicate sets included, once what a stretch owes
is settled.

Within a ms, events run in one fixed order of tiers: those queued
before the run, then HELLOs and then TC timers, each in address order,
then every other event in the order it was queued, and a stretch's end
last.  So the HELLOs and TC timers a stretch's end resumes take their
places by what they are, not by when they were queued.  Stretching
stars draw HELLO intervals at, under and over the retry tick, and TC
intervals above, equal to and below the HELLO interval and under the
retry tick, many of whose TC times share an ms with a HELLO time.  One
long run with a 7 ms TC interval wraps the 16-bit TC sequence among a
stretch's owed TCs; pinned stars end a stretch with a death between two
HELLO times, with a hub's death between two TC times, with a death on a
TC time and with a forward that empties the hub on a HELLO time, after
that ms's HELLO, and forward between owed TC times; and a pinned 1 ms
network has a HELLO from a neighbour that has just died arrive and
remake a link.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lifeline.engine import FIRST_TC_MS, Simulator
from lifeline.messages import NodeId
from lifeline.metrics import validate_metrics_json
from lifeline.olsr import SEQ_MOD
from lifeline.scenario import (
    LinkSpec,
    NodeSpec,
    Policies,
    PrioritySpec,
    Scenario,
    SizeSpec,
    TrafficSpec,
)

STATION = NodeId.parse("255.255.255.1")
# An idle phone with a full battery (capacity 1.0) lasts 15 hours.
IDLE_LIFETIME_MS = 15 * 3_600_000
# The longest latency of each link class: its base plus 20% jitter.
DISTANCES = {"loopback": (0.0, 0.0), "short": (1.0, 4.5),
             "long": (6.0, 60.0)}
LONGEST = {"loopback": 1, "short": 6, "long": 18}
_PREFIX = {"router": "10.0.0", "phone": "10.0.1", "laptop": "10.0.2"}


@st.composite
def scenarios(draw) -> Scenario:
    size = draw(st.integers(3, 12))
    # Half the examples hold every fact a stretch needs by a margin, on a
    # star, so that the network falls into one.
    steady = draw(st.booleans())
    shape = ("star" if steady
             else draw(st.sampled_from(("star", "tree", "cycle"))))
    kinds = draw(st.lists(st.sampled_from(("router", "phone", "phone",
                                           "laptop")),
                          min_size=size - 1, max_size=size - 1))
    classes = draw(st.sampled_from(("loopback", "short", "long", "mixed")))

    longest, edges = 0, set()
    for i in range(1, size):
        if shape == "star":
            peer = 0 if i == 1 else 1
        else:
            peer = draw(st.integers(0, i - 1))
        edges.add((peer, i))
    if shape == "cycle":
        for _ in range(draw(st.integers(1, 2))):
            a, b = sorted(draw(st.lists(st.integers(0, size - 1), min_size=2,
                                        max_size=2, unique=True)))
            edges.add((a, b))
    distances = []
    for _ in sorted(edges):
        link_class = (draw(st.sampled_from(sorted(DISTANCES)))
                      if classes == "mixed" else classes)
        lo, hi = DISTANCES[link_class]
        distances.append(round(draw(st.floats(lo, hi)), 2))
        longest = max(longest, LONGEST[link_class])

    # Each limit is drawn just under, at or just over, or well clear; the
    # run lasts tens of HELLOs, and the first TC comes 2.5 s in.
    if steady:
        # HELLOs at, under and over the retry tick, so ticks and retries
        # share ms with HELLOs.
        hello = draw(st.sampled_from((50, 100, 101, 250, 1_000)))
        # TC intervals above, equal to and below the HELLO interval, and
        # under the retry tick.  With HELLOs every 50, 100 or 250 ms or
        # every second, most of these intervals put every TC time, or
        # every second or fourth, on a HELLO time, so a stretch's end often
        # resumes both in one ms.
        hold = 2 * hello + longest
        tc = max(longest + 1,
                 hello * draw(st.sampled_from((10, 2, 6, 1, 4))) // 4)
        topology_hold = 3 * tc
    else:
        hello = draw(st.sampled_from((longest, longest + 1, 100, 101, 250,
                                      1_000)))
        hold = hello + longest + draw(st.sampled_from((-1, 0, 1, hello)))
        tc = draw(st.sampled_from((hello, hello * 5 // 2, hello + 1,
                                   max(longest + 1, hello // 4))))
        topology_hold = tc + longest + draw(st.sampled_from((-1, 0, 1, tc)))
    duration = hello * draw(st.integers(30, 120))
    if steady:
        duration = max(duration, 10_000)

    nodes, count = [NodeSpec(STATION, "station")], dict.fromkeys(_PREFIX, 0)
    for kind in kinds:
        count[kind] += 1
        node = NodeId.parse(f"{_PREFIX[kind]}.{count[kind]}")
        capacity = None
        if kind == "phone" and draw(st.booleans()):
            # Dies between a fifth of the run and one and a half runs in.
            share = draw(st.floats(0.2, 1.5))
            capacity = share * duration / IDLE_LIFETIME_MS
        nodes.append(NodeSpec(node, kind, battery_capacity=capacity))
    links = [LinkSpec(nodes[a].node, nodes[b].node, distance)
             for (a, b), distance in zip(sorted(edges), distances)]
    options = draw(st.lists(st.sampled_from((
        {"option": 2}, {"option": 3, "threshold": 50.0},
        {"option": 4, "threshold": 1}, {"option": 5, "threshold": 5.0},
        {"option": 6, "threshold": 20.0})), max_size=2,
        unique_by=lambda o: o["option"]))
    policies = Policies(
        backup_options=options,
        handoff_threshold_pct=draw(st.sampled_from((0.0, 10.0, 60.0))),
        duty_cycle_enabled=not steady and draw(st.booleans()),
        wake_window_ms=max(1, duration // 30),
        energy_per_control=(0.0 if steady else
                            draw(st.sampled_from((0.0, 0.0, 1e-7)))),
        hello_interval_ms=hello, tc_interval_ms=tc,
        hold_time_ms=max(1, hold), topology_hold_ms=max(1, topology_hold))

    degree = dict.fromkeys(range(size), 0)
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    # A cycle can leave no leaf; then any node sends.
    leaves = ([i for i in range(1, size) if degree[i] == 1]
              or list(range(1, size)))
    traffic = []
    for _ in range(draw(st.integers(1, 3))):
        source = nodes[draw(st.sampled_from(leaves))].node
        destination = draw(st.sampled_from(
            [STATION] + [spec.node for spec in nodes[1:]
                         if spec.node != source]))
        start = draw(st.integers(3 * hello, duration // 2))
        messages = min(draw(st.integers(5, 30)), (duration - start) // 2)
        traffic.append(TrafficSpec(
            source, destination, messages,
            interval_ms=max(1, (duration - start) // (2 * messages)),
            start_ms=start, size=SizeSpec.uniform(10, 255),
            priority=PrioritySpec.uniform()))
    scenario = Scenario(name="generated", nodes=nodes, links=links,
                        traffic=traffic, policies=policies,
                        seed=draw(st.integers(0, 1_000)),
                        duration_ms=duration)
    scenario.validate()
    return scenario


KINDS = ("hello", "tc", "ctl", "tick", "msg", "inject", "scan", "roles",
         "snapshot")


def traced_run(scenario: Scenario,
               elisions: frozenset = Simulator.elisions):
    """The metrics bytes, the events dispatched as (ms, kind, node), and
    each node's state once the run has ended."""
    sim = Simulator(scenario)
    sim.elisions = elisions
    events = []
    for kind in KINDS:
        def traced(now, *args, kind=kind, handler=getattr(sim, f"_on_{kind}")):
            rt = args[0] if args else None
            if kind == "hello" and rt is None:
                handler(now, *args)   # a stretch's armed end
                return
            node = getattr(rt, "node", None)
            events.append((now, kind, None if node is None else str(node)))
            handler(now, *args)
        setattr(sim, f"_on_{kind}", traced)
    metrics = sim.run()
    assert metrics.conservation_ok
    return metrics.to_json(), events, final_state(sim)


def final_state(sim: Simulator) -> dict:
    """Each live node's stream positions and topology state at the end of
    the run, with what a stretch owes settled up to it.  A dead node's
    state is never read again, so a stretch does not restamp a neighbour
    that died before the last owed HELLO it settles."""
    end = sim.scenario.duration_ms
    if sim._end_at is not None:
        sim._end_stretch(end)
    return {str(node): (
        rt.rng.tell(), rt.hello_rng.tell(), rt.tc_rng.tell(), rt.tc_seq,
        sorted((str(n), r.status.value, r.expiry)
               for n, r in rt.topo.links.items()),
        sorted((str(o), seq, expiry)
               for o, (seq, _, expiry) in rt.topo.topology.items()),
        sorted((str(o), seq, at) for (o, seq), at in rt.topo.seen_tc.items()),
        rt.topo._links_due) for node, rt in sim.nodes.items()
        if end < rt.dies_at}


def in_order_within(events: list, reference: list) -> bool:
    """Whether events are some of the reference's, in its order."""
    it = iter(reference)
    return all(event in it for event in events)


def check(scenario: Scenario) -> None:
    elided, events, state = traced_run(scenario)
    validate_metrics_json(json.loads(elided))
    reference, all_events, _ = traced_run(scenario, frozenset())
    assert reference == elided
    assert in_order_within(events, all_events)
    # A refresh applied at send takes effect before its arrival, so a
    # packet still in flight at the end leaves the two paths' states
    # apart; without stretches alone they must agree.
    unstretched, _, unstretched_state = traced_run(
        scenario, Simulator.elisions - {"stretch"})
    assert unstretched == elided
    assert state == unstretched_state
    assert traced_run(scenario)[0] == elided


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(scenarios())
def test_generated_scenarios_match_the_all_events_path(scenario):
    check(scenario)


def test_a_wrapping_tc_sequence_in_a_stretch_matches_the_all_events_path():
    # A hub between the station and two laptops sends a TC every 7 ms, so
    # its sequence wraps about 459 s in; HELLOs every 200 ms only refresh
    # once the star has formed, so the network spends the wrap in one
    # stretch, whose TCs are owed rather than sent.  A laptop's messages to
    # the station need the hub's topology entry, which a wrapped TC taken
    # for a duplicate would let lapse.
    hub = NodeId.parse("10.0.0.1")
    laptops = [NodeId.parse("10.0.2.1"), NodeId.parse("10.0.2.2")]
    tc = 7
    duration = (SEQ_MOD + 5_000) * tc
    scenario = Scenario(
        name="tc-wrap",
        nodes=[NodeSpec(STATION, "station"), NodeSpec(hub, "router")]
        + [NodeSpec(node, "laptop") for node in laptops],
        links=[LinkSpec(STATION, hub, 2.0)]
        + [LinkSpec(hub, node, 3.0) for node in laptops],
        traffic=[TrafficSpec(laptops[0], STATION, 100, interval_ms=300,
                             start_ms=SEQ_MOD * tc - 15_000)],
        policies=Policies(hello_interval_ms=200, hold_time_ms=600,
                          tc_interval_ms=tc, topology_hold_ms=100),
        seed=3, duration_ms=duration)
    scenario.validate()
    sim = Simulator(scenario)
    stretches = []
    enter = sim._enter_stretch

    def counted(t):
        entered = enter(t)
        stretches.append(entered)
        return entered

    sim._enter_stretch = counted
    tc_events = []
    on_tc = sim._on_tc
    sim._on_tc = lambda now, rt: tc_events.append(now) or on_tc(now, rt)
    metrics = sim.run()
    assert any(stretches)
    assert len(metrics.deliveries) == 100
    # The hub's timer stopped at its first TC time in the stretch, half a
    # second after its first TC; its 67,000 later TCs, the wrap among
    # them, were owed.
    assert len(tc_events) < 100 and max(tc_events) < 3_500
    state = final_state(sim)
    assert max(seq for _, _, _, seq, *_ in state.values()) < 5_000
    # A TC whose key its leaf had not aged out is taken for a duplicate.
    assert all(rt.topo.duplicate_tc_dropped == 0 for rt in sim.nodes.values())
    assert metrics.conservation_ok
    assert traced_run(scenario, frozenset())[0] == metrics.to_json()
    unstretched, _, unstretched_state = traced_run(
        scenario, Simulator.elisions - {"stretch"})
    assert unstretched == metrics.to_json()
    assert state == unstretched_state


def test_a_death_between_hello_times_resumes_the_hellos_in_place():
    # A star whose hub sends a TC every 500 ms, between HELLOs every
    # second, falls into a stretch; a phone's death ends it between two
    # HELLO times, while TCs, ticks and messages of the next HELLO time
    # are already queued.  The resumed HELLOs must take their places
    # among them as the HELLOs queued a second earlier would have.
    hub = NodeId.parse("10.0.1.1")
    leaves = [("10.0.2.1", "laptop", None, 1.07),
              ("10.0.1.2", "phone", 0.002839118704891368, 2.0),
              ("10.0.1.3", "phone", None, 4.03),
              ("10.0.0.1", "router", None, 3.51),
              ("10.0.2.2", "laptop", None, 2.47),
              ("10.0.0.2", "router", None, 3.0),
              ("10.0.1.4", "phone", 0.0019983620739408656, 3.02)]
    nodes = [NodeSpec(STATION, "station"), NodeSpec(hub, "phone")]
    links = [LinkSpec(STATION, hub, 1.5)]
    for address, kind, capacity, distance in leaves:
        node = NodeId.parse(address)
        nodes.append(NodeSpec(node, kind, battery_capacity=capacity))
        links.append(LinkSpec(hub, node, distance))

    def sends(source, destination, count, interval, start):
        return TrafficSpec(NodeId.parse(source), NodeId.parse(destination),
                           count, interval_ms=interval, start_ms=start,
                           size=SizeSpec.uniform(10, 255),
                           priority=PrioritySpec.uniform())

    scenario = Scenario(
        name="death-between-hellos", nodes=nodes, links=links,
        traffic=[sends("10.0.0.1", "10.0.1.1", 22, 2_063, 24_192),
                 sends("10.0.1.4", "10.0.1.2", 14, 3_750, 10_000),
                 sends("10.0.2.2", "10.0.0.1", 15, 2_094, 52_166)],
        policies=Policies(
            backup_options=[{"option": 4, "threshold": 1},
                            {"option": 3, "threshold": 50.0}],
            handoff_threshold_pct=0.0, hello_interval_ms=1_000,
            hold_time_ms=2_006, tc_interval_ms=500, topology_hold_ms=1_500),
        seed=739, duration_ms=115_000)
    scenario.validate()
    check(scenario)


def test_a_hub_that_dies_between_two_tc_times_ends_its_owed_tcs_there():
    # A phone hub relays a laptop's messages to the station, sends a TC
    # every 700 ms between HELLOs every second, and its forwards empty it
    # 30,004 ms in, 204 ms after a TC time.  The stretch its TCs were owed
    # in ends there: its leaves keep the entry and keys of its last owed
    # TC, and no TC timer of a dead hub resumes.
    hub = NodeId.parse("10.0.1.1")
    nodes = [NodeSpec(STATION, "station"),
             NodeSpec(hub, "phone",
                      battery_capacity=85_000 / IDLE_LIFETIME_MS)]
    links = [LinkSpec(STATION, hub, 1.5)]
    for address, kind, distance in (("10.0.2.1", "laptop", 1.2),
                                    ("10.0.0.1", "router", 3.5),
                                    ("10.0.2.2", "laptop", 2.4)):
        nodes.append(NodeSpec(NodeId.parse(address), kind))
        links.append(LinkSpec(hub, NodeId.parse(address), distance))
    scenario = Scenario(
        name="hub-dies-between-tcs", nodes=nodes, links=links,
        traffic=[TrafficSpec(NodeId.parse("10.0.2.1"), STATION, 20,
                             interval_ms=2_500, start_ms=20_000,
                             size=SizeSpec.uniform(10, 255),
                             priority=PrioritySpec.uniform())],
        policies=Policies(hello_interval_ms=1_000, hold_time_ms=2_010,
                          tc_interval_ms=700, topology_hold_ms=2_100),
        seed=11, duration_ms=120_000)
    scenario.validate()
    sim = Simulator(scenario)
    ends, hub_tcs = [], []
    end_stretch, on_tc = sim._end_stretch, sim._on_tc

    def recorded(now):
        ends.append(now)
        end_stretch(now)

    def hub_tc(now, rt):
        if rt.node == hub:
            hub_tcs.append(now)
        on_tc(now, rt)

    sim._end_stretch, sim._on_tc = recorded, hub_tc
    sim.run()
    dies_at = sim.nodes[hub].dies_at
    assert (dies_at - FIRST_TC_MS) % 700 == 204
    # The stretch ended at the death, and the hub's stopped TC timer did
    # not resume.
    assert ends == [dies_at]
    assert hub_tcs and max(hub_tcs) < dies_at - 204
    check(scenario)


def test_forwards_between_owed_tc_times_pass_over_them():
    # A hub between the station and two laptops sends a TC every 30 ms
    # and forwards a laptop's message every 37 ms, while HELLOs come every
    # second.  Once the star stretches, almost every forward's latency
    # draw comes after some owed TCs and before the next HELLO time, so it
    # must pass over exactly the TCs whose times the run has passed.
    hub = NodeId.parse("10.0.0.1")
    laptops = [NodeId.parse("10.0.2.1"), NodeId.parse("10.0.2.2")]
    scenario = Scenario(
        name="busy-hub",
        nodes=[NodeSpec(STATION, "station"), NodeSpec(hub, "router")]
        + [NodeSpec(node, "laptop") for node in laptops],
        links=[LinkSpec(STATION, hub, 2.0)]
        + [LinkSpec(hub, node, 3.0) for node in laptops],
        traffic=[TrafficSpec(laptops[0], STATION, 300, interval_ms=37,
                             start_ms=4_000, size=SizeSpec.uniform(10, 255),
                             priority=PrioritySpec.uniform())],
        policies=Policies(hello_interval_ms=1_000, hold_time_ms=2_100,
                          tc_interval_ms=30, topology_hold_ms=100),
        seed=5, duration_ms=20_000)
    scenario.validate()
    check(scenario)


def test_a_stretch_end_on_a_tc_time_runs_after_that_tc():
    # A leaf phone dies 10,201 ms in, on a HELLO time (every 101 ms) and a
    # TC time (2.5 s plus every 151 ms) with no event since the TC time
    # before: the stretch's end, queued to run last in its ms, must come
    # after that ms's owed TC, whose key and entry the leaves then hold.
    hub = NodeId.parse("10.0.1.1")
    nodes = [NodeSpec(STATION, "station"), NodeSpec(hub, "phone")]
    links = [LinkSpec(STATION, hub, 3.92)]
    for address, capacity, distance in (
            ("10.0.1.2", None, 1.0), ("10.0.0.1", None, 3.79),
            ("10.0.1.6", 10_201 / IDLE_LIFETIME_MS, 3.44),
            ("10.0.1.7", None, 2.76)):
        node = NodeId.parse(address)
        nodes.append(NodeSpec(node, "router" if address.startswith("10.0.0")
                              else "phone", battery_capacity=capacity))
        links.append(LinkSpec(hub, node, distance))
    scenario = Scenario(
        name="end-on-a-tc-time", nodes=nodes, links=links,
        traffic=[TrafficSpec(NodeId.parse("10.0.1.2"),
                             NodeId.parse("10.0.0.1"), 5, interval_ms=989,
                             start_ms=303, size=SizeSpec.uniform(10, 255),
                             priority=PrioritySpec.uniform())],
        policies=Policies(handoff_threshold_pct=0.0, hello_interval_ms=101,
                          hold_time_ms=208, tc_interval_ms=151,
                          topology_hold_ms=453),
        seed=2, duration_ms=12_000)
    scenario.validate()
    sim = Simulator(scenario)
    ends = []
    end_stretch = sim._end_stretch
    sim._end_stretch = lambda now: ends.append(now) or end_stretch(now)
    sim.run()
    assert ends[0] == 10_201 == FIRST_TC_MS + 51 * 151
    check(scenario)


def test_a_forward_that_empties_a_hub_on_a_hello_time_comes_after_its_hello():
    # A phone hub relays two laptops' messages to the station, each laptop
    # injecting every 100 ms, while HELLOs come every 50 ms.  The forward
    # that empties the hub, 10,200 ms in, shares its ms with a HELLO time,
    # and the hub's HELLO of that ms ran before it: the stretch the hub's
    # death ends owes that HELLO too, or its neighbours' links to the hub
    # lapse a HELLO interval early and a message goes unsent rather than
    # lost to the dead hub.
    hub = NodeId.parse("10.0.1.1")
    nodes = [NodeSpec(STATION, "station"),
             NodeSpec(hub, "phone",
                      battery_capacity=60_000 / IDLE_LIFETIME_MS)]
    links = [LinkSpec(STATION, hub, 1.5)]
    for address, kind, distance in (("10.0.2.1", "laptop", 1.2),
                                    ("10.0.0.1", "router", 3.5),
                                    ("10.0.2.2", "laptop", 2.4)):
        nodes.append(NodeSpec(NodeId.parse(address), kind))
        links.append(LinkSpec(hub, NodeId.parse(address), distance))
    scenario = Scenario(
        name="hub-emptied-on-a-hello-time", nodes=nodes, links=links,
        traffic=[TrafficSpec(NodeId.parse(source), STATION, 400,
                             interval_ms=100, start_ms=start,
                             size=SizeSpec.uniform(10, 255),
                             priority=PrioritySpec.uniform())
                 for source, start in (("10.0.2.1", 9_996),
                                       ("10.0.2.2", 10_026))],
        policies=Policies(handoff_threshold_pct=0.0, hello_interval_ms=50,
                          hold_time_ms=110, tc_interval_ms=125,
                          topology_hold_ms=385),
        seed=11, duration_ms=60_000)
    scenario.validate()
    sim = Simulator(scenario)
    ends = []
    end_stretch = sim._end_stretch
    sim._end_stretch = lambda now: ends.append(now) or end_stretch(now)
    sim.run()
    hub_rt = sim.nodes[hub]
    assert hub_rt.dies_at == 10_200 and hub_rt.battery.died_of is not None
    assert 10_200 in ends
    check(scenario)


def test_a_hello_in_flight_from_a_dead_neighbour_remakes_the_link():
    # A router whose only neighbour is a leaf phone of a station's star,
    # over 0 m links and with every timer 1 ms.  The phone dies about
    # 15 ms in, and a HELLO it sent the ms before still arrives 1 ms
    # later and makes the router's link again, which the router must
    # then expire as the run without stretches does.
    phone, router = NodeId.parse("10.0.1.3"), NodeId.parse("10.0.0.6")
    leaves = [NodeId.parse(f"10.0.0.{i}") for i in range(1, 6)] + [
        NodeId.parse(f"10.0.1.{i}") for i in range(1, 4)]
    nodes = [NodeSpec(STATION, "station")] + [
        NodeSpec(node, "phone" if node.address >> 8 & 0xFF else "router",
                 battery_capacity=2.7777777777777776e-07 if node == phone
                 else None)
        for node in leaves] + [NodeSpec(router, "router")]
    scenario = Scenario(
        name="quiet-after-arrival", nodes=nodes,
        links=[LinkSpec(STATION, node, 0.0) for node in leaves]
        + [LinkSpec(phone, router, 0.0)],
        traffic=[TrafficSpec(leaves[0], STATION, 5, interval_ms=2,
                             start_ms=3)],
        policies=Policies(hello_interval_ms=1, tc_interval_ms=1,
                          hold_time_ms=1, topology_hold_ms=1,
                          wake_window_ms=1),
        seed=0, duration_ms=30)
    scenario.validate()
    check(scenario)

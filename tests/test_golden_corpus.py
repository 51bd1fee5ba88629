"""A generated corpus of small scenarios, pinned by metrics digest.

Each corpus seed builds one scenario from a feature profile: the profile
fixes the HELLO interval and link hold, the link classes, the run length
and the energy, duty-cycle and backup policies, and the seed draws the
topology, link lengths, node kinds, batteries and traffic.  Together the
profiles cover what the canned setups do not:

- battery phones that die, or fall under the handoff threshold first;
- a battery relay that still carries traffic under the handoff
  threshold, so its acceptance ramp turns messages away;
- a bank that holds routable and unroutable traffic at once, which a
  message to a node with no links leaves behind;
- loopback, short and long (lossy) links, alone and mixed;
- HELLO intervals on both sides of the longest link latency (18 ms, a
  long link's 15 ms plus 20% jitter), including exactly 18 and 19 ms,
  and a hold time shorter than the HELLO interval, so links lapse
  between HELLOs, and a topology hold shorter than the TC interval, so
  a leaf's topology entries lapse between TCs while it sends;
- control packets that cost energy, and duty cycling with traffic;
- backup options with thresholds, located routers and scan schedules,
  and option 6 deciding by the sender's load without option 2;
- a chain of dying battery phones off the station: a laptop between two
  of them, whose neighbours all die, and a leaf laptop beyond them, which
  hears its neighbour's own TCs and TCs it relays from farther away and
  keeps injecting over lossy links once its relay is dead;
- a station whose one neighbour is the hub of a star of leaves, so that
  every HELLO only refreshes once the star has formed and the whole
  network falls into a stretch, which a leaf phone's death, a handoff
  crossing or a spent budget of the hub's forwards ends;
- a TC interval of 2 ms over long links, so that a TC overtakes an older
  one from its origin, and a TC interval over the duplicate hold under a
  longer topology hold, so that a leaf's refresh sets its scan bound.

A behaviour-preserving change keeps every digest.  Each run must also
give the same bytes with the engine's elisions switched off
(`Simulator.elisions`): with HELLO and TC refreshes on the event path,
the reference for the refresh applied when a packet is sent, and with
every HELLO sent, the reference for the HELLOs a quiet node or a stretch
owes.  A run with a battery must give the same bytes when every live
battery is booked at extra random times, since reading a battery books
nothing.
"""

import functools
import hashlib
import heapq
import random
from typing import NamedTuple, Optional

import pytest

from lifeline.engine import ROLE_ASSIGN_MS, Simulator, run
from lifeline.locating import KnownLocation
from lifeline.messages import NodeId
from lifeline.olsr import TopologyState
from lifeline.scenario import (
    LinkSpec,
    NodeSpec,
    Policies,
    SETUP_IDS,
    PrioritySpec,
    Scenario,
    SizeSpec,
    TrafficSpec,
    build_battery_scenario,
    build_duty_cycle_scenario,
    build_setup,
)

from test_golden_metrics import (
    BATTERY_SHA256,
    DUTY_CYCLE_SHA256,
    RELAY_16H_SHA256,
)

MS_PER_HOUR = 3_600_000
# An idle phone with a full battery (capacity 1.0) lasts 15 hours.
IDLE_LIFETIME_MS = 15 * MS_PER_HOUR


class Profile(NamedTuple):
    hello_ms: int
    hold_ms: int
    links: str              # "loopback", "short", "long" or "mixed"
    duration_ms: int
    energy_per_control: float = 0.0
    duty_cycle: bool = False
    backup_options: tuple = ()
    # The first traffic source also sends to a node with no links.
    stranded: bool = False
    # The one node linked to the station, which relays all station
    # traffic, is a phone whose battery crosses the handoff threshold
    # late in the run.
    weak_relay: bool = False
    # The station also leads a chain of dying phones; see ORPHAN_CHAIN.
    orphans: bool = False
    # Every node but the first is linked to the first alone, the station's
    # one neighbour.
    star: bool = False
    # The handoff threshold, if not the default.
    handoff_pct: Optional[float] = None
    # The TC interval and topology hold, if not 5/2 and 15/2 HELLOs.
    tc_ms: Optional[int] = None
    topology_hold_ms: Optional[int] = None


PROFILES = (
    Profile(2_000, 6_000, "mixed", 180_000),
    Profile(5, 15, "loopback", 5_000),
    Profile(5, 15, "short", 5_000),
    Profile(5, 15, "long", 5_000),
    Profile(18, 54, "long", 12_000),
    Profile(19, 57, "long", 12_000),
    Profile(25, 20, "mixed", 12_000),
    Profile(7, 21, "short", 6_000),
    Profile(200, 600, "mixed", 60_000, energy_per_control=2e-7,
            backup_options=({"option": 4, "threshold": 1},)),
    Profile(500, 2_000, "mixed", 90_000, duty_cycle=True),
    Profile(1_000, 3_000, "mixed", 120_000, energy_per_control=1e-7,
            backup_options=({"option": 3, "threshold": 60.0},
                            {"option": 5, "threshold": 1.0})),
    Profile(100, 250, "mixed", 60_000, energy_per_control=5e-8,
            duty_cycle=True,
            backup_options=({"option": 2},
                            {"option": 6, "threshold": 50.0})),
    Profile(1_000, 3_000, "short", 60_000, stranded=True),
    Profile(500, 1_500, "short", 60_000, weak_relay=True),
    Profile(50, 150, "long", 90_000, orphans=True,
            backup_options=({"option": 4, "threshold": 1},
                            {"option": 6, "threshold": 2.5})),
    Profile(50, 150, "short", 60_000, orphans=True, tc_ms=100,
            topology_hold_ms=90),
    Profile(5, 15, "long", 3_000, tc_ms=2),
    Profile(2_000, 6_000, "short", 300_000, tc_ms=40_000,
            topology_hold_ms=100_000),
    Profile(2_000, 6_000, "short", 1_200_000, star=True),
    Profile(500, 1_500, "mixed", 600_000, star=True,
            backup_options=({"option": 2},
                            {"option": 6, "threshold": 50.0})),
    Profile(1_000, 3_000, "short", 900_000, star=True, handoff_pct=0.0),
    Profile(1_000, 3_000, "short", 600_000, star=True, weak_relay=True),
)

CORPUS_SEEDS = range(len(PROFILES))

CORPUS_SHA256 = {
    0: "fb98ef9dd88e32355e92c1c87c942802f0d1c0d67d4eedf54891485cbeac810e",
    1: "b1689a2e3ea4e1835a62d08a703364cd020a62f982db9fa20ecf89b57a03e71a",
    2: "e52a197a30fd6088652807dd7470071a22c6d770eeef9461514cca68046e2144",
    3: "97701af588e415cce05dcc34819a8d75eb33b000c3ac29e927b2af1c8fd8531b",
    4: "79e5b7e8378f720360e0cbe0f6c241f8e013f6425ebcf2148aa071928c60c351",
    5: "4471d8cc3e290ddf96c527b192fd1660556d89ebcd89e428401b0df93133603f",
    6: "811fe7d8c7d67587c351caa0f798f5a1911f4971dec5d88e7bc3f9aa5633e3c3",
    7: "c52d5e549d7a6f41961cf5527dc7cbf0480d4c316bbe0921790bb381f11dbea3",
    8: "c85046b8f6f0bd4720ad7d89db7a87e3ab720b3ab031e32c4924501c96cde95a",
    9: "ba814174f1fbc06df526f445784195e75aea22fab165ac0ab67f366af28e787a",
    10: "16cf2e429d14b8cad925b004d4349612841fe3534d5b1d0cee9ef5c98d42f650",
    11: "81f21b7614a57cf6f11968c5e1aa0a220693ad8d3499d4dca238a4c9c1501b7e",
    12: "7eb671ce1f356d319fb8c73753cea2929fb78b3901f859250cc7ad3f92217f39",
    13: "9aceb20426cb0b7846ad7caae15c757eca6b1fef152f1d046043ef8aa3af0c04",
    14: "2ee694ed24d88a19c9383c79e42236118e3189767ac040d7e9b7aaf612c8c657",
    15: "266c0ba2ead447f00221d438686c009e07fd02673004dded4d3096d7a7a8e05f",
    16: "f9816d0e721f100da5392cb328c843f4323d426bf09189f25fdcfb8e8ee22640",
    17: "8370f4e8a7e0180e8f7cf5ac4f97450c36c9ee2b9c3ce75e06bc6322277f9ad3",
    18: "55317ec4237cf4f0f69ad34de620754adf0aa9b1915252eed0885273aeb1f2df",
    19: "833e4a0d39d81c4720a0d2768cf268d98b146c2a90faa19af78a449430c1c707",
    20: "25d2f7b551d790a1014e0e5c041e3fc092a7e1c3e9a32110fc01325ffaf684fb",
    21: "46390cbbbc79a786bec2e50dbd72145110886f4e2d7069bf4bf1168fc1a47de3",
}

STATION = NodeId.parse("255.255.255.1")
STRANDED = NodeId.parse("10.0.9.1")
# The energy of one forward: a phone relaying a message every 10 s lasts
# 7 h, where an idle one lasts 15 h.
FORWARD_ENERGY = (1 - 7 / 15) / (7 * 360)
# A weak relay's battery pays for this share of the station traffic's
# forwards; it crosses the 10% handoff threshold after nine tenths of
# them, and the 2% floor, under which it accepts nothing, soon after.
WEAK_RELAY_SHARE = 2 / 5
_KIND_PREFIX = {"router": "10.0.0", "phone": "10.0.1", "laptop": "10.0.2"}
# The orphan chain, station - GATE - HUB - LEAF_RELAY - LEAF, with TWIG
# beside the relay: each node, its peer, the share of the run a phone's
# battery lasts, and the destinations of the leaf's messages it forwards.
# The twig dies first, which changes the set the relay's TCs advertise;
# the relay next, so the leaf laptop's only neighbour is dead; the gate
# phone last, and then both of the hub laptop's neighbours are dead.
GATE = NodeId.parse("10.0.1.21")
HUB = NodeId.parse("10.0.2.21")
LEAF = NodeId.parse("10.0.2.22")
LEAF_RELAY = NodeId.parse("10.0.1.22")
TWIG = NodeId.parse("10.0.1.23")
TWIG_SHARE, LEAF_RELAY_SHARE = 0.1, 0.2
ORPHAN_CHAIN = ((GATE, STATION, 0.4, (STATION,)),
                (HUB, GATE, None, ()),
                (LEAF_RELAY, HUB, LEAF_RELAY_SHARE, (STATION, TWIG)),
                (LEAF, LEAF_RELAY, None, ()),
                (TWIG, LEAF_RELAY, TWIG_SHARE, ()))


def _distance(rng: random.Random, links: str) -> float:
    if links == "mixed":
        links = rng.choice(("loopback", "short", "long"))
    if links == "loopback":
        return 0.0
    if links == "short":
        return round(rng.uniform(1.0, 4.5), 2)
    return round(rng.uniform(6.0, 60.0), 2)


def corpus_scenario(seed: int) -> Scenario:
    """The corpus scenario of one seed, built from its profile."""
    profile = PROFILES[seed]
    rng = random.Random(seed)
    duration = profile.duration_ms
    count = {kind: 0 for kind in _KIND_PREFIX}
    nodes, links, routers = [NodeSpec(STATION, "station")], [], []
    for i in range(rng.randint(5, 8)):
        kind = "router" if i == 0 else rng.choice(("router", "phone",
                                                   "phone", "laptop"))
        weak = i == 0 and profile.weak_relay
        if weak:
            kind = "phone"
        count[kind] += 1
        node = NodeId.parse(f"{_KIND_PREFIX[kind]}.{count[kind]}")
        if weak:
            spec = NodeSpec(node, kind)  # its battery is sized below
        elif kind == "phone" and rng.random() < 0.7:
            # Between a fifth and one and a half idle lifetimes of the run.
            capacity = rng.uniform(0.2, 1.5) * duration / IDLE_LIFETIME_MS
            spec = NodeSpec(node, kind, battery_capacity=capacity,
                            screen_on=rng.random() < 0.2)
        elif kind == "router" and seed % 2 == 0:
            spot = (round(rng.uniform(-50.0, 50.0), 2),
                    round(rng.uniform(-50.0, 50.0), 2))
            spec = NodeSpec(node, kind, location=KnownLocation(
                node, spot, f"router-{count[kind]}"))
        else:
            spec = NodeSpec(node, kind)
        if kind == "router":
            routers.append(node)
        # A random tree: each node joins one already placed.
        peer = (STATION if i == 0
                else nodes[1].node if profile.star
                else rng.choice(nodes[1:]).node)
        links.append(LinkSpec(peer, node, _distance(rng, profile.links)))
        nodes.append(spec)
    for _ in range(0 if profile.star else rng.randint(0, 2)):
        a, b = rng.sample(nodes[1:], 2)
        if not any({a.node, b.node} == {l.a, l.b} for l in links):
            links.append(LinkSpec(a.node, b.node, _distance(rng, profile.links)))

    traffic = []
    sources = [spec.node for spec in nodes[1:]]
    if profile.duty_cycle:
        # Leaves are never relays, so most doze: their own traffic then
        # depends on the links they hold when they wake.  Mains-powered
        # ones outlive the run.
        sources = [spec.node for spec in nodes[1:]
                   if spec.battery_capacity is None
                   and sum(spec.node in (l.a, l.b) for l in links) == 1]
    for _ in range(rng.randint(1, 3)):
        source = rng.choice(sources)
        destination = (STATION if rng.random() < 0.7
                       else rng.choice([n for n in sources if n != source]))
        # Duty cycling starts once roles are assigned.
        first = ROLE_ASSIGN_MS if profile.duty_cycle else 3 * profile.hello_ms
        start = first + rng.randint(0, duration // 4)
        messages = rng.randint(10, 60)
        interval = max(1, (duration - start) // (2 * messages))
        traffic.append(TrafficSpec(
            source, destination, messages, interval_ms=interval,
            start_ms=start,
            size=SizeSpec.uniform(rng.randint(10, 100), 255),
            priority=rng.choice((PrioritySpec.uniform(),
                                 PrioritySpec.stratified(0.25),
                                 PrioritySpec.fixed(rng.randint(0, 4))))))

    if profile.weak_relay:
        # The station's one neighbour relays every message to it.
        forwards = sum(spec.count for spec in traffic
                       if spec.destination == STATION)
        nodes[1] = NodeSpec(nodes[1].node, "phone", battery_capacity=(
            WEAK_RELAY_SHARE * forwards * FORWARD_ENERGY))
    if profile.orphans:
        # The leaf sends to the station until the run ends, into its own
        # bank once the chain is dead, and to the twig until its relay
        # dies.  Its injects keep time with its HELLOs, and each draws one
        # 32-bit half.
        interval = 8 * profile.hello_ms
        carried = {}   # by destination, the leaf messages the chain carries
        for destination, start, end, carried_until in (
                (STATION, 3 * profile.hello_ms, duration, LEAF_RELAY_SHARE),
                (TWIG, 8 * profile.hello_ms, LEAF_RELAY_SHARE * duration,
                 TWIG_SHARE)):
            count = int(end - start) // interval
            carried[destination] = int(
                carried_until * duration - start) // interval
            traffic.append(TrafficSpec(
                LEAF, destination, count, interval_ms=interval,
                start_ms=start, size=SizeSpec.constant(200),
                priority=PrioritySpec.uniform()))
        for node, peer, share, forwards in ORPHAN_CHAIN:
            capacity = None
            if share is not None:
                # Idle drain up to its death, and one forward of each leaf
                # message it carries.
                capacity = share * duration / IDLE_LIFETIME_MS + sum(
                    carried[d] for d in forwards) * FORWARD_ENERGY
            nodes.append(NodeSpec(node, "phone" if share else "laptop",
                                  battery_capacity=capacity))
            links.append(LinkSpec(peer, node, _distance(rng, profile.links)))
    if profile.stranded:
        # Its messages never find a route, so the source's bank holds
        # them beside its station traffic and retries them.
        nodes.append(NodeSpec(STRANDED, "laptop"))
        first = traffic[0]
        traffic.append(TrafficSpec(
            first.source, STRANDED, 10, interval_ms=duration // 20,
            start_ms=first.start_ms))

    policies = Policies(
        backup_options=list(profile.backup_options),
        duty_cycle_enabled=profile.duty_cycle,
        wake_window_ms=max(1, duration // 30),
        energy_per_control=profile.energy_per_control,
        hello_interval_ms=profile.hello_ms,
        tc_interval_ms=profile.tc_ms or max(1, profile.hello_ms * 5 // 2),
        hold_time_ms=profile.hold_ms,
        topology_hold_ms=(profile.topology_hold_ms
                          or max(1, profile.hello_ms * 15 // 2)),
        scan_schedule=({routers[0]: 0, routers[-1]: duration // 10}
                       if seed % 3 == 0 and routers else {}),
    )
    if profile.orphans:
        # The chain's phones forward until their batteries run out.
        policies.handoff_threshold_pct = 0.0
    if profile.handoff_pct is not None:
        policies.handoff_threshold_pct = profile.handoff_pct
    scenario = Scenario(name=f"corpus-{seed}", nodes=nodes, links=links,
                        traffic=traffic, policies=policies, seed=seed,
                        duration_ms=duration)
    scenario.validate()
    return scenario


def digest(doc: str) -> str:
    return hashlib.sha256(doc.encode()).hexdigest()


def test_every_corpus_seed_is_pinned():
    assert sorted(CORPUS_SHA256) == list(CORPUS_SEEDS)


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_corpus_metrics_bytes_match_golden_digest(seed):
    metrics = run(corpus_scenario(seed))
    assert metrics.conservation_ok
    if PROFILES[seed].weak_relay:
        assert metrics.handoff_rejected > 0
    assert digest(metrics.to_json()) == CORPUS_SHA256[seed]


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_corpus_bytes_match_the_event_path(seed, monkeypatch):
    # Without elisions every HELLO and TC goes through its own event.
    monkeypatch.setattr(Simulator, "elisions", frozenset())
    assert digest(run(corpus_scenario(seed)).to_json()) == CORPUS_SHA256[seed]


# The event paths the elisions must match, each switched off through
# `Simulator.elisions`: every TC arrives as an event; no HELLO is owed, so
# no node falls quiet or stretches and every one keeps its HELLO and TC
# timers; and no elision at all.
REFERENCE_PATHS = {
    "tc-events": Simulator.elisions - {"tc"},
    "never-quiet": Simulator.elisions - {"stretch"},
    "all-events": frozenset(),
}
EQUIVALENCE_RUNS = ([f"setup-{s}" for s in SETUP_IDS]
                    + [f"corpus-{seed}" for seed in CORPUS_SEEDS]
                    + ["relay-16h"])


def _equivalence_scenario(name: str) -> Scenario:
    kind, _, arg = name.partition("-")
    if kind == "setup":
        return build_setup(arg, messages=200)
    if kind == "corpus":
        return corpus_scenario(int(arg))
    return build_battery_scenario("10s", seed=1)


@functools.lru_cache(maxsize=None)
def _reference_digest(name: str) -> str:
    kind, _, arg = name.partition("-")
    if kind == "corpus":
        return CORPUS_SHA256[int(arg)]
    if name == "relay-16h":
        return RELAY_16H_SHA256
    return digest(run(_equivalence_scenario(name)).to_json())


@pytest.mark.parametrize("path", sorted(REFERENCE_PATHS))
@pytest.mark.parametrize("name", EQUIVALENCE_RUNS)
def test_bytes_match_the_reference_path(name, path, monkeypatch):
    expected = _reference_digest(name)
    monkeypatch.setattr(Simulator, "elisions", REFERENCE_PATHS[path])
    assert digest(run(_equivalence_scenario(name)).to_json()) == expected


# Reading a battery books nothing, so reading it at any extra time must
# leave every byte where it was.  Each run reads every live battery (level,
# percent, totals and ledger) at EXTRA_READS random ms, half before and half
# after the events of that ms.
EXTRA_READS = 300
READ_RUNS = ([f"corpus-{seed}" for seed in CORPUS_SEEDS
              if any(spec.battery_capacity is not None
                     for spec in corpus_scenario(seed).nodes)]
             + [f"battery-{interval}" for interval in sorted(BATTERY_SHA256)]
             + ["duty-on", "duty-off"])


def _read_run(name: str) -> tuple[Scenario, str]:
    """The scenario of a READ_RUNS name and its pinned digest."""
    kind, _, arg = name.partition("-")
    if kind == "corpus":
        return corpus_scenario(int(arg)), CORPUS_SHA256[int(arg)]
    if kind == "battery":
        return build_battery_scenario(arg), BATTERY_SHA256[arg]
    enabled = arg == "on"
    return build_duty_cycle_scenario(enabled), DUTY_CYCLE_SHA256[enabled]


@pytest.mark.parametrize("name", READ_RUNS)
def test_extra_battery_bookings_move_no_byte(name):
    scenario, expected = _read_run(name)
    sim = Simulator(scenario)
    rng = random.Random(name)
    times = [rng.randrange(scenario.duration_ms + 1)
             for _ in range(EXTRA_READS)]
    read = []

    def read_live(now):
        for rt in sim.nodes.values():
            battery = rt.battery
            if battery is not None and now < rt.dies_at:
                battery.level(now)
                battery.percent(now)
                battery.totals(now)
                battery.ledger(now)
                read.append(now)

    bind = sim._bind_handlers

    def bind_and_read():
        bind()
        for i, t in enumerate(times):
            seq = -1 - i if i % 2 else (1 << 62) + i
            heapq.heappush(sim._heap, (t, seq, read_live, ()))

    sim._bind_handlers = bind_and_read
    assert digest(sim.run().to_json()) == expected
    assert read


def test_orphan_chain_reaches_the_quiet_and_leaf_rules(monkeypatch):
    # The leaf and the hub fall quiet, the hub with a TC timer running;
    # and the leaf hears its relay's own TCs at send and the TCs it relays
    # as events.
    seed = next(i for i, p in enumerate(PROFILES) if p.orphans)
    sim = Simulator(corpus_scenario(seed))
    quiet, leaf_tcs = [], {"at send": 0, "relayed": 0}
    is_quiet, refresh_tc = sim._quiet, TopologyState.refresh_tc
    on_ctl = sim._on_ctl

    def quiet_check(rt, now):
        if is_quiet(rt, now):
            quiet.append(rt.node)
            return True
        return False

    def counted_refresh_tc(self, tc, at):
        applied = refresh_tc(self, tc, at)
        leaf_tcs["at send"] += applied and self.self_id == LEAF
        return applied

    def counted_ctl(now, rt, pkt):
        leaf_tcs["relayed"] += rt.node == LEAF and pkt.origin != pkt.last_hop
        on_ctl(now, rt, pkt)

    sim._quiet, sim._on_ctl = quiet_check, counted_ctl
    monkeypatch.setattr(TopologyState, "refresh_tc", counted_refresh_tc)
    sim.run()
    assert {LEAF, HUB} <= set(quiet)
    assert min(leaf_tcs.values()) > 0, leaf_tcs


def test_a_node_with_fewer_than_two_neighbours_is_never_an_mpr(monkeypatch):
    # Such a node lists at most one neighbour in its HELLO, so it covers
    # no 2-hop node; the engine runs no TC timer on it.  Only
    # process_hello changes MPR selector sets.
    leaves: set = set()
    gained = []
    process_hello = TopologyState.process_hello

    def checked(self, hello, now):
        process_hello(self, hello, now)
        if self.mpr_selectors and self.self_id in leaves:
            gained.append((now, str(self.self_id)))

    monkeypatch.setattr(TopologyState, "process_hello", checked)
    scenarios = ([build_setup(s, messages=100) for s in SETUP_IDS]
                 + [corpus_scenario(seed) for seed in CORPUS_SEEDS])
    checked_leaves = 0
    for scenario in scenarios:
        leaves = {node for node, peers in scenario.adjacency().items()
                  if len(peers) < 2}
        checked_leaves += len(leaves)
        run(scenario)
        assert gained == [], scenario.name
    assert checked_leaves > len(scenarios)

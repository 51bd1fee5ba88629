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
  keeps injecting over lossy links once its relay is dead.

A behaviour-preserving change keeps every digest.  Each run must also
give the same bytes when HELLO and TC refreshes take the event path,
which is the reference for the refresh applied when a packet is sent,
and when quiet nodes keep their HELLO and TC timers, which is the
reference for the HELLO draws a quiet node owes.
"""

import functools
import hashlib
import random
from typing import NamedTuple, Optional

import pytest

from lifeline.engine import ROLE_ASSIGN_MS, Simulator, _Draws, run
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
    build_setup,
)

from test_golden_metrics import RELAY_16H_SHA256

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
)

CORPUS_SEEDS = range(len(PROFILES))

CORPUS_SHA256 = {
    0: "3b5fe33ffcb6120d8695c1807a3ef37c8957e92ccc495a0e052c813765b348ff",
    1: "47688c6c85b17c2aea32c0b3cd8de40cb99d41c9a9fac5a4351399017937a7c8",
    2: "a73fe24c09924a51d8dcb7e870be3ede3a18686aae659b98d84a4ec3ceb74f47",
    3: "4c2b0bd86f11a348e3e784df378548aa0aea35b0412416720bb2a5cd490bad17",
    4: "ac34bb4c5029f959da2c0a5adbe059125e55a58122a580b2fb6f5bedb5f9b388",
    5: "c034b50a1d2c31a475168fd5ca26af212c7aab43650d309e2d1e279b70906f20",
    6: "247926958da106de35bb506802b6f0c992e42b5906f6a03f9b2c1311004936bb",
    7: "f3f3080b4f6852246aaf8f4bf8c14fbb2dc73656d4715ac9460720fbb15c5b14",
    8: "38342f1f085bbc1c3e147c518f63efd3b329826187882da4d3104197b25fe779",
    9: "376b620b6b1acda2e184bc5a7528ec9885e11f5e2dad720b87bd5a7c2be0019a",
    10: "9b4e7357db011a1fae8c9762b4938ae01d07fb8e3574d713a8648dceb54278dc",
    11: "db8b25a4e6786c703864d2592c6e6ab2299fc27dcbadf1ef72bb5d798b8df842",
    12: "568b29da1a040685efb157b411ccba9948e194ae97a45829bbe1848badf9106d",
    13: "23a28933b7fcd7a0f25a6ff6db867c645735896f349f03f96d5e04b08df8a172",
    14: "412f32e2c7c739ee1008d2ceb546a8c98fada3907d1dbd2335a25cf72882e9c1",
    15: "051b4a871167412b868bb88428791da812e7f7c71915a33affe3f447979f2153",
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
        peer = STATION if i == 0 else rng.choice(nodes[1:]).node
        links.append(LinkSpec(peer, node, _distance(rng, profile.links)))
        nodes.append(spec)
    for _ in range(rng.randint(0, 2)):
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
                       if seed % 3 == 0 else {}),
    )
    if profile.orphans:
        # The chain's phones forward until their batteries run out.
        policies.handoff_threshold_pct = 0.0
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
    # Refusing every early refresh sends each HELLO through its own event.
    monkeypatch.setattr(TopologyState, "refresh", lambda self, hello, at: False)
    assert digest(run(corpus_scenario(seed)).to_json()) == CORPUS_SHA256[seed]


# The event paths the early rules must match: a refused TC refresh arrives
# as an event, and a node never found quiet keeps its HELLO and TC timers.
REFERENCE_PATHS = {
    "tc-events": (TopologyState, "refresh_tc", lambda self, tc, at: False),
    "never-quiet": (Simulator, "_quiet", lambda self, rt, now: False),
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
    monkeypatch.setattr(*REFERENCE_PATHS[path])
    assert digest(run(_equivalence_scenario(name)).to_json()) == expected


def test_orphan_chain_reaches_the_quiet_and_leaf_rules(monkeypatch):
    # The leaf and the hub fall quiet, the hub with a TC timer running;
    # the leaf's owed words cross a block edge while a 32-bit half is
    # pending; and the leaf hears its relay's own TCs at send and the
    # TCs it relays as events.
    seed = next(i for i, p in enumerate(PROFILES) if p.orphans)
    sim = Simulator(corpus_scenario(seed))
    quiet, edges, leaf_tcs = [], [], {"at send": 0, "relayed": 0}
    is_quiet, skip, refresh_tc = sim._quiet, _Draws.skip, TopologyState.refresh_tc
    on_ctl = sim._on_ctl

    def quiet_check(rt, now):
        if is_quiet(rt, now):
            quiet.append(rt.node)
            return True
        return False

    def counted_skip(self, n):
        edges.append(n > len(self._words) and self._spare is not None)
        skip(self, n)

    def counted_refresh_tc(self, tc, at):
        applied = refresh_tc(self, tc, at)
        leaf_tcs["at send"] += applied and self.self_id == LEAF
        return applied

    def counted_ctl(now, rt, pkt):
        leaf_tcs["relayed"] += rt.node == LEAF and pkt.origin != pkt.last_hop
        on_ctl(now, rt, pkt)

    sim._quiet, sim._on_ctl = quiet_check, counted_ctl
    monkeypatch.setattr(_Draws, "skip", counted_skip)
    monkeypatch.setattr(TopologyState, "refresh_tc", counted_refresh_tc)
    sim.run()
    assert {LEAF, HUB} <= set(quiet)
    assert any(edges)
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

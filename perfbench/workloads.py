"""The benchmark's three seeded workloads and the checks on their output.

Each workload turns a seed into a `Scenario` through the package's public
builders and types; the simulator only ever sees the generated scenario.
Each also names the checks a finished run must pass.  A failed check is
reported as a failed run, never raised, so one bad run cannot hide the
others.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

from lifeline.locating import KnownLocation
from lifeline.messages import MAX_PAYLOAD_BYTES, NodeId
from lifeline.metrics import validate_metrics_json
from lifeline.scenario import (
    LinkSpec,
    NodeSpec,
    Policies,
    PrioritySpec,
    Scenario,
    SizeSpec,
    TrafficSpec,
    build_battery_scenario,
    build_setup,
)

MS_PER_HOUR = 3_600_000

# Criterion 2: the relay phone of the 10 s profile dies at 7.0 h +-2%.
RELAY_LIFETIME_H = 7.0
RELAY_LIFETIME_TOLERANCE = 0.02

# gateway-surge shape.  Twelve phones each send one message every 4 ms
# through three routers to one gateway router, so three messages a
# millisecond arrive at a gateway that forwards one a millisecond.  With
# 200-255 byte payloads, 800 messages a phone push the gateway backlog
# past the 2 MiB bank budget: priority-3/4 traffic is evicted to swap and
# comes back (190-663 swapped-in entries over the seeds tried), and
# about a fifth of the messages are dropped as ram_exhausted.  Uniform
# 10-255 byte payloads need 1500 messages a phone, and twice the run
# time, to swap at all.
SURGE_ROUTERS = 3
SURGE_PHONES_PER_ROUTER = 4
SURGE_MESSAGES_PER_PHONE = 800
SURGE_INTERVAL_MS = 4
SURGE_START_MS = 15_000
SURGE_PAYLOAD_MIN = 200
# Option 4 backs up priority 0 and 1 on receive at every node.
SURGE_BACKUP_THRESHOLD = 1
SURGE_PHONE_BATTERY = 1.0


def relay_16h(seed: int) -> Scenario:
    """Laptop -> phone relay -> station for 16 h; the relay dies near 7 h."""
    return build_battery_scenario("10s", seed=seed)


def chain_burst_10k(seed: int) -> Scenario:
    """Setup D: 10,000 messages along a six-node chain of lossy links."""
    return build_setup("D", messages=10_000, seed=seed)


def gateway_surge(seed: int) -> Scenario:
    """Battery phones behind located routers overload one gateway.

    The seed places the routers, sets each link's (short) length and
    staggers the phones' first sends by a few milliseconds.  The message
    counts and rates do not depend on it; which messages the gateway
    drops does, a little (7,271-7,787 of 9,600 delivered over seeds
    1-10).
    """
    rng = random.Random(seed)
    station = NodeId.parse("255.255.255.1")
    gateway = NodeId.parse("10.0.0.1")
    nodes = [NodeSpec(station, "station"),
             NodeSpec(gateway, "router",
                      location=KnownLocation(gateway, (0.0, 0.0), "gateway"))]
    links = [LinkSpec(gateway, station, round(rng.uniform(1.0, 4.5), 2))]
    traffic = []
    for r in range(SURGE_ROUTERS):
        router = NodeId.parse(f"10.0.0.{r + 2}")
        spot = (round(rng.uniform(-50.0, 50.0), 2),
                round(rng.uniform(-50.0, 50.0), 2))
        nodes.append(NodeSpec(router, "router",
                              location=KnownLocation(router, spot,
                                                     f"router-{r + 1}")))
        links.append(LinkSpec(router, gateway, round(rng.uniform(1.0, 4.5), 2)))
        for p in range(SURGE_PHONES_PER_ROUTER):
            phone = NodeId.parse(f"10.0.{r + 1}.{p + 1}")
            nodes.append(NodeSpec(phone, "phone",
                                  battery_capacity=SURGE_PHONE_BATTERY))
            links.append(LinkSpec(phone, router,
                                  round(rng.uniform(1.0, 4.5), 2)))
            traffic.append(TrafficSpec(
                phone, station, SURGE_MESSAGES_PER_PHONE,
                interval_ms=SURGE_INTERVAL_MS,
                start_ms=SURGE_START_MS + rng.randrange(SURGE_INTERVAL_MS),
                size=SizeSpec.uniform(SURGE_PAYLOAD_MIN, MAX_PAYLOAD_BYTES),
                priority=PrioritySpec.stratified(0.2)))
    last_send = max(spec.end_ms() for spec in traffic)
    scenario = Scenario(
        name="gateway-surge",
        nodes=nodes,
        links=links,
        traffic=traffic,
        policies=Policies(backup_options=[
            {"option": 4, "threshold": SURGE_BACKUP_THRESHOLD}]),
        seed=seed,
        duration_ms=last_send + 60_000,
    )
    scenario.validate()
    return scenario


def _common_problems(doc: dict) -> list[str]:
    problems = []
    try:
        validate_metrics_json(doc)
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"metrics document rejected: {exc}")
    if doc.get("conservation_ok") is not True:
        problems.append("conservation_ok is not true")
    return problems


def _relay_problems(scenario: Scenario, doc: dict) -> list[str]:
    phone = next(str(s.node) for s in scenario.nodes if s.kind == "phone")
    died_at = doc.get("deaths", {}).get(phone)
    if died_at is None:
        return [f"relay {phone} never died"]
    hours = died_at / MS_PER_HOUR
    if abs(hours - RELAY_LIFETIME_H) > RELAY_LIFETIME_TOLERANCE * RELAY_LIFETIME_H:
        return [f"relay died at {hours:.3f} h, want {RELAY_LIFETIME_H} h "
                f"+-{RELAY_LIFETIME_TOLERANCE:.0%}"]
    return []


def _chain_problems(scenario: Scenario, doc: dict) -> list[str]:
    sent = sum(spec.count for spec in scenario.traffic)
    if not doc.get("injected") == doc.get("delivered") == sent:
        return [f"injected {doc.get('injected')}, delivered "
                f"{doc.get('delivered')}, want both {sent}"]
    return []


def _surge_problems(scenario: Scenario, doc: dict) -> list[str]:
    problems = []
    dropped = sum(doc.get("dropped", {}).values())
    if doc.get("injected") != doc.get("delivered", 0) + dropped:
        problems.append(f"injected {doc.get('injected')} != delivered "
                        f"{doc.get('delivered')} + dropped {dropped}")
    if not doc.get("persisted"):
        problems.append("nothing was persisted")
    stations = {str(s.node) for s in scenario.nodes if s.kind == "station"}
    unlocated = sum(1 for d in doc.get("deliveries", [])
                    if d.get("deliver_node") in stations
                    and d.get("estimate") == "unknown")
    if unlocated:
        problems.append(f"{unlocated} station deliveries have no location")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], Scenario]
    specific_problems: Callable[[Scenario, dict], list[str]]
    why: str
    # Per-layer metrics a traced run must see above zero: the workload's
    # reason to exist.
    positive_in_trace: tuple[str, ...] = ()

    def problems(self, scenario: Scenario, metrics_json: str) -> list[str]:
        """Every way a finished run's canonical metrics JSON is wrong."""
        try:
            doc = json.loads(metrics_json)
        except ValueError as exc:
            return [f"metrics JSON does not parse: {exc}"]
        if not isinstance(doc, dict):
            return ["metrics JSON is not an object"]
        return _common_problems(doc) + self.specific_problems(scenario, doc)


WORKLOADS = {
    w.name: w for w in (
        Workload("relay-16h", relay_16h, _relay_problems,
                 "control plane and 100 ms retry polling after the relay "
                 "dies dominate; the codec is light"),
        Workload("chain-burst-10k", chain_burst_10k, _chain_problems,
                 "message plane dominates: every hop decodes each message "
                 "twice; queues stay about one entry deep"),
        Workload("gateway-surge", gateway_surge, _surge_problems,
                 "deep gateway queues that swap, backup writes on receive "
                 "and a location query per station delivery",
                 positive_in_trace=("forwarding.swap_in.entries",
                                    "backup.persist.calls",
                                    "locating.passive_query.calls")),
    )
}

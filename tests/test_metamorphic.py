"""Metamorphic relations: a scenario rewritten so that it describes the
same network must give the same metrics bytes.

The order in which a scenario lists its nodes and its links, and which end
of a link it names first, say nothing about the network: the simulator
keys a node's streams by its address, orders its neighbours by address and
stores each link's model both ways.  So listing the nodes backwards,
listing the links backwards or swapping every link's ends must move no
byte.

A mains router with no link and no traffic can neither hear nor be
heard, draws no word from another node's streams and never dies, so
adding one must change only its own entries: its role and its line in
each snapshot.

The scenarios are the elision-equivalence test's generated ones.
"""

import json
from dataclasses import replace

from hypothesis import HealthCheck, given, settings

from lifeline.engine import ROLE_ASSIGN_MS, run
from lifeline.messages import NodeId
from lifeline.scenario import NodeSpec, Scenario

from test_elision_equivalence import scenarios

# Above every router address the generated scenarios use.
ISOLATED = NodeId.parse("10.0.0.200")


def relisted(scenario: Scenario) -> list[Scenario]:
    """The scenario with its nodes reversed, with its links reversed, and
    with each link's ends swapped."""
    return [replace(scenario, nodes=scenario.nodes[::-1]),
            replace(scenario, links=scenario.links[::-1]),
            replace(scenario, links=[replace(link, a=link.b, b=link.a)
                                     for link in scenario.links])]


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(scenarios())
def test_listing_order_and_link_direction_move_no_byte(scenario):
    expected = run(scenario).to_json()
    for variant in relisted(scenario):
        assert run(variant).to_json() == expected


def without_own_entries(doc: str, node: NodeId) -> dict:
    """The metrics document with node's role and snapshot lines taken
    out."""
    metrics, name = json.loads(doc), str(node)
    # Roles are assigned once, ROLE_ASSIGN_MS into a run that lasts as long.
    if metrics["duration_ms"] >= ROLE_ASSIGN_MS:
        del metrics["roles"][name]
    for snapshot in metrics["snapshots"]:
        own = [line for line in snapshot["nodes"] if line["node"] == name]
        assert len(own) == 1
        snapshot["nodes"].remove(own[0])
    return metrics


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(scenarios())
def test_an_isolated_idle_router_changes_only_its_own_entries(scenario):
    expected = json.loads(run(scenario).to_json())
    extended = replace(scenario, nodes=scenario.nodes
                       + [NodeSpec(ISOLATED, "router")])
    assert without_own_entries(run(extended).to_json(),
                               ISOLATED) == expected

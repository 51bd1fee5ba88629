"""Metamorphic relations: a scenario rewritten so that it describes the
same network must give the same metrics bytes.

The order in which a scenario lists its nodes and its links, and which end
of a link it names first, say nothing about the network: the simulator
keys a node's streams by its address, orders its neighbours by address and
stores each link's model both ways.  So listing the nodes backwards,
listing the links backwards or swapping every link's ends must move no
byte.  The scenarios are the elision-equivalence test's generated ones.
"""

from dataclasses import replace

from hypothesis import HealthCheck, given, settings

from lifeline.engine import run
from lifeline.scenario import Scenario

from test_elision_equivalence import scenarios


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

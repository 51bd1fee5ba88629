"""The scenario example in README.md parses, runs and means what it says."""

import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from lifeline.engine import Simulator
from lifeline.scenario import MalformedScenario, Policies, Scenario

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_scenario() -> dict:
    (block,) = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    return json.loads(block)


def test_readme_scenario_parses_and_runs():
    doc = readme_scenario()
    scenario = Scenario.from_json_dict(doc)
    metrics = Simulator(scenario).run()
    (traffic,) = doc["traffic"]
    assert metrics.injected == traffic["count"]
    assert metrics.delivered == traffic["count"]
    assert {d.deliver_node for d in metrics.deliveries} == {"255.255.255.1"}


def test_readme_sample_error_is_what_the_parser_prints():
    doc = readme_scenario()
    doc["nodes"][2]["address"] = "255.255.255.01"
    with pytest.raises(MalformedScenario) as caught:
        Scenario.from_json_dict(doc)
    assert f"`{caught.value}`" in README.read_text()


def test_readme_policies_table_lists_every_field_with_its_default():
    rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \|", README.read_text(), re.M)
    default = Policies()
    assert rows == [(f.name, json.dumps(getattr(default, f.name)))
                    for f in fields(Policies)]

"""Canonical metrics bytes of pinned runs, by digest.

A behaviour-preserving change keeps `metrics.to_json()` byte-identical
for:

- setups A-G at 1k messages;
- the 16 h battery run of the 10 s profile: its relay dies at about 7 h
  and its network then runs for hours in a steady state that setups A-G
  never reach;
- the screen-on and 60 s battery runs: the relay dies between forwards
  in the first and in a forward's drain in the second;
- the duty-cycle grid with and without its sleep schedule: eight phone
  deaths each, across wake windows, with energy-charged control packets;
- the benchmark's gateway-surge workload (seed 1), the one pinned run
  that swaps, backs up under a threshold option, drains phone batteries
  and locates sources;
- setup D at 10k messages (seed 1), the benchmark's chain-burst-10k:
  50,000 hops over lossy links, about one message per queue;
- five traffic specs whose injects land on the same milliseconds as each
  other and as HELLOs and TCs, which pins the order of same-time events;
- the benchmark's three workloads at its held-out seed 7919.

These digests change only together with a CHANGES.md entry that says why
the bytes moved and shows that the acceptance criteria still pass.  The
CSV views of setup G and gateway-surge are pinned the same way.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from lifeline.engine import run
from lifeline.messages import NodeId
from lifeline.scenario import (
    SETUP_IDS,
    LinkSpec,
    NodeSpec,
    PrioritySpec,
    Scenario,
    SizeSpec,
    TrafficSpec,
    build_battery_scenario,
    build_duty_cycle_scenario,
    build_setup,
)

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

GOLDEN_SHA256 = {
    "A": "057683266ca4363b9af46eb3497153038db122ad2e963552f7b547eb0e4b4bcb",
    "B": "452e2e4288c512ab6c79a785b6ae067f802e72b0feb3bbb7c7e8b11af99a62c1",
    "C": "7b1558e370bd4d4b1bed6bab196cafb53700f0e9fe8a8f48a29c804f4592e76c",
    "D": "75a95bd49552dd6c1b32849f310fbe5a2b99db140f5a1bc93f3021dad07c50f4",
    "E": "7f56ad6076c0cf5401be6ce913fe8fe11e76db2562e9465283d2bef800c66de1",
    "F": "659e95b75fcadea51cd807e7357d04ca7e4c4a62c849ee36f8270142a8e7e596",
    "G": "f740fb52ce1cb7c427fe3b72507e9a6245d26f6ee666750a81c10dc3379c1db7",
}
RELAY_16H_SHA256 = "41ad4c7655e82f486ce7866623d6064d71a560dc511a2f7c0e54911b3155a76b"
GATEWAY_SURGE_SHA256 = "7f38806054170c8c10055850b3d8fa574a8ebc964749e1155697a43c6f2abe31"
CHAIN_BURST_10K_SHA256 = "ba7ce1c437445d4fbecd3108a5e60fade747b8061821dfd20f1a32083c7ca0f3"
HELD_OUT_SEED = 7919
HELD_OUT_SHA256 = {
    "relay-16h": "6e6df8e150c22336d90c8a5e95ef25a3f0eb069c079267fa1ff0d0c85572ee40",
    "gateway-surge": "48d4f149bfbddcfc7edfefd929d78253712bcee19618d4061e90ac7f3457a2ab",
    "chain-burst-10k": "0a710b3f510d264db7a2340ab590b8a5c3c6ba96747c644f0fcebf55ba58543b",
}
COLLIDING_INJECTS_SHA256 = "39ab2b03e5551ffdd9f6558a0fdb982f6e345e25306ceffc8ccbf83cd903c86d"
BATTERY_SHA256 = {
    "screen": "6686b538470b19f0167a41ea40ab57137741a7740bde55ce870bf4feac1f7551",
    "60s": "feefa9fb1ee2053b5db84f6d04957d406cdebd3e80fdb42f0e4f99a2850b1fd2",
}
DUTY_CYCLE_SHA256 = {
    True: "1e397bc672a4e553295ffc95d1e8ba1f11361f07f55e168c0a795fa0b898b5a9",
    False: "90121d83150022d3fc0a1946c1779a7bb69a1939cbd5dc4132bc49cc6e322917",
}


def digest(doc: str) -> str:
    return hashlib.sha256(doc.encode()).hexdigest()


def test_every_setup_is_pinned():
    assert sorted(GOLDEN_SHA256) == sorted(SETUP_IDS)


@pytest.mark.parametrize("setup_id", SETUP_IDS)
def test_metrics_bytes_match_golden_digest(setup_id):
    doc = run(build_setup(setup_id, messages=1000, seed=0)).to_json()
    assert digest(doc) == GOLDEN_SHA256[setup_id]


def test_relay_16h_metrics_bytes_match_golden_digest():
    doc = run(build_battery_scenario("10s", seed=1)).to_json()
    assert digest(doc) == RELAY_16H_SHA256


@pytest.mark.parametrize("interval", sorted(BATTERY_SHA256))
def test_battery_metrics_bytes_match_golden_digest(interval):
    doc = run(build_battery_scenario(interval)).to_json()
    assert digest(doc) == BATTERY_SHA256[interval]


@pytest.mark.parametrize("enabled", [True, False])
def test_duty_cycle_metrics_bytes_match_golden_digest(enabled):
    doc = run(build_duty_cycle_scenario(enabled)).to_json()
    assert digest(doc) == DUTY_CYCLE_SHA256[enabled]


def benchmark_workloads():
    """perfbench/workloads.py, loaded by path: perfbench/ is not a
    package.  Its dataclasses need the module registered while it runs."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS_PY)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return workloads


def test_gateway_surge_metrics_bytes_match_golden_digest():
    doc = run(benchmark_workloads().gateway_surge(1)).to_json()
    assert digest(doc) == GATEWAY_SURGE_SHA256


def test_chain_burst_10k_metrics_bytes_match_golden_digest():
    doc = run(build_setup("D", messages=10000, seed=1)).to_json()
    assert digest(doc) == CHAIN_BURST_10K_SHA256


@pytest.mark.parametrize("name", sorted(HELD_OUT_SHA256))
def test_held_out_seed_metrics_bytes_match_golden_digest(name):
    workload = benchmark_workloads().WORKLOADS[name]
    doc = run(workload.build(HELD_OUT_SEED)).to_json()
    assert digest(doc) == HELD_OUT_SHA256[name]


def colliding_injects() -> Scenario:
    """Five traffic specs over short links, their injects on shared
    milliseconds: 0 and 2,000 ms hold both HELLOs and injects of several
    specs, and 2,500 ms a TC and injects."""
    r = [NodeId.parse(f"10.0.0.{n}") for n in range(1, 5)]
    station = NodeId.parse("255.255.255.1")
    links = [LinkSpec(r[i], r[i + 1], 3.0) for i in range(3)]
    links.append(LinkSpec(r[3], station, 3.0))
    return Scenario(
        name="colliding-injects",
        nodes=[NodeSpec(n, "router") for n in r] + [NodeSpec(station, "station")],
        links=links,
        traffic=[
            TrafficSpec(r[0], station, 40, interval_ms=500, start_ms=0,
                        size=SizeSpec.uniform(10, 60)),
            TrafficSpec(r[3], r[0], 40, interval_ms=500, start_ms=0,
                        priority=PrioritySpec.stratified(0.25)),
            TrafficSpec(r[1], r[1], 25, interval_ms=250, start_ms=2_000),
            TrafficSpec(r[2], r[0], 30, interval_ms=625, start_ms=2_500,
                        size=SizeSpec.uniform(100, 200)),
            TrafficSpec(r[0], r[3], 1, start_ms=10_000),
        ],
        seed=3,
        duration_ms=45_000,
    )


def test_colliding_injects_metrics_bytes_match_golden_digest():
    metrics = run(colliding_injects())
    assert metrics.injected == metrics.delivered == 136
    assert digest(metrics.to_json()) == COLLIDING_INJECTS_SHA256


CSV_SHA256 = {
    "setup-G": "b0f4ced929f8acb933203301b71a2f20b3b95db78b885bb602cecfcefe5f2bae",
    "gateway-surge": "aba192154ad2149fded21f7662ebcfc1df8b2581af1be467b774fc2f90e7361a",
}


@pytest.mark.parametrize("name", sorted(CSV_SHA256))
def test_csv_text_matches_golden_digest(name):
    scenario = (build_setup("G", messages=1000, seed=0) if name == "setup-G"
                else benchmark_workloads().gateway_surge(1))
    assert digest(run(scenario).to_csv()) == CSV_SHA256[name]

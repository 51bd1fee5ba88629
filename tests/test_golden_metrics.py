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
    "B": "5fc91bd3e4fe0b5ba9e681a65022305c2e19f87ef045907fa4ad08b86ad296a9",
    "C": "d8a1c5e8f1b221be809522bd6f8c59789e1d728c96a64b1a1424c0c6a3fdb4c7",
    "D": "adc594d1f4cce01543edb5047f731b741b80459129cca624f599b34d4aa000be",
    "E": "7f56ad6076c0cf5401be6ce913fe8fe11e76db2562e9465283d2bef800c66de1",
    "F": "d8945d3247ef5aa7ac1f948a988f7d23fa9c1d9a679241ac0333edb591663b9c",
    "G": "d950d32502ce74cb7be8ae6c7479ea51d73047a9e4d93067e2209b9b167721b1",
}
RELAY_16H_SHA256 = "4825423f2125019966fd58f624e240ec61fb13533edcbec0b3541cd653309f50"
GATEWAY_SURGE_SHA256 = "289605ce2d018bb9ffd3e35b5cb12d376f46af374def99bd0c29e06eb0d961ce"
CHAIN_BURST_10K_SHA256 = "351ca68ccff2605c157580736b42a9e0dcae0fb3bb25e383356e4f98eb232258"
HELD_OUT_SEED = 7919
HELD_OUT_SHA256 = {
    "relay-16h": "5d04e454c964db0f4fd7769e94dbe39e38f456698018be2ba9e2e7cfe1925f4a",
    "gateway-surge": "e5a72e44988dca2ae568ae12e3e6c90dd3ab3fea082b91bbb058fcade9220a94",
    "chain-burst-10k": "41879eb2e43bc5da6eb445a13d84280db1b2239921166ebb19ea88975f4ba4c1",
}
COLLIDING_INJECTS_SHA256 = "23b68203cdade7a30cdc037cca6eec4804a484ab4a88b2723b2c6fedecbe3caa"
BATTERY_SHA256 = {
    "screen": "6686b538470b19f0167a41ea40ab57137741a7740bde55ce870bf4feac1f7551",
    "60s": "72cc7f99bed9be85ee4a99d931d8ac141c996c3fb1d3ec9fc86a37397c5896f4",
}
DUTY_CYCLE_SHA256 = {
    True: "929efdb892f3706cf1ecaa2a84c1ac7b4e2599cd4fb93f4cf041695ccc5e681e",
    False: "c06ba5aceffaa794edd07b7b135640720f39315cc41a37d8a0c8245804e9e6db",
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
    "setup-G": "3970649d1cf6ba5bbb3098fc50c9a72cd7b9308f8c17c2c4a69319c287ace898",
    "gateway-surge": "5b677868474c2b83bca79513186c7729bd3cde219c9c6d8a8e4e585ff283b5bb",
}


@pytest.mark.parametrize("name", sorted(CSV_SHA256))
def test_csv_text_matches_golden_digest(name):
    scenario = (build_setup("G", messages=1000, seed=0) if name == "setup-G"
                else benchmark_workloads().gateway_surge(1))
    assert digest(run(scenario).to_csv()) == CSV_SHA256[name]

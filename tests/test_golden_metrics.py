"""Canonical metrics bytes of setups A-G and of one 16 h run, pinned by digest.

A behaviour-preserving change keeps `metrics.to_json()` byte-identical
for setups A-G at 1k messages, and for the 16 h battery run of the 10 s
profile: its relay dies at about 7 h and its network then runs for hours
in a steady state that setups A-G never reach.  These digests change
only together with a CHANGES.md entry that says why the bytes moved and
shows that the acceptance criteria still pass.
"""

import hashlib

import pytest

from lifeline.engine import run
from lifeline.scenario import SETUP_IDS, build_battery_scenario, build_setup

GOLDEN_SHA256 = {
    "A": "057683266ca4363b9af46eb3497153038db122ad2e963552f7b547eb0e4b4bcb",
    "B": "5fc91bd3e4fe0b5ba9e681a65022305c2e19f87ef045907fa4ad08b86ad296a9",
    "C": "d8a1c5e8f1b221be809522bd6f8c59789e1d728c96a64b1a1424c0c6a3fdb4c7",
    "D": "adc594d1f4cce01543edb5047f731b741b80459129cca624f599b34d4aa000be",
    "E": "7f56ad6076c0cf5401be6ce913fe8fe11e76db2562e9465283d2bef800c66de1",
    "F": "d8945d3247ef5aa7ac1f948a988f7d23fa9c1d9a679241ac0333edb591663b9c",
    "G": "d950d32502ce74cb7be8ae6c7479ea51d73047a9e4d93067e2209b9b167721b1",
}
RELAY_16H_SHA256 = "00f45d49c1cb408e91f47502c3940357b1387725771cd1c9933dd819d6983657"


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

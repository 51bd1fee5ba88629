"""Tests of the benchmark itself: inputs, checks and the tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench

They use small scenarios, so they take seconds, not the minutes a
benchmark run takes.
"""

import itertools
import json
import statistics
import sys
import time
from pathlib import Path

import pytest

import run

run.load_package()

import spans  # noqa: E402
import workloads  # noqa: E402
from lifeline.engine import Simulator  # noqa: E402
from lifeline.metrics import RunMetrics  # noqa: E402
from lifeline.scenario import build_setup  # noqa: E402

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _small_chain(seed: int):
    return build_setup("D", messages=200, seed=seed)


def _small_surge(seed: int):
    scenario = workloads.gateway_surge(seed)
    for spec in scenario.traffic:
        spec.count = 20
    scenario.duration_ms = max(s.end_ms() for s in scenario.traffic) + 20_000
    return scenario


SMALL_CHAIN = workloads.Workload(
    "small-chain", _small_chain,
    workloads.WORKLOADS["chain-burst-10k"].specific_problems, "test")


def _run_json(scenario) -> str:
    return Simulator(scenario).run().to_json()


@pytest.fixture
def probe_in_process(monkeypatch):
    """Time set-up in this process: the test workloads have no name a
    setup_probe.py process could build them by."""
    def probe(name, seed):
        start = time.perf_counter()
        run.setup(SMALL_CHAIN, seed)
        elapsed = time.perf_counter() - start
        return elapsed, elapsed

    monkeypatch.setattr(run, "probe_setup", probe)


# -- inputs -------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    build = workloads.WORKLOADS[name].build
    assert build(3).to_json_dict() == build(3).to_json_dict()
    assert build(3).to_json_dict() != build(4).to_json_dict()


def test_surge_seed_moves_more_than_the_seed_field():
    a = workloads.gateway_surge(3).to_json_dict()
    b = workloads.gateway_surge(4).to_json_dict()
    a.pop("seed"), b.pop("seed")
    assert a != b
    counts = [t["count"] for t in a["traffic"]]
    assert counts == [t["count"] for t in b["traffic"]]


def test_small_surge_passes_its_checks():
    scenario = _small_surge(5)
    assert workloads.WORKLOADS["gateway-surge"].problems(
        scenario, _run_json(scenario)) == []


# -- checks that feed fail_ratio ----------------------------------------------------


@pytest.fixture(scope="module")
def chain_doc():
    scenario = _small_chain(2)
    text = _run_json(scenario)
    assert SMALL_CHAIN.problems(scenario, text) == []
    return scenario, json.loads(text)


@pytest.mark.parametrize("doctor", [
    lambda d: d.update(conservation_ok=False),
    lambda d: d.pop("deliveries"),
    lambda d: d.pop("schema"),
    lambda d: d.update(delivered=d["delivered"] - 1),
])
def test_doctored_output_is_a_problem(chain_doc, doctor):
    scenario, doc = chain_doc
    doc = json.loads(json.dumps(doc))
    doctor(doc)
    assert SMALL_CHAIN.problems(scenario, json.dumps(doc))


def test_relay_death_outside_tolerance_is_a_problem():
    scenario = workloads.relay_16h(0)
    phone = next(str(s.node) for s in scenario.nodes if s.kind == "phone")
    check = workloads.WORKLOADS["relay-16h"].specific_problems
    assert check(scenario, {"deaths": {phone: 7 * 3_600_000}}) == []
    assert check(scenario, {"deaths": {phone: int(7.2 * 3_600_000)}})
    assert check(scenario, {"deaths": {}})


def test_unlocated_station_delivery_is_a_problem():
    scenario = _small_surge(5)
    doc = json.loads(_run_json(scenario))
    doc["deliveries"][0]["estimate"] = "unknown"
    assert workloads.WORKLOADS["gateway-surge"].problems(
        scenario, json.dumps(doc))


def test_doctored_run_counts_as_failed(monkeypatch, probe_in_process):
    original = RunMetrics.to_json

    def broken(self):
        doc = json.loads(original(self))
        doc["conservation_ok"] = False
        return json.dumps(doc)

    monkeypatch.setattr(RunMetrics, "to_json", broken)
    m = run.Measurement(SMALL_CHAIN, 1)
    m.measure(0)
    assert m.attempted == run.MIN_REPEATS
    assert m.failed == m.attempted


def test_digest_change_between_repeats_counts_as_failed(probe_in_process):
    seeds = itertools.count()
    flaky = workloads.Workload(
        "flaky", lambda seed: _small_chain(next(seeds)),
        SMALL_CHAIN.specific_problems, "test")
    m = run.Measurement(flaky, 1)
    m.measure(0)
    assert m.failed == m.attempted - 1


def test_clean_run_counts_no_failure(probe_in_process):
    m = run.Measurement(SMALL_CHAIN, 1)
    m.measure(0)
    assert (m.attempted, m.failed) == (run.MIN_REPEATS, 0)
    assert m.digest is not None
    assert len(m.setup_samples) == len(m.first_setup_samples) == m.attempted


def test_setup_probe_times_a_fresh_process():
    first_s, warm_s = run.probe_setup("relay-16h", 1)
    # The first set-up imports numpy.random; warm ones do not.
    assert 0 < warm_s < first_s


# -- the tracer -------------------------------------------------------------------


def _bindings() -> dict:
    owners = spans._package_modules() + [Simulator] + [
        t.owner for t in spans.TARGETS if isinstance(t.owner, type)]
    return {(id(owner), attr): value for owner in owners
            for attr, value in vars(owner).items()}


def _run_s(seed: int) -> float:
    sim = Simulator(_small_chain(seed))
    start = time.perf_counter()
    sim.run().to_json()
    return time.perf_counter() - start


def test_tracer_patches_every_binding_site_and_removes_all():
    before = _bindings()
    tracer = spans.Tracer().install()
    try:
        engine = sys.modules["lifeline.engine"]
        forwarding = sys.modules["lifeline.forwarding"]
        for module in (engine, forwarding, sys.modules["lifeline.messages"]):
            assert getattr(module.decode_message, spans.WRAPPER_MARK, False)
        assert getattr(engine.passive_query, spans.WRAPPER_MARK, False)
        assert getattr(engine.evaluate_policy, spans.WRAPPER_MARK, False)
        Simulator(_small_chain(1)).run()
    finally:
        tracer.uninstall()
    assert spans.installed_wrappers() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    calls = {key: stat.calls for key, stat in tracer.stats.items()}
    assert calls[("messages", "decode_message")] > 0
    Simulator(_small_chain(1)).run()
    assert calls == {key: stat.calls for key, stat in tracer.stats.items()}


def test_untraced_after_traced_times_like_fresh_untraced():
    # Traced and untraced runs alternate, so a drift in machine speed
    # hits both sides of each pair alike.
    fresh = statistics.median(_run_s(seed) for seed in range(9))
    traced, after = [], []
    for seed in range(9):
        with spans.Tracer():
            traced.append(_run_s(seed))
        after.append(_run_s(seed))
    assert sum(a < t for a, t in zip(after, traced)) >= 8
    assert 0.5 * fresh < statistics.median(after) < 1.5 * fresh


def test_spans_nest_and_self_times_add_up():
    tracer = spans.Tracer()
    with tracer:
        Simulator(_small_chain(1)).run()
    receive = tracer.stat("forwarding", "receive")
    classify = tracer.stat("messages", "classify_packet")
    assert receive.self_s < receive.busy_s
    assert classify.busy_s <= receive.busy_s
    assert tracer.self_total_s() == pytest.approx(tracer.covered_s, rel=1e-9)


def test_layer_metrics_match_benchmark_json():
    declared = json.loads(BENCHMARK_JSON.read_text())
    setup_tracer, run_tracer = spans.Tracer(), spans.Tracer()
    with setup_tracer:
        scenario = setup_tracer.span("scenario", "build", _small_surge)(5)
        sim = Simulator(scenario)
    with run_tracer:
        sim.run().to_json()
    layers = spans.layer_metrics(setup_tracer, 1.0, 0.01, run_tracer, 1.0, 0.5)
    assert [(d["name"], d["unit"], d["better"])
            for d in declared["per_layer"]] == [
        (name, unit, better) for name, (_, unit, better) in layers.items()]
    assert layers["locating.passive_query.calls"][0] > 0
    assert layers["backup.persist.calls"][0] > 0
    assert layers["metrics.json_bytes"][0] > 0

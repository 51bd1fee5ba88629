"""End-to-end acceptance gate.

Each test checks one release criterion, prints a single pass/fail line
through conftest.record_acceptance, and then asserts.  The checks lean on
independent oracles (BFS, exact binomial quantiles, brute-force coverage)
rather than re-deriving expectations from the code under test.
"""

import random
import time
from collections import Counter

from conftest import record_acceptance

from lifeline.engine import run, run_battery_experiment
from lifeline.forwarding import LOWEST_PRIORITY, OutcomeKind, PriorityQueueBank
from lifeline.locating import KnownLocation, LocationDirectory, passive_query
from lifeline.messages import EmergencyMessage, NodeId, make_msg_id
from lifeline.olsr import converge, flood_tc
from lifeline.scenario import (
    build_boot_scenario,
    build_duty_cycle_scenario,
    build_setup,
)


def _report(number: int, slug: str, ok: bool, detail: str) -> None:
    line = f"criterion {number:2d} {slug}: {'PASS' if ok else 'FAIL'} ({detail})"
    record_acceptance(line)
    assert ok, line


# --- shared graph oracle helpers -------------------------------------------


def _nid(n: int) -> NodeId:
    return NodeId(n)


def _random_connected_graph(rng: random.Random, max_nodes: int = 30):
    """Random tree plus a few extra edges; adjacency over NodeId."""
    n = rng.randint(4, max_nodes)
    nodes = [_nid(i + 1) for i in range(n)]
    adj: dict[NodeId, set[NodeId]] = {v: set() for v in nodes}
    for i in range(1, n):
        j = rng.randrange(i)
        adj[nodes[i]].add(nodes[j])
        adj[nodes[j]].add(nodes[i])
    for _ in range(rng.randint(0, n)):
        a, b = rng.sample(nodes, 2)
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _bfs_distances(adj, source):
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


# --- 1: backup count identities ---------------------------------------------


def test_criterion_1_backup_count_identities():
    started = time.perf_counter()
    full = run(build_setup("E", messages=1000, backup_option=1))
    urgent = run(build_setup("E", messages=1000, backup_option=4,
                             backup_threshold=0))
    elapsed = time.perf_counter() - started
    persisted_full = sum(full.persisted.values())
    persisted_urgent = sum(urgent.persisted.values())
    ok = persisted_full == 1000 and persisted_urgent == 200 and elapsed < 5.0
    _report(1, "backup-count-identities", ok,
            f"option 1 kept {persisted_full}/1000, "
            f"option 4 at threshold 0 kept {persisted_urgent}/200, "
            f"{elapsed:.2f}s")


# --- 2: battery calibration and held-out prediction --------------------------


def test_criterion_2_battery_lifetimes():
    # Lifetimes in hours; the first three calibrated the model, the last
    # two are predictions checked at a looser tolerance.
    targets = {
        "idle": (15.0, 0.02),
        "screen": (7.0, 0.02),
        "10s": (7.0, 0.02),
        "60s": (11.0, 0.15),
        "300s": (13.0, 0.15),
    }
    started = time.perf_counter()
    results = {name: run_battery_experiment(name) for name in targets}
    elapsed = time.perf_counter() - started
    misses = [
        f"{name}={hours:.2f}h (want {want}h +-{tol:.0%})"
        for name, hours in results.items()
        for want, tol in [targets[name]]
        if abs(hours - want) > tol * want
    ]
    ok = not misses and elapsed < 30.0
    summary = ", ".join(f"{name} {hours:.2f}h" for name, hours in results.items())
    _report(2, "battery-lifetimes", ok,
            f"{summary}, {elapsed:.1f}s" + (f"; misses: {misses}" if misses else ""))


# --- 3: latency ordering across setups ---------------------------------------


def test_criterion_3_latency_ordering():
    wins = 0
    for seed in range(10):
        means = [
            run(build_setup(setup_id, messages=1000, seed=seed)).mean_latency_ms()
            for setup_id in "ABCD"
        ]
        if all(a < b for a, b in zip(means, means[1:])):
            wins += 1
    ok = wins >= 9
    _report(3, "latency-ordering", ok, f"A<B<C<D in {wins}/10 seeds")


# --- 4: error model fit -------------------------------------------------------


def _binomial_ci_99(n: int, p: float) -> tuple[int, int]:
    """Central 99% interval by exact CDF walk: the smallest counts whose
    cumulative probability reaches 0.5% and 99.5%."""
    pmf = (1.0 - p) ** n
    cdf = pmf
    lo = None
    k = 0
    while True:
        if lo is None and cdf >= 0.005:
            lo = k
        if cdf >= 0.995:
            return lo, k
        pmf *= (n - k) / (k + 1) * p / (1.0 - p)
        cdf += pmf
        k += 1


def test_criterion_4_error_model_fit():
    messages = 10_000
    send_lo, send_hi = _binomial_ci_99(messages, 0.0018)
    recv_lo, recv_hi = _binomial_ci_99(messages, 0.0032)
    send_out = recv_out = 0
    for seed in range(20):
        metrics = run(build_setup("D", messages=messages, seed=seed))
        if not send_lo <= metrics.send_errors <= send_hi:
            send_out += 1
        if not recv_lo <= metrics.recv_errors <= recv_hi:
            recv_out += 1
    ok = send_out <= 1 and recv_out <= 1
    _report(4, "error-model-fit", ok,
            f"send CI [{send_lo},{send_hi}] excursions {send_out}/20, "
            f"recv CI [{recv_lo},{recv_hi}] excursions {recv_out}/20")


# --- 5: MPR selection and flooding -------------------------------------------


def test_criterion_5_mpr_suite():
    rng = random.Random(0xAC5)
    started = time.perf_counter()
    graphs = 200
    covered = reached_all = cheap = 0
    for i in range(graphs):
        adj = _random_connected_graph(rng)
        states = converge(adj)
        graph_covered = True
        for u, state in states.items():
            neighbors = adj[u]
            strict_two_hop = set()
            for n in neighbors:
                strict_two_hop |= adj[n]
            strict_two_hop -= neighbors | {u}
            if not all(any(t in adj[m] for m in state.mpr_set)
                       for t in strict_two_hop):
                graph_covered = False
        covered += graph_covered
        origin = min(adj, key=lambda v: v.address)
        # converge() already flooded sequences 1..n, so pick fresh ones;
        # a reused sequence is correctly dropped as stale.  The TTL must
        # cover the eccentricity, which can exceed the 16-hop default on
        # path-heavy random trees.
        reached, transmissions = flood_tc(states, adj, origin,
                                          sequence=1000 + i, ttl=len(adj))
        reached_all += reached == set(adj) - {origin}
        # Blind flooding costs exactly one transmission per node.
        cheap += transmissions <= len(adj)
    elapsed = time.perf_counter() - started
    ok = covered == reached_all == cheap == graphs and elapsed < 60.0
    _report(5, "mpr-suite", ok,
            f"coverage {covered}/200, full reach {reached_all}/200, "
            f"cost<=blind {cheap}/200, {elapsed:.1f}s")


# --- 6: routing against BFS ---------------------------------------------------


def test_criterion_6_routing_oracle():
    rng = random.Random(0xAC6)
    pairs = mismatches = 0
    for _ in range(200):
        adj = _random_connected_graph(rng)
        states = converge(adj)
        for u, state in states.items():
            dist = _bfs_distances(adj, u)
            table = state.routing_table
            if set(table) != set(adj) - {u}:
                mismatches += 1
            for v, (_, hops) in table.items():
                pairs += 1
                if hops != dist[v]:
                    mismatches += 1
    ok = mismatches == 0
    _report(6, "routing-oracle", ok,
            f"{pairs} reachable pairs checked, {mismatches} mismatches")


# --- 7: queue discipline trace -------------------------------------------------


def test_criterion_7_queue_discipline_trace():
    rng = random.Random(0xC7)
    self_id = NodeId.parse("10.0.0.1")
    peer = NodeId.parse("10.0.0.2")
    dests = [NodeId.parse(f"10.0.1.{i}") for i in range(1, 6)]
    full_table = {d: (peer, 2) for d in dests}
    # A tight budget forces eviction, swap-in, and RAM drops to all occur.
    bank = PriorityQueueBank(self_id, ram_budget=60_000)

    total = 10_000
    injected = ticks = ordered_checks = 0
    swap_batches = 0
    violations = Counter()
    head_after_swap: list = [None]

    def observe_head():
        for level, queue in enumerate(bank.queues):
            if queue:
                return queue[0].msg.msg_id, level, queue[0].msg.priority
        return None

    # Spy on swap_in so every call, including the one forward_tick makes
    # before popping, has its gate checked and leaves the head observable.
    real_swap_in = bank.swap_in

    def spying_swap_in() -> int:
        nonlocal swap_batches
        gate_clear = not bank.queues[0] and not bank.queues[1]
        had_store = bool(bank.swap_store)
        moved = real_swap_in()
        if moved:
            swap_batches += 1
            if not (gate_clear and had_store):
                violations["gating"] += 1
        head_after_swap[0] = observe_head()
        return moved

    bank.swap_in = spying_swap_in

    def tick(routes_up: bool) -> None:
        nonlocal ordered_checks
        bank.set_routes(full_table if routes_up else {})
        outcomes = bank.forward_tick()
        head = head_after_swap[0]
        if head is None:
            if outcomes:
                violations["order"] += 1
            return
        ordered_checks += 1
        head_id, level, priority = head
        if priority != level:
            violations["order"] += 1
        out = outcomes[0]
        if out.message.msg_id != head_id:
            violations["order"] += 1
        if out.kind is OutcomeKind.UNREACHABLE:
            if out.message.priority != min(level + 1, LOWEST_PRIORITY):
                violations["saturation"] += 1
        elif out.message.priority != level:
            violations["saturation"] += 1

    routes_up = True
    while injected < total or any(bank.queues) or bank.swap_store:
        if injected >= total:
            routes_up = True  # drain phase must terminate
        elif rng.random() < 0.02:
            routes_up = not routes_up
        if injected < total and rng.random() < 0.55:
            injected += 1
            msg = EmergencyMessage(
                msg_id=make_msg_id(self_id, injected),
                src=self_id,
                dst=self_id if rng.random() < 0.05 else rng.choice(dests),
                priority=rng.randrange(LOWEST_PRIORITY + 1),
                payload=bytes(rng.randrange(10, 200)),
                sender_load=rng.randrange(101),
                created_at=injected,
            )
            bank.inject(msg)
        else:
            ticks += 1
            tick(routes_up)
        if ticks % 500 == 0 and not bank.conservation_holds():
            violations["conservation"] += 1

    live = Counter(e.msg.msg_id for q in bank.queues for e in q)
    live += Counter(e.msg.msg_id for e in bank.swap_store)
    identity = bank.accepted == (
        bank.delivered + bank.dropped + bank.backed_up + live
    )
    if not identity or not bank.conservation_holds():
        violations["conservation"] += 1

    ok = (not violations and injected == total
          and ordered_checks > ticks * 0.8 and swap_batches > 0)
    _report(7, "queue-discipline-trace", ok,
            f"{injected} messages, {ordered_checks} ordered pops checked, "
            f"{swap_batches} swap-ins, "
            f"violations {dict(violations) or 0}")


# --- 8: position locating -------------------------------------------------------


def _oracle_replies(adj, origin, n_hops, known):
    dist = _bfs_distances(adj, origin)
    return {
        (router, dist[router], known[router].coordinates)
        for router in known
        if router != origin and 0 < dist.get(router, n_hops + 1) <= n_hops
    }


def test_criterion_8_locating_oracle():
    rng = random.Random(0xAC8)
    queries = mismatches = 0
    for _ in range(100):
        adj = _random_connected_graph(rng)
        nodes = sorted(adj, key=lambda v: v.address)
        routers = rng.sample(nodes, max(1, len(nodes) // 5))
        known = {
            r: KnownLocation(r, (rng.uniform(-50, 50), rng.uniform(-50, 50)))
            for r in routers
        }
        for n_hops in (1, 2, 3):
            for origin in nodes:
                queries += 1
                replies = passive_query(origin, n_hops, adj, known)
                got = {(r.replier, r.hop_distance, r.coordinates)
                       for r in replies}
                if got != _oracle_replies(adj, origin, n_hops, known):
                    mismatches += 1

    # Churn trace: mutate the topology 50 times, then require every active
    # cache to agree with a fresh passive query.
    adj = _random_connected_graph(rng, max_nodes=25)
    nodes = sorted(adj, key=lambda v: v.address)
    known = {
        r: KnownLocation(r, (rng.uniform(-50, 50), rng.uniform(-50, 50)))
        for r in rng.sample(nodes, max(1, len(nodes) // 5))
    }
    directory = LocationDirectory(known, n_hops=3)
    directory.on_change(adj)
    for _ in range(50):
        a, b = rng.sample(nodes, 2)
        if b in adj[a]:
            adj[a].discard(b)
            adj[b].discard(a)
        else:
            adj[a].add(b)
            adj[b].add(a)
        directory.on_change(adj)
    stale = 0
    for node in nodes:
        cached = {(r, loc.coordinates)
                  for r, loc in directory.cache_of(node).items()}
        passive = {(r.replier, r.coordinates)
                   for r in passive_query(node, 3, adj, known)}
        if cached != passive:
            stale += 1
    ok = mismatches == 0 and stale == 0
    _report(8, "locating-oracle", ok,
            f"{queries} passive queries matched BFS oracle with "
            f"{mismatches} mismatches, {stale} stale caches after churn")


# --- 9: boot decision trace ------------------------------------------------------


def test_criterion_9_boot_trace():
    metrics = run(build_boot_scenario())
    by_node: dict[str, list[str]] = {}
    for entry in metrics.boot_decisions:
        by_node.setdefault(entry["node"], []).append(entry["decision"])
    r1 = by_node.get("10.0.0.1", [])
    r2 = by_node.get("10.0.0.2", [])
    r3 = by_node.get("10.0.0.3", [])
    ok = (
        r1 == ["switch"]
        and r2 == ["join"]
        and len(r3) >= 2
        and r3[-1] == "join"
        and all(d == "wait" for d in r3[:-1])
        and metrics.boot_decisions[0]["node"] == "10.0.0.1"
    )
    _report(9, "boot-trace", ok,
            f"r1={r1}, r2={r2}, r3={r3}")


# --- 10: determinism ---------------------------------------------------------------


def test_criterion_10_determinism():
    unequal = []
    for setup_id in "ABCDEFG":
        first = run(build_setup(setup_id, messages=1000, seed=7)).to_json()
        second = run(build_setup(setup_id, messages=1000, seed=7)).to_json()
        if first != second:
            unequal.append(setup_id)
    ok = not unequal
    _report(10, "determinism", ok,
            "setups A-G byte-identical across reruns" if ok
            else f"mismatched setups: {unequal}")


# --- 11: duty-cycle benefit ---------------------------------------------------------


def test_criterion_11_duty_cycle_benefit():
    lifetimes = {}
    ratios = {}
    for enabled in (False, True):
        scenario = build_duty_cycle_scenario(enabled)
        metrics = run(scenario)
        ratios[enabled] = metrics.delivery_ratio()
        boundary = [n for n, role in metrics.roles.items()
                    if role == "boundary" and n in metrics.battery_percent]
        lifetimes[enabled] = min(
            metrics.deaths.get(n, scenario.duration_ms) for n in boundary)
    ok = (lifetimes[True] > lifetimes[False]
          and ratios[False] >= 0.95 and ratios[True] >= 0.95)
    _report(11, "duty-cycle-benefit", ok,
            f"min boundary lifetime {lifetimes[False]}ms -> {lifetimes[True]}ms, "
            f"delivery {ratios[False]:.3f} -> {ratios[True]:.3f}")

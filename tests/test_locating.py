"""Location queries, estimation, and directory cache pushes."""

import random
from collections import deque

import pytest

from lifeline.locating import (
    KnownLocation,
    LocationDirectory,
    LocationEstimate,
    LocationReply,
    UNKNOWN_ESTIMATE,
    estimate_position,
    flood_reach,
    passive_query,
)
from lifeline.messages import InvariantViolation, NodeId


def nid(n):
    return NodeId(n)


def line(n):
    nodes = [nid(i + 1) for i in range(n)]
    adj = {v: set() for v in nodes}
    for a, b in zip(nodes, nodes[1:]):
        adj[a].add(b)
        adj[b].add(a)
    return nodes, adj


def loc(node, x, y, label=""):
    return KnownLocation(node, (float(x), float(y)), label)


def bfs_within(adj, origin, n):
    dist = {origin: 0}
    queue = deque([origin])
    while queue:
        u = queue.popleft()
        if dist[u] == n:
            continue
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    del dist[origin]
    return dist


def random_connected_graph(rng, max_nodes=25):
    n = rng.randint(5, max_nodes)
    nodes = [nid(i + 1) for i in range(n)]
    adj = {v: set() for v in nodes}
    for i in range(1, n):
        j = rng.randrange(i)
        adj[nodes[i]].add(nodes[j])
        adj[nodes[j]].add(nodes[i])
    for _ in range(rng.randint(0, n // 2)):
        a, b = rng.sample(nodes, 2)
        adj[a].add(b)
        adj[b].add(a)
    return nodes, adj


# --- passive query -----------------------------------------------------------

def test_reply_from_two_hops_within_budget():
    nodes, adj = line(4)
    known = {nodes[2]: loc(nodes[2], 10, 20, "hall")}
    replies = passive_query(nodes[0], 3, adj, known)
    assert replies == [LocationReply(nodes[2], (10.0, 20.0), 2)]


def test_no_configured_node_in_range_yields_empty():
    nodes, adj = line(6)
    known = {nodes[5]: loc(nodes[5], 1, 1)}
    assert passive_query(nodes[0], 3, adj, known) == []


def test_query_hop_budget_validated():
    nodes, adj = line(2)
    for n_hops in (0, -1):
        with pytest.raises(InvariantViolation):
            flood_reach(adj, nodes[0], n_hops)
    assert flood_reach(adj, nodes[0], 1) == {nodes[1]: 1}


def test_replies_match_bfs_oracle_on_random_graphs():
    rng = random.Random(0x10C)
    for _ in range(100):
        nodes, adj = random_connected_graph(rng)
        known = {
            v: loc(v, v.address, 2 * v.address)
            for v in rng.sample(nodes, k=max(1, len(nodes) // 4))
        }
        origin = rng.choice(nodes)
        for n in (1, 2, 3):
            replies = passive_query(origin, n, adj, known)
            expected = {
                v: d for v, d in bfs_within(adj, origin, n).items() if v in known
            }
            assert {r.replier: r.hop_distance for r in replies} == expected
            assert all(r.hop_distance <= n for r in replies)


def test_flood_never_exceeds_ttl():
    rng = random.Random(0x77)
    for _ in range(50):
        nodes, adj = random_connected_graph(rng)
        origin = rng.choice(nodes)
        for n in (1, 2, 3):
            reach = flood_reach(adj, origin, n)
            truth = bfs_within(adj, origin, n)
            assert reach == truth
            assert all(h <= n for h in reach.values())


# --- estimation -----------------------------------------------------------------

def test_single_reply_is_taken_verbatim():
    est = estimate_position([LocationReply(nid(9), (10.0, 20.0), 2)])
    assert est == LocationEstimate((10.0, 20.0), source_count=1, hop_distance=2)
    assert est.known


def test_empty_replies_are_unknown():
    est = estimate_position([])
    assert est is UNKNOWN_ESTIMATE
    assert not est.known
    assert est.to_json() == "unknown"


def test_tied_repliers_average_to_midpoint():
    replies = [
        LocationReply(nid(1), (0.0, 0.0), 2),
        LocationReply(nid(2), (4.0, 0.0), 2),
    ]
    est = estimate_position(replies)
    assert est == LocationEstimate((2.0, 0.0), source_count=2, hop_distance=2)


def test_nearer_reply_beats_closer_centroid():
    replies = [
        LocationReply(nid(1), (100.0, 100.0), 1),
        LocationReply(nid(2), (0.0, 0.0), 2),
        LocationReply(nid(3), (1.0, 1.0), 2),
    ]
    est = estimate_position(replies)
    assert est.coordinates == (100.0, 100.0)
    assert est.source_count == 1
    assert est.hop_distance == 1


def test_estimate_is_permutation_invariant():
    rng = random.Random(0xE5)
    replies = [
        LocationReply(nid(i + 1), (rng.uniform(0, 50), rng.uniform(0, 50)), rng.randint(1, 3))
        for i in range(8)
    ]
    baseline = estimate_position(replies)
    for _ in range(20):
        rng.shuffle(replies)
        assert estimate_position(replies) == baseline


def test_estimate_json_shape():
    est = estimate_position([LocationReply(nid(9), (3.0, 4.0), 1)])
    assert est.to_json() == {"x": 3.0, "y": 4.0, "hop_distance": 1, "source_count": 1}


# --- directory pushes ------------------------------------------------------------

def test_new_phone_next_to_router_gets_coordinates():
    nodes, adj = line(3)
    router_loc = loc(nodes[1], 5, 5, "router")
    directory = LocationDirectory({nodes[1]: router_loc}, n_hops=2)
    assert directory.on_change(adj, joined=[nodes[0]]) == [(nodes[0], router_loc)]


def test_phone_beyond_budget_gets_nothing():
    nodes, adj = line(5)
    router_loc = loc(nodes[4], 5, 5)
    directory = LocationDirectory({nodes[4]: router_loc}, n_hops=3)
    assert directory.on_change(adj, joined=[nodes[0]]) == []
    assert directory.cache_of(nodes[0]) == {}


def test_push_targets_only_new_arrivals():
    nodes, adj = line(3)
    router_loc = loc(nodes[1], 5, 5)
    directory = LocationDirectory({nodes[1]: router_loc}, n_hops=2)
    pushes = directory.on_change(adj, joined=[nodes[2]])
    assert [t for t, _ in pushes] == [nodes[2]]
    # The other neighbour's cache is refreshed all the same.
    assert directory.cache_of(nodes[0]) == {nodes[1]: router_loc}


def test_directory_cache_follows_join():
    nodes, adj = line(2)
    router_loc = loc(nodes[1], 7, 7)
    directory = LocationDirectory({nodes[1]: router_loc}, n_hops=2)
    directory.on_change(adj, joined=nodes)
    phone = nid(50)
    adj[phone] = {nodes[0]}
    adj[nodes[0]].add(phone)
    pushes = directory.on_change(adj, joined=[phone])
    assert (phone, router_loc) in pushes
    assert directory.cache_of(phone) == {nodes[1]: router_loc}


def test_churn_caches_agree_with_passive_queries():
    rng = random.Random(0xCAFE)
    nodes, adj = random_connected_graph(rng, max_nodes=12)
    known = {
        v: loc(v, v.address, v.address + 1)
        for v in rng.sample(nodes, k=3)
    }
    directory = LocationDirectory(known, n_hops=3)
    directory.on_change(adj, joined=list(adj))
    next_addr = 1000
    movable = [v for v in nodes if v not in known]
    for _ in range(50):
        if movable and rng.random() < 0.4:
            gone = movable.pop(rng.randrange(len(movable)))
            for peer in adj.pop(gone):
                adj[peer].discard(gone)
            directory.on_change(adj)
        else:
            fresh = nid(next_addr)
            next_addr += 1
            anchors = rng.sample(sorted(adj, key=lambda v: v.address),
                                 k=min(len(adj), rng.randint(1, 2)))
            adj[fresh] = set(anchors)
            for a in anchors:
                adj[a].add(fresh)
            movable.append(fresh)
            directory.on_change(adj, joined=[fresh])
    for node in adj:
        expected = {
            r.replier: known[r.replier]
            for r in passive_query(node, 3, adj, known)
        }
        assert directory.cache_of(node) == expected, node

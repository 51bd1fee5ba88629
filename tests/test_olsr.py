"""Link sensing, MPR selection, TC flooding and routing."""

import random
from collections import deque

import pytest

from lifeline.messages import NodeId
from lifeline.olsr import (
    DEFAULT_TTL,
    DUP_HOLD_MS,
    HOLD_TIME_MS,
    SEQ_MOD,
    ControlKind,
    ControlPacket,
    LinkStatus,
    TopologyState,
    converge,
    decode_control,
    encode_control,
    flood_tc,
    seq_newer,
)


def nid(n: int) -> NodeId:
    return NodeId(n)


def hello_from(origin, neighbors, seq=0):
    return ControlPacket(ControlKind.HELLO, origin, seq, tuple(neighbors),
                         ttl=1, last_hop=origin)


# --- oracle helpers -------------------------------------------------------

def random_connected_graph(rng, max_nodes=30):
    """Random tree plus extra edges; returns adjacency over NodeId."""
    n = rng.randint(4, max_nodes)
    nodes = [nid(i + 1) for i in range(n)]
    adj = {v: set() for v in nodes}
    for i in range(1, n):
        j = rng.randrange(i)
        adj[nodes[i]].add(nodes[j])
        adj[nodes[j]].add(nodes[i])
    for _ in range(rng.randint(0, n)):
        a, b = rng.sample(nodes, 2)
        adj[a].add(b)
        adj[b].add(a)
    return adj


def bfs_distances(adj, source):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def true_edge_set(adj):
    return {frozenset((a, b)) for a in adj for b in adj[a]}


# --- sequence numbers -----------------------------------------------------

def test_seq_newer_wraps():
    assert seq_newer(2, 1)
    assert not seq_newer(1, 2)
    assert not seq_newer(7, 7)
    # Wrap-around: 3 is newer than a sequence from just below the modulus.
    assert seq_newer(3, 65530)
    assert not seq_newer(65530, 3)


# --- link sensing ---------------------------------------------------------

def test_hello_one_way_is_asymmetric():
    a, b = nid(1), nid(2)
    state = TopologyState(a)
    state.process_hello(hello_from(b, []), now=0)
    assert state.links[b].status is LinkStatus.ASYMMETRIC
    assert state.symmetric_neighbors() == []


def test_hello_listing_us_upgrades_to_symmetric():
    a, b = nid(1), nid(2)
    state = TopologyState(a)
    state.process_hello(hello_from(b, []), now=0)
    state.process_hello(hello_from(b, [(a, LinkStatus.ASYMMETRIC)]), now=100)
    assert state.links[b].status is LinkStatus.SYMMETRIC
    assert state.symmetric_neighbors() == [b]


def test_silent_neighbor_expires_after_hold_time():
    a, b = nid(1), nid(2)
    state = TopologyState(a, hold_time_ms=HOLD_TIME_MS)
    state.process_hello(hello_from(b, [(a, LinkStatus.SYMMETRIC)]), now=0)
    assert state.expire_links(now=5_999) == []
    assert b in state.links
    assert state.expire_links(now=6_000) == [b]
    assert b not in state.links
    assert b not in state.two_hop


def test_hello_refresh_postpones_expiry():
    a, b = nid(1), nid(2)
    state = TopologyState(a)
    state.process_hello(hello_from(b, [(a, LinkStatus.SYMMETRIC)]), now=0)
    state.process_hello(hello_from(b, [(a, LinkStatus.SYMMETRIC)]), now=4_000)
    assert state.expire_links(now=6_000) == []
    assert state.expire_links(now=10_000) == [b]


def test_hello_reprocessing_is_idempotent():
    a, b = nid(1), nid(2)
    state = TopologyState(a)
    pkt = hello_from(b, [(a, LinkStatus.MPR), (nid(3), LinkStatus.SYMMETRIC)])
    state.process_hello(pkt, now=50)
    snapshot = (dict(state.links), {k: set(v) for k, v in state.two_hop.items()},
                set(state.mpr_selectors))
    state.process_hello(pkt, now=50)
    assert (state.links, state.two_hop, state.mpr_selectors) == snapshot


def test_mpr_marker_in_hello_records_selector():
    a, b = nid(1), nid(2)
    state = TopologyState(a)
    state.process_hello(hello_from(b, [(a, LinkStatus.MPR)]), now=0)
    assert state.mpr_selectors == {b}
    state.process_hello(hello_from(b, [(a, LinkStatus.SYMMETRIC)]), now=100)
    assert state.mpr_selectors == set()


# --- MPR selection --------------------------------------------------------

def test_star_leaf_selects_hub():
    hub = nid(10)
    leaves = [nid(i) for i in range(1, 6)]
    adj = {hub: set(leaves)}
    for leaf in leaves:
        adj[leaf] = {hub}
    states = converge(adj)
    assert states[leaves[0]].mpr_set == {hub}
    assert states[hub].mpr_set == set()


def test_path_endpoint_selects_middle():
    a, b, c = nid(1), nid(2), nid(3)
    adj = {a: {b}, b: {a, c}, c: {b}}
    states = converge(adj)
    assert states[a].mpr_set == {b}
    assert states[c].mpr_set == {b}
    assert states[b].mpr_set == set()


def test_empty_two_hop_set_yields_empty_mpr_set():
    a, b = nid(1), nid(2)
    adj = {a: {b}, b: {a}}
    states = converge(adj)
    assert states[a].mpr_set == set()
    assert states[b].mpr_set == set()


def test_mpr_coverage_on_random_graphs():
    rng = random.Random(0xA1)
    for _ in range(200):
        adj = random_connected_graph(rng)
        states = converge(adj)
        for u, state in states.items():
            mprs = state.mpr_set
            neighbors = adj[u]
            assert mprs <= neighbors
            # Brute-force coverage check straight off the ground-truth graph.
            strict_two_hop = set()
            for n in neighbors:
                strict_two_hop |= adj[n]
            strict_two_hop -= neighbors | {u}
            for t in strict_two_hop:
                assert any(t in adj[m] for m in mprs), (u, t)


def test_sole_path_neighbor_always_chosen():
    # 1 is the only route from 0 to 2; 3 covers nothing beyond.
    a, b, c, d = nid(10), nid(11), nid(12), nid(13)
    adj = {a: {b, d}, b: {a, c}, c: {b}, d: {a}}
    states = converge(adj)
    assert states[a].mpr_set == {b}


def test_mpr_tie_broken_by_smallest_id():
    # Both 2 and 3 fully cover {4}; smallest address must win.
    a, b, c, t = nid(1), nid(2), nid(3), nid(4)
    adj = {a: {b, c}, b: {a, t}, c: {a, t}, t: {b, c}}
    states = converge(adj)
    assert states[a].mpr_set == {b}


# --- TC processing --------------------------------------------------------

def test_fresh_tc_from_selector_updates_and_forwards():
    a, b, c = nid(1), nid(2), nid(3)
    state = TopologyState(a)
    state.mpr_selectors.add(b)
    tc = ControlPacket(ControlKind.TC, c, 7,
                       ((b, LinkStatus.SYMMETRIC),), ttl=5, last_hop=b)
    assert state.process_tc(tc) is True
    assert state.topology[c][0] == 7
    assert state.topology[c][1] == frozenset({b})


def test_duplicate_tc_dropped_without_forwarding():
    a, b, c = nid(1), nid(2), nid(3)
    state = TopologyState(a)
    state.mpr_selectors.add(b)
    tc = ControlPacket(ControlKind.TC, c, 7,
                       ((b, LinkStatus.SYMMETRIC),), ttl=5, last_hop=b)
    assert state.process_tc(tc) is True
    before = dict(state.topology)
    assert state.process_tc(tc) is False
    assert state.topology == before
    assert state.duplicate_tc_dropped == 1


def test_stale_tc_sequence_is_counted_not_applied():
    a, b, c = nid(1), nid(2), nid(3)
    state = TopologyState(a)
    new = ControlPacket(ControlKind.TC, c, 9, ((b, LinkStatus.SYMMETRIC),),
                        ttl=5, last_hop=b)
    old = ControlPacket(ControlKind.TC, c, 4, (), ttl=5, last_hop=b)
    state.process_tc(new)
    state.process_tc(old)
    assert state.topology[c][0] == 9
    assert state.stale_tc_dropped == 1


def test_fresh_tcs_are_never_counted_as_stale():
    a, b, c = nid(1), nid(2), nid(3)
    state = TopologyState(a)
    for seq in range(1, 6):
        state.process_tc(ControlPacket(ControlKind.TC, c, seq,
                                       ((b, LinkStatus.SYMMETRIC),),
                                       ttl=5, last_hop=b), now=seq * 1_000)
    assert state.topology[c][0] == 5
    assert state.stale_tc_dropped == 0


def test_tc_from_non_selector_not_forwarded():
    a, b, c = nid(1), nid(2), nid(3)
    state = TopologyState(a)
    tc = ControlPacket(ControlKind.TC, c, 7, (), ttl=5, last_hop=b)
    assert state.process_tc(tc) is False
    assert c in state.topology


def test_tc_with_exhausted_ttl_not_forwarded():
    a, b, c = nid(1), nid(2), nid(3)
    state = TopologyState(a)
    state.mpr_selectors.add(b)
    tc = ControlPacket(ControlKind.TC, c, 7, (), ttl=0, last_hop=b)
    assert state.process_tc(tc) is False


def test_topology_entries_age_out():
    a, b, c = nid(1), nid(2), nid(3)
    state = TopologyState(a, topology_hold_ms=15_000)
    tc = ControlPacket(ControlKind.TC, c, 1, ((b, LinkStatus.SYMMETRIC),),
                       ttl=5, last_hop=b)
    state.process_tc(tc, now=0)
    state.expire_topology(now=14_999)
    assert c in state.topology
    state.expire_topology(now=15_000)
    assert c not in state.topology


def test_duplicate_set_ages_out_so_wrapped_sequences_stay_fresh():
    # One origin's TCs every 5 s for longer than a full lap of the 16-bit
    # sequence space: each arrival is fresh once the lap comes round.
    a, b, c = nid(1), nid(2), nid(3)
    state = TopologyState(a, topology_hold_ms=15_000)
    tc_interval = 5_000
    for i in range(SEQ_MOD + 9):
        now = i * tc_interval
        tc = ControlPacket(ControlKind.TC, c, (i + 1) % SEQ_MOD,
                           ((b, LinkStatus.SYMMETRIC),), ttl=5, last_hop=b)
        state.process_tc(tc, now)
        state.expire_topology(now)
    assert state.duplicate_tc_dropped == 0
    assert c in state.topology
    assert len(state.seen_tc) <= DUP_HOLD_MS // tc_interval


def test_duplicate_held_until_dup_hold_time():
    a, b, c = nid(1), nid(2), nid(3)
    state = TopologyState(a)
    tc = ControlPacket(ControlKind.TC, c, 7, (), ttl=5, last_hop=b)
    state.process_tc(tc, now=1_000)
    state.expire_topology(now=1_000 + DUP_HOLD_MS - 1)
    state.process_tc(tc, now=1_000 + DUP_HOLD_MS - 1)
    assert state.duplicate_tc_dropped == 1
    state.expire_topology(now=1_000 + DUP_HOLD_MS)
    assert state.seen_tc == {}


# --- recompute on change ---------------------------------------------------

SYM, MPR = LinkStatus.SYMMETRIC, LinkStatus.MPR


def tc_from(origin, seq, advertised, last_hop):
    return ControlPacket(ControlKind.TC, origin, seq,
                         tuple((n, SYM) for n in advertised),
                         ttl=5, last_hop=last_hop)


def settled_state():
    """Node 1 with symmetric neighbour 2 (2-hop {3}), and 4's TC; flag clear."""
    state = TopologyState(nid(1), hold_time_ms=6_000, topology_hold_ms=15_000)
    state.process_hello(hello_from(nid(2), [(nid(1), SYM), (nid(3), SYM)]), 0)
    state.process_tc(tc_from(nid(4), 1, [nid(3)], nid(2)), 0)
    assert state.dirty
    state.select_mprs()
    state.compute_routes()
    state.dirty = False
    return state


DIRTY_TRIGGERS = {
    "new link": lambda s: s.process_hello(hello_from(nid(5), []), 100),
    "link status": lambda s: s.process_hello(
        hello_from(nid(2), [(nid(3), SYM)]), 100),
    "2-hop set": lambda s: s.process_hello(
        hello_from(nid(2), [(nid(1), SYM), (nid(3), SYM), (nid(6), SYM)]), 100),
    "link expiry": lambda s: s.expire_links(6_000),
    "tc new origin": lambda s: s.process_tc(tc_from(nid(7), 1, [nid(4)], nid(2)), 100),
    "tc advertised set": lambda s: s.process_tc(
        tc_from(nid(4), 2, [nid(3), nid(8)], nid(2)), 100),
    "topology expiry": lambda s: s.expire_topology(15_000),
}

PURE_REFRESHES = {
    "hello refresh": lambda s: s.process_hello(
        hello_from(nid(2), [(nid(1), SYM), (nid(3), SYM)], seq=1), 4_000),
    "mpr selector": lambda s: s.process_hello(
        hello_from(nid(2), [(nid(1), MPR), (nid(3), SYM)], seq=1), 100),
    "tc refresh": lambda s: s.process_tc(tc_from(nid(4), 2, [nid(3)], nid(2)), 100),
    "duplicate tc": lambda s: s.process_tc(tc_from(nid(4), 1, [nid(3)], nid(2)), 100),
    "stale tc": lambda s: s.process_tc(tc_from(nid(4), 0, [nid(9)], nid(2)), 100),
    "nothing expires": lambda s: (s.expire_links(5_999), s.expire_topology(14_999)),
}


@pytest.mark.parametrize("trigger", DIRTY_TRIGGERS)
def test_route_input_change_sets_dirty(trigger):
    state = settled_state()
    DIRTY_TRIGGERS[trigger](state)
    assert state.dirty


@pytest.mark.parametrize("refresh", PURE_REFRESHES)
def test_pure_refresh_leaves_dirty_clear(refresh):
    state = settled_state()
    PURE_REFRESHES[refresh](state)
    assert not state.dirty


def test_flood_converges_to_true_edge_set():
    rng = random.Random(0xF1)
    for _ in range(20):
        adj = random_connected_graph(rng, max_nodes=20)
        states = converge(adj)
        truth = true_edge_set(adj)
        for u, state in states.items():
            edges = {frozenset((u, n)) for n in state.symmetric_neighbors()}
            for origin, (_, advertised, _) in state.topology.items():
                edges |= {frozenset((origin, v)) for v in advertised}
            assert edges == truth, u


def test_flood_reaches_every_node():
    rng = random.Random(0xF2)
    for _ in range(30):
        adj = random_connected_graph(rng, max_nodes=20)
        states = converge(adj)
        origin = min(adj, key=lambda n: n.address)
        reached, _ = flood_tc(states, adj, origin, sequence=999)
        assert reached == set(adj) - {origin}


def test_mpr_flooding_cheaper_than_blind():
    # Blind flooding costs one transmission per node; the star shows the
    # MPR rule skipping every silent leaf.
    hub = nid(50)
    leaves = [nid(i) for i in range(1, 9)]
    adj = {hub: set(leaves), **{leaf: {hub} for leaf in leaves}}
    states = converge(adj)
    _, transmissions = flood_tc(states, adj, leaves[0], sequence=77)
    assert transmissions == 2  # origin plus the hub
    assert transmissions <= len(adj)

    rng = random.Random(0xF3)
    for _ in range(30):
        graph = random_connected_graph(rng, max_nodes=20)
        st = converge(graph)
        origin = max(graph, key=lambda n: n.address)
        _, tx = flood_tc(st, graph, origin, sequence=78)
        assert tx <= len(graph)


# --- routing --------------------------------------------------------------

def test_route_to_direct_neighbor():
    a, b = nid(1), nid(2)
    adj = {a: {b}, b: {a}}
    states = converge(adj)
    assert states[a].routing_table[b] == (b, 1)


def test_route_along_path():
    a, b, c = nid(1), nid(2), nid(3)
    adj = {a: {b}, b: {a, c}, c: {b}}
    states = converge(adj)
    assert states[a].routing_table[c] == (b, 2)
    assert states[c].routing_table[a] == (b, 2)


def test_route_tie_breaks_to_smallest_next_hop():
    # Two equal-length routes to 4: via 2 and via 3.
    a, b, c, t = nid(1), nid(2), nid(3), nid(4)
    adj = {a: {b, c}, b: {a, t}, c: {a, t}, t: {b, c}}
    states = converge(adj)
    assert states[a].routing_table[t] == (b, 2)


def test_unreachable_destination_absent():
    a, b = nid(1), nid(2)
    state = TopologyState(a)
    state.process_hello(hello_from(b, [(a, LinkStatus.SYMMETRIC)]), now=0)
    table = state.compute_routes()
    assert nid(3) not in table


def test_routes_match_bfs_on_random_graphs():
    rng = random.Random(0x0C)
    for _ in range(200):
        adj = random_connected_graph(rng)
        states = converge(adj)
        for u, state in states.items():
            dist = bfs_distances(adj, u)
            table = state.routing_table
            assert set(table) == set(adj) - {u}
            for v, (next_hop, hops) in table.items():
                assert hops == dist[v], (u, v)
                assert next_hop in adj[u]
                # The chosen first hop must lie on some shortest path.
                assert dist[v] == 1 + bfs_distances(adj, next_hop)[v]


# --- codec ----------------------------------------------------------------

def test_control_packet_round_trip():
    pkt = ControlPacket(
        ControlKind.TC, nid(9), 42,
        ((nid(3), LinkStatus.SYMMETRIC), (nid(5), LinkStatus.MPR)),
        ttl=DEFAULT_TTL, last_hop=nid(4),
    )
    assert decode_control(encode_control(pkt)) == pkt


def test_control_packet_without_last_hop_round_trips():
    pkt = ControlPacket(ControlKind.HELLO, nid(9), 1, (), ttl=1, last_hop=None)
    assert decode_control(encode_control(pkt)) == pkt


@pytest.mark.parametrize("field", ["kind", "origin", "sequence", "neighbors",
                                   "ttl", "last_hop"])
def test_control_packet_fields_cannot_be_assigned(field):
    pkt = hello_from(nid(1), [(nid(2), LinkStatus.SYMMETRIC)])
    with pytest.raises(AttributeError):
        setattr(pkt, field, None)


def test_relayed_packet_keeps_its_content_and_spends_one_ttl():
    tc = ControlPacket(ControlKind.TC, nid(3), 7,
                       ((nid(2), LinkStatus.SYMMETRIC),), ttl=5, last_hop=nid(3))
    relayed = tc.relayed_by(nid(2))
    assert relayed == ControlPacket(ControlKind.TC, nid(3), 7, tc.neighbors,
                                    ttl=4, last_hop=nid(2))
    assert type(relayed) is ControlPacket


# --- one HELLO packet per neighbour tuple ------------------------------------

def test_hello_packet_is_reused_until_its_neighbours_change():
    a = TopologyState(nid(1))
    first = a.make_hello()
    assert first.sequence == 0 and first.neighbors == ()
    assert a.make_hello() is first
    a.process_hello(hello_from(nid(2), []), now=0)
    second = a.make_hello()
    assert second is not first
    assert second.neighbors == ((nid(2), LinkStatus.ASYMMETRIC),)
    # A refresh moves only timers; the packet stays.
    a.process_hello(hello_from(nid(2), []), now=1_000)
    assert a.make_hello() is second
    a.process_hello(hello_from(nid(2), [(nid(1), LinkStatus.SYMMETRIC)]),
                    now=1_500)
    a.select_mprs()
    assert a.make_hello().neighbors == ((nid(2), LinkStatus.SYMMETRIC),)
    a.expire_links(1_500 + HOLD_TIME_MS)
    assert a.make_hello().neighbors == ()

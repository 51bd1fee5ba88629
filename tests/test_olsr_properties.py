"""Property test of recompute-on-change: a clear dirty flag means the cached
MPR set and routing table are what a fresh computation would give."""

import copy

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lifeline.messages import NodeId
from lifeline.olsr import ControlKind, ControlPacket, LinkStatus, TopologyState

SELF = NodeId(1)
# Few nodes, so that sequences revisit a link or an origin; node 4 sends
# TCs but no HELLOs, so it is never a neighbour.
PEERS = [NodeId(2), NodeId(3)]
NODES = [SELF] + PEERS + [NodeId(4)]

OLSR_SETTINGS = settings(max_examples=500, deadline=None, database=None,
                         suppress_health_check=[HealthCheck.too_slow])

delays = st.integers(0, 2_000)

hellos = st.tuples(
    st.just("hello"), delays, st.sampled_from(PEERS),
    st.dictionaries(st.sampled_from(NODES), st.sampled_from(list(LinkStatus)),
                    max_size=len(NODES)),
)
tcs = st.tuples(
    st.just("tc"), delays, st.sampled_from(NODES[1:]), st.integers(0, 3),
    st.frozensets(st.sampled_from(NODES)), st.sampled_from(PEERS),
)
expiries = st.tuples(st.sampled_from(["expire_links", "expire_topology"]),
                     delays)
recomputes = st.tuples(st.just("recompute"), delays)

operations = st.lists(st.one_of(hellos, tcs, expiries, recomputes),
                      max_size=40)


def apply(state: TopologyState, op: tuple, now: int) -> None:
    kind = op[0]
    if kind == "hello":
        _, _, sender, listed = op
        state.process_hello(ControlPacket(
            ControlKind.HELLO, sender, 0, tuple(listed.items()),
            ttl=1, last_hop=sender), now)
    elif kind == "tc":
        _, _, origin, seq, advertised, last_hop = op
        state.process_tc(ControlPacket(
            ControlKind.TC, origin, seq,
            tuple((n, LinkStatus.SYMMETRIC) for n in advertised),
            ttl=3, last_hop=last_hop), now)
    elif kind == "expire_links":
        state.expire_links(now)
    elif kind == "expire_topology":
        state.expire_topology(now)
    else:  # what the engine's hello does when the flag is set
        if state.dirty:
            state.dirty = False
            state.select_mprs()
            state.compute_routes()


@OLSR_SETTINGS
@given(st.integers(2_000, 10_000), st.integers(500, 5_000), operations)
def test_clear_flag_means_cached_results_are_current(hold, topology_hold, ops):
    state = TopologyState(SELF, hold_time_ms=hold, topology_hold_ms=topology_hold)
    now = 0
    for op in ops:
        now += op[1]
        apply(state, op, now)
        if not state.dirty:
            fresh = copy.deepcopy(state)
            assert fresh.select_mprs() == state.mpr_set
            assert fresh.compute_routes() == state.routing_table

"""Property test of recompute-on-change: a clear dirty flag means the cached
MPR set and routing table are what a fresh computation would give."""

import copy
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lifeline.messages import NodeId
from lifeline.olsr import (
    DUP_HOLD_MS,
    ControlKind,
    ControlPacket,
    LinkStatus,
    TopologyState,
)

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


# -- expiry scans run only when due ----------------------------------------------


def assert_bounds_hold(state: TopologyState) -> None:
    """Each expiry bound is at or below every expiry it covers."""
    for rec in state.links.values():
        assert state._links_due <= rec.expiry
    for _, _, expiry in state.topology.values():
        assert state._topology_due <= expiry
    for arrived in state.seen_tc.values():
        assert state._topology_due <= arrived + DUP_HOLD_MS


@OLSR_SETTINGS
@given(st.integers(2_000, 10_000), st.integers(500, 5_000), operations)
def test_expiry_bounds_never_pass_a_live_expiry(hold, topology_hold, ops):
    state = TopologyState(SELF, hold_time_ms=hold, topology_hold_ms=topology_hold)
    now = 0
    for op in ops:
        now += op[1]
        apply(state, op, now)
        assert_bounds_hold(state)
        if op[0] == "expire_links":
            assert all(rec.expiry > now for rec in state.links.values())
        elif op[0] == "expire_topology":
            assert all(expiry > now for _, _, expiry in state.topology.values())
            assert all(arrived + DUP_HOLD_MS > now
                       for arrived in state.seen_tc.values())


# -- an unchanged HELLO only refreshes timers ------------------------------------

# ("hello", delay, sender, listed, resend): with resend set, the sender
# repeats its previous neighbour tuple.
resendable_hellos = st.tuples(
    st.just("hello"), delays, st.sampled_from(PEERS),
    st.dictionaries(st.sampled_from(NODES), st.sampled_from(list(LinkStatus)),
                    max_size=len(NODES)),
    st.booleans(),
)
twin_operations = st.lists(
    st.one_of(resendable_hellos, resendable_hellos, tcs, expiries, recomputes),
    max_size=40)


def expected_hello(state: TopologyState) -> tuple:
    """make_hello's neighbour list, built from the links and MPR set."""
    entries = []
    for n, rec in sorted(state.links.items(), key=lambda kv: kv[0].address):
        if rec.status is not LinkStatus.SYMMETRIC:
            entries.append((n, LinkStatus.ASYMMETRIC))
        elif n in state.mpr_set:
            entries.append((n, LinkStatus.MPR))
        else:
            entries.append((n, LinkStatus.SYMMETRIC))
    return tuple(entries)


def link_view(state: TopologyState) -> dict:
    return {n: (rec.status, rec.expiry)
            for n, rec in state.links.items()}


def heard_view(heard: dict, hold: int) -> tuple:
    """(links, two_hop, mpr_selectors) as each sender's last HELLO says."""
    links, two_hop, selectors = {}, {}, set()
    for sender, (listed, at) in heard.items():
        status = (LinkStatus.SYMMETRIC if SELF in listed
                  else LinkStatus.ASYMMETRIC)
        links[sender] = (status, at + hold)
        two_hop[sender] = {n for n, st in listed.items()
                           if st is not LinkStatus.ASYMMETRIC and n != SELF}
        if listed.get(SELF) is LinkStatus.MPR:
            selectors.add(sender)
    return links, two_hop, selectors


@OLSR_SETTINGS
@given(st.integers(2_000, 10_000), twin_operations)
def test_reused_hello_tuples_end_like_fresh_ones(hold, ops):
    reused = TopologyState(SELF, hold_time_ms=hold)
    fresh = TopologyState(SELF, hold_time_ms=hold)
    last_sent: dict = {}
    heard: dict = {}   # sender -> (its last HELLO's neighbours, when)
    now = 0
    for op in ops:
        now += op[1]
        if op[0] == "hello":
            _, _, sender, listed, resend = op
            if not (resend and sender in last_sent):
                last_sent[sender] = tuple(listed.items())
            neighbors = last_sent[sender]
            heard[sender] = (dict(neighbors), now)
            for state, sent in ((reused, neighbors), (fresh, tuple(list(neighbors)))):
                state.process_hello(ControlPacket(
                    ControlKind.HELLO, sender, 0, sent, ttl=1,
                    last_hop=sender), now)
        else:
            apply(reused, op, now)
            apply(fresh, op, now)
            if op[0] == "expire_links":
                heard = {n: h for n, h in heard.items() if h[1] + hold > now}
        assert link_view(reused) == link_view(fresh)
        assert reused.two_hop == fresh.two_hop
        assert reused.mpr_selectors == fresh.mpr_selectors
        assert reused.dirty == fresh.dirty
        assert reused.mpr_set == fresh.mpr_set
        assert (link_view(reused), reused.two_hop,
                reused.mpr_selectors) == heard_view(heard, hold)
        hello = reused.make_hello().neighbors
        assert hello == fresh.make_hello().neighbors == expected_hello(reused)


# -- the link bound is the earliest link expiry ---------------------------------

# ("refresh", delay, sender, lead): the sender's last HELLO, applied as the
# engine applies one at send, as of its arrival lead ms later.
refreshes = st.tuples(st.just("refresh"), delays, st.sampled_from(PEERS),
                      st.integers(1, 500))
bound_operations = st.lists(
    st.one_of(resendable_hellos, resendable_hellos, refreshes, expiries,
              recomputes),
    max_size=40)


def hello_from(sender: NodeId, neighbors: tuple) -> ControlPacket:
    return ControlPacket(ControlKind.HELLO, sender, 0, neighbors, ttl=1,
                         last_hop=sender)


@OLSR_SETTINGS
@given(st.integers(2_000, 10_000), bound_operations)
def test_link_bound_is_the_earliest_link_expiry(hold, ops):
    # So expire_links scans only when a link has expired: it never scans
    # for nothing.
    state = TopologyState(SELF, hold_time_ms=hold)
    last_sent: dict = {}
    now = 0
    for op in ops:
        now += op[1]
        if op[0] == "hello":
            _, _, sender, listed, resend = op
            if not (resend and sender in last_sent):
                last_sent[sender] = tuple(listed.items())
            state.process_hello(hello_from(sender, last_sent[sender]), now)
        elif op[0] == "refresh":
            _, _, sender, lead = op
            if sender in last_sent:
                state.refresh(hello_from(sender, last_sent[sender]),
                              now + lead)
        else:
            apply(state, op, now)
        assert state._links_due == min(
            (rec.expiry for rec in state.links.values()), default=math.inf)


# -- owed stamps read like a refresh at every HELLO -----------------------------

# A stretch's HELLOs, as (sender, gap after that sender's last arrival), and
# the times the stretch's stamps are read.
stretch_operations = st.lists(
    st.one_of(st.tuples(st.just("hello"), st.sampled_from(PEERS),
                        st.integers(1, 1_999)),
              st.tuples(st.just("read"))),
    max_size=60)


@OLSR_SETTINGS
@given(st.integers(2_000, 10_000), stretch_operations)
def test_owed_stamps_read_like_a_refresh_at_every_hello(hold, ops):
    # Each sender's HELLOs arrive less than a hold time apart, as in a
    # stretch.  The eager state refreshes at every HELLO; the lazy one
    # only keeps each sender's last arrival and applies it when read.
    eager, lazy = (TopologyState(SELF, hold_time_ms=hold) for _ in range(2))
    hellos = {}
    for sender in PEERS:
        hellos[sender] = hello_from(sender, ((SELF, LinkStatus.SYMMETRIC),))
        for state in (eager, lazy):
            state.process_hello(hellos[sender], 0)
    arrived = dict.fromkeys(PEERS, 0)
    owed = {}
    for op in ops + [("read",)]:
        if op[0] == "hello":
            _, sender, gap = op
            arrived[sender] += gap
            assert eager.refresh(hellos[sender], arrived[sender])
            owed[sender] = arrived[sender]
            continue
        for sender, at in owed.items():
            lazy.refresh_owed(hellos[sender], at)
        owed.clear()
        assert ({n: rec.expiry for n, rec in lazy.links.items()}
                == {n: rec.expiry for n, rec in eager.links.items()})
        assert lazy._links_due == eager._links_due == min(
            rec.expiry for rec in eager.links.values())

"""Per-node OLSR-lite state machine.

HELLO-based bidirectional link sensing, greedy multipoint-relay (MPR)
selection, TC flooding via MPRs, and shortest-hop routing.  Timer
constants follow RFC-typical defaults (HELLO 2 s, TC 5 s, hold 6 s) and
are overridable per scenario.  Every node originates TCs advertising its
full symmetric-neighbor set, so converged topology views carry the whole
edge set.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter, itemgetter
from typing import NamedTuple, Optional

from .messages import NodeId

HELLO_INTERVAL_MS = 2_000
TC_INTERVAL_MS = 5_000
HOLD_TIME_MS = 6_000            # 3x HELLO
TOPOLOGY_HOLD_MS = 15_000       # 3x TC; stale advertisements age out
DUP_HOLD_MS = 30_000            # a TC's (origin, seq) counts as seen this long
DEFAULT_TTL = 16

SEQ_MOD = 1 << 16
_SEQ_HALF = 1 << 15
# Expiry bound of a state with nothing to expire.
_NEVER = float("inf")


def seq_newer(a: int, b: int) -> bool:
    """16-bit wrapping newer-than comparison."""
    a %= SEQ_MOD
    b %= SEQ_MOD
    return (a > b and a - b <= _SEQ_HALF) or (b > a and b - a > _SEQ_HALF)


class LinkStatus(Enum):
    ASYMMETRIC = "asym"
    SYMMETRIC = "sym"
    # In a HELLO's neighbor list only: symmetric and selected as our MPR.
    MPR = "mpr"


class ControlKind(Enum):
    HELLO = "hello"
    TC = "tc"


# Read on every control packet; on Python 3.11 reading a member through its
# enum class costs about ten times as much as reading a module global.
_ASYMMETRIC = LinkStatus.ASYMMETRIC
_SYMMETRIC = LinkStatus.SYMMETRIC
_MPR = LinkStatus.MPR
_HELLO = ControlKind.HELLO
_TC = ControlKind.TC
_EXPIRY = attrgetter("expiry")


@dataclass
class LinkRecord:
    neighbor: NodeId
    status: LinkStatus
    expiry: int
    # The neighbour tuple of the HELLO that set this record: a HELLO
    # carrying the very same tuple says nothing new, so it only refreshes
    # the timers.
    heard: Optional[tuple] = field(default=None, compare=False, repr=False)


class ControlPacket(NamedTuple):
    kind: ControlKind
    origin: NodeId
    sequence: int
    neighbors: tuple[tuple[NodeId, LinkStatus], ...]
    ttl: int = DEFAULT_TTL
    # Most recent transmitter; the MPR forwarding rule keys on it.
    last_hop: Optional[NodeId] = None

    def relayed_by(self, node: NodeId) -> "ControlPacket":
        return ControlPacket(self.kind, self.origin, self.sequence,
                             self.neighbors, self.ttl - 1, node)


class TopologyState:
    """One node's OLSR view: links, 2-hop sets, MPRs, topology, routes."""

    def __init__(self, self_id: NodeId, hold_time_ms: int = HOLD_TIME_MS,
                 topology_hold_ms: int = TOPOLOGY_HOLD_MS):
        self.self_id = self_id
        self.hold_time_ms = hold_time_ms
        self.topology_hold_ms = topology_hold_ms
        self.links: dict[NodeId, LinkRecord] = {}
        self.two_hop: dict[NodeId, set[NodeId]] = {}
        self.mpr_set: set[NodeId] = set()
        self.mpr_selectors: set[NodeId] = set()
        # origin -> (latest sequence, advertised neighbors, expiry)
        self.topology: dict[NodeId, tuple[int, frozenset[NodeId], int]] = {}
        # origin -> the neighbour tuple of the TC that set its entry: a TC
        # carrying the very same tuple advertises nothing new.
        self._tc_heard: dict[NodeId, tuple] = {}
        # (origin, sequence) -> arrival time, oldest first; entries older
        # than DUP_HOLD_MS age out, so a wrapped sequence is fresh again
        # (RFC 3626 section 3.4).
        self.seen_tc: dict[tuple[NodeId, int], int] = {}
        self.routing_table: dict[NodeId, tuple[NodeId, int]] = {}
        self.stale_tc_dropped = 0
        self.duplicate_tc_dropped = 0
        # Set when an input of select_mprs/compute_routes changes: a link
        # appears, expires or changes status, a 2-hop set changes, or an
        # advertised set appears, changes or expires.  Refreshes that only
        # move an expiry, and mpr_selectors, leave it alone.  The caller
        # recomputes while it is set and then clears it (RFC 3626 section 10).
        self.dirty = False
        # The HELLO make_hello built, kept until a link appears, changes
        # status or expires, or the MPR set changes; and the neighbour
        # tuple make_tc built, kept until a link appears, changes status
        # or expires.
        self._hello: Optional[ControlPacket] = None
        self._tc_neighbors: Optional[tuple] = None
        # The earliest link expiry (see _restamp), and a lower bound on the
        # earliest time a topology entry or a duplicate-set key ages out:
        # inserts lower it, and refreshes, which only move expiries later
        # (time never runs backwards), leave it early but still a bound.
        # The expiry scans return at once while `now` is below theirs.
        self._links_due = _NEVER
        self._topology_due = _NEVER

    # -- link sensing ---------------------------------------------------

    def symmetric_neighbors(self) -> list[NodeId]:
        return sorted(
            (n for n, rec in self.links.items() if rec.status is _SYMMETRIC),
            key=lambda n: n.address,
        )

    def process_hello(self, hello: ControlPacket, now: int) -> None:
        """Record/refresh the sender's link; idempotent for duplicates."""
        assert hello.kind is _HELLO
        if self.refresh(hello, now):
            return
        sender = hello.origin
        if sender == self.self_id:
            return
        old = self.links.get(sender)
        listed = dict(hello.neighbors)
        status = _SYMMETRIC if self.self_id in listed else _ASYMMETRIC
        if old is None or old.status is not status:
            self.dirty = True
            self._hello = self._tc_neighbors = None
        expiry = now + self.hold_time_ms
        self.links[sender] = LinkRecord(sender, status, expiry,
                                        hello.neighbors)
        self._restamp(None if old is None else old.expiry, expiry)
        two_hop = {
            n for n, st in listed.items()
            if (st is _SYMMETRIC or st is _MPR) and n != self.self_id
        }
        if two_hop != self.two_hop.get(sender):
            self.dirty = True
            self.two_hop[sender] = two_hop
        if listed.get(self.self_id) is _MPR:
            self.mpr_selectors.add(sender)
        else:
            self.mpr_selectors.discard(sender)

    def refresh(self, hello: ControlPacket, at: int) -> bool:
        """Apply a HELLO arriving at `at` if it only refreshes a link;
        return whether it did.

        It does when this state holds the sender's link, set by the very
        neighbour tuple the HELLO carries, and the link is still held at
        `at`: the HELLO then only restamps the link's timers.  Only
        expire_links reads them, and it finds the link unexpired at every
        time up to `at` under either stamp, so the engine may call this
        when the HELLO is sent rather than when it arrives.
        """
        rec = self.links.get(hello.origin)
        if rec is None or rec.heard is not hello.neighbors or rec.expiry <= at:
            return False
        self.refresh_owed(hello, at)
        return True

    def refresh_owed(self, hello: ControlPacket, at: int) -> None:
        """Stamp the sender's link as the last of a run of HELLOs that each
        only refresh it would, this one arriving at `at`.

        This is the lazy form of calling refresh for every HELLO of the
        run: each would restamp the link to its own arrival plus the hold
        time, so the last one decides the stamp, and _links_due follows
        it as refresh's would.  The caller guarantees that every HELLO of
        the run would be accepted: the link is held, set by the very
        neighbour tuple the HELLO carries, and each HELLO arrives before
        the previous one's stamp runs out.
        """
        rec = self.links[hello.origin]
        was, rec.expiry = rec.expiry, at + self.hold_time_ms
        self._restamp(was, rec.expiry)

    def _restamp(self, was: Optional[int], expiry: int) -> None:
        """Keep _links_due the earliest link expiry once one link's expiry
        moved from was (None for a new link) to expiry, so a scan comes
        only when it can drop something."""
        if was == self._links_due:
            self._links_due = min(map(_EXPIRY, self.links.values()))
        elif expiry < self._links_due:
            self._links_due = expiry

    def expire_links(self, now: int) -> list[NodeId]:
        """Drop links not refreshed within the hold time."""
        if now < self._links_due:
            return []
        gone = [n for n, rec in self.links.items() if rec.expiry <= now]
        for n in gone:
            del self.links[n]
            self.two_hop.pop(n, None)
            self.mpr_set.discard(n)
            self.mpr_selectors.discard(n)
            self.dirty = True
            self._hello = self._tc_neighbors = None
        self._links_due = min((rec.expiry for rec in self.links.values()),
                              default=_NEVER)
        return gone

    def expire_topology(self, now: int) -> None:
        """Drop stale advertised sets and aged-out duplicate-set keys."""
        if now < self._topology_due:
            return
        dead = [o for o, (_, _, expiry) in self.topology.items() if expiry <= now]
        for o in dead:
            del self.topology[o]
            del self._tc_heard[o]
            self.dirty = True
        seen = self.seen_tc
        while seen:   # oldest first
            key, arrived = next(iter(seen.items()))
            if arrived + DUP_HOLD_MS > now:
                break
            del seen[key]
        due = min((expiry for _, _, expiry in self.topology.values()),
                  default=_NEVER)
        if seen:
            due = min(due, next(iter(seen.values())) + DUP_HOLD_MS)
        self._topology_due = due

    # -- MPR selection ----------------------------------------------------

    def strict_two_hop(self) -> set[NodeId]:
        neighbors = set(self.symmetric_neighbors())
        out: set[NodeId] = set()
        for n in neighbors:
            out |= self.two_hop.get(n, set())
        return out - neighbors - {self.self_id}

    def select_mprs(self) -> set[NodeId]:
        """Greedy cover of all strict 2-hop neighbors by symmetric neighbors."""
        neighbors = self.symmetric_neighbors()
        targets = self.strict_two_hop()
        coverage = {
            n: (self.two_hop.get(n, set()) & targets) for n in neighbors
        }
        chosen: set[NodeId] = set()
        uncovered = set(targets)

        # Neighbors that are the sole path to some 2-hop node come first.
        for t in sorted(targets, key=lambda n: n.address):
            covers = [n for n in neighbors if t in coverage[n]]
            if len(covers) == 1:
                chosen.add(covers[0])
        for n in chosen:
            uncovered -= coverage[n]

        while uncovered:
            best = max(
                neighbors,
                key=lambda n: (len(coverage[n] & uncovered), -n.address),
            )
            chosen.add(best)
            uncovered -= coverage[best]

        if chosen != self.mpr_set:
            self._hello = None
        self.mpr_set = chosen
        return set(chosen)

    # -- control packet construction -------------------------------------

    def make_hello(self) -> ControlPacket:
        """This node's HELLO: one packet object per neighbour tuple.

        HELLOs carry sequence 0.  They are never relayed and never cross
        a link as bytes, and process_hello does not read the sequence, so
        a counter would only stop the packet from being reused.
        """
        if self._hello is None:
            entries = []
            for n, rec in sorted(self.links.items(), key=lambda kv: kv[0].address):
                if rec.status is _SYMMETRIC:
                    status = _MPR if n in self.mpr_set else _SYMMETRIC
                else:
                    status = _ASYMMETRIC
                entries.append((n, status))
            self._hello = ControlPacket(_HELLO, self.self_id, 0,
                                        tuple(entries), ttl=1,
                                        last_hop=self.self_id)
        return self._hello

    def make_tc(self, sequence: int, ttl: int = DEFAULT_TTL) -> ControlPacket:
        """This node's TC.  Its neighbour tuple is reused until the
        symmetric set may have changed, so refresh_tc can tell an unchanged
        advertisement by identity."""
        if self._tc_neighbors is None:
            self._tc_neighbors = tuple(
                (n, _SYMMETRIC) for n in self.symmetric_neighbors())
        return ControlPacket(_TC, self.self_id, sequence, self._tc_neighbors,
                             ttl=ttl, last_hop=self.self_id)

    def tc_tuple(self) -> Optional[tuple]:
        """The neighbour tuple this node's next TC carries, if make_tc has
        built it and no link change has dropped it since."""
        return self._tc_neighbors

    def holds_tc(self, origin: NodeId, neighbors: tuple, after: int) -> bool:
        """Whether this state holds origin's topology entry past `after`,
        set by a TC carrying the very tuple `neighbors`: a TC with that
        tuple and a newer sequence arriving by then only refreshes it."""
        current = self.topology.get(origin)
        return (current is not None and current[2] > after
                and self._tc_heard[origin] is neighbors)

    # -- TC processing ----------------------------------------------------

    def process_tc(self, tc: ControlPacket, now: int = 0) -> bool:
        """Apply a TC if fresh; return whether this node must relay it."""
        assert tc.kind is _TC
        if tc.origin == self.self_id:
            return False
        key = (tc.origin, tc.sequence)
        if key in self.seen_tc:
            self.duplicate_tc_dropped += 1
            return False
        self.seen_tc[key] = now
        due = now + DUP_HOLD_MS

        current = self.topology.get(tc.origin)
        if current is None or seq_newer(tc.sequence, current[0]):
            advertised = frozenset(map(itemgetter(0), tc.neighbors))
            if current is None or advertised != current[1]:
                self.dirty = True
            expiry = now + self.topology_hold_ms
            self.topology[tc.origin] = (tc.sequence, advertised, expiry)
            self._tc_heard[tc.origin] = tc.neighbors
            due = min(due, expiry)
        else:
            self.stale_tc_dropped += 1
        if due < self._topology_due:
            self._topology_due = due

        return (
            tc.last_hop is not None
            and tc.last_hop in self.mpr_selectors
            and tc.ttl > 0
        )

    def refresh_tc(self, tc: ControlPacket, at: int) -> bool:
        """Apply a TC arriving at `at` if it only refreshes a topology
        entry; return whether it did.

        It does when this state holds the origin's entry, set by the very
        neighbour tuple the TC carries and still held at `at`, and the TC's
        sequence number is newer and its (origin, sequence) key unseen: the
        TC then only restamps the entry and records its key, as of `at`,
        which is what process_tc would do at `at`.  The engine calls this
        when the TC is sent, and only to a node that never relays a TC.
        """
        origin = tc.origin
        current = self.topology.get(origin)
        if (current is None or self._tc_heard[origin] is not tc.neighbors
                or current[2] <= at or not seq_newer(tc.sequence, current[0])):
            return False
        key = (origin, tc.sequence)
        if key in self.seen_tc:
            return False
        self.seen_tc[key] = at
        expiry = at + self.topology_hold_ms
        self.topology[origin] = (tc.sequence, current[1], expiry)
        due = min(at + DUP_HOLD_MS, expiry)
        if due < self._topology_due:
            self._topology_due = due
        return True

    def refresh_tc_owed(self, origin: NodeId, keys: list[tuple[int, int]]
                        ) -> None:
        """Stamp origin's topology entry and record duplicate-set keys as a
        run of TCs from origin that each only refresh the entry would; keys
        holds the (sequence, arrival) of the run's latest TCs, in order.

        This is the lazy form of calling refresh_tc for every TC of the
        run: each would restamp the entry to its own arrival plus the
        topology hold and record its key as of its arrival, so the last
        one decides the entry.  The caller guarantees that refresh_tc
        would accept every TC of the run, passes every one whose key an
        expire_topology at the run's last expiry time would keep, and then
        calls it at that time: keys only age out oldest first and arrive in
        order, so the set then holds what the run's own refreshes and
        expiries would have left.
        """
        sequence, at = keys[-1]
        _, advertised, _ = self.topology[origin]
        expiry = at + self.topology_hold_ms
        self.topology[origin] = (sequence, advertised, expiry)
        seen = self.seen_tc
        for sequence, arrived in keys:
            seen[origin, sequence] = arrived
        self._topology_due = min(self._topology_due,
                                 keys[0][1] + DUP_HOLD_MS, expiry)

    # -- routing ----------------------------------------------------------

    def known_graph(self) -> dict[NodeId, set[NodeId]]:
        """Undirected adjacency from own links plus advertised topology."""
        graph: dict[NodeId, set[NodeId]] = {self.self_id: set()}
        for n in self.symmetric_neighbors():
            graph.setdefault(self.self_id, set()).add(n)
            graph.setdefault(n, set()).add(self.self_id)
        for origin, (_, advertised, _) in self.topology.items():
            for v in advertised:
                graph.setdefault(origin, set()).add(v)
                graph.setdefault(v, set()).add(origin)
        return graph

    def compute_routes(self) -> dict[NodeId, tuple[NodeId, int]]:
        """Shortest-hop routes; ties broken by smallest next-hop address."""
        graph = self.known_graph()
        table: dict[NodeId, tuple[NodeId, int]] = {}
        # Entries ordered (distance, next-hop address, node address) so the
        # first pop for a destination carries the winning tie-break.
        frontier: list[tuple[int, int, int]] = []
        nodes_by_addr = {n.address: n for n in graph}
        for n in self.symmetric_neighbors():
            heapq.heappush(frontier, (1, n.address, n.address))
        settled: set[int] = {self.self_id.address}
        while frontier:
            dist, via_addr, addr = heapq.heappop(frontier)
            if addr in settled:
                continue
            settled.add(addr)
            node = nodes_by_addr[addr]
            table[node] = (nodes_by_addr[via_addr], dist)
            for nxt in graph.get(node, ()):
                if nxt.address not in settled:
                    heapq.heappush(frontier, (dist + 1, via_addr, nxt.address))
        self.routing_table = table
        return dict(table)


# --- whole-network helpers ----------------------------------------------

Adjacency = dict[NodeId, set[NodeId]]


def flood_tc(states: dict[NodeId, TopologyState], adjacency: Adjacency,
             origin: NodeId, sequence: int,
             ttl: int = DEFAULT_TTL) -> tuple[set[NodeId], int]:
    """Synchronously flood one TC from origin, at time 0, through the MPR
    relay rule.

    Returns (nodes that received the packet, number of transmissions).
    """
    pkt = states[origin].make_tc(sequence, ttl)
    reached: set[NodeId] = set()
    transmissions = 1
    queue: deque[ControlPacket] = deque([pkt])
    while queue:
        out = queue.popleft()
        for nb in sorted(adjacency.get(out.last_hop, ()), key=lambda n: n.address):
            if nb == out.origin:
                continue
            reached.add(nb)
            if states[nb].process_tc(out, 0):
                transmissions += 1
                queue.append(out.relayed_by(nb))
    return reached, transmissions


def converge(adjacency: Adjacency) -> dict[NodeId, TopologyState]:
    """Drive hello exchange, MPR selection and TC floods to a fixed point,
    all at time 0.

    Four hello rounds provably stabilize links, 2-hop sets, MPR sets and
    selector sets on a static graph; one TC flood per origin then fills
    every topology view.
    """
    order = sorted(adjacency, key=lambda n: n.address)
    states = {n: TopologyState(n) for n in order}
    for _ in range(4):
        hellos = {n: states[n].make_hello() for n in order}
        for n in order:
            for nb in sorted(adjacency[n], key=lambda m: m.address):
                states[nb].process_hello(hellos[n], 0)
        for n in order:
            states[n].select_mprs()
    for i, origin in enumerate(order):
        flood_tc(states, adjacency, origin, sequence=i + 1)
    for n in order:
        states[n].compute_routes()
    return states

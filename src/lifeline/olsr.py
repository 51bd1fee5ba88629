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
from operator import itemgetter
from typing import NamedTuple, Optional

from .messages import (
    CONTROL_ROOT,
    WIRE_VERSION,
    MalformedDocument,
    NodeId,
)
from xml.etree import ElementTree

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


@dataclass
class LinkRecord:
    neighbor: NodeId
    status: LinkStatus
    last_heard: int
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


def encode_control(pkt: ControlPacket) -> bytes:
    """Control packets share the message codec's framing, with kind tags."""
    entries = sorted(pkt.neighbors, key=lambda e: e[0].address)
    body = "".join(
        f'<n status="{status.value}">{node}</n>' for node, status in entries
    )
    parts = [
        f'<{CONTROL_ROOT} v="{WIRE_VERSION}">',
        f"<kind>{pkt.kind.value}</kind>",
        f"<origin>{pkt.origin}</origin>",
        f"<seq>{pkt.sequence}</seq>",
        f"<ttl>{pkt.ttl}</ttl>",
        f"<last_hop>{pkt.last_hop if pkt.last_hop is not None else ''}</last_hop>",
        f"<neighbors>{body}</neighbors>",
        f"</{CONTROL_ROOT}>",
    ]
    return "".join(parts).encode("ascii")


def decode_control(data: bytes) -> ControlPacket:
    try:
        root = ElementTree.fromstring(data)
    except ElementTree.ParseError as exc:
        raise MalformedDocument(f"unparseable control packet: {exc}") from None
    if root.tag != CONTROL_ROOT or root.get("v") != WIRE_VERSION:
        raise MalformedDocument("not a v1 control packet")
    fields = {child.tag: child for child in root}
    try:
        kind = ControlKind(fields["kind"].text)
        origin = NodeId.parse(fields["origin"].text or "")
        sequence = int(fields["seq"].text or "")
        ttl = int(fields["ttl"].text or "")
        last_hop_text = fields["last_hop"].text or ""
        last_hop = NodeId.parse(last_hop_text) if last_hop_text else None
        neighbors = tuple(
            (NodeId.parse(n.text or ""), LinkStatus(n.get("status")))
            for n in fields["neighbors"]
        )
    except (KeyError, ValueError) as exc:
        raise MalformedDocument(f"bad control field: {exc}") from None
    return ControlPacket(kind, origin, sequence, neighbors, ttl, last_hop)


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
        # status or expires, or the MPR set changes.
        self._hello: Optional[ControlPacket] = None
        # Lower bounds on the earliest link expiry, and on the earliest
        # time a topology entry or a duplicate-set key ages out.  Inserts
        # lower them; refreshes only move expiries later (time never runs
        # backwards), which leaves a bound early but still a bound.  The
        # expiry scans return at once while `now` is below theirs.
        self._links_due = _NEVER
        self._topology_due = _NEVER

    # -- link sensing ---------------------------------------------------

    def symmetric_neighbors(self) -> list[NodeId]:
        return sorted(
            (n for n, rec in self.links.items() if rec.status is LinkStatus.SYMMETRIC),
            key=lambda n: n.address,
        )

    def process_hello(self, hello: ControlPacket, now: int) -> None:
        """Record/refresh the sender's link; idempotent for duplicates."""
        assert hello.kind is ControlKind.HELLO
        sender = hello.origin
        old = self.links.get(sender)
        if old is not None and hello.neighbors is old.heard:
            old.last_heard = now
            old.expiry = now + self.hold_time_ms
            return
        if sender == self.self_id:
            return
        listed = dict(hello.neighbors)
        status = LinkStatus.SYMMETRIC if self.self_id in listed else LinkStatus.ASYMMETRIC
        if old is None or old.status is not status:
            self.dirty = True
            self._hello = None
        expiry = now + self.hold_time_ms
        if expiry < self._links_due:
            self._links_due = expiry
        self.links[sender] = LinkRecord(sender, status, now, expiry,
                                        hello.neighbors)
        two_hop = {
            n for n, st in listed.items()
            if st in (LinkStatus.SYMMETRIC, LinkStatus.MPR) and n != self.self_id
        }
        if two_hop != self.two_hop.get(sender):
            self.dirty = True
            self.two_hop[sender] = two_hop
        if listed.get(self.self_id) is LinkStatus.MPR:
            self.mpr_selectors.add(sender)
        else:
            self.mpr_selectors.discard(sender)

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
            self._hello = None
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
            if not coverage[best] & uncovered:
                break  # uncoverable leftovers (inconsistent two-hop view)
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
                if rec.status is LinkStatus.SYMMETRIC:
                    status = LinkStatus.MPR if n in self.mpr_set else LinkStatus.SYMMETRIC
                else:
                    status = LinkStatus.ASYMMETRIC
                entries.append((n, status))
            self._hello = ControlPacket(ControlKind.HELLO, self.self_id, 0,
                                        tuple(entries), ttl=1,
                                        last_hop=self.self_id)
        return self._hello

    def make_tc(self, sequence: int, ttl: int = DEFAULT_TTL) -> ControlPacket:
        entries = tuple(
            (n, LinkStatus.SYMMETRIC) for n in self.symmetric_neighbors()
        )
        return ControlPacket(ControlKind.TC, self.self_id, sequence,
                             entries, ttl=ttl, last_hop=self.self_id)

    # -- TC processing ----------------------------------------------------

    def process_tc(self, tc: ControlPacket, now: int = 0) -> bool:
        """Apply a TC if fresh; return whether this node must relay it."""
        assert tc.kind is ControlKind.TC
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
             origin: NodeId, sequence: int, ttl: int = DEFAULT_TTL,
             now: int = 0) -> tuple[set[NodeId], int]:
    """Synchronously flood one TC from origin through the MPR relay rule.

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
            if states[nb].process_tc(out, now):
                transmissions += 1
                queue.append(out.relayed_by(nb))
    return reached, transmissions


def converge(adjacency: Adjacency, now: int = 0,
             hold_time_ms: int = HOLD_TIME_MS,
             hello_rounds: int = 4) -> dict[NodeId, TopologyState]:
    """Drive hello exchange, MPR selection and TC floods to a fixed point.

    Four hello rounds provably stabilize links, 2-hop sets, MPR sets and
    selector sets on a static graph; one TC flood per origin then fills
    every topology view.
    """
    order = sorted(adjacency, key=lambda n: n.address)
    states = {n: TopologyState(n, hold_time_ms=hold_time_ms) for n in order}
    for _ in range(hello_rounds):
        hellos = {n: states[n].make_hello() for n in order}
        for n in order:
            for nb in sorted(adjacency[n], key=lambda m: m.address):
                states[nb].process_hello(hellos[n], now)
        for n in order:
            states[n].select_mprs()
    for i, origin in enumerate(order):
        flood_tc(states, adjacency, origin, sequence=i + 1, now=now)
    for n in order:
        states[n].compute_routes()
    return states

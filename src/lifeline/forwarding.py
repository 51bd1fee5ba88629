"""Forward message engine: accept-and-filter plus priority scheduling.

Five FIFO queues (priority 0 is most urgent) share a RAM budget of
encoded-message bytes.  Overflow pushes priority-3/4 traffic to a swap
store; failures demote; a delivery that drains the head queue promotes
every queue one level.  Every message instance a bank accepts is tracked
through to a terminal disposition so multiset conservation is checkable
at any step.  One rule (`_admit`) admits received and injected messages.

A held message keeps the canonical bytes it entered custody with (the
received bytes, or its encoding at inject), and its entry is sized by
them.  Swapping, demotion and promotion leave the bytes alone; a send,
a flush or a drain hands them over with the message's current priority
and hop count spliced in.

A forward tick that empties the head queue promotes the queues below
it, unless every queue is already empty, when there is nothing to move.

A bank holds its node's routes (`set_routes`) and says whether the node
needs a forward tick (`wants_tick`).  A bank none of whose held messages
has a route parks: it wants no tick until its routes change or a message
arrives that it can send.  It counts its sendable messages with one scan
per route table, at the first tick that cannot send, then keeps the
count as messages arrive and leave, and while the route table it is
given equals the one it holds.  Retry ticks remain for banks that
hold both sendable and unroutable messages.
"""

from __future__ import annotations

import bisect
import itertools
from collections import Counter, OrderedDict, deque
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

from .messages import (
    PRIORITY_LEVELS,
    EmergencyMessage,
    InvariantViolation,
    MalformedDocument,
    NodeId,
    decode_message,
    encode_message,
    splice_hop,
)
from .power import station_route

DEFAULT_RAM_BUDGET = 2 * 1024 * 1024
DELIVERED_LRU_SIZE = 4096
LOWEST_PRIORITY = PRIORITY_LEVELS - 1
# Only these levels may ever be evicted to the swap store.
SWAPPABLE_PRIORITIES = (3, 4)


class ReceiveResult(Enum):
    ACCEPTED = "accepted"
    IGNORED = "ignored"


class OutcomeKind(Enum):
    DELIVERED = "delivered"
    UNREACHABLE = "unreachable"
    DROPPED = "dropped"


class DropReason(Enum):
    RAM_EXHAUSTED = "ram_exhausted"
    DUPLICATE = "duplicate"


# Every hop reads these; on Python 3.11 reading a member through its enum
# class costs about ten times as much as reading a module global.
_ACCEPTED = ReceiveResult.ACCEPTED
_DELIVERED = OutcomeKind.DELIVERED


class ForwardOutcome(NamedTuple):
    """One result of admission or a forward tick; built for every hop, so
    a tuple rather than a frozen dataclass, which costs several times as
    much to construct."""

    kind: OutcomeKind
    message: EmergencyMessage
    next_hop: Optional[NodeId] = None
    reason: Optional[DropReason] = None
    # A delivery's wire bytes: the encoding of `message` as sent.
    data: Optional[bytes] = None


@dataclass
class _Entry:
    msg: EmergencyMessage
    # msg's encoding as it entered custody.  Custody changes only
    # msg.priority, one digit for another, so the bytes still size the
    # entry; a send splices the current priority and hop count into them.
    data: bytes
    seq: int


def terminates_at(node: NodeId, dst: NodeId) -> bool:
    """Whether dst is node, or a station-range address and node a station."""
    return dst == node or (dst.is_station_address and node.is_station_address)


def resolve_next_hop(routing_table: dict[NodeId, tuple[NodeId, int]],
                     dst: NodeId) -> Optional[NodeId]:
    """Exact-match route, else the nearest station's (`station_route`) for
    a station-range destination."""
    if dst in routing_table:
        return routing_table[dst][0]
    if dst.is_station_address:
        route = station_route(routing_table)
        if route is not None:
            return route[0]
    return None


class PriorityQueueBank:
    """One node's queue bank with full disposition accounting."""

    def __init__(self, self_id: NodeId, ram_budget: int = DEFAULT_RAM_BUDGET):
        self.self_id = self_id
        self.ram_budget = ram_budget
        self.ram_used = 0
        self.queues: list[deque[_Entry]] = [deque() for _ in range(PRIORITY_LEVELS)]
        self.swap_store: list[_Entry] = []  # kept sorted by enqueue seq
        self._seq = 0
        self._delivered_ids: OrderedDict[int, None] = OrderedDict()
        # Terminal deliveries at this node, for the harness to collect.
        self.delivered_log: list[EmergencyMessage] = []
        # Disposition multisets over msg_id; conservation compares them.
        # Nearly every increment is of a new id, so they go through get()
        # rather than `+= 1`, which calls Counter.__missing__ in Python.
        self.accepted: Counter[int] = Counter()
        self.delivered: Counter[int] = Counter()
        self.dropped: Counter[int] = Counter()
        self.backed_up: Counter[int] = Counter()
        self.ignored_count = 0
        # The message the latest accepted receive decoded, else None.
        self.last_received: Optional[EmergencyMessage] = None
        self.drop_reasons: Counter[DropReason] = Counter()
        # The route table forward_tick sends by; replaced by set_routes.
        self.routes: dict[NodeId, tuple[NodeId, int]] = {}
        # Held messages (queued or swapped) that resolve under `routes`, or
        # None until a tick that cannot send counts them.  At 0 custody is
        # parked until the routes change or a message that resolves arrives.
        self.routable: Optional[int] = None

    # -- admission --------------------------------------------------------

    def receive(self, data: bytes) -> ReceiveResult:
        """Filter arbitrary received bytes; only emergency messages enter.

        A message addressed to this node (or to any station, when this
        node is one) terminates here instead of re-entering the queues.
        The bytes are decoded once; an accepted message is left in
        `last_received` for the caller.  The codec is canonical, so the
        received bytes are the message's encoding and its queue entry
        holds them.
        """
        self.last_received = None
        try:
            msg = decode_message(data)
        except (MalformedDocument, InvariantViolation):
            self.ignored_count += 1
            return ReceiveResult.IGNORED
        self.last_received = msg
        self._admit(msg, data, terminates_at(self.self_id, msg.dst))
        return _ACCEPTED

    def inject(self, msg: EmergencyMessage,
               data: Optional[bytes] = None) -> Optional[ForwardOutcome]:
        """Admit locally originated traffic; self-addressed messages still
        travel the loopback link rather than short-circuiting.

        `data` is msg's encoding when the caller already holds it.
        """
        return self._admit(msg, data, False)

    def _admit(self, msg: EmergencyMessage, data: Optional[bytes],
               terminal: bool) -> Optional[ForwardOutcome]:
        """Count msg accepted, then drop a duplicate, deliver a terminal
        message here, or enqueue it, counting it if held and it resolves."""
        msg_id = msg.msg_id
        self.accepted[msg_id] = self.accepted.get(msg_id, 0) + 1
        if msg_id in self._delivered_ids:
            return self._drop(msg, DropReason.DUPLICATE)
        if terminal:
            self.delivered[msg_id] = self.delivered.get(msg_id, 0) + 1
            self._remember_delivered(msg_id)
            self.delivered_log.append(msg)
            return None
        outcome = self.enqueue(msg, data)
        if (outcome is None and self.routable is not None
                and self._next_hop(msg.dst) is not None):
            self.routable += 1
        return outcome

    def _drop(self, msg: EmergencyMessage, reason: DropReason) -> ForwardOutcome:
        self.dropped[msg.msg_id] = self.dropped.get(msg.msg_id, 0) + 1
        self.drop_reasons[reason] += 1
        return ForwardOutcome(OutcomeKind.DROPPED, msg, reason=reason)

    def _remember_delivered(self, msg_id: int) -> None:
        self._delivered_ids[msg_id] = None
        self._delivered_ids.move_to_end(msg_id)
        while len(self._delivered_ids) > DELIVERED_LRU_SIZE:
            self._delivered_ids.popitem(last=False)

    # -- queue discipline ---------------------------------------------------

    def enqueue(self, msg: EmergencyMessage,
                data: Optional[bytes] = None) -> Optional[ForwardOutcome]:
        """FIFO insert at msg.priority, evicting 4-then-3 tails on pressure.

        `data` is msg's encoding when the caller already holds it; the
        entry keeps it and is sized by it.  Returns None when the message
        is queued (or swapped), or a Dropped(RamExhausted) outcome when
        queues 0-2 alone exceed the budget and nothing swappable remains.
        """
        if data is None:
            data = encode_message(msg)
        entry = _Entry(msg, data, self._seq)
        self._seq += 1
        self.queues[msg.priority].append(entry)
        self.ram_used += len(data)
        while self.ram_used > self.ram_budget:
            evictable = next(
                (p for p in reversed(SWAPPABLE_PRIORITIES) if self.queues[p]), None
            )
            if evictable is None:
                break
            victim = self.queues[evictable].pop()  # newest first
            self.ram_used -= len(victim.data)
            bisect.insort(self.swap_store, victim, key=lambda e: e.seq)
        if self.ram_used > self.ram_budget:
            tail = self.queues[msg.priority].pop()
            assert tail is entry
            self.ram_used -= len(data)
            return self._drop(msg, DropReason.RAM_EXHAUSTED)
        return None

    def _pop_entry(self) -> Optional[tuple[_Entry, int]]:
        for level, queue in enumerate(self.queues):
            if queue:
                entry = queue.popleft()
                self.ram_used -= len(entry.data)
                return entry, level
        return None

    def promote_queues(self) -> None:
        """Shift every queue one level up, rewriting priorities; FIFO kept.

        Queue 1 joins queue 0's tail and the deques above it move down whole.
        """
        queues = self.queues
        for level in range(1, PRIORITY_LEVELS):
            for entry in queues[level]:
                entry.msg.priority = level - 1
        queues[0].extend(queues.pop(1))
        queues.append(deque())

    def swap_in(self) -> int:
        """Re-admit swapped messages once queues 0 and 1 are both empty.

        Processes one snapshot of the store per call; re-eviction under
        pressure lands messages back in the store without looping.  An
        entry is re-admitted with its held bytes.
        """
        if self.queues[0] or self.queues[1] or not self.swap_store:
            return 0
        batch, self.swap_store = self.swap_store, []
        for entry in batch:
            self.enqueue(entry.msg, entry.data)
        return len(batch)

    # -- routes and the per-tick pipeline -------------------------------------

    def set_routes(self, routes: dict[NodeId, tuple[NodeId, int]]) -> bool:
        """Send by routes from now on; return whether they changed.

        A table equal to the held one resolves every destination the
        same way, so the routable count stands; any other table starts
        it over.  The bank keeps the table it is given: a caller hands
        over a new table rather than changing the held one in place.
        """
        changed = routes != self.routes
        if changed:
            self.routable = None
        self.routes = routes
        return changed

    @property
    def wants_tick(self) -> bool:
        """The bank holds messages and custody is not parked."""
        return self.routable != 0 and bool(any(self.queues) or self.swap_store)

    def _next_hop(self, dst: NodeId) -> Optional[NodeId]:
        if terminates_at(self.self_id, dst):
            return self.self_id  # goes out over the loopback link
        return resolve_next_hop(self.routes, dst)

    def forward_tick(self) -> list[ForwardOutcome]:
        """Swap in if eligible, then attempt to send one message.

        A delivery carries the message's wire bytes: its held bytes with
        the current priority and the new hop count spliced in.
        """
        self.swap_in()
        popped = self._pop_entry()
        if popped is None:
            return []
        entry, level = popped
        msg = entry.msg
        next_hop = self._next_hop(msg.dst)
        if next_hop is None:
            # Demote one level (saturating) and requeue with the held bytes.
            msg.priority = min(msg.priority + 1, LOWEST_PRIORITY)
            self.enqueue(msg, entry.data)
            if self.routable is None:
                self.routable = sum(
                    1 for e in itertools.chain(*self.queues, self.swap_store)
                    if self._next_hop(e.msg.dst) is not None)
            return [ForwardOutcome(OutcomeKind.UNREACHABLE, msg)]
        if self.routable:
            self.routable -= 1
        msg.hop_count += 1
        data = splice_hop(entry.data, msg.priority, msg.hop_count)
        self.delivered[msg.msg_id] = self.delivered.get(msg.msg_id, 0) + 1
        if next_hop != self.self_id:
            # A loopback send comes straight back; remembering it here
            # would make the terminal receive look like a duplicate.
            self._remember_delivered(msg.msg_id)
        if not self.queues[level] and any(self.queues):
            self.promote_queues()
        return [ForwardOutcome(_DELIVERED, msg, next_hop=next_hop, data=data)]

    # -- handoff and introspection -------------------------------------------

    def _drain_entries(self, hops: int) -> list[tuple[EmergencyMessage, bytes]]:
        """Empty the bank: each held message, its hop count raised by hops,
        with the held bytes spliced to its current priority and hop count."""
        out = []
        for entry in itertools.chain(*self.queues, self.swap_store):
            msg = entry.msg
            msg.hop_count += hops
            out.append((msg, splice_hop(entry.data, msg.priority, msg.hop_count)))
        for queue in self.queues:
            queue.clear()
        self.swap_store = []
        self.ram_used = 0
        if out:
            # Only when something left: a count started on an empty bank
            # would park the next unroutable arrival before its demotion.
            self.routable = 0
        return out

    def drain_for_backup(self) -> list[tuple[EmergencyMessage, bytes]]:
        """Remove everything queued or swapped, marking it backed up."""
        out = self._drain_entries(0)
        for msg, _ in out:
            self.backed_up[msg.msg_id] = self.backed_up.get(msg.msg_id, 0) + 1
        return out

    def flush_to(self, next_hop: NodeId) -> list[tuple[EmergencyMessage, bytes]]:
        """Evacuate everything held toward next_hop (low-battery handoff)."""
        out = self._drain_entries(1)
        for msg, _ in out:
            self.delivered[msg.msg_id] = self.delivered.get(msg.msg_id, 0) + 1
            self._remember_delivered(msg.msg_id)
        return out

    def conservation_holds(self) -> bool:
        """accepted = delivered + queued + swapped + backed-up + dropped.

        Compared as sorted lists of ids, which builds no Counter sums.
        """
        disposed = sorted(itertools.chain(
            self.delivered.elements(), self.dropped.elements(),
            self.backed_up.elements(),
            (e.msg.msg_id for q in self.queues for e in q),
            (e.msg.msg_id for e in self.swap_store)))
        return sorted(self.accepted.elements()) == disposed

    def snapshot(self) -> dict:
        return {
            "node": str(self.self_id),
            "queue_lengths": [len(q) for q in self.queues],
            "swap_depth": len(self.swap_store),
            "ram_used": self.ram_used,
            "accepted": sum(self.accepted.values()),
            "delivered": sum(self.delivered.values()),
            "dropped": sum(self.dropped.values()),
            "ignored": self.ignored_count,
        }

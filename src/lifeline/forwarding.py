"""Forward message engine: accept-and-filter plus priority scheduling.

Five FIFO queues (priority 0 is most urgent) share a RAM budget of
encoded-message bytes.  Overflow pushes priority-3/4 traffic to a swap
store; failures demote; a delivery that drains the head queue promotes
every queue one level.  Every message instance a bank accepts is tracked
through to a terminal disposition so multiset conservation is checkable
at any step.
"""

from __future__ import annotations

import bisect
from collections import Counter, OrderedDict, deque
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .messages import (
    CONTROL_MAGIC,
    PRIORITY_LEVELS,
    EmergencyMessage,
    InvariantViolation,
    MalformedDocument,
    NodeId,
    decode_message,
    encoded_size,
)

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


@dataclass(frozen=True)
class ForwardOutcome:
    kind: OutcomeKind
    message: EmergencyMessage
    next_hop: Optional[NodeId] = None
    reason: Optional[DropReason] = None


@dataclass
class _Entry:
    msg: EmergencyMessage
    size: int
    seq: int
    swapped_priority: Optional[int] = None


def resolve_next_hop(routing_table: dict[NodeId, tuple[NodeId, int]],
                     dst: NodeId) -> Optional[NodeId]:
    """Exact-match route, else any station for a station-range destination."""
    if dst in routing_table:
        return routing_table[dst][0]
    if dst.is_station_address:
        stations = [d for d in routing_table if d.is_station_address]
        if stations:
            return routing_table[min(stations)][0]
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

    # -- admission --------------------------------------------------------

    def receive(self, data: bytes) -> ReceiveResult:
        """Filter arbitrary received bytes; only emergency messages enter.

        A message addressed to this node (or to any station, when this
        node is one) terminates here instead of re-entering the queues.
        The bytes are decoded once; an accepted message is left in
        `last_received` for the caller.  The codec is canonical, so the
        queue entry is sized by the received bytes themselves.
        """
        self.last_received = None
        if data.startswith(CONTROL_MAGIC):
            self.ignored_count += 1
            return ReceiveResult.IGNORED
        try:
            msg = decode_message(data)
        except (MalformedDocument, InvariantViolation):
            self.ignored_count += 1
            return ReceiveResult.IGNORED
        self.last_received = msg
        self.accepted[msg.msg_id] = self.accepted.get(msg.msg_id, 0) + 1
        if self._is_local_destination(msg.dst):
            self._deliver_terminal(msg)
        elif msg.msg_id in self._delivered_ids:
            self._drop(msg, DropReason.DUPLICATE)
        else:
            self.enqueue(msg, len(data))
        return ReceiveResult.ACCEPTED

    def inject(self, msg: EmergencyMessage) -> Optional[ForwardOutcome]:
        """Admit locally originated traffic; self-addressed messages still
        travel the loopback link rather than short-circuiting."""
        self.accepted[msg.msg_id] = self.accepted.get(msg.msg_id, 0) + 1
        if msg.msg_id in self._delivered_ids:
            return self._drop(msg, DropReason.DUPLICATE)
        return self.enqueue(msg)

    def _is_local_destination(self, dst: NodeId) -> bool:
        if dst == self.self_id:
            return True
        # Any station satisfies a message addressed into the reserved range.
        return dst.is_station_address and self.self_id.is_station_address

    def _deliver_terminal(self, msg: EmergencyMessage) -> None:
        if msg.msg_id in self._delivered_ids:
            self._drop(msg, DropReason.DUPLICATE)
            return
        self.delivered[msg.msg_id] = self.delivered.get(msg.msg_id, 0) + 1
        self._remember_delivered(msg.msg_id)
        self.delivered_log.append(msg)

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
                size: Optional[int] = None) -> Optional[ForwardOutcome]:
        """FIFO insert at msg.priority, evicting 4-then-3 tails on pressure.

        `size` is msg's encoded size when the caller already knows it.
        Returns None when the message is queued (or swapped), or a
        Dropped(RamExhausted) outcome when queues 0-2 alone exceed the
        budget and nothing swappable remains.
        """
        if size is None:
            size = encoded_size(msg)
        entry = _Entry(msg, size, self._seq)
        self._seq += 1
        self.queues[msg.priority].append(entry)
        self.ram_used += entry.size
        while self.ram_used > self.ram_budget:
            evictable = next(
                (p for p in reversed(SWAPPABLE_PRIORITIES) if self.queues[p]), None
            )
            if evictable is None:
                break
            victim = self.queues[evictable].pop()  # newest first
            self.ram_used -= victim.size
            victim.swapped_priority = victim.msg.priority
            bisect.insort(self.swap_store, victim, key=lambda e: e.seq)
        if self.ram_used > self.ram_budget:
            tail = self.queues[msg.priority].pop()
            assert tail is entry
            self.ram_used -= entry.size
            return self._drop(msg, DropReason.RAM_EXHAUSTED)
        return None

    def _pop_entry(self) -> Optional[tuple[_Entry, int]]:
        for level, queue in enumerate(self.queues):
            if queue:
                entry = queue.popleft()
                self.ram_used -= entry.size
                return entry, level
        return None

    def on_send_failure(self, msg: EmergencyMessage) -> None:
        """Demote a just-dequeued message one level (saturating) and requeue."""
        msg.priority = min(msg.priority + 1, LOWEST_PRIORITY)
        self.enqueue(msg)

    def promote_queues(self) -> None:
        """Shift every queue one level up, rewriting priorities; FIFO kept."""
        for level in range(1, PRIORITY_LEVELS):
            moved = self.queues[level]
            self.queues[level] = deque()
            for entry in moved:
                entry.msg.priority = level - 1
            self.queues[level - 1].extend(moved)

    def swap_in(self) -> int:
        """Re-admit swapped messages once queues 0 and 1 are both empty.

        Processes one snapshot of the store per call; re-eviction under
        pressure lands messages back in the store without looping.
        """
        if self.queues[0] or self.queues[1] or not self.swap_store:
            return 0
        batch, self.swap_store = self.swap_store, []
        for entry in batch:
            self.enqueue(entry.msg)
        return len(batch)

    # -- the per-tick pipeline ---------------------------------------------

    def forward_tick(self, routing_table: dict[NodeId, tuple[NodeId, int]],
                     now: int = 0) -> list[ForwardOutcome]:
        """Swap in if eligible, then attempt to send one message."""
        self.swap_in()
        popped = self._pop_entry()
        if popped is None:
            return []
        entry, level = popped
        msg = entry.msg
        if self._is_local_destination(msg.dst):
            next_hop = self.self_id  # goes out over the loopback link
        else:
            next_hop = resolve_next_hop(routing_table, msg.dst)
        if next_hop is None:
            self.on_send_failure(msg)
            return [ForwardOutcome(OutcomeKind.UNREACHABLE, msg)]
        msg.hop_count += 1
        self.delivered[msg.msg_id] = self.delivered.get(msg.msg_id, 0) + 1
        if next_hop != self.self_id:
            # A loopback send comes straight back; remembering it here
            # would make the terminal receive look like a duplicate.
            self._remember_delivered(msg.msg_id)
        if not self.queues[level]:
            self.promote_queues()
        return [ForwardOutcome(OutcomeKind.DELIVERED, msg, next_hop=next_hop)]

    # -- handoff and introspection -------------------------------------------

    def _drain_entries(self) -> list[EmergencyMessage]:
        out: list[EmergencyMessage] = []
        for queue in self.queues:
            while queue:
                out.append(queue.popleft().msg)
        out.extend(entry.msg for entry in self.swap_store)
        self.swap_store = []
        self.ram_used = 0
        return out

    def drain_for_backup(self) -> list[EmergencyMessage]:
        """Remove everything queued or swapped, marking it backed up."""
        out = self._drain_entries()
        for msg in out:
            self.backed_up[msg.msg_id] = self.backed_up.get(msg.msg_id, 0) + 1
        return out

    def flush_to(self, next_hop: NodeId) -> list[EmergencyMessage]:
        """Evacuate everything held toward next_hop (low-battery handoff)."""
        out = self._drain_entries()
        for msg in out:
            msg.hop_count += 1
            self.delivered[msg.msg_id] = self.delivered.get(msg.msg_id, 0) + 1
            self._remember_delivered(msg.msg_id)
        return out

    def queued_ids(self) -> Counter:
        live: Counter[int] = Counter(
            e.msg.msg_id for q in self.queues for e in q
        )
        return live

    def swapped_ids(self) -> Counter:
        return Counter(e.msg.msg_id for e in self.swap_store)

    def conservation_holds(self) -> bool:
        """accepted = delivered + queued + swapped + backed-up + dropped."""
        live = self.queued_ids() + self.swapped_ids()
        return self.accepted == self.delivered + self.dropped + self.backed_up + live

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

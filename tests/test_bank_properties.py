"""State-machine test of the queue bank: conservation, FIFO within a level,
the swap-in gate, saturating demotion, held wire bytes and the routable
count behind parked custody over random operation sequences."""

from collections import Counter

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from lifeline.forwarding import (
    LOWEST_PRIORITY,
    SWAPPABLE_PRIORITIES,
    OutcomeKind,
    PriorityQueueBank,
    ReceiveResult,
    resolve_next_hop,
    terminates_at,
)
from lifeline.messages import (
    MAX_PAYLOAD_BYTES,
    PRIORITY_LEVELS,
    STATION_RANGE_START,
    EmergencyMessage,
    NodeId,
    encode_message,
    make_msg_id,
    splice_hop,
)

SELF = NodeId(1)
PEER = NodeId(2)
SRC = NodeId(3)
FAR = NodeId(99)
STATION = NodeId(STATION_RANGE_START)
# Three to eight messages fit, so swapping and RAM drops both happen.
RAM_BUDGET = 2_000
# Under ROUTES every destination below resolves except UNROUTED.
UNROUTED = NodeId(98)
ROUTES = {FAR: (PEER, 2), NodeId(STATION_RANGE_START + 5): (PEER, 3)}

priorities = st.integers(0, PRIORITY_LEVELS - 1)
destinations = st.sampled_from([FAR, UNROUTED, SELF, STATION])
payload_sizes = st.integers(1, MAX_PAYLOAD_BYTES)


def layout(bank: PriorityQueueBank) -> list[list[int]]:
    """msg_ids per queue level, head first."""
    return [[e.msg.msg_id for e in q] for q in bank.queues]


class BankMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.bank = PriorityQueueBank(SELF, ram_budget=RAM_BUDGET)
        self.counter = 0
        self.admitted: Counter[int] = Counter()
        self.last_layout = layout(self.bank)
        # A message popped and requeued by the last step may change place.
        self.requeued = None
        # Priority of each swapped entry (by seq) after the last step.
        self.store_priority: dict[int, int] = {}

    def fresh(self, priority, dst, size) -> EmergencyMessage:
        self.counter += 1
        return EmergencyMessage(msg_id=make_msg_id(SRC, self.counter), src=SRC,
                                dst=dst, priority=priority,
                                payload=b"m" * size, sender_load=0)

    @rule(priority=priorities, dst=destinations, size=payload_sizes)
    def inject(self, priority, dst, size):
        msg = self.fresh(priority, dst, size)
        self.bank.inject(msg)
        self.admitted[msg.msg_id] += 1

    @rule(priority=priorities, dst=destinations, size=payload_sizes)
    def receive(self, priority, dst, size):
        msg = self.fresh(priority, dst, size)
        assert self.bank.receive(encode_message(msg)) is ReceiveResult.ACCEPTED
        self.admitted[msg.msg_id] += 1

    @rule(junk=st.binary(max_size=64))
    def receive_junk(self, junk):
        assert self.bank.receive(junk) is ReceiveResult.IGNORED

    @rule(routed=st.booleans())
    def set_routes(self, routed):
        self.bank.set_routes(ROUTES if routed else {})

    @rule()
    def forward_tick(self):
        # Ticks under the routes the last set_routes left, so the routable
        # count lives across ticks, arrivals and sends.
        bank = self.bank
        before = layout(bank)
        priority = {e.msg.msg_id: e.msg.priority for q in bank.queues for e in q}
        priority.update((e.msg.msg_id, e.msg.priority) for e in bank.swap_store)
        swapped = [e.msg.msg_id for e in bank.swap_store]
        gate_open = not before[0] and not before[1]

        outcomes = bank.forward_tick()

        if not any(before) and not swapped:
            assert outcomes == []
            return
        (outcome,) = outcomes
        msg = outcome.message
        if not gate_open:
            # The swap-in gate: nothing leaves the store while queue 0 or 1
            # holds a message.
            assert set(swapped) <= {e.msg.msg_id for e in bank.swap_store}
        if not (gate_open and swapped):
            head = next(q[0] for q in before if q)
            assert msg.msg_id == head
        if outcome.kind is OutcomeKind.UNREACHABLE:
            assert msg.priority == min(priority[msg.msg_id] + 1, LOWEST_PRIORITY)
            self.requeued = msg.msg_id
        else:
            assert outcome.kind is OutcomeKind.DELIVERED
            assert outcome.next_hop == (SELF if msg.dst == SELF else PEER)
            assert outcome.data == encode_message(msg)

    @rule(to_peer=st.booleans())
    def flush(self, to_peer):
        held = {e.msg.msg_id for q in self.bank.queues for e in q}
        held.update(e.msg.msg_id for e in self.bank.swap_store)
        if to_peer:
            out = self.bank.flush_to(PEER)
        else:
            out = self.bank.drain_for_backup()
        assert sorted(msg.msg_id for msg, _ in out) == sorted(held)
        # Each message leaves with its encoding: hop count and priority as
        # they are now, spliced into the held bytes.
        assert all(data == encode_message(msg) for msg, data in out)
        assert not any(self.bank.queues) and not self.bank.swap_store
        assert self.bank.ram_used == 0

    @invariant()
    def conserved(self):
        assert self.bank.accepted == self.admitted
        assert self.bank.conservation_holds()

    @invariant()
    def routable_count_matches_a_scan(self):
        bank = self.bank
        held = [e for q in bank.queues for e in q] + bank.swap_store
        if bank.routable is not None:
            assert bank.routable == sum(
                1 for e in held
                if terminates_at(SELF, e.msg.dst)
                or resolve_next_hop(bank.routes, e.msg.dst) is not None)
        assert bank.wants_tick == (bank.routable != 0 and bool(held))

    @invariant()
    def levels_and_ram_consistent(self):
        bank = self.bank
        for level, queue in enumerate(bank.queues):
            assert all(e.msg.priority == level for e in queue)
        assert all(e.msg.priority in SWAPPABLE_PRIORITIES
                   for e in bank.swap_store)
        seqs = [e.seq for e in bank.swap_store]
        assert seqs == sorted(seqs)
        assert bank.ram_used == sum(len(e.data) for q in bank.queues for e in q)
        assert bank.ram_used <= bank.ram_budget

    @invariant()
    def held_bytes_splice_to_the_message_and_stored_priority_holds(self):
        # An entry keeps the bytes it was admitted with; only priority and
        # hop count may have moved since, and splicing them in gives the
        # message's encoding.
        bank = self.bank
        held = [e for q in bank.queues for e in q] + bank.swap_store
        assert all(splice_hop(e.data, e.msg.priority, e.msg.hop_count)
                   == encode_message(e.msg) for e in held)
        assert all(e.msg.priority == self.store_priority[e.seq]
                   for e in bank.swap_store if e.seq in self.store_priority)
        self.store_priority = {e.seq: e.msg.priority for e in bank.swap_store}

    @invariant()
    def fifo_within_a_level(self):
        # Two messages that shared a queue before a step and share one after
        # it keep their order; promotion moves whole queues.
        now = layout(self.bank)
        for old in self.last_layout:
            for new in now:
                common = set(old) & set(new) - {self.requeued}
                assert ([i for i in old if i in common]
                        == [i for i in new if i in common])
        self.last_layout = now
        self.requeued = None


BankMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None, database=None,
    suppress_health_check=[HealthCheck.too_slow])
test_bank_state_machine = BankMachine.TestCase

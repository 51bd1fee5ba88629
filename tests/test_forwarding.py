"""Queue bank: admission, scheduling, swap, demotion, conservation."""

import random
from collections import Counter

import pytest

from lifeline.forwarding import (
    DropReason,
    ForwardOutcome,
    OutcomeKind,
    PriorityQueueBank,
    ReceiveResult,
    resolve_next_hop,
)
from lifeline.messages import (
    STATION_RANGE_START,
    EmergencyMessage,
    NodeId,
    encode_message,
    make_msg_id,
)

SELF = NodeId(1)
PEER = NodeId(2)
STATION = NodeId(STATION_RANGE_START)
FAR = NodeId(99)

_counter = 0


def make_msg(priority=2, dst=FAR, src=PEER, payload=b"x" * 16):
    global _counter
    _counter += 1
    return EmergencyMessage(
        msg_id=make_msg_id(src, _counter), src=src, dst=dst,
        priority=priority, payload=payload, sender_load=10,
    )


def msg_size(msg):
    return len(encode_message(msg))


def budget_for(n_messages):
    return n_messages * msg_size(make_msg())


# A route table under which make_msg's default destination resolves.
ROUTES = {FAR: (PEER, 2)}


def tick_once(bank, table):
    bank.set_routes(table)
    (outcome,) = bank.forward_tick()
    return outcome


# --- receive ---------------------------------------------------------------

def test_valid_emergency_bytes_accepted():
    bank = PriorityQueueBank(SELF)
    msg = make_msg(priority=3)
    assert bank.receive(encode_message(msg)) is ReceiveResult.ACCEPTED
    assert len(bank.queues[3]) == 1


def test_junk_bytes_ignored():
    bank = PriorityQueueBank(SELF)
    assert bank.receive(b"\x00junk") is ReceiveResult.IGNORED
    assert all(len(q) == 0 for q in bank.queues)
    assert bank.ignored_count == 1


def test_control_document_bytes_ignored():
    # Control packets travel by value; bytes shaped like one are junk.
    bank = PriorityQueueBank(SELF)
    data = b'<lifeline-ctl v="1"><kind>tc</kind></lifeline-ctl>'
    assert bank.receive(data) is ReceiveResult.IGNORED
    assert bank.ignored_count == 1
    assert bank.last_received is None


def test_interleaved_valid_and_junk_accept_count():
    bank = PriorityQueueBank(SELF)
    rng = random.Random(0xACC)
    accepted = 0
    for i in range(2000):
        if i % 2 == 0:
            result = bank.receive(encode_message(make_msg(priority=rng.randrange(5))))
        else:
            result = bank.receive(rng.randbytes(rng.randint(1, 200)))
        accepted += result is ReceiveResult.ACCEPTED
    assert accepted == 1000
    assert bank.ignored_count == 1000
    assert sum(bank.accepted.values()) == 1000


def test_message_for_us_lands_in_delivered_log():
    bank = PriorityQueueBank(SELF)
    msg = make_msg(dst=SELF)
    bank.receive(encode_message(msg))
    assert [m.msg_id for m in bank.delivered_log] == [msg.msg_id]
    assert all(len(q) == 0 for q in bank.queues)


def test_station_accepts_any_station_range_destination():
    bank = PriorityQueueBank(NodeId(STATION_RANGE_START + 7))
    msg = make_msg(dst=STATION)
    bank.receive(encode_message(msg))
    assert len(bank.delivered_log) == 1


def test_redelivered_id_dropped_as_duplicate():
    bank = PriorityQueueBank(SELF)
    msg = make_msg(dst=SELF)
    bank.receive(encode_message(msg))
    bank.receive(encode_message(msg))
    assert len(bank.delivered_log) == 1
    assert bank.drop_reasons[DropReason.DUPLICATE] == 1
    assert bank.conservation_holds()


# --- enqueue and RAM pressure ------------------------------------------------

def test_enqueue_appends_to_priority_queue():
    bank = PriorityQueueBank(SELF)
    msg = make_msg(priority=2)
    assert bank.enqueue(msg) is None
    assert [e.msg for e in bank.queues[2]] == [msg]
    assert bank.ram_used == msg_size(msg)


def test_overflowing_priority4_message_swaps_out():
    bank = PriorityQueueBank(SELF, ram_budget=budget_for(10))
    for _ in range(5):
        bank.enqueue(make_msg(priority=1))
    for _ in range(5):
        bank.enqueue(make_msg(priority=4))
    assert bank.enqueue(make_msg(priority=4)) is None
    assert len(bank.swap_store) == 1
    assert bank.swap_store[0].msg.priority == 4
    assert bank.ram_used <= bank.ram_budget


def test_eviction_prefers_queue4_then_queue3_newest_first():
    bank = PriorityQueueBank(SELF, ram_budget=budget_for(4))
    q3a = make_msg(priority=3)
    q3b = make_msg(priority=3)
    q4a = make_msg(priority=4)
    q4b = make_msg(priority=4)
    for m in (q3a, q3b, q4a, q4b):
        bank.enqueue(m)
    incoming = make_msg(priority=0)
    bank.enqueue(incoming)
    # Newest of queue 4 goes first.
    assert [e.msg.msg_id for e in bank.swap_store] == [q4b.msg_id]
    bank.enqueue(make_msg(priority=0))
    assert {e.msg.msg_id for e in bank.swap_store} == {q4b.msg_id, q4a.msg_id}
    bank.enqueue(make_msg(priority=0))
    assert q3b.msg_id in {e.msg.msg_id for e in bank.swap_store}
    assert q3a.msg_id not in {e.msg.msg_id for e in bank.swap_store}


def test_uniform_fill_swaps_only_low_priorities():
    rng = random.Random(0x5A)
    bank = PriorityQueueBank(SELF, ram_budget=budget_for(100))
    for _ in range(500):
        bank.inject(make_msg(priority=rng.randrange(5)))
    assert bank.swap_store, "expected memory pressure"
    assert all(e.msg.priority in (3, 4) for e in bank.swap_store)
    assert bank.ram_used <= bank.ram_budget
    assert bank.conservation_holds()


def test_urgent_overflow_drops_when_nothing_swappable():
    bank = PriorityQueueBank(SELF, ram_budget=budget_for(3))
    for _ in range(3):
        assert bank.inject(make_msg(priority=0)) is None
    outcome = bank.inject(make_msg(priority=1))
    assert outcome is not None
    assert outcome.kind is OutcomeKind.DROPPED
    assert outcome.reason is DropReason.RAM_EXHAUSTED
    assert len(bank.queues[1]) == 0
    assert bank.ram_used <= bank.ram_budget
    assert bank.conservation_holds()
    assert bank.drop_reasons[DropReason.RAM_EXHAUSTED] == 1


# --- dequeue discipline ------------------------------------------------------

def test_dequeue_prefers_lowest_index_queue():
    bank = PriorityQueueBank(SELF)
    low = make_msg(priority=3)
    urgent = make_msg(priority=0)
    bank.enqueue(low)
    bank.enqueue(urgent)
    assert tick_once(bank, ROUTES).message.msg_id == urgent.msg_id


def test_dequeue_empty_bank_returns_none():
    bank = PriorityQueueBank(SELF)
    bank.set_routes(ROUTES)
    assert bank.forward_tick() == []


def test_full_drain_priorities_non_decreasing():
    rng = random.Random(0xD2)
    bank = PriorityQueueBank(SELF)
    sent = [make_msg(priority=rng.randrange(5)) for _ in range(300)]
    original = {m.msg_id: m.priority for m in sent}
    for m in sent:
        bank.enqueue(m)
    bank.set_routes(ROUTES)
    drained = []
    while outcomes := bank.forward_tick():
        drained.append(outcomes[0].message.msg_id)
    # Promotion shifts whole queues, so sends follow the enqueue-time
    # priority, FIFO within a level.
    assert drained == [m.msg_id for m in
                       sorted(sent, key=lambda m: original[m.msg_id])]
    assert bank.ram_used == 0


# --- demotion ----------------------------------------------------------------

def test_failure_demotes_one_level():
    bank = PriorityQueueBank(SELF)
    msg = make_msg(priority=0)
    bank.enqueue(msg)
    assert tick_once(bank, {}).kind is OutcomeKind.UNREACHABLE
    assert msg.priority == 1
    assert [e.msg for e in bank.queues[1]] == [msg]


def test_demotion_saturates_at_lowest_level():
    bank = PriorityQueueBank(SELF)
    msg = make_msg(priority=4)
    bank.enqueue(msg)
    tick_once(bank, {})
    assert msg.priority == 4
    assert [e.msg for e in bank.queues[4]] == [msg]


def test_repeated_failures_trace_saturating_sequence():
    bank = PriorityQueueBank(SELF)
    msg = make_msg(priority=0)
    bank.enqueue(msg)
    trace = [tick_once(bank, {}).message.priority for _ in range(10)]
    assert trace == [1, 2, 3, 4, 4, 4, 4, 4, 4, 4]


# --- promotion ---------------------------------------------------------------

def test_promotion_is_a_pure_shift():
    bank = PriorityQueueBank(SELF)
    msgs = [make_msg(priority=p) for p in (1, 2, 3, 4)]
    for m in msgs:
        bank.enqueue(m)
    bank.promote_queues()
    for new_level, msg in enumerate(msgs):
        assert [e.msg for e in bank.queues[new_level]] == [msg]
        assert msg.priority == new_level
    assert len(bank.queues[4]) == 0


def test_promoting_empty_bank_is_noop():
    bank = PriorityQueueBank(SELF)
    bank.promote_queues()
    assert all(len(q) == 0 for q in bank.queues)


def test_four_promotions_land_everything_in_queue_zero():
    rng = random.Random(0xB4)
    bank = PriorityQueueBank(SELF)
    for _ in range(50):
        bank.enqueue(make_msg(priority=rng.randrange(5)))
    total = sum(len(q) for q in bank.queues)
    for _ in range(4):
        bank.promote_queues()
    assert len(bank.queues[0]) == total
    assert all(e.msg.priority == 0 for e in bank.queues[0])


# --- swap-in -----------------------------------------------------------------

def overflow_bank(n_fit=4, n_low=6):
    bank = PriorityQueueBank(SELF, ram_budget=budget_for(n_fit))
    for _ in range(n_low):
        bank.enqueue(make_msg(priority=4))
    return bank


def test_swap_in_restores_when_urgent_queues_empty():
    bank = PriorityQueueBank(SELF, ram_budget=budget_for(2))
    for _ in range(7):
        bank.inject(make_msg(priority=4))
    assert len(bank.swap_store) == 5
    bank.ram_budget = budget_for(100)  # memory pressure lifted
    assert bank.swap_in() == 5
    assert bank.swap_store == []
    assert sum(len(q) for q in bank.queues) == 7
    assert all(e.msg.priority == 4 for e in bank.queues[4])
    assert bank.conservation_holds()


def test_swap_in_blocked_by_nonempty_queue_zero():
    bank = overflow_bank()
    bank.enqueue(make_msg(priority=0))
    assert bank.swap_store
    before = len(bank.swap_store)
    assert bank.swap_in() == 0
    assert len(bank.swap_store) == before


def test_swap_in_blocked_by_nonempty_queue_one():
    bank = overflow_bank()
    bank.enqueue(make_msg(priority=1))
    assert bank.swap_in() == 0


def test_swap_in_preserves_original_order():
    bank = PriorityQueueBank(SELF, ram_budget=budget_for(3))
    msgs = [make_msg(priority=4) for _ in range(6)]
    for m in msgs:
        bank.enqueue(m)
    swapped_order = [e.msg.msg_id for e in bank.swap_store]
    assert swapped_order == sorted(swapped_order, key=lambda i: [m.msg_id for m in msgs].index(i))
    roomy = PriorityQueueBank(SELF, ram_budget=budget_for(100))
    roomy.swap_store = bank.swap_store
    bank.swap_store = []
    roomy.swap_in()
    assert [e.msg.msg_id for e in roomy.queues[4]] == swapped_order


def test_swap_churn_conserves_multiset():
    rng = random.Random(0xC0)
    bank = PriorityQueueBank(SELF, ram_budget=budget_for(50))
    table = {FAR: (PEER, 2)}
    injected = Counter()
    for step in range(10_000):
        action = rng.random()
        if action < 0.5:
            msg = make_msg(priority=rng.randrange(5))
            injected[msg.msg_id] += 1
            bank.inject(msg)
        else:
            bank.set_routes(table if rng.random() < 0.7 else {})
            bank.forward_tick()
        if step % 1000 == 0:
            assert bank.conservation_holds()
    assert bank.conservation_holds()
    assert bank.accepted == injected


# --- forward_tick ------------------------------------------------------------

def test_tick_delivers_over_existing_route():
    bank = PriorityQueueBank(SELF)
    msg = make_msg(priority=0, dst=FAR)
    bank.inject(msg)
    bank.set_routes({FAR: (PEER, 2)})
    outcomes = bank.forward_tick()
    assert len(outcomes) == 1
    out = outcomes[0]
    assert out.kind is OutcomeKind.DELIVERED
    assert out.next_hop == PEER
    assert out.message.hop_count == 1
    assert bank.conservation_holds()


def test_tick_without_route_demotes():
    bank = PriorityQueueBank(SELF)
    msg = make_msg(priority=0, dst=FAR)
    bank.inject(msg)
    bank.set_routes({})
    outcomes = bank.forward_tick()
    assert outcomes[0].kind is OutcomeKind.UNREACHABLE
    assert msg.priority == 1
    assert len(bank.queues[1]) == 1
    assert bank.conservation_holds()


def test_tick_on_empty_bank_is_quiet():
    bank = PriorityQueueBank(SELF)
    bank.set_routes({})
    assert bank.forward_tick() == []


def test_tick_routes_station_range_destination_via_any_station():
    bank = PriorityQueueBank(SELF)
    other_station = NodeId(STATION_RANGE_START + 3)
    bank.inject(make_msg(dst=STATION))
    bank.set_routes({other_station: (PEER, 1)})
    outcomes = bank.forward_tick()
    assert outcomes[0].kind is OutcomeKind.DELIVERED
    assert outcomes[0].next_hop == PEER


def test_tick_to_self_goes_out_on_loopback():
    bank = PriorityQueueBank(SELF)
    bank.inject(make_msg(dst=SELF, src=SELF))
    bank.set_routes({})
    outcomes = bank.forward_tick()
    assert outcomes[0].kind is OutcomeKind.DELIVERED
    assert outcomes[0].next_hop == SELF


def test_loopback_round_trip_delivers_terminally():
    bank = PriorityQueueBank(SELF)
    msg = make_msg(dst=SELF, src=SELF)
    bank.inject(msg)
    bank.set_routes({})
    (outcome,) = bank.forward_tick()
    assert bank.receive(encode_message(outcome.message)) is ReceiveResult.ACCEPTED
    assert [m.msg_id for m in bank.delivered_log] == [msg.msg_id]
    assert bank.drop_reasons[DropReason.DUPLICATE] == 0
    assert bank.conservation_holds()


def test_delivery_that_empties_head_queue_promotes():
    bank = PriorityQueueBank(SELF)
    urgent = make_msg(priority=0)
    waiting = make_msg(priority=2)
    bank.inject(urgent)
    bank.inject(waiting)
    bank.set_routes({FAR: (PEER, 2)})
    bank.forward_tick()
    assert waiting.priority == 1
    assert [e.msg for e in bank.queues[1]] == [waiting]


def test_delivery_with_nonempty_head_queue_does_not_promote():
    bank = PriorityQueueBank(SELF)
    first = make_msg(priority=0)
    second = make_msg(priority=0)
    waiting = make_msg(priority=2)
    for m in (first, second, waiting):
        bank.inject(m)
    bank.set_routes({FAR: (PEER, 2)})
    bank.forward_tick()
    assert waiting.priority == 2


def test_equal_route_table_keeps_the_routable_count():
    bank = PriorityQueueBank(SELF)
    bank.inject(make_msg(dst=FAR))
    bank.inject(make_msg(dst=NodeId(77)))
    bank.set_routes({})
    bank.forward_tick()  # cannot send, so it counts the sendable messages
    assert bank.routable == 0
    bank.set_routes({})  # a new but equal table
    assert bank.routable == 0
    bank.set_routes(dict(ROUTES))
    assert bank.routable is None
    bank.forward_tick()
    counted = bank.routable
    assert counted is not None
    bank.set_routes(dict(ROUTES))
    assert bank.routable == counted


def test_line_of_banks_counts_hops_like_bfs():
    # r1 - r2 - r3 - r4, messages from r1 addressed to r4.
    nodes = [NodeId(i) for i in range(1, 5)]
    banks = {n: PriorityQueueBank(n) for n in nodes}
    tables = {
        nodes[0]: {nodes[3]: (nodes[1], 3)},
        nodes[1]: {nodes[3]: (nodes[2], 2)},
        nodes[2]: {nodes[3]: (nodes[3], 1)},
        nodes[3]: {},
    }
    sent = [make_msg(src=nodes[0], dst=nodes[3], priority=i % 5) for i in range(40)]
    for m in sent:
        banks[nodes[0]].inject(m)
    for n in nodes:
        banks[n].set_routes(tables[n])
    for _ in range(400):
        for n in nodes:
            for out in banks[n].forward_tick():
                if out.kind is OutcomeKind.DELIVERED and out.next_hop != n:
                    banks[out.next_hop].receive(encode_message(out.message))
    arrived = banks[nodes[3]].delivered_log
    assert len(arrived) == 40
    assert all(m.hop_count == 3 for m in arrived)
    assert all(banks[n].conservation_holds() for n in nodes)


# --- resolve_next_hop ---------------------------------------------------------

def test_resolver_prefers_exact_match():
    table = {STATION: (PEER, 2), FAR: (NodeId(7), 1)}
    assert resolve_next_hop(table, FAR) == NodeId(7)


def test_resolver_falls_back_to_nearest_station():
    # The low-battery handoff's rule (`station_route`): fewest hops, then
    # the lowest address, so the nearer s2 wins over the lower s1.
    s1 = NodeId(STATION_RANGE_START + 1)
    s2 = NodeId(STATION_RANGE_START + 9)
    table = {s1: (NodeId(7), 3), s2: (NodeId(8), 2)}
    assert resolve_next_hop(table, STATION) == NodeId(8)


def test_resolver_returns_none_without_route():
    assert resolve_next_hop({}, FAR) is None


def test_snapshot_shape():
    bank = PriorityQueueBank(SELF)
    bank.inject(make_msg(priority=1))
    snap = bank.snapshot()
    assert snap["queue_lengths"] == [0, 1, 0, 0, 0]
    assert snap["swap_depth"] == 0
    assert snap["ram_used"] > 0
    assert snap["accepted"] == 1


# --- handoff exits: flush and drain for backup ----------------------------------

def held_bank():
    """Five held messages whose held bytes are stale: one arrived with a
    hop count of 3, and an unroutable tick demoted the head from 0 to 1."""
    bank = PriorityQueueBank(SELF)
    held = [make_msg(priority=p) for p in (0, 2, 3, 4)]
    for m in held:
        bank.inject(m)
    relayed = make_msg(priority=2)
    relayed.hop_count = 3
    assert bank.receive(encode_message(relayed)) is ReceiveResult.ACCEPTED
    assert tick_once(bank, {}).kind is OutcomeKind.UNREACHABLE
    return bank, held + [relayed]


def assert_emptied(bank, out, held):
    assert sorted(m.msg_id for m, _ in out) == sorted(m.msg_id for m in held)
    assert all(data == encode_message(msg) for msg, data in out)
    assert not any(bank.queues) and bank.swap_store == []
    assert bank.ram_used == 0
    assert bank.conservation_holds()


def test_flush_hands_over_every_held_message_with_its_wire_bytes():
    bank, held = held_bank()
    hops = {m.msg_id: m.hop_count for m in held}
    out = bank.flush_to(PEER)
    assert_emptied(bank, out, held)
    assert all(m.hop_count == hops[m.msg_id] + 1 for m, _ in out)
    assert bank.delivered == Counter(m.msg_id for m in held)
    assert sum(bank.backed_up.values()) == 0


def test_drain_for_backup_hands_over_every_held_message_with_its_encoding():
    bank, held = held_bank()
    hops = {m.msg_id: m.hop_count for m in held}
    out = bank.drain_for_backup()
    assert_emptied(bank, out, held)
    assert all(m.hop_count == hops[m.msg_id] for m, _ in out)
    assert bank.backed_up == Counter(m.msg_id for m in held)
    assert sum(bank.delivered.values()) == 0


def test_flush_and_drain_take_swapped_messages_too():
    for evacuate in (lambda bank: bank.flush_to(PEER),
                     PriorityQueueBank.drain_for_backup):
        bank = PriorityQueueBank(SELF, ram_budget=budget_for(3))
        held = [make_msg(priority=4) for _ in range(8)]
        for m in held:
            bank.inject(m)
        assert len(bank.swap_store) == 5
        assert_emptied(bank, evacuate(bank), held)


# --- the conservation check itself -------------------------------------------

def one_held_one_sent():
    """A conserving bank: one message delivered onward, one still held."""
    bank = PriorityQueueBank(SELF)
    sent, held = make_msg(priority=0), make_msg(priority=2)
    bank.inject(sent)
    bank.inject(held)
    assert tick_once(bank, ROUTES).kind is OutcomeKind.DELIVERED
    return bank, sent.msg_id, held.msg_id


@pytest.mark.parametrize("break_it", [
    lambda bank, sent, held: bank.delivered.update([sent]),
    lambda bank, sent, held: bank.delivered.update([held]),
    lambda bank, sent, held: bank.accepted.update([held + 1]),
    lambda bank, sent, held: bank.dropped.update([held + 1]),
], ids=["extra-delivered", "held-and-delivered", "accepted-undisposed",
        "dropped-never-accepted"])
def test_conservation_check_catches_each_imbalance(break_it):
    bank, sent, held = one_held_one_sent()
    assert bank.conservation_holds()
    break_it(bank, sent, held)
    assert not bank.conservation_holds()

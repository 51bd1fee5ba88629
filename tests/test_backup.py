"""Backup option policy and the persistent log."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifeline.backup import (
    BackupAction,
    BackupDecision,
    BackupOption,
    BackupStore,
    NodeCondition,
    StorageFull,
    compile_policy,
    evaluate_policy,
    reads_node_condition,
)
from lifeline.forwarding import PriorityQueueBank
from lifeline.messages import (
    EmergencyMessage,
    InvariantViolation,
    NodeId,
    make_msg_id,
)

_counter = 0


def make_msg(priority=2, sender_load=10):
    global _counter
    _counter += 1
    return EmergencyMessage(
        msg_id=make_msg_id(NodeId(5), _counter), src=NodeId(5), dst=NodeId(9),
        priority=priority, payload=b"payload", sender_load=sender_load,
    )


def all_trigger_options():
    return {
        BackupOption(1), BackupOption(2), BackupOption(3, 60),
        BackupOption(4, 4), BackupOption(5, 5), BackupOption(6, 5),
    }


EAGER_MSG = dict(priority=0, sender_load=99)
EAGER_COND = NodeCondition(battery_percent=1, load_percent=99)


# --- option validation -------------------------------------------------------

def test_option_priorities_follow_the_table():
    assert [BackupOption(n, t).option_priority
            for n, t in ((1, None), (2, None), (3, 50), (4, 2), (5, 50), (6, 50))
            ] == [1, 1, 2, 2, 3, 3]


@pytest.mark.parametrize("number,threshold", [
    (1, 50), (2, 0),          # options 1-2 take no threshold
    (3, 0), (3, 101),
    (4, 5), (4, -1),
    (5, 0), (5, 100),
    (6, 0), (6, 100),
    (7, None), (0, None),
])
def test_invalid_option_rejected(number, threshold):
    with pytest.raises(InvariantViolation):
        BackupOption(number, threshold)


def test_decision_invariant_enforced():
    with pytest.raises(InvariantViolation):
        BackupDecision(BackupAction.NO_BACKUP, winning_option=1)
    with pytest.raises(InvariantViolation):
        BackupDecision(BackupAction.BACKUP_ON_RECEIVE)


# --- evaluate_policy ---------------------------------------------------------

def test_always_on_option_beats_load_option():
    enabled = {BackupOption(2), BackupOption(5, 5)}
    decision = evaluate_policy(enabled, make_msg(),
                               NodeCondition(battery_percent=80, load_percent=10))
    assert decision.winning_option == 2
    assert decision.action is BackupAction.BACKUP_AFTER_FORWARD


def test_no_options_no_backup():
    decision = evaluate_policy(set(), make_msg(), EAGER_COND)
    assert decision == BackupDecision(BackupAction.NO_BACKUP)


def test_low_battery_triggers_option3():
    decision = evaluate_policy({BackupOption(3, 60)}, make_msg(),
                               NodeCondition(battery_percent=50, load_percent=0))
    assert decision.winning_option == 3
    assert decision.action is BackupAction.BACKUP_ON_RECEIVE


def test_healthy_battery_does_not_trigger_option3():
    decision = evaluate_policy({BackupOption(3, 60)}, make_msg(),
                               NodeCondition(battery_percent=60, load_percent=0))
    assert decision.action is BackupAction.NO_BACKUP


def test_option4_threshold_zero_selects_only_top_priority():
    policy = {BackupOption(4, 0)}
    cond = NodeCondition(battery_percent=100, load_percent=0)
    assert evaluate_policy(policy, make_msg(priority=0), cond).winning_option == 4
    assert evaluate_policy(policy, make_msg(priority=1), cond).action is BackupAction.NO_BACKUP


def test_sender_load_checks_message_not_node():
    policy = {BackupOption(6, 50)}
    cond = NodeCondition(battery_percent=100, load_percent=100)
    assert evaluate_policy(policy, make_msg(sender_load=40), cond).action is BackupAction.NO_BACKUP
    assert evaluate_policy(policy, make_msg(sender_load=60), cond).winning_option == 6


def test_pairwise_tie_breaks_enumerated():
    # Every pair under all-triggering conditions: the (priority, number)
    # order decides, spelled out here independently of the implementation.
    options = sorted(all_trigger_options(), key=lambda o: o.option_number)
    msg = make_msg(**EAGER_MSG)
    for a, b in itertools.combinations(options, 2):
        decision = evaluate_policy({a, b}, msg, EAGER_COND)
        pa = (a.option_priority, a.option_number)
        pb = (b.option_priority, b.option_number)
        expected = a if pa < pb else b
        assert decision.winning_option == expected.option_number, (a, b)


def test_option1_beats_option2_on_number():
    decision = evaluate_policy({BackupOption(1), BackupOption(2)},
                               make_msg(), EAGER_COND)
    assert decision.winning_option == 1
    assert decision.action is BackupAction.BACKUP_ON_RECEIVE


def test_adding_weaker_options_never_unseats_winner():
    msg = make_msg(**EAGER_MSG)
    pool = sorted(all_trigger_options(), key=lambda o: o.option_number)
    for r in range(1, len(pool) + 1):
        for subset in itertools.combinations(pool, r):
            base = evaluate_policy(set(subset), msg, EAGER_COND)
            for extra in pool:
                key = (extra.option_priority, extra.option_number)
                winner = next(o for o in pool
                              if o.option_number == base.winning_option)
                if key <= (winner.option_priority, winner.option_number):
                    continue
                grown = evaluate_policy(set(subset) | {extra}, msg, EAGER_COND)
                assert grown.winning_option == base.winning_option


# --- the compiled policy -------------------------------------------------------

def reference_policy(enabled, msg, cond):
    """evaluate_policy as it was before policies were compiled."""
    def triggers(option):
        n, t = option.option_number, option.threshold
        if n in (1, 2):
            return True
        if n == 3:
            return cond.battery_percent < t
        if n == 4:
            return msg.priority <= t
        if n == 5:
            return cond.load_percent > t
        return msg.sender_load > t

    triggered = [opt for opt in enabled if triggers(opt)]
    if not triggered:
        return BackupDecision(BackupAction.NO_BACKUP)
    winner = min(triggered, key=lambda o: (o.option_priority, o.option_number))
    action = (BackupAction.BACKUP_AFTER_FORWARD if winner.option_number == 2
              else BackupAction.BACKUP_ON_RECEIVE)
    return BackupDecision(action, winner.option_number)


THRESHOLDS = {1: st.none(), 2: st.none(), 3: st.integers(1, 100),
              4: st.integers(0, 4), 5: st.integers(1, 99), 6: st.integers(1, 99)}
options = st.sampled_from(sorted(THRESHOLDS)).flatmap(
    lambda n: THRESHOLDS[n].map(lambda t: BackupOption(n, t)))
percents = st.integers(0, 100)


@settings(max_examples=2_000, deadline=None, database=None)
@given(st.sets(options, max_size=8), st.integers(0, 4), percents, percents,
       percents)
def test_compiled_policy_decides_like_the_reference(enabled, priority,
                                                    sender_load, battery, load):
    msg = make_msg(priority=priority, sender_load=sender_load)
    cond = NodeCondition(battery_percent=battery, load_percent=load)
    expected = reference_policy(enabled, msg, cond)
    assert compile_policy(enabled)(msg, battery, load) == expected
    assert evaluate_policy(enabled, msg, cond) == expected
    if not reads_node_condition(enabled):
        assert compile_policy(enabled)(msg, 0, 0) == expected


def test_compiled_policy_covers_every_subset_of_options():
    # Thresholds at which each conditional option fires for the message
    # below, and ones at which it does not.
    msg = make_msg(priority=2, sender_load=50)
    firing = {3: 60, 4: 2, 5: 40, 6: 49}
    quiet = {3: 50, 4: 1, 5: 50, 6: 50}
    for r in range(7):
        for numbers in itertools.combinations(range(1, 7), r):
            for thresholds in (firing, quiet):
                enabled = {BackupOption(n, thresholds.get(n)) for n in numbers}
                cond = NodeCondition(battery_percent=50, load_percent=45)
                assert (compile_policy(enabled)(msg, 50, 45)
                        == reference_policy(enabled, msg, cond)), enabled


# --- persistence -------------------------------------------------------------

def test_persist_appends_one_record():
    store = BackupStore()
    assert store.persist(make_msg()) is True
    assert len(store) == 1


def test_persist_is_idempotent_per_id():
    store = BackupStore()
    msg = make_msg()
    assert store.persist(msg) is True
    assert store.persist(msg) is False
    assert len(store) == 1


def test_table_driven_priority0_share_is_persisted():
    store = BackupStore()
    policy = {BackupOption(4, 0)}
    cond = NodeCondition(battery_percent=100, load_percent=0)
    for i in range(1000):
        msg = make_msg(priority=i % 5)
        if evaluate_policy(policy, msg, cond).action is not BackupAction.NO_BACKUP:
            store.persist(msg)
    assert len(store) == 200
    assert all(m.priority == 0 for m in store.messages())


def test_option1_persists_everything_accepted():
    rng = random.Random(0xB1)
    store = BackupStore()
    policy = {BackupOption(1)}
    cond = NodeCondition(battery_percent=100, load_percent=0)
    n = 500
    for _ in range(n):
        msg = make_msg(priority=rng.randrange(5), sender_load=rng.randrange(101))
        decision = evaluate_policy(policy, msg, cond)
        assert decision.winning_option == 1
        store.persist(msg)
    assert len(store) == n


def test_log_survives_restart(tmp_path):
    path = tmp_path / "backup.log"
    store = BackupStore(path)
    msgs = [make_msg(priority=i % 5) for i in range(20)]
    for m in msgs:
        store.persist(m)
    replayed = BackupStore(path)
    assert [m.msg_id for m in replayed.messages()] == [m.msg_id for m in msgs]
    assert replayed.corrupt_tail_bytes == 0


def test_torn_tail_is_discarded(tmp_path):
    path = tmp_path / "backup.log"
    store = BackupStore(path)
    for i in range(5):
        store.persist(make_msg())
    data = path.read_bytes()
    path.write_bytes(data[:-7])  # crash mid-record
    replayed = BackupStore(path)
    assert len(replayed) == 4
    assert replayed.corrupt_tail_bytes > 0


def test_corrupt_record_stops_replay_at_valid_prefix(tmp_path):
    path = tmp_path / "backup.log"
    store = BackupStore(path)
    for i in range(5):
        store.persist(make_msg())
    data = bytearray(path.read_bytes())
    # Find the third record's payload and flip one byte inside it.
    import struct as _struct
    offset = 0
    for _ in range(2):
        length = _struct.unpack_from(">I", data, offset)[0]
        offset += 8 + length
    data[offset + 12] ^= 0xFF
    path.write_bytes(bytes(data))
    replayed = BackupStore(path)
    assert len(replayed) == 2
    assert replayed.corrupt_tail_bytes > 0


def test_storage_limit_refuses_writes():
    store = BackupStore(limit_bytes=600)
    store.persist(make_msg())
    with pytest.raises(StorageFull):
        for _ in range(10):
            store.persist(make_msg())
    assert store.size_bytes <= 600


def test_new_writes_after_replay_continue_the_log(tmp_path):
    path = tmp_path / "backup.log"
    first = BackupStore(path)
    a = make_msg()
    first.persist(a)
    second = BackupStore(path)
    assert second.persist(a) is False  # replayed ids still deduplicate
    b = make_msg()
    second.persist(b)
    assert [m.msg_id for m in BackupStore(path).messages()] == [a.msg_id, b.msg_id]


# --- restore -----------------------------------------------------------------

def fresh_bank():
    return PriorityQueueBank(NodeId(77))


def test_restore_enqueues_undelivered_in_order():
    store = BackupStore()
    msgs = [make_msg(priority=2) for _ in range(5)]
    for m in msgs:
        store.persist(m)
    bank = fresh_bank()
    assert store.restore_into(bank) == 5
    queued = [e.msg.msg_id for e in bank.queues[2]]
    assert queued == [m.msg_id for m in msgs]


def test_restore_skips_delivered_ids():
    store = BackupStore()
    msgs = [make_msg() for _ in range(5)]
    for m in msgs:
        store.persist(m)
    bank = fresh_bank()
    for m in msgs:
        bank.delivered[m.msg_id] += 1
    assert store.restore_into(bank) == 0
    assert sum(len(q) for q in bank.queues) == 0


def test_restore_hands_out_independent_copies():
    store = BackupStore()
    msg = make_msg(priority=1)
    store.persist(msg)
    bank = fresh_bank()
    store.restore_into(bank)
    restored = bank.queues[1][0].msg
    restored.hop_count = 99
    assert store.messages()[0].hop_count == msg.hop_count


def test_crash_restart_union_covers_accepted():
    rng = random.Random(0xCE)
    store = BackupStore()
    accepted, delivered = set(), set()
    for _ in range(2000):
        msg = make_msg(priority=rng.randrange(5))
        accepted.add(msg.msg_id)
        store.persist(msg)  # option 1: back up everything on receive
        if rng.random() < 0.5:
            delivered.add(msg.msg_id)
    # Restart: queue state and delivery knowledge are gone; the log is not.
    bank = fresh_bank()
    restored = store.restore_into(bank)
    restored_ids = {e.msg.msg_id for q in bank.queues for e in q} | {
        e.msg.msg_id for e in bank.swap_store
    }
    assert restored == 2000
    assert delivered | restored_ids == accepted


def test_to_json_shape():
    store = BackupStore()
    msg = make_msg(priority=3)
    store.persist(msg)
    (row,) = store.to_json()
    assert row["msg_id"] == msg.msg_id
    assert row["priority"] == 3
    assert row["payload_bytes"] == len(msg.payload)

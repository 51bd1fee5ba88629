"""Battery model, calibration, roles, duty cycling, the low-battery ramp."""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lifeline.messages import STATION_RANGE_START, InvariantViolation, NodeId
from lifeline.olsr import converge
from lifeline.power import (
    EMPTY_SHARE,
    MS_PER_HOUR,
    Activity,
    BatteryDead,
    BatteryModel,
    CalibrationPoint,
    InconsistentObservations,
    Role,
    RoleAssignment,
    acceptance_probability,
    calibrate,
    classify_roles,
    is_awake,
    station_route,
)

FORWARD = Activity.FORWARD_MESSAGE
CONTROL = Activity.CONTROL_PACKET

MEASURED_POINTS = [
    CalibrationPoint.idle(15.0),
    CalibrationPoint.screen(7.0),
    CalibrationPoint.interval(10.0, 7.0),
]


def fitted():
    return calibrate(MEASURED_POINTS)


# --- calibration -----------------------------------------------------------

def test_calibration_solves_the_linear_system():
    model = fitted()
    assert model.drain_idle == pytest.approx(1 / 15)
    assert model.drain_screen_extra == pytest.approx(1 / 7 - 1 / 15)
    assert model.energy_per_message == pytest.approx((1 / 7 - 1 / 15) / 360)
    assert model.energy_per_control == 0.0
    assert model.capacity == 1.0


def test_infinite_idle_lifetime_means_zero_idle_drain():
    model = calibrate([
        CalibrationPoint.idle(math.inf),
        CalibrationPoint.screen(7.0),
        CalibrationPoint.interval(10.0, 5.0),
    ])
    assert model.drain_idle == 0.0


def test_screen_outliving_idle_is_inconsistent():
    with pytest.raises(InconsistentObservations):
        calibrate([
            CalibrationPoint.idle(15.0),
            CalibrationPoint.screen(20.0),
            CalibrationPoint.interval(10.0, 7.0),
        ])


def test_messaging_outliving_idle_is_inconsistent():
    with pytest.raises(InconsistentObservations):
        calibrate([
            CalibrationPoint.idle(15.0),
            CalibrationPoint.screen(7.0),
            CalibrationPoint.interval(10.0, 16.0),
        ])


def test_missing_profile_is_inconsistent():
    with pytest.raises(InconsistentObservations):
        calibrate([CalibrationPoint.idle(15.0), CalibrationPoint.screen(7.0)])


# --- drain ---------------------------------------------------------------------

def test_idle_profile_dies_at_fifteen_hours():
    model = fitted()
    assert model.dies_at == 15 * MS_PER_HOUR
    assert model.level(model.dies_at - 1) > 0
    assert model.level(model.dies_at) == 0.0


def test_screen_profile_dies_at_seven_hours():
    model = replace(fitted(), screen_on=True)
    assert model.dies_at == 7 * MS_PER_HOUR
    assert model.level(model.dies_at - 1) > 0


def test_ten_second_forwarding_dies_at_seven_hours():
    model = fitted()
    t = 10_000
    while t < model.dies_at:
        model.drain(FORWARD, t)
        t += 10_000
    assert 6 * MS_PER_HOUR < model.dies_at <= 7 * MS_PER_HOUR
    assert model.charges[FORWARD] == 2520


def test_sleep_hour_costs_a_tenth_of_idle():
    model = fitted()
    assert model.cost[Activity.SLEEP_HOUR] * MS_PER_HOUR == pytest.approx(
        model.drain_idle * 0.1)
    assert model.cost[Activity.SLEEP_HOUR] == pytest.approx(
        model.cost[Activity.IDLE_HOUR] * 0.1)


def test_dead_battery_refuses_more_drain():
    model = BatteryModel(1.0, 0.5, 0.1, 0.01)
    assert model.dies_at == 2 * MS_PER_HOUR
    assert model.level(model.dies_at) == 0.0
    with pytest.raises(BatteryDead):
        model.drain(FORWARD, model.dies_at)
    # A charge the level cannot cover empties the battery at its own ms.
    model = BatteryModel(0.005, 0.5, 0.1, 0.01)
    assert model.drain(FORWARD, 1_000) == model.dies_at == 1_000
    with pytest.raises(BatteryDead):
        model.drain(FORWARD, 1_000)


@pytest.mark.parametrize("duty", [None, 0.5])
def test_a_battery_without_drain_or_past_float_time_never_empties(duty):
    base = fitted()
    role = None if duty is None else RoleAssignment(Role.INNER, duty)
    for capacity in (1e306, 1.7e308):
        model = BatteryModel(capacity, base.drain_idle, base.drain_screen_extra,
                             base.energy_per_message)
        if role is not None:
            model.set_role(role, 30_000)
        assert model.dies_at == math.inf
        assert model.level(10 ** 12) == pytest.approx(capacity)
        assert model.percent(0) == 100.0
        assert model.percent(10 ** 12) == pytest.approx(100.0)
    # No idle drain: only a charge empties it, at that charge's ms.
    model = BatteryModel(1.0, 0.0, 0.0, 0.5)
    if role is not None:
        model.set_role(role, 30_000)
    assert model.drain(FORWARD, 40_000) == math.inf
    assert model.drain(FORWARD, 50_000) == model.dies_at == 50_000


def test_emptying_drain_pays_for_what_the_level_covers():
    model = BatteryModel(1.0, 1 / 15, 0.0, 0.3)
    t = 0
    while t < model.dies_at:
        t += MS_PER_HOUR
        found = model.level(t)
        model.drain(FORWARD, t)
    assert model.dies_at == t == 3 * MS_PER_HOUR
    ledger = model.ledger(t)
    assert ledger[FORWARD] == pytest.approx(2 * 0.3 + found)
    assert sum(ledger.values()) == pytest.approx(model.capacity, abs=1e-12)
    assert model.level(t) == 0.0
    # Nothing accrues after the death.
    assert model.ledger(10 * t) == ledger


def test_energy_ledger_matches_level_drop():
    rng = random.Random(0xEC)
    model = replace(fitted(), energy_per_control=1e-3)
    model.set_role(RoleAssignment(Role.INNER, 0.5, wake_phase=1,
                                  window_ms=600_000), 1_000)
    t = 1_000
    while True:
        t += rng.randrange(120_000)
        if t >= model.dies_at:
            break
        model.drain(rng.choice((FORWARD, CONTROL)), t)
        assert sum(model.ledger(t).values()) == pytest.approx(
            model.capacity - model.level(t), abs=1e-9)
    assert sum(model.ledger(t).values()) == pytest.approx(model.capacity,
                                                          abs=1e-9)


@given(st.lists(st.tuples(st.sampled_from([FORWARD, CONTROL]),
                          st.integers(0, 2 * MS_PER_HOUR)), max_size=40))
def test_drain_pays_in_full_until_the_battery_empties(calls):
    model = replace(fitted(), energy_per_control=0.01)
    t = 0
    for activity, gap in calls:
        t += gap
        if t >= model.dies_at:
            with pytest.raises(BatteryDead):
                model.drain(activity, t)
            break
        model.drain(activity, t)
        ledger = model.ledger(t)
        if t < model.dies_at:
            assert ledger[activity] == (model.charges[activity]
                                        * model.cost[activity])
        assert sum(ledger.values()) == pytest.approx(
            model.capacity - model.level(t), abs=1e-12)


@settings(max_examples=300, deadline=None, database=None)
@given(capacity=st.floats(5e-324, 1.7976931348623157e308),
       screen_on=st.booleans(), t=st.integers(0, 10 ** 13))
def test_percent_is_a_finite_share_of_any_capacity(capacity, screen_on, t):
    # The share comes first: 100 times a level above about 1.8e306 overflows.
    base = fitted()
    model = BatteryModel(capacity, base.drain_idle * capacity,
                         base.drain_screen_extra * capacity,
                         base.energy_per_message * capacity,
                         screen_on=screen_on)
    assert model.percent(0) == 100.0
    assert 0.0 <= model.percent(t) <= 100.0


def reference_death(model, role, role_at, charges):
    """(death ms, totals, the activity that emptied the battery) by
    stepping one ms at a time: the level is the capacity less each total
    times its cost, summed in Activity order; a charge counts from its
    own ms, and a ms of drain from the next."""
    floor = model.capacity * EMPTY_SHARE
    totals = dict.fromkeys(Activity, 0)
    pending = sorted(charges, key=lambda c: c[0])
    t, last = 0, None
    while True:
        level = model.capacity - sum(totals[a] * model.cost[a] for a in Activity)
        if level <= floor:
            return t, totals, last
        while pending and pending[0][0] == t:
            last = pending.pop(0)[1]
            totals[last] += 1
            level = model.capacity - sum(totals[a] * model.cost[a]
                                         for a in Activity)
            if level <= floor:
                return t, totals, last
        awake = role is None or t < role_at or (
            t // role.window_ms + role.wake_phase) % role.period == 0
        if not awake:
            last = Activity.SLEEP_HOUR
        elif model.screen_on:
            last = Activity.SCREEN_HOUR
        else:
            last = Activity.IDLE_HOUR
        totals[last] += 1
        t += 1


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(capacity=st.floats(1e-6, 4e-5), screen_on=st.booleans(),
       message=st.floats(0.0, 0.5), control=st.floats(0.0, 0.5),
       duty=st.none() | st.tuples(st.floats(0.1, 1.0), st.integers(0, 9),
                                  st.integers(1, 1_000), st.integers(0, 500)),
       charges=st.lists(st.tuples(st.integers(0, 4_000),
                                  st.sampled_from([FORWARD, CONTROL])),
                        max_size=8))
def test_death_time_is_the_first_empty_ms(capacity, screen_on, message,
                                          control, duty, charges):
    base = fitted()
    model = BatteryModel(capacity, base.drain_idle, base.drain_screen_extra,
                         energy_per_message=message * capacity,
                         energy_per_control=control * capacity,
                         screen_on=screen_on)
    role, role_at = None, 0
    if duty is not None:
        duty_cycle, phase, window, role_at = duty
        period = max(1, round(1.0 / duty_cycle))
        role = RoleAssignment(Role.INNER, duty_cycle, wake_phase=phase % period,
                              window_ms=window)
    expected, totals, cause = reference_death(model, role, role_at, charges)
    events = sorted([(t, 1, activity) for t, activity in charges]
                    + ([(role_at, 0, None)] if role is not None else []),
                    key=lambda e: e[:2])
    for t, _, activity in events:
        if t >= model.dies_at:
            break
        if activity is None:
            model.set_role(role, t)
        else:
            model.drain(activity, t)
        assert sum(model.ledger(t).values()) == pytest.approx(
            capacity - model.level(t), abs=1e-9 * capacity)
    assert model.dies_at == expected
    assert model.totals(expected) == {a: n for a, n in totals.items()
                                      if a in model.totals(expected)}
    assert model.level(expected) == 0.0
    # Only the activity that emptied the battery is booked the level it
    # left, so the ledger sums to the capacity.
    ledger = model.ledger(expected)
    assert {a: e for a, e in ledger.items() if a is not cause} == {
        a: n * model.cost[a] for a, n in totals.items() if n and a is not cause}
    assert sum(ledger.values()) == pytest.approx(capacity, abs=1e-9 * capacity)


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(capacity=st.floats(1e-6, 1.0), screen_on=st.booleans(),
       message=st.floats(1e-4, 0.2), paid=st.integers(0, 5),
       extra=st.integers(0, 20), now=st.integers(0, 10**6),
       pct=st.sampled_from([0.0, 2.0, 10.0, 55.5, 99.0]))
def test_horizon_is_the_death_and_crossing_after_extra_forwards(
        capacity, screen_on, message, paid, extra, now, pct):
    # The stretch's closed forms: paying `extra` forwards at now gives the
    # death time horizon names, and `percent` first reads under pct at its
    # crossing.
    base = fitted()
    model = BatteryModel(capacity, base.drain_idle, base.drain_screen_extra,
                         energy_per_message=message * capacity,
                         screen_on=screen_on)
    for _ in range(paid):
        if now < model.dies_at:
            model.drain(FORWARD, now)
    if now >= model.dies_at:
        return
    death, crossing = model.horizon(now, pct, extra)
    paying = replace(model)   # a fresh battery with the same rates
    for _ in range(paid + extra):
        if now < paying.dies_at:
            paying.drain(FORWARD, now)
    assert death == paying.dies_at
    if pct <= 0:
        assert crossing == math.inf
        return
    assert now <= crossing <= death
    assert paying.percent(crossing) < pct
    assert crossing == now or paying.percent(crossing - 1) >= pct


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(capacity=st.floats(1e-6, 4e-5), message=st.floats(0.0, 0.5),
       duty=st.none() | st.tuples(st.floats(0.1, 1.0), st.integers(1, 1_000)),
       charges=st.lists(st.tuples(st.integers(0, 4_000),
                                  st.sampled_from([FORWARD, CONTROL])),
                        max_size=8),
       until=st.integers(0, 8_000))
def test_a_drain_told_its_horizon_reads_the_same_up_to_it(
        capacity, message, duty, charges, until):
    # A drain that need not look past until gives the exact death when it
    # comes by then and math.inf otherwise, and every read up to until is
    # the exact battery's.
    base = fitted()
    exact = BatteryModel(capacity, base.drain_idle, base.drain_screen_extra,
                         energy_per_message=message * capacity,
                         energy_per_control=message * capacity)
    lazy = replace(exact)
    if duty is not None:
        role = RoleAssignment(Role.INNER, duty[0], window_ms=duty[1])
        exact.set_role(role, 0)
        lazy.set_role(role, 0)
    for t, activity in sorted((c for c in charges if c[0] <= until),
                              key=lambda c: c[0]):
        if t >= exact.dies_at:
            break
        exact.drain(activity, t)
        lazy.drain(activity, t, until)
        assert lazy.dies_at == (exact.dies_at if exact.dies_at <= until
                                else math.inf)
        assert lazy.percent(until) == exact.percent(until)
        assert lazy.ledger(until) == exact.ledger(until)


# --- roles ------------------------------------------------------------------------

def nid(n):
    return NodeId(n)


STATION = NodeId(STATION_RANGE_START + 1)


def test_line_relay_is_boundary_phone_is_inner():
    a, b = nid(1), nid(2)
    adj = {a: {b}, b: {a, STATION}, STATION: {b}}
    roles = classify_roles(converge(adj), {STATION})
    assert roles[b].role is Role.BOUNDARY
    assert roles[a].role is Role.INNER
    assert roles[a].duty_cycle == 0.5
    assert roles[b].duty_cycle == 1.0


def test_triangle_next_to_station_is_all_boundary():
    a, b, c = nid(1), nid(2), nid(3)
    adj = {
        a: {b, c, STATION}, b: {a, c, STATION}, c: {a, b, STATION},
        STATION: {a, b, c},
    }
    roles = classify_roles(converge(adj), {STATION})
    assert all(roles[n].role is Role.BOUNDARY for n in (a, b, c, STATION))


def test_every_inner_node_has_a_boundary_neighbor():
    rng = random.Random(0x20)
    for _ in range(20):
        n = rng.randint(6, 20)
        nodes = [nid(i + 1) for i in range(n)]
        adj = {v: set() for v in nodes}
        for i in range(1, n):
            j = rng.randrange(i)
            adj[nodes[i]].add(nodes[j])
            adj[nodes[j]].add(nodes[i])
        for _ in range(rng.randint(0, n // 2)):
            a, b = rng.sample(nodes, 2)
            adj[a].add(b)
            adj[b].add(a)
        anchor = rng.choice(nodes)
        adj[STATION] = {anchor}
        adj[anchor].add(STATION)
        roles = classify_roles(converge(adj), {STATION})
        for v, assignment in roles.items():
            if assignment.role is Role.INNER:
                assert any(
                    roles[u].role is Role.BOUNDARY for u in adj[v]
                ), v


def test_boundary_assignment_must_stay_awake():
    with pytest.raises(InvariantViolation):
        RoleAssignment(Role.BOUNDARY, 0.5)


def test_boundary_is_always_awake():
    assignment = RoleAssignment(Role.BOUNDARY, 1.0)
    assert all(is_awake(assignment, t) for t in range(0, 100_000, 5_000))


def test_inner_node_alternates_windows():
    assignment = RoleAssignment(Role.INNER, 0.5, wake_phase=0)
    awake = [is_awake(assignment, w * 10_000) for w in range(6)]
    assert awake == [True, False, True, False, True, False]


def reference_next_wake(role, now):
    """The first ms from now on at which role is awake, found window by
    window as the engine did before the role carried its wake rule."""
    window, t = role.window_ms, now
    while (t // window + role.wake_phase) % role.period != 0:
        t = (t // window + 1) * window
    return t


@settings(max_examples=1_000, deadline=None, database=None)
@given(duty=st.floats(0.02, 1.0), phase=st.integers(0, 60),
       window=st.integers(1, 20_000), now=st.integers(0, 10 ** 10),
       span=st.integers(0, 1_500))
def test_next_wake_and_awake_ms_match_the_window_by_window_rule(
        duty, phase, window, now, span):
    role = RoleAssignment(Role.INNER, duty, wake_phase=phase, window_ms=window)
    wake = reference_next_wake(role, now)
    assert role.next_wake(now) == wake
    assert is_awake(role, now) == (wake == now)
    # awake_ms counts the wake ms between any two times.
    assert role.awake_ms(now + span) - role.awake_ms(now) == sum(
        reference_next_wake(role, t) == t for t in range(now, now + span))


def test_opposite_phases_cover_every_window():
    even = RoleAssignment(Role.INNER, 0.5, wake_phase=0)
    odd = RoleAssignment(Role.INNER, 0.5, wake_phase=1)
    for w in range(10):
        t = w * 10_000
        assert is_awake(even, t) != is_awake(odd, t)


# --- low battery ---------------------------------------------------------------------

def test_station_route_picks_fewest_hops():
    s2 = NodeId(STATION_RANGE_START + 9)
    table = {
        STATION: (nid(4), 3),
        s2: (nid(5), 1),
        nid(42): (nid(6), 1),
    }
    assert station_route(table) == (nid(5), 1)
    assert station_route({nid(42): (nid(6), 1)}) is None


def test_acceptance_ramp_values():
    assert acceptance_probability(10.0) == 1.0
    assert acceptance_probability(50.0) == 1.0
    assert acceptance_probability(2.0) == 0.0
    assert acceptance_probability(0.0) == 0.0
    assert acceptance_probability(6.0) == pytest.approx(0.5)
    assert acceptance_probability(8.0) == pytest.approx(0.75)


def test_acceptance_ramp_monte_carlo():
    rng = random.Random(0x6A)
    n = 10_000
    accepted = sum(rng.random() < acceptance_probability(6.0) for _ in range(n))
    # 99% binomial interval around p = 0.5.
    half_width = 2.576 * math.sqrt(0.25 / n)
    assert abs(accepted / n - 0.5) < half_width

"""Battery model, calibration, roles, duty cycling, the low-battery ramp."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lifeline.messages import STATION_RANGE_START, InvariantViolation, NodeId
from lifeline.olsr import converge
from lifeline.power import (
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
    hours = 0
    while model.level > 0:
        hours += 1
        model.drain(Activity.IDLE_HOUR)
    assert hours == 15
    assert model.level == 0.0


def test_screen_profile_dies_at_seven_hours():
    model = fitted()
    hours = 0
    while model.level > 0:
        hours += 1
        model.drain(Activity.SCREEN_HOUR)
    assert hours == 7


def test_ten_second_forwarding_dies_at_seven_hours():
    model = fitted()
    hours = 0
    while model.level > 0:
        hours += 1
        model.drain(Activity.FORWARD_MESSAGE, 360)
        if model.level > 0:
            model.drain(Activity.IDLE_HOUR)
    assert hours == 7


def test_sleep_hour_costs_a_tenth_of_idle():
    model = fitted()
    assert model.activity_cost(Activity.SLEEP_HOUR) == pytest.approx(model.drain_idle * 0.1)


def test_dead_battery_refuses_more_drain():
    model = BatteryModel(1.0, 0.5, 0.1, 0.01)
    assert model.drain(Activity.IDLE_HOUR, amount=3) < 3
    assert model.level == 0.0
    with pytest.raises(BatteryDead):
        model.drain(Activity.IDLE_HOUR)


def test_emptying_drain_pays_for_what_the_level_covers():
    model = fitted()
    model.drain(Activity.SCREEN_HOUR, 2.5)
    level = model.level
    lasted = model.drain(Activity.IDLE_HOUR, 40.0)
    assert lasted == level / model.activity_cost(Activity.IDLE_HOUR)
    assert model.drained_by_activity[Activity.IDLE_HOUR] == level
    assert model.level == 0.0


def test_negative_amount_rejected():
    model = fitted()
    with pytest.raises(InvariantViolation):
        model.drain(Activity.IDLE_HOUR, amount=-1)


def test_energy_ledger_matches_level_drop():
    rng = random.Random(0xEC)
    model = fitted()
    activities = list(Activity)
    for _ in range(500):
        if model.level == 0:
            break
        model.drain(rng.choice(activities), amount=rng.uniform(0, 0.3))
    assert sum(model.drained_by_activity.values()) == pytest.approx(
        model.capacity - model.level, abs=1e-9
    )


@given(st.lists(st.tuples(st.sampled_from(list(Activity)),
                          st.floats(0, 20, allow_nan=False)), max_size=40))
def test_drain_pays_in_full_until_the_battery_empties(calls):
    model = fitted()
    for activity, amount in calls:
        if model.level == 0:
            with pytest.raises(BatteryDead):
                model.drain(activity, amount)
            break
        lasted = model.drain(activity, amount)
        if model.level > 0:
            assert lasted == amount
        assert sum(model.drained_by_activity.values()) == pytest.approx(
            model.capacity - model.level, abs=1e-12
        )


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

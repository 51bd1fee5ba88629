"""Battery accounting, role-based duty cycling, and the low-battery ramp.

The battery model is linear: idle and screen-on drain per hour, a fixed
cost per forwarded message and per control packet, and a sleep discount
while duty-cycled off.  Calibration solves those parameters from
observed lifetimes.  Roles split a converged topology into always-awake
Boundary nodes (relays and station neighbors) and duty-cycled Inner
nodes.  Below the low-battery threshold a node turns incoming traffic
away along a linear ramp; `station_route` names the neighbour toward the
nearest station that the engine evacuates its queues to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .messages import InvariantViolation, NodeId
from .olsr import TopologyState

SLEEP_FACTOR = 0.1
DEFAULT_DUTY_CYCLE = 0.5
WAKE_WINDOW_MS = 10_000
HANDOFF_THRESHOLD_PCT = 10.0
HANDOFF_FLOOR_PCT = 2.0
ROUTER_CAPACITY_FACTOR = 10.0


class BatteryDead(RuntimeError):
    """The battery hit zero; the node is gone until the scenario ends."""


class InconsistentObservations(ValueError):
    """Calibration observations do not admit a non-negative linear fit."""


class Activity(Enum):
    IDLE_HOUR = "idle_hour"
    SCREEN_HOUR = "screen_hour"
    FORWARD_MESSAGE = "forward_message"
    CONTROL_PACKET = "control_packet"
    SLEEP_HOUR = "sleep_hour"


# Every drain compares against these; on Python 3.11 reading a member
# through its enum class costs about ten times as much as a module global.
_IDLE_HOUR = Activity.IDLE_HOUR
_SCREEN_HOUR = Activity.SCREEN_HOUR
_FORWARD_MESSAGE = Activity.FORWARD_MESSAGE
_CONTROL_PACKET = Activity.CONTROL_PACKET
_SLEEP_HOUR = Activity.SLEEP_HOUR


@dataclass
class BatteryModel:
    capacity: float
    drain_idle: float
    drain_screen_extra: float
    energy_per_message: float
    energy_per_control: float = 0.0
    level: float = field(init=False)
    drained_by_activity: dict[Activity, float] = field(init=False,
                                                      default_factory=dict)

    def __post_init__(self) -> None:
        self.level = self.capacity

    @property
    def percent(self) -> float:
        return 100.0 * self.level / self.capacity

    def activity_cost(self, activity: Activity, amount: float = 1.0) -> float:
        if amount < 0:
            raise InvariantViolation(f"negative activity amount: {amount}")
        if activity is _IDLE_HOUR:
            per_unit = self.drain_idle
        elif activity is _SCREEN_HOUR:
            per_unit = self.drain_idle + self.drain_screen_extra
        elif activity is _FORWARD_MESSAGE:
            per_unit = self.energy_per_message
        elif activity is _CONTROL_PACKET:
            per_unit = self.energy_per_control
        elif activity is _SLEEP_HOUR:
            per_unit = self.drain_idle * SLEEP_FACTOR
        else:
            raise KeyError(activity)
        return per_unit * amount

    def drain(self, activity: Activity, amount: float = 1.0) -> float:
        """Charge amount of activity; return how much of it was paid for.

        That is all of amount unless this drain empties the battery, and
        then `level / activity_cost(activity)` for the level it found.
        Only the energy present is booked, so the ledger sums to capacity
        minus level.  A level within a relative 1e-9 of empty counts as
        empty, so a profile that nominally lasts N hours dies on the Nth
        drain instead of surviving on float dust.  Raises BatteryDead
        only for a battery that was already empty.
        """
        level = self.level
        if level <= 0:
            raise BatteryDead("battery already exhausted")
        applied = min(self.activity_cost(activity, amount), level)
        ledger = self.drained_by_activity
        ledger[activity] = ledger.get(activity, 0.0) + applied
        self.level = level - applied
        if self.level > self.capacity * 1e-9:
            return amount
        ledger[activity] += self.level
        self.level = 0.0
        return level / self.activity_cost(activity)


# --- calibration ----------------------------------------------------------

class ProfileKind(Enum):
    IDLE = "idle"
    SCREEN = "screen"
    INTERVAL = "interval"


@dataclass(frozen=True)
class CalibrationPoint:
    kind: ProfileKind
    lifetime_hours: float
    interval_s: Optional[float] = None

    @classmethod
    def idle(cls, lifetime_hours: float) -> "CalibrationPoint":
        return cls(ProfileKind.IDLE, lifetime_hours)

    @classmethod
    def screen(cls, lifetime_hours: float) -> "CalibrationPoint":
        return cls(ProfileKind.SCREEN, lifetime_hours)

    @classmethod
    def interval(cls, interval_s: float, lifetime_hours: float) -> "CalibrationPoint":
        return cls(ProfileKind.INTERVAL, lifetime_hours, interval_s)


def calibrate(observations: list[CalibrationPoint]) -> BatteryModel:
    """Solve the linear drain parameters from lifetime observations.

    Needs an idle point, a screen-on point, and one send-interval point;
    each lifetime pins one parameter in turn.  Rates are per unit of
    capacity: the fitted model's capacity is 1.
    """
    by_kind: dict[ProfileKind, CalibrationPoint] = {}
    for obs in observations:
        by_kind.setdefault(obs.kind, obs)
    missing = {k for k in ProfileKind} - set(by_kind)
    if missing:
        raise InconsistentObservations(
            f"missing profiles: {sorted(k.value for k in missing)}"
        )

    def rate_of(point: CalibrationPoint) -> float:
        return 0.0 if math.isinf(point.lifetime_hours) else 1.0 / point.lifetime_hours

    drain_idle = rate_of(by_kind[ProfileKind.IDLE])
    screen_extra = rate_of(by_kind[ProfileKind.SCREEN]) - drain_idle
    if screen_extra < 0:
        raise InconsistentObservations("screen-on outlived idle")
    interval_point = by_kind[ProfileKind.INTERVAL]
    if not interval_point.interval_s or interval_point.interval_s <= 0:
        raise InconsistentObservations("interval profile needs a positive period")
    messages_per_hour = 3600.0 / interval_point.interval_s
    energy_per_message = (rate_of(interval_point) - drain_idle) / messages_per_hour
    if energy_per_message < 0:
        raise InconsistentObservations("messaging outlived idle")
    return BatteryModel(
        capacity=1.0,
        drain_idle=drain_idle,
        drain_screen_extra=screen_extra,
        energy_per_message=energy_per_message,
    )


# --- roles and duty cycling --------------------------------------------------

class Role(Enum):
    BOUNDARY = "boundary"
    INNER = "inner"


@dataclass(frozen=True)
class RoleAssignment:
    role: Role
    duty_cycle: float
    wake_phase: int = 0

    def __post_init__(self) -> None:
        if self.role is Role.BOUNDARY and self.duty_cycle != 1.0:
            raise InvariantViolation("boundary nodes never sleep")
        if not 0 < self.duty_cycle <= 1.0:
            raise InvariantViolation(f"duty cycle out of range: {self.duty_cycle}")


def classify_roles(states: dict[NodeId, TopologyState], stations: set[NodeId],
                   duty_cycle: float = DEFAULT_DUTY_CYCLE) -> dict[NodeId, RoleAssignment]:
    """Boundary = relays plus the station fringe; everyone else dozes.

    Inner wake phases are staggered by address so neighboring Inner nodes
    tend to alternate windows.
    """
    boundary: set[NodeId] = set(stations)
    for node, state in states.items():
        boundary |= state.mpr_set
        if any(n in stations for n in state.symmetric_neighbors()):
            boundary.add(node)
    period = max(1, round(1.0 / duty_cycle))
    out: dict[NodeId, RoleAssignment] = {}
    for node in states:
        if node in boundary:
            out[node] = RoleAssignment(Role.BOUNDARY, 1.0)
        else:
            out[node] = RoleAssignment(Role.INNER, duty_cycle,
                                       wake_phase=node.address % period)
    return out


def is_awake(assignment: RoleAssignment, now_ms: int,
             window_ms: int = WAKE_WINDOW_MS) -> bool:
    period = max(1, round(1.0 / assignment.duty_cycle))
    return (now_ms // window_ms + assignment.wake_phase) % period == 0


# --- low-battery handoff -------------------------------------------------------

def acceptance_probability(battery_percent: float,
                           threshold_pct: float = HANDOFF_THRESHOLD_PCT) -> float:
    """Linear ramp from 1 at the threshold down to 0 at the floor."""
    if battery_percent >= threshold_pct:
        return 1.0
    if battery_percent <= HANDOFF_FLOOR_PCT:
        return 0.0
    return ((battery_percent - HANDOFF_FLOOR_PCT)
            / (threshold_pct - HANDOFF_FLOOR_PCT))


def station_route(routing_table: dict[NodeId, tuple[NodeId, int]]
                  ) -> Optional[tuple[NodeId, int]]:
    """(next hop, hop count) of the best route into the station range."""
    best: Optional[tuple[int, int, NodeId]] = None
    for dst, (next_hop, hops) in routing_table.items():
        if not dst.is_station_address:
            continue
        key = (hops, dst.address, next_hop)
        if best is None or key < best:
            best = key
    if best is None:
        return None
    return best[2], best[0]

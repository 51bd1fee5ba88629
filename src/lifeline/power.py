"""Battery accounting, role-based duty cycling, and the low-battery ramp.

A battery is kept as integer totals: the whole milliseconds it spent
awake (idle, or with the screen on) and asleep, and the forwards and
control packets it paid for.  Each total has a linear cost: a drain per
hour, a sleep discount while duty-cycled off, and a fixed energy per
forwarded message and per control packet.  The level, the percentage,
the energy ledger and the death time are each one fixed expression of
those totals and the time asked about, so a read books nothing and how
often a battery is looked at never changes an answer.  Calibration
solves the linear parameters from observed lifetimes.  Roles split a
converged topology into always-awake Boundary nodes (relays and station
neighbors) and duty-cycled Inner nodes.  A role carries its wake window
and states the wake rule once: when it next wakes
(`RoleAssignment.next_wake`), which the engine's handlers read, and how
many ms it is awake, which the battery reads.  Below the low-battery
threshold a node turns incoming traffic away along a linear ramp;
`station_route` names the neighbour toward the nearest station that the
engine evacuates its queues to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

from .messages import InvariantViolation, NodeId
from .olsr import TopologyState

MS_PER_HOUR = 3_600_000
SLEEP_FACTOR = 0.1
DEFAULT_DUTY_CYCLE = 0.5
WAKE_WINDOW_MS = 10_000
HANDOFF_THRESHOLD_PCT = 10.0
HANDOFF_FLOOR_PCT = 2.0
ROUTER_CAPACITY_FACTOR = 10.0
# A level within this share of the capacity counts as empty, so a profile
# that nominally lasts N hours dies at N hours instead of living on float
# dust.
EMPTY_SHARE = 1e-9


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

    # Members are singletons that key the totals; Enum's own hash is a
    # Python call, which every read of a count would pay.
    __hash__ = object.__hash__


# Read on every charge; on Python 3.11 reading a member through its enum
# class costs about ten times as much as a module global.
_FORWARD_MESSAGE = Activity.FORWARD_MESSAGE
_CONTROL_PACKET = Activity.CONTROL_PACKET


@dataclass
class BatteryModel:
    """What a battery paid for, as integer totals read at a given time.

    The battery is awake all the time until `set_role`, and from then on
    only in the role's wake windows.  `drain` adds one forward or control
    packet.  A read (`level`, `percent`, `totals`, `ledger`) takes the
    time it asks about, which is never before the last charge or the
    role, and changes nothing.  `dies_at` is the first whole ms at which
    the level is empty, given no more discrete charges: the time of the
    charge that emptied it, or where continuous drain gets there
    (`math.inf` if nothing drains between charges, that lies past the
    largest float, or past the time a `drain` was told to look up to).
    """

    capacity: float
    drain_idle: float
    drain_screen_extra: float
    energy_per_message: float
    energy_per_control: float = 0.0
    screen_on: bool = False

    def __post_init__(self) -> None:
        # The cost of one unit of each total: a ms of a continuous
        # activity, or one discrete charge.
        self.cost = {
            Activity.IDLE_HOUR: self.drain_idle / MS_PER_HOUR,
            Activity.SCREEN_HOUR: (self.drain_idle + self.drain_screen_extra) / MS_PER_HOUR,
            _FORWARD_MESSAGE: self.energy_per_message,
            _CONTROL_PACKET: self.energy_per_control,
            Activity.SLEEP_HOUR: self.drain_idle * SLEEP_FACTOR / MS_PER_HOUR,
        }
        self._awake_as = Activity.SCREEN_HOUR if self.screen_on else Activity.IDLE_HOUR
        self._awake_cost = self.cost[self._awake_as]
        self._sleep_cost = self.cost[Activity.SLEEP_HOUR]
        # The forwards and control packets paid for.
        self.charges = {_FORWARD_MESSAGE: 0, _CONTROL_PACKET: 0}
        # The duty-cycle role and the ms it was set at.
        self._role: Optional[RoleAssignment] = None
        self._role_at = 0
        # The charge that emptied the battery, if one did.
        self.died_of: Optional[Activity] = None
        # A level at or under this counts as empty.
        self._floor = self.capacity * EMPTY_SHARE
        self._settle(0, None)

    # -- reads ----------------------------------------------------------------

    def _spent(self, t: int) -> tuple[int, int]:
        """(ms awake, ms asleep) from 0 to t: every ms until the role was
        set, and from then on the role's wake ms."""
        role = self._role
        if role is None:
            return t, 0
        awake = self._role_at + role.awake_ms(t) - role.awake_ms(self._role_at)
        return awake, t - awake

    def _level(self, t: int) -> float:
        """The capacity less the cost of the totals at t, summed in the
        order of `totals`; it ignores the death."""
        awake, asleep = self._spent(t)
        charges = self.charges
        return self.capacity - (
            awake * self._awake_cost
            + charges[_FORWARD_MESSAGE] * self.energy_per_message
            + charges[_CONTROL_PACKET] * self.energy_per_control
            + asleep * self._sleep_cost)

    def level(self, now: int) -> float:
        """The charge left at now: none from the death on."""
        return self._level(now) if now < self.dies_at else 0.0

    def percent(self, now: int) -> float:
        """The level as a share of the capacity, in [0, 100]; the share is
        taken first, so no capacity overflows it."""
        return self.level(now) / self.capacity * 100.0

    def totals(self, now: int) -> dict[Activity, int]:
        """The ms of each continuous activity and the count of each
        discrete one up to now, or up to the death."""
        awake, asleep = self._spent(min(now, self.dies_at))
        return {self._awake_as: awake, **self.charges,
                Activity.SLEEP_HOUR: asleep}

    def ledger(self, now: int) -> dict[Activity, float]:
        """The energy of each activity with a non-zero total, up to now.

        From the death on, the activity that emptied the battery (the
        last charge, or the last ms of drain) is also booked the level it
        left, which is within the empty share or overdrawn by that
        charge, so the ledger sums to the capacity.
        """
        ledger = {activity: total * self.cost[activity]
                  for activity, total in self.totals(now).items() if total}
        if now >= self.dies_at:
            t = self.dies_at
            awake = self._spent(t)[0] > self._spent(t - 1)[0]
            cause = self.died_of or (self._awake_as if awake else Activity.SLEEP_HOUR)
            ledger[cause] += self._level(t)
        return ledger

    # -- bookings ---------------------------------------------------------------

    def set_role(self, role: RoleAssignment, now: int) -> float:
        """Sleep outside role's wake windows from now on, now being before
        the death; return the new death time.  Called at most once: a
        battery switches schedule only when roles are assigned."""
        self._role, self._role_at = role, now
        return self._settle(now, None)

    def drain(self, activity: Activity, now: int,
              until: float = math.inf) -> float:
        """Pay for one forward or control packet at now; return the death
        time, which is now if this charge emptied the battery.  A death
        after until is not searched for: dies_at is then math.inf, which
        reads the same at every time up to until.  Raises BatteryDead for a
        battery that was already empty."""
        if now >= self.dies_at:
            raise BatteryDead("battery already exhausted")
        self.charges[activity] += 1
        if until < math.inf and self._level(until) > self._floor:
            # The level never rises with time, so the death lies past until.
            self.dies_at = math.inf
            return self.dies_at
        return self._settle(now, activity)

    def _settle(self, now: int, cause: Optional[Activity]) -> float:
        """Set dies_at from the totals as of now, cause being the charge
        just paid, if any, and return it."""
        self.dies_at = self._under(now, self._floor)
        if self.dies_at == now:
            self.died_of = cause
        return self.dies_at

    def _under(self, now: int, floor: float) -> float:
        """The first whole ms from now on at which the level is at most
        floor, given no more charges (`math.inf` if never)."""
        energy = self._level(now) - floor
        if energy <= 0:
            return now
        # Without idle drain only a charge can empty the battery, and a
        # time past the largest float is past any run.
        guess = self._reach(now, energy) if self._awake_cost else math.inf
        return (self._first(now, guess, floor)
                if guess < math.inf else math.inf)

    def horizon(self, now: int, pct: float, extra: int) -> tuple[float, float]:
        """(death, handoff crossing) as of now if `extra` more forwards
        were paid: the death time, and the first whole ms from now on at
        which `percent` is under pct (`math.inf` if never).  The first
        `extra` forwards, whenever they are paid, leave both times at
        or after these."""
        charges = self.charges
        charges[_FORWARD_MESSAGE] += extra
        try:
            death = self._under(now, self._floor)
            if pct <= 0:
                return death, math.inf

            def over(t: int) -> bool:
                return self._level(t) / self.capacity * 100.0 >= pct

            if not over(now):
                return death, now
            # The level at the threshold, for the estimate only; `over`
            # decides.  From the death on `percent` reads 0.
            share = pct / 100.0 * self.capacity
            return death, min(death, self._first(
                now, self._reach(now, self._level(now) - share), share, over)
                if death < math.inf else math.inf)
        finally:
            charges[_FORWARD_MESSAGE] -= extra

    def spare_forwards(self, now: int, pct: float) -> float:
        """How many forwards paid at now would empty the battery or take
        its level under pct percent, whichever comes first."""
        bound = max(self._floor, pct / 100.0 * self.capacity)
        spare = max(0.0, self._level(now) - bound)
        return (spare / self.energy_per_message if self.energy_per_message
                else math.inf)

    def _first(self, after: int, guess: float, floor: float,
               over=None) -> int:
        """The first whole ms past after at which the level is at most
        floor, or, given over, at which over(t) turns false, searched by
        doubling steps out from the estimate guess and halving back."""
        lo, hi = after, math.inf   # lo is still over, hi no longer
        t, step = max(after + 1, math.ceil(guess)), 1
        while hi - lo > 1:
            if over(t) if over else self._level(t) > floor:
                lo = t
            else:
                hi = t
            t = lo + step if hi == math.inf else max(hi - step, (lo + hi) // 2)
            step *= 2
        return hi

    def _reach(self, t: float, energy: float) -> float:
        """About when continuous drain from t has spent energy: the windows
        of what a whole wake period does not cover, then the whole periods
        at once (infinite if past the largest float)."""
        role, awake, asleep = self._role, self._awake_cost, self._sleep_cost
        if role is None:
            return t + energy / awake
        window, period = role.window_ms, role.period
        whole, energy = divmod(energy, window * (awake + (period - 1) * asleep))
        while True:
            end = (t // window + 1) * window
            cost = awake if is_awake(role, t) else asleep
            if cost * (end - t) > energy:
                return t + energy / cost + whole * period * window
            energy -= cost * (end - t)
            t = end


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
    """A node's role and its wake schedule: in every `period` windows of
    window_ms it is awake in one, the window whose number plus wake_phase
    is a multiple of the period.  So the schedule is a wake cycle of
    period windows, shifted wake_phase windows earlier, that starts with
    its wake window."""

    role: Role
    duty_cycle: float
    wake_phase: int = 0
    window_ms: int = WAKE_WINDOW_MS

    @property
    def period(self) -> int:
        """Wake windows per wake cycle: one awake, the rest asleep."""
        return max(1, round(1.0 / self.duty_cycle))

    def __post_init__(self) -> None:
        if self.role is Role.BOUNDARY and self.duty_cycle != 1.0:
            raise InvariantViolation("boundary nodes never sleep")
        if not 0 < self.duty_cycle <= 1.0:
            raise InvariantViolation(f"duty cycle out of range: {self.duty_cycle}")

    def _cycle(self, t: int) -> tuple[int, int]:
        """(whole wake cycles, ms into the current one) at t."""
        window = self.window_ms
        return divmod(t + self.wake_phase * window, self.period * window)

    def next_wake(self, t: int) -> int:
        """The first ms from t on at which the role is awake."""
        _, into = self._cycle(t)
        if into < self.window_ms:
            return t
        return t - into + self.period * self.window_ms

    def awake_ms(self, t: int) -> int:
        """The ms before t inside wake windows, plus a constant of the role
        (only differences are read)."""
        cycles, into = self._cycle(t)
        return cycles * self.window_ms + min(into, self.window_ms)


def classify_roles(states: dict[NodeId, TopologyState], stations: set[NodeId],
                   duty_cycle: float = DEFAULT_DUTY_CYCLE,
                   window_ms: int = WAKE_WINDOW_MS) -> dict[NodeId, RoleAssignment]:
    """Boundary = relays plus the station fringe; everyone else dozes.

    Inner wake phases are staggered by address so neighboring Inner nodes
    tend to alternate windows.
    """
    boundary: set[NodeId] = set(stations)
    for node, state in states.items():
        boundary |= state.mpr_set
        if any(n in stations for n in state.symmetric_neighbors()):
            boundary.add(node)
    always_awake = RoleAssignment(Role.BOUNDARY, 1.0, window_ms=window_ms)
    inner = RoleAssignment(Role.INNER, duty_cycle, window_ms=window_ms)
    return {node: always_awake if node in boundary
            else replace(inner, wake_phase=node.address % inner.period)
            for node in states}


def is_awake(assignment: RoleAssignment, now_ms: int) -> bool:
    return assignment.next_wake(now_ms) == now_ms


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

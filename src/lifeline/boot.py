"""Emergency boot strategies.

Three independent triggers move a node into emergency mode: a debounced
mains-loss timer, a battery drain-rate detector, and a peer-signature
scan that switches on a temporary station, joins an existing emergency
node, or waits and rescans.  Entering emergency mode stamps the node's
own beacon signature so later scanners can join it.
"""

from __future__ import annotations

import statistics
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from .messages import InvariantViolation

DEBOUNCE_MS = 30_000
DRAIN_WINDOW_MS = 60_000
DRAIN_THETA = 5.0
DRAIN_BASELINE_MS = 600_000
DRAIN_ALARM_COOLDOWN_MS = 3_600_000
RESCAN_INTERVAL_MS = 60_000
# A dead-flat baseline would make any drain "infinitely" dramatic; rates
# are compared against at least this floor (percent per minute).
BASELINE_FLOOR_PCT_PER_MIN = 0.02


class PowerEvent(Enum):
    MAINS_LOST = "mains_lost"
    MAINS_RESTORED = "mains_restored"


class BootAction(Enum):
    ENTER_EMERGENCY = "enter_emergency"
    NO_ACTION = "no_action"


class Signature(Enum):
    NONE = "none"
    EMERGENCY_NODE = "emergency_node"
    TEMPORARY_STATION = "temporary_station"


class BootDecision(Enum):
    SWITCH = "switch"
    JOIN = "join"
    WAIT = "wait"


class InsufficientHistory(Exception):
    """Not enough battery samples to assess a drain rate."""


@dataclass(frozen=True)
class PeerObservation:
    ssid: str
    signal_strength: float
    signature: Signature = Signature.NONE


def scan_and_decide(observations: Iterable[PeerObservation]) -> BootDecision:
    """Temporary station beats emergency node beats nothing at all."""
    seen = {obs.signature for obs in observations}
    if Signature.TEMPORARY_STATION in seen:
        return BootDecision.SWITCH
    if Signature.EMERGENCY_NODE in seen:
        return BootDecision.JOIN
    return BootDecision.WAIT


class BootController:
    """One node's boot state machine, driven by externally supplied time."""

    def __init__(self) -> None:
        self.in_emergency = False
        self.own_signature = Signature.NONE
        self.next_rescan_at: Optional[int] = None
        self.history: list[tuple[int, str]] = []

        self._mains_lost_at: Optional[int] = None
        self._outage_fired = False
        self._samples: deque[tuple[int, float]] = deque()
        self._last_alarm_at: Optional[int] = None

    def _enter_emergency(self, now: int, reason: str) -> BootAction:
        self.in_emergency = True
        self.own_signature = Signature.EMERGENCY_NODE
        self.history.append((now, reason))
        return BootAction.ENTER_EMERGENCY

    # -- strategy 1: mains interruption -------------------------------------

    def on_power_event(self, event: PowerEvent, now: int) -> BootAction:
        """Arm or cancel the outage debounce; firing happens via poll_mains."""
        if event is PowerEvent.MAINS_LOST:
            if self._mains_lost_at is None:
                self._mains_lost_at = now
        else:
            self._mains_lost_at = None
            self._outage_fired = False
        return BootAction.NO_ACTION

    def poll_mains(self, now: int) -> BootAction:
        """Emit EnterEmergency once per outage after the debounce elapses."""
        if (self._mains_lost_at is not None
                and not self._outage_fired
                and now - self._mains_lost_at >= DEBOUNCE_MS):
            self._outage_fired = True
            return self._enter_emergency(now, "mains_outage")
        return BootAction.NO_ACTION

    # -- strategy 2: battery drain rate --------------------------------------

    def detect_battery_drop(self, now: int, battery_percent: float) -> BootAction:
        """Record a sample; alarm when drain outruns theta times baseline."""
        self._record_sample(now, battery_percent)
        try:
            window_rate, baseline_rate = self._assess_rates(now)
        except InsufficientHistory:
            return BootAction.NO_ACTION
        if window_rate <= DRAIN_THETA * max(baseline_rate, BASELINE_FLOOR_PCT_PER_MIN):
            return BootAction.NO_ACTION
        if (self._last_alarm_at is not None
                and now - self._last_alarm_at < DRAIN_ALARM_COOLDOWN_MS):
            return BootAction.NO_ACTION
        self._last_alarm_at = now
        return self._enter_emergency(now, "battery_drop")

    def _record_sample(self, now: int, battery_percent: float) -> None:
        if not 0 <= battery_percent <= 100:
            raise InvariantViolation(f"battery percent out of range: {battery_percent}")
        if self._samples and now <= self._samples[-1][0]:
            raise InvariantViolation("battery samples must move forward in time")
        self._samples.append((now, battery_percent))
        horizon = now - (DRAIN_WINDOW_MS + DRAIN_BASELINE_MS + 120_000)
        while self._samples and self._samples[0][0] < horizon:
            self._samples.popleft()

    def _assess_rates(self, now: int) -> tuple[float, float]:
        """(current window drain, trailing median drain), in percent/minute."""
        window_start = now - DRAIN_WINDOW_MS
        window = [s for s in self._samples if s[0] >= window_start]
        if len(window) < 2:
            raise InsufficientHistory("need two samples inside the window")
        span_min = (window[-1][0] - window[0][0]) / 60_000
        window_rate = (window[0][1] - window[-1][1]) / span_min

        base_start = window_start - DRAIN_BASELINE_MS
        base = [s for s in self._samples if base_start <= s[0] < window_start]
        pair_rates = [
            (a[1] - b[1]) / ((b[0] - a[0]) / 60_000)
            for a, b in zip(base, base[1:])
        ]
        if not pair_rates:
            raise InsufficientHistory("no baseline history before the window")
        return window_rate, statistics.median(pair_rates)

    # -- strategy 3: peer scanning --------------------------------------------

    def scan(self, observations: Iterable[PeerObservation], now: int) -> BootDecision:
        decision = scan_and_decide(observations)
        if decision is BootDecision.WAIT:
            self.next_rescan_at = now + RESCAN_INTERVAL_MS
        else:
            self._enter_emergency(now, decision.value)
        return decision

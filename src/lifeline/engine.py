"""Deterministic discrete-event simulator tying the protocol stack together.

Every node runs the real protocol objects: a topology state for link
sensing and routing, a priority queue bank for custody of messages, a
backup store, a boot controller, and a battery.  The event loop orders
work by (time, insertion sequence), and every random draw comes from a
per-node counter-based generator keyed by (run seed, node address), so
a given (scenario, seed) pair always produces byte-identical metrics.

Emergency messages cross links as real wire bytes through each bank's
receive path, which decodes each received hop exactly once; the backup
policy reuses that decoded message.  Control packets are handed to the
topology states by value, since their codec is exercised separately and
the volume of hello traffic dominates long runs.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .backup import (
    BackupAction,
    BackupOption,
    BackupStore,
    NodeCondition,
    StorageFull,
    evaluate_policy,
)
from .boot import BootController, BootDecision, PeerObservation, Signature
from .forwarding import OutcomeKind, PriorityQueueBank, ReceiveResult
from .locating import estimate_position, passive_query
from .messages import (
    EmergencyMessage,
    NodeId,
    # Unused here since receive decodes once; perfbench's tests still
    # expect the tracer to find this binding site.
    decode_message,  # noqa: F401
    encode_message,
    make_msg_id,
)
from .metrics import DeliveryRecord, RunMetrics
from .olsr import ControlKind, ControlPacket, TopologyState
from .power import (
    Activity,
    BatteryDead,
    BatteryModel,
    CalibrationPoint,
    HandoffKind,
    RoleAssignment,
    acceptance_probability,
    calibrate,
    classify_roles,
    is_awake,
    low_battery_handoff,
    station_route,
)
from .scenario import (
    BATTERY_INTERVALS,
    LATENCY_JITTER,
    LOOPBACK_LATENCY_MS,
    LinkModel,
    MalformedScenario,
    Scenario,
    build_battery_scenario,
)

MS_PER_HOUR = 3_600_000.0

FORWARD_TICK_MS = 1
RETRY_TICK_MS = 100
ROLE_ASSIGN_MS = 30_000
FIRST_TC_MS = 2_500
SNAPSHOT_SHORT_MS = 10_000
SNAPSHOT_LONG_MS = 600_000
SNAPSHOT_CADENCE_CUTOFF_MS = 300_000

# Measured phone lifetimes that pin the battery model: idle, with the
# screen on, and relaying a message every 10 seconds.
CALIBRATION_POINTS = (
    CalibrationPoint.idle(15.0),
    CalibrationPoint.screen(7.0),
    CalibrationPoint.interval(10.0, 7.0),
)


@dataclass
class _NodeRuntime:
    spec: object
    node: NodeId
    topo: TopologyState
    bank: PriorityQueueBank
    store: BackupStore
    boot: BootController
    rng: np.random.Generator
    battery: Optional[BatteryModel]
    routes: dict = field(default_factory=dict)
    role: Optional[RoleAssignment] = None
    alive: bool = True
    clock: int = 0
    hello_seq: int = 0
    tc_seq: int = 0
    msg_counter: int = 0
    tick_scheduled: bool = False
    next_power_at: Optional[int] = None
    pending_after_forward: set = field(default_factory=set)


def _base_battery() -> BatteryModel:
    return calibrate(list(CALIBRATION_POINTS))


class Simulator:
    """One run of a scenario; create, call run(), read the metrics."""

    def __init__(self, scenario: Scenario, seed: Optional[int] = None):
        scenario.validate()
        self.scenario = scenario
        self.seed = scenario.seed if seed is None else seed
        self.policies = scenario.policies
        self.metrics = RunMetrics(scenario.name, self.seed,
                                  scenario.duration_ms)
        self._heap: list = []
        self._seq = itertools.count()
        self._msg_meta: dict[int, dict] = {}

        base = _base_battery()
        self._static_adjacency = scenario.adjacency()
        self._adjacency = {
            node: sorted(neighbors, key=lambda n: n.address)
            for node, neighbors in self._static_adjacency.items()
        }
        self._links: dict[frozenset, LinkModel] = {}
        for link in scenario.links:
            self._links[frozenset((link.a, link.b))] = link.model
        self._lossy = any(l.model.p_send_error > 0 for l in scenario.links)
        self._p_send = max((l.model.p_send_error for l in scenario.links),
                           default=0.0)
        self._p_recv = max((l.model.p_recv_error for l in scenario.links),
                           default=0.0)

        self._backup_options = {
            BackupOption(opt["option"], opt.get("threshold"))
            for opt in self.policies.backup_options
        }
        self._known_locations = {
            spec.node: spec.location for spec in scenario.nodes
            if spec.location is not None
        }
        self._station_kinds = {spec.node for spec in scenario.nodes
                               if spec.kind == "station"}

        self.nodes: dict[NodeId, _NodeRuntime] = {}
        for spec in sorted(scenario.nodes, key=lambda s: s.node.address):
            battery = None
            if spec.battery_capacity is not None:
                battery = BatteryModel(
                    capacity=spec.battery_capacity,
                    drain_idle=base.drain_idle,
                    drain_screen_extra=base.drain_screen_extra,
                    energy_per_message=base.energy_per_message,
                    energy_per_control=self.policies.energy_per_control,
                )
            key = np.array([self.seed % (1 << 64), spec.node.address],
                           dtype=np.uint64)
            self.nodes[spec.node] = _NodeRuntime(
                spec=spec,
                node=spec.node,
                topo=TopologyState(spec.node,
                                   hold_time_ms=self.policies.hold_time_ms,
                                   topology_hold_ms=self.policies.topology_hold_ms),
                bank=PriorityQueueBank(spec.node),
                store=BackupStore(),
                boot=BootController(),
                rng=np.random.Generator(np.random.Philox(key=key)),
                battery=battery,
            )

    # -- event plumbing -----------------------------------------------------

    def _at(self, t: int, kind: str, *args) -> None:
        heapq.heappush(self._heap, (t, next(self._seq), kind, args))

    def _schedule_tick(self, rt: _NodeRuntime, t: int) -> None:
        if not rt.tick_scheduled:
            rt.tick_scheduled = True
            self._at(t, "tick", rt.node)

    def _link(self, a: NodeId, b: NodeId) -> LinkModel:
        return self._links.get(frozenset((a, b)),
                               LinkModel(LOOPBACK_LATENCY_MS))

    def _latency(self, rt: _NodeRuntime, model: LinkModel) -> int:
        jitter = float(rt.rng.uniform(-LATENCY_JITTER, LATENCY_JITTER))
        return max(1, int(round(model.base_latency_ms * (1.0 + jitter))))

    # -- battery ------------------------------------------------------------

    def _charge(self, rt: _NodeRuntime, now: int) -> None:
        """Apply continuous drain from rt.clock up to now, window by window."""
        if rt.battery is None or not rt.alive:
            rt.clock = now
            return
        window = self.policies.wake_window_ms
        while rt.clock < now and rt.alive:
            seg_end = now
            awake = True
            if rt.role is not None and rt.role.duty_cycle < 1.0:
                awake = is_awake(rt.role, rt.clock, window)
                boundary = (rt.clock // window + 1) * window
                seg_end = min(now, boundary)
            if rt.spec.screen_on and awake:
                activity = Activity.SCREEN_HOUR
            elif awake:
                activity = Activity.IDLE_HOUR
            else:
                activity = Activity.SLEEP_HOUR
            hours = (seg_end - rt.clock) / MS_PER_HOUR
            rate = rt.battery.activity_cost(activity, 1.0)
            if rate > 0 and rt.battery.level <= rate * hours:
                death_ms = rt.clock + (rt.battery.level / rate) * MS_PER_HOUR
                try:
                    rt.battery.drain(activity, hours)
                except BatteryDead:
                    pass
                self._kill(rt, int(round(death_ms)))
                return
            try:
                rt.battery.drain(activity, hours)
            except BatteryDead:
                self._kill(rt, seg_end)
                return
            rt.clock = seg_end

    def _drain_event(self, rt: _NodeRuntime, activity: Activity,
                     now: int) -> None:
        """One discrete energy charge (message or control packet)."""
        if rt.battery is None or not rt.alive:
            return
        self._charge(rt, now)
        if not rt.alive:
            return
        try:
            rt.battery.drain(activity, 1.0)
        except BatteryDead:
            self._kill(rt, now)
            return
        self._reproject(rt, now)

    def _continuous_rate(self, rt: _NodeRuntime) -> float:
        battery = rt.battery
        if rt.spec.screen_on:
            rate = battery.activity_cost(Activity.SCREEN_HOUR, 1.0)
        else:
            rate = battery.activity_cost(Activity.IDLE_HOUR, 1.0)
        if rt.role is not None and rt.role.duty_cycle < 1.0:
            duty = rt.role.duty_cycle
            sleep = battery.activity_cost(Activity.SLEEP_HOUR, 1.0)
            rate = duty * rate + (1.0 - duty) * sleep
        return rate

    def _reproject(self, rt: _NodeRuntime, now: int) -> None:
        if rt.battery is None or not rt.alive:
            return
        rate = self._continuous_rate(rt)
        if rate <= 0:
            return
        at = now + int(rt.battery.level / rate * MS_PER_HOUR) + 1
        if rt.next_power_at is None or at < rt.next_power_at:
            rt.next_power_at = at
            self._at(at, "power", rt.node)

    def _kill(self, rt: _NodeRuntime, now: int) -> None:
        if rt.alive:
            rt.alive = False
            rt.clock = max(rt.clock, now)
            self.metrics.deaths[str(rt.node)] = now

    # -- duty cycling ---------------------------------------------------------

    def _is_awake(self, rt: _NodeRuntime, now: int) -> bool:
        if rt.role is None:
            return True
        return is_awake(rt.role, now, self.policies.wake_window_ms)

    def _next_wake(self, rt: _NodeRuntime, now: int) -> int:
        if self._is_awake(rt, now):
            return now
        window = self.policies.wake_window_ms
        t = (now // window + 1) * window
        while not is_awake(rt.role, t, window):
            t += window
        return t

    # -- the run ----------------------------------------------------------------

    def run(self) -> RunMetrics:
        duration = self.scenario.duration_ms
        for node, rt in self.nodes.items():
            self._at(0, "hello", node)
            self._at(FIRST_TC_MS, "tc", node)
            self._reproject(rt, 0)
        for idx, spec in enumerate(self.scenario.traffic):
            for i in range(spec.count):
                self._at(spec.start_ms + i * spec.interval_ms, "inject", idx, i)
        for node, at in sorted(self.policies.scan_schedule.items()):
            self._at(at, "scan", node)
        self._at(ROLE_ASSIGN_MS, "roles")
        cadence = (SNAPSHOT_SHORT_MS if duration <= SNAPSHOT_CADENCE_CUTOFF_MS
                   else SNAPSHOT_LONG_MS)
        for t in range(cadence, duration + 1, cadence):
            self._at(t, "snapshot")

        handlers = {
            "hello": self._on_hello,
            "tc": self._on_tc,
            "ctl": self._on_ctl,
            "tick": self._on_tick,
            "msg": self._on_msg,
            "inject": self._on_inject,
            "scan": self._on_scan,
            "roles": self._on_roles,
            "power": self._on_power,
            "snapshot": self._on_snapshot,
        }
        while self._heap:
            t, _, kind, args = heapq.heappop(self._heap)
            if t > duration:
                break
            handlers[kind](t, *args)

        for rt in self.nodes.values():
            if rt.alive:
                self._charge(rt, duration)
        self._finalize()
        return self.metrics

    # -- control plane -----------------------------------------------------------

    def _broadcast(self, rt: _NodeRuntime, pkt: ControlPacket, now: int) -> None:
        if self.policies.energy_per_control > 0:
            self._drain_event(rt, Activity.CONTROL_PACKET, now)
            if not rt.alive:
                return
        for nb in self._adjacency.get(rt.node, ()):
            model = self._link(rt.node, nb)
            self._at(now + self._latency(rt, model), "ctl", nb, pkt)

    def _on_hello(self, now: int, node: NodeId) -> None:
        rt = self.nodes[node]
        if not rt.alive:
            return
        self._charge(rt, now)
        if not rt.alive:
            return
        if self._is_awake(rt, now):
            rt.topo.expire_links(now)
            rt.topo.expire_topology(now)
            rt.topo.select_mprs()
            rt.hello_seq = (rt.hello_seq + 1) % (1 << 16)
            self._broadcast(rt, rt.topo.make_hello(rt.hello_seq), now)
            rt.routes = rt.topo.compute_routes()
            self._check_handoff(rt, now)
        self._at(now + self.policies.hello_interval_ms, "hello", node)

    def _on_tc(self, now: int, node: NodeId) -> None:
        rt = self.nodes[node]
        if not rt.alive:
            return
        if self._is_awake(rt, now) and rt.topo.mpr_selectors:
            rt.tc_seq = (rt.tc_seq + 1) % (1 << 16)
            self._broadcast(rt, rt.topo.make_tc(rt.tc_seq), now)
        self._at(now + self.policies.tc_interval_ms, "tc", node)

    def _on_ctl(self, now: int, node: NodeId, pkt: ControlPacket) -> None:
        rt = self.nodes[node]
        if not rt.alive or not self._is_awake(rt, now):
            return
        if self.policies.energy_per_control > 0:
            self._drain_event(rt, Activity.CONTROL_PACKET, now)
            if not rt.alive:
                return
        if pkt.kind is ControlKind.HELLO:
            rt.topo.process_hello(pkt, now)
        elif rt.topo.process_tc(pkt, now):
            self._broadcast(rt, pkt.relayed_by(node), now)

    # -- message plane -----------------------------------------------------------

    def _load_percent(self, rt: _NodeRuntime) -> int:
        return min(100, round(100 * rt.bank.ram_used / rt.bank.ram_budget))

    def _maybe_backup(self, rt: _NodeRuntime, msg: EmergencyMessage,
                      now: int) -> None:
        if not self._backup_options:
            return
        battery_pct = 100 if rt.battery is None else int(rt.battery.percent)
        reachable = (rt.node in self._station_kinds
                     or station_route(rt.routes) is not None)
        cond = NodeCondition(battery_percent=max(0, min(100, battery_pct)),
                             load_percent=self._load_percent(rt),
                             station_reachable=reachable)
        decision = evaluate_policy(self._backup_options, msg, cond)
        if decision.action is BackupAction.BACKUP_ON_RECEIVE:
            self._persist(rt, msg)
        elif decision.action is BackupAction.BACKUP_AFTER_FORWARD:
            rt.pending_after_forward.add(msg.msg_id)

    def _persist(self, rt: _NodeRuntime, msg: EmergencyMessage) -> None:
        try:
            rt.store.persist(msg)
        except StorageFull:
            self.metrics.dropped["backup_full"] = (
                self.metrics.dropped.get("backup_full", 0) + 1)

    def _transmit(self, rt: _NodeRuntime, msg: EmergencyMessage,
                  next_hop: NodeId, now: int) -> None:
        model = self._link(rt.node, next_hop)
        latency = self._latency(rt, model)
        meta = self._msg_meta.get(msg.msg_id)
        if meta is not None:
            final = (next_hop == msg.dst
                     or (msg.dst.is_station_address
                         and next_hop.is_station_address))
            if meta["send_err"] and not meta["send_counted"]:
                meta["send_counted"] = True
                self.metrics.send_errors += 1
                latency += model.base_latency_ms
            if meta["recv_err"] and final and not meta["recv_counted"]:
                meta["recv_counted"] = True
                self.metrics.recv_errors += 1
                latency += model.base_latency_ms
        self._drain_event(rt, Activity.FORWARD_MESSAGE, now)
        if msg.msg_id in rt.pending_after_forward:
            rt.pending_after_forward.discard(msg.msg_id)
            self._persist(rt, msg)
        self._at(now + latency, "msg", next_hop, encode_message(msg), rt.node)

    def _on_tick(self, now: int, node: NodeId) -> None:
        rt = self.nodes[node]
        rt.tick_scheduled = False
        if not rt.alive:
            return
        wake = self._next_wake(rt, now)
        if wake > now:
            self._schedule_tick(rt, wake)
            return
        outcomes = rt.bank.forward_tick(rt.routes, now)
        retry = False
        for outcome in outcomes:
            if outcome.kind is OutcomeKind.DELIVERED:
                self._transmit(rt, outcome.message, outcome.next_hop, now)
                if not rt.alive:
                    return
            elif outcome.kind is OutcomeKind.UNREACHABLE:
                retry = True
        if any(rt.bank.queues) or rt.bank.swap_store:
            self._schedule_tick(rt, now + (RETRY_TICK_MS if retry
                                           else FORWARD_TICK_MS))

    def _on_msg(self, now: int, node: NodeId, data: bytes,
                sender: NodeId) -> None:
        rt = self.nodes[node]
        if not rt.alive:
            self.metrics.lost_to_dead_node += 1
            return
        wake = self._next_wake(rt, now)
        if wake > now:
            self._at(wake, "msg", node, data, sender)
            return
        if rt.battery is not None:
            self._charge(rt, now)
            if not rt.alive:
                self.metrics.lost_to_dead_node += 1
                return
            p = acceptance_probability(rt.battery.percent,
                                       self.policies.handoff_threshold_pct)
            if p < 1.0 and float(rt.rng.random()) >= p:
                self.metrics.handoff_rejected += 1
                return
        before = len(rt.bank.delivered_log)
        if rt.bank.receive(data) is ReceiveResult.IGNORED:
            self.metrics.ignored += 1
            return
        self._maybe_backup(rt, rt.bank.last_received, now)
        for msg in rt.bank.delivered_log[before:]:
            self._record_delivery(rt, msg, now)
        if any(rt.bank.queues) or rt.bank.swap_store:
            self._schedule_tick(rt, now)

    def _record_delivery(self, rt: _NodeRuntime, msg: EmergencyMessage,
                         now: int) -> None:
        estimate = "unknown"
        if rt.node in self._station_kinds and self._known_locations:
            replies = passive_query(msg.src,
                                    self.policies.location_query_hops,
                                    self._static_adjacency,
                                    self._known_locations)
            estimate = estimate_position(replies).to_json()
        self.metrics.deliveries.append(DeliveryRecord(
            msg_id=msg.msg_id,
            src=str(msg.src),
            dst=str(msg.dst),
            priority=msg.priority,
            created_at=msg.created_at,
            delivered_at=now,
            hop_count=msg.hop_count,
            deliver_node=str(rt.node),
            estimate=estimate,
        ))

    def _on_inject(self, now: int, spec_idx: int, i: int) -> None:
        spec = self.scenario.traffic[spec_idx]
        rt = self.nodes[spec.source]
        if not rt.alive:
            return
        priority = self._draw_priority(rt, spec.priority, i)
        size = self._draw_size(rt, spec.size)
        msg = EmergencyMessage(
            msg_id=make_msg_id(rt.node, rt.msg_counter),
            src=rt.node,
            dst=spec.destination,
            priority=priority,
            payload=bytes([65 + i % 26]) * size,
            sender_load=self._load_percent(rt),
            created_at=now,
        )
        rt.msg_counter += 1
        if self._lossy:
            self._msg_meta[msg.msg_id] = {
                "send_err": float(rt.rng.random()) < self._p_send,
                "recv_err": float(rt.rng.random()) < self._p_recv,
                "send_counted": False,
                "recv_counted": False,
            }
        self.metrics.injected += 1
        self._maybe_backup(rt, msg, now)
        rt.bank.inject(msg)
        if any(rt.bank.queues) or rt.bank.swap_store:
            self._schedule_tick(rt, now)

    def _draw_priority(self, rt: _NodeRuntime, spec, i: int) -> int:
        if spec.kind == "fixed":
            return spec.value
        if spec.kind == "stratified":
            period = max(1, round(1.0 / spec.priority0_share))
            if i % period == 0:
                return 0
            return int(rt.rng.integers(1, 5))
        return int(rt.rng.integers(0, 5))

    def _draw_size(self, rt: _NodeRuntime, spec) -> int:
        if spec.kind == "constant":
            return spec.lo
        return int(rt.rng.integers(spec.lo, spec.hi + 1))

    # -- handoff, boot, roles -----------------------------------------------------

    def _check_handoff(self, rt: _NodeRuntime, now: int) -> None:
        if rt.battery is None or not rt.alive:
            return
        if rt.battery.percent >= self.policies.handoff_threshold_pct:
            return
        actions = low_battery_handoff(rt.bank, rt.routes, rt.battery.percent,
                                      self.policies.handoff_threshold_pct)
        for action in actions:
            if action.kind is HandoffKind.FLUSH:
                self.metrics.handoff_flushed += 1
                self._transmit(rt, action.message, action.target, now)
            else:
                self.metrics.handoff_persisted += 1
                self._persist(rt, action.message)

    def _on_scan(self, now: int, node: NodeId) -> None:
        rt = self.nodes[node]
        if not rt.alive:
            return
        observations = []
        for nb in self._adjacency.get(node, ()):
            peer = self.nodes[nb]
            if not peer.alive:
                continue
            if nb in self._station_kinds:
                signature = Signature.TEMPORARY_STATION
            else:
                signature = peer.boot.own_signature
            observations.append(PeerObservation(str(nb), -40.0, signature))
        decision = rt.boot.scan(observations, now)
        self.metrics.boot_decisions.append({
            "t": now, "node": str(node), "decision": decision.value,
        })
        if decision is BootDecision.WAIT:
            self._at(rt.boot.next_rescan_at, "scan", node)

    def _on_roles(self, now: int) -> None:
        states = {node: rt.topo for node, rt in self.nodes.items()}
        assignments = classify_roles(states, set(self._station_kinds),
                                     self.policies.duty_cycle)
        for node, assignment in assignments.items():
            rt = self.nodes[node]
            self.metrics.roles[str(node)] = assignment.role.value
            if not self.policies.duty_cycle_enabled:
                continue
            self._charge(rt, now)
            rt.role = assignment
            self._reproject(rt, now)

    def _on_power(self, now: int, node: NodeId) -> None:
        rt = self.nodes[node]
        if not rt.alive:
            return
        rt.next_power_at = None
        self._charge(rt, now)
        if rt.alive:
            self._reproject(rt, now)

    # -- observation ------------------------------------------------------------

    def _on_snapshot(self, now: int) -> None:
        nodes = []
        links = set()
        mpr: dict[str, list[str]] = {}
        for node, rt in sorted(self.nodes.items(), key=lambda kv: kv[0].address):
            if rt.alive:
                self._charge(rt, now)
            battery_pct = None
            if rt.battery is not None:
                battery_pct = round(rt.battery.percent, 6)
            nodes.append({
                "node": str(node),
                "kind": rt.spec.kind,
                "battery_percent": battery_pct,
                "alive": rt.alive,
                "awake": rt.alive and self._is_awake(rt, now),
            })
            if not rt.alive:
                continue
            for nb in rt.topo.symmetric_neighbors():
                if nb in self.nodes and self.nodes[nb].alive:
                    links.add(tuple(sorted((str(node), str(nb)))))
            if rt.topo.mpr_set:
                mpr[str(node)] = sorted(str(m) for m in rt.topo.mpr_set)
        self.metrics.snapshots.append({
            "t": now,
            "nodes": nodes,
            "links": sorted(list(pair) for pair in links),
            "mpr": mpr,
        })

    def _finalize(self) -> None:
        for node, rt in sorted(self.nodes.items(), key=lambda kv: kv[0].address):
            name = str(node)
            for reason, count in rt.bank.drop_reasons.items():
                self.metrics.dropped[reason.value] = (
                    self.metrics.dropped.get(reason.value, 0) + count)
            backed = sum(rt.bank.backed_up.values())
            if backed:
                self.metrics.backed_up[name] = backed
            if len(rt.store):
                self.metrics.persisted[name] = len(rt.store)
            if rt.battery is not None:
                self.metrics.energy[name] = {
                    act.value: amount
                    for act, amount in sorted(rt.battery.drained_by_activity.items(),
                                              key=lambda kv: kv[0].value)
                }
                self.metrics.battery_percent[name] = round(rt.battery.percent, 6)
        self.metrics.conservation_ok = all(
            rt.bank.conservation_holds() for rt in self.nodes.values())


def run(scenario: Scenario, seed: Optional[int] = None) -> RunMetrics:
    """Simulate scenario and return its metrics."""
    return Simulator(scenario, seed).run()


def run_battery_experiment(interval: str, seed: int = 0) -> float:
    """Lifetime in hours of the relay phone under the given profile."""
    if interval not in BATTERY_INTERVALS:
        raise MalformedScenario(
            f"interval: expected one of {'/'.join(BATTERY_INTERVALS)}")
    scenario = build_battery_scenario(interval, seed=seed)
    metrics = run(scenario)
    phone = next(spec for spec in scenario.nodes if spec.kind == "phone")
    died_at = metrics.deaths.get(str(phone.node))
    if died_at is None:
        return scenario.duration_ms / MS_PER_HOUR
    return died_at / MS_PER_HOUR

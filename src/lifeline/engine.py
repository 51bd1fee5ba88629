"""Deterministic discrete-event simulator tying the protocol stack together.

Every node runs the real protocol objects: a topology state for link
sensing and routing, a priority queue bank for custody of messages, a
backup store, a boot controller, and a battery.  The event loop orders
work by (time, insertion sequence), and every random draw comes from a
per-node counter-based generator keyed by (run seed, node address), so
a given (scenario, seed) pair always produces byte-identical metrics.
A node's draws (`_Draws`) read raw Philox words a block at a time and
apply numpy's transforms in Python, returning exactly what a
`np.random.Generator` over the same key would, at a fraction of the
cost of a scalar Generator call.

Emergency messages cross links as real wire bytes through each bank's
receive path, which decodes each received hop exactly once; the backup
policy reuses that decoded message.  Control packets are handed to the
topology states by value, since their codec is exercised separately and
the volume of hello traffic dominates long runs.

Work is done on change, not on a timer.  A hello reruns MPR selection and
route computation only when the topology state says an input changed.
A node reuses its HELLO's neighbour tuple until a link or its MPR set
changes, and a receiver that gets the very tuple it last heard from
that sender only refreshes the link's timers.  A control packet to a
dead neighbour is not scheduled at all (its latency is still drawn, so
the random stream does not move): a node never comes back to life.
A node whose held messages have no route parks its custody: it schedules
no retry tick until its route table changes or a message arrives that
it can send.  The node counts its sendable messages with one scan of its
bank per route table and then keeps the count as messages arrive and
leave, so deciding to park costs no further scan.  Retry ticks remain
for banks that hold both sendable and unroutable messages.

Facts that cannot change are computed once.  Per run: the link model of
each address pair (and each node's neighbours with their links), the
backup policy, compiled into one decision function that reads a node's
battery and load only when an enabled option does, and the location
estimate of each message source, since a passive query floods the
static adjacency to the static known locations.  The codec is
canonical, so a received message's wire bytes are its encoding: they
size its queue entry and become its backup record, and a transmission
encodes once for both the wire and an after-forward backup.

An event costs little beyond its modelling work.  A heap entry is
(time, sequence, handler, arguments): the handler is the bound
`_on_<kind>` method, read once when run() starts, and a node event
carries the node's runtime rather than its id.  Every inject's sequence
number is reserved in one block where queueing them all would have
taken it, but each traffic spec keeps only its next inject on the heap,
so the heap stays node-sized and events keep their (time, sequence)
order.  A topology state scans for expired links and topology entries
only once the earliest expiry may have passed, and sends one HELLO
packet object until its neighbour tuple changes.

A lossy run draws a message's send and receive error uniforms at
inject, as ever, and charges each against the link it applies to: the
first transmission's link and the final hop's link.
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
    StorageFull,
    compile_policy,
    # Unused here since the policy is compiled once per run; perfbench's
    # tests still expect the tracer to find this binding site.
    evaluate_policy,  # noqa: F401
    reads_node_condition,
)
from .boot import BootController, BootDecision, PeerObservation, Signature
from .forwarding import (
    OutcomeKind,
    PriorityQueueBank,
    ReceiveResult,
    resolve_next_hop,
)
from .locating import LocationEstimate, estimate_position, passive_query
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
)
from .scenario import (
    BATTERY_INTERVALS,
    LATENCY_JITTER,
    LOOPBACK_LATENCY_MS,
    LinkModel,
    MalformedScenario,
    Scenario,
    TrafficSpec,
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


# Raw 64-bit Philox outputs fetched at a time by a node's draws.
DRAW_BLOCK = 256


class _Draws:
    """A node's random draws: what np.random.Generator(Philox(key)) returns.

    A scalar Generator call costs several microseconds; these read raw
    Philox words from blocks fetched lazily (none at construction) and
    apply numpy's own transforms, so every value and the stream's
    position match the Generator's exactly.
    """

    __slots__ = ("_bits", "_words", "_spare")

    def __init__(self, key: np.ndarray):
        self._bits = np.random.Philox(key=key)
        self._words: list[int] = []   # unread raw words, next one last
        self._spare: Optional[int] = None   # high half of a split word

    def _refill(self) -> list[int]:
        self._words = self._bits.random_raw(DRAW_BLOCK).tolist()[::-1]
        return self._words

    def _next64(self) -> int:
        return (self._words or self._refill()).pop()

    def _next32(self) -> int:
        """Philox hands out a word's low half and keeps the high half."""
        spare = self._spare
        if spare is not None:
            self._spare = None
            return spare
        word = self._next64()
        self._spare = word >> 32
        return word & 0xFFFF_FFFF

    def random(self) -> float:
        """Generator.random(): the top 53 bits of a word, scaled to [0, 1)."""
        return ((self._words or self._refill()).pop() >> 11) * 2.0 ** -53

    def uniform(self, lo: float, hi: float) -> float:
        # lo + (hi - lo) * random(), with random() inline: the engine
        # draws a latency jitter for every packet it sends.
        return lo + (hi - lo) * (((self._words or self._refill()).pop() >> 11)
                                 * 2.0 ** -53)

    def integers(self, lo: int, hi: int) -> int:
        """Generator.integers(lo, hi): Lemire's bounded draw on [lo, hi)."""
        span = hi - lo
        if span < 1:
            raise ValueError("integers: hi must exceed lo")
        if span == 1:
            return lo
        if span <= 1 << 32:
            bits, draw = 32, self._next32
        else:
            bits, draw = 64, self._next64
        if span == 1 << bits:
            return lo + draw()
        mask = (1 << bits) - 1
        m = draw() * span
        if m & mask < span:
            threshold = (1 << bits) % span
            while m & mask < threshold:
                m = draw() * span
        return lo + (m >> bits)


@dataclass
class _NodeRuntime:
    spec: object
    node: NodeId
    topo: TopologyState
    bank: PriorityQueueBank
    store: BackupStore
    boot: BootController
    rng: _Draws
    battery: Optional[BatteryModel]
    routes: dict = field(default_factory=dict)
    role: Optional[RoleAssignment] = None
    alive: bool = True
    clock: int = 0
    tc_seq: int = 0
    msg_counter: int = 0
    tick_scheduled: bool = False
    # Held messages (queued or swapped) that resolve under `routes`, or
    # None until a failed send counts them.  At 0 custody is parked: no
    # tick runs until the routes change or a message that resolves arrives.
    routable: Optional[int] = None
    next_power_at: Optional[int] = None
    pending_after_forward: set = field(default_factory=set)


@dataclass
class _ErrorDraws:
    """A lossy run's two error uniforms for one message, drawn at inject.

    Each is spent on the one transmission it applies to: the send draw on
    the first, against that link's p_send_error, and the receive draw on
    the first into the destination, against that link's p_recv_error.
    A spent send draw is None; the record goes once the receive draw is
    spent.
    """

    send: Optional[float]
    recv: Optional[float]


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
        self._error_draws: dict[int, _ErrorDraws] = {}

        base = _base_battery()
        self._static_adjacency = scenario.adjacency()
        # Link models keyed by address pair, in both directions; a send
        # over no configured link is a loopback.
        self._link_models: dict[tuple[int, int], LinkModel] = {}
        for link in scenario.links:
            a, b = link.a.address, link.b.address
            self._link_models[a, b] = self._link_models[b, a] = link.model
        self._loopback = LinkModel(LOOPBACK_LATENCY_MS)
        self._lossy = any(l.model.p_send_error > 0 or l.model.p_recv_error > 0
                          for l in scenario.links)

        backup_options = {
            BackupOption(opt["option"], opt.get("threshold"))
            for opt in self.policies.backup_options
        }
        self._policy = compile_policy(backup_options) if backup_options else None
        self._policy_reads_node = reads_node_condition(backup_options)
        self._known_locations = {
            spec.node: spec.location for spec in scenario.nodes
            if spec.location is not None
        }
        self._station_kinds = {spec.node for spec in scenario.nodes
                               if spec.kind == "station"}
        # Location estimate by origin address.  A passive query floods the
        # static adjacency to the static known locations, so within a run
        # its answer depends on the message's source alone.
        self._estimates: dict[int, LocationEstimate] = {}

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
                rng=_Draws(key),
                battery=battery,
            )
        # Each node's neighbours in address order, as (runtime, base
        # latency of the link).  Kept here rather than on the runtimes,
        # which would then form reference cycles that only the cyclic
        # garbage collector frees.
        self._out_links = {
            node: [(self.nodes[nb],
                    self._link_models[node.address, nb.address].base_latency_ms)
                   for nb in sorted(neighbors, key=lambda n: n.address)]
            for node, neighbors in self._static_adjacency.items()
        }

    # -- event plumbing -----------------------------------------------------

    def _bind_handlers(self) -> None:
        """Read each event's handler once, when the run starts.

        Not in __init__: wrappers put on the class or on this instance
        before run() must see every event.
        """
        self._do_hello = self._on_hello
        self._do_tc = self._on_tc
        self._do_ctl = self._on_ctl
        self._do_tick = self._on_tick
        self._do_msg = self._on_msg
        self._do_inject = self._on_inject
        self._do_scan = self._on_scan
        self._do_power = self._on_power

    def _at(self, t: int, handler, *args) -> None:
        heapq.heappush(self._heap, (t, next(self._seq), handler, args))

    def _schedule_tick(self, rt: _NodeRuntime, t: int) -> None:
        if not rt.tick_scheduled:
            rt.tick_scheduled = True
            self._at(t, self._do_tick, rt)

    def _wants_tick(self, rt: _NodeRuntime) -> bool:
        """The bank holds messages and custody is not parked."""
        return rt.routable != 0 and (any(rt.bank.queues) or rt.bank.swap_store)

    def _latency(self, rt: _NodeRuntime, model: LinkModel) -> int:
        jitter = rt.rng.uniform(-LATENCY_JITTER, LATENCY_JITTER)
        # round() of a float is already an int.
        return max(1, round(model.base_latency_ms * (1.0 + jitter)))

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
            self._at(at, self._do_power, rt)

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
        self._bind_handlers()
        for rt in self.nodes.values():
            self._at(0, self._do_hello, rt)
            self._at(FIRST_TC_MS, self._do_tc, rt)
            self._reproject(rt, 0)
        # Every inject's sequence number is reserved here, in one block,
        # but each traffic spec keeps only its next inject on the heap.
        seq = next(self._seq)
        self._seq = itertools.count(
            seq + sum(spec.count for spec in self.scenario.traffic))
        for spec in self.scenario.traffic:
            rt = self.nodes[spec.source]
            heapq.heappush(self._heap, (spec.start_ms, seq, self._do_inject,
                                        (spec, rt, 0, seq)))
            seq += spec.count
        for node, at in sorted(self.policies.scan_schedule.items()):
            self._at(at, self._do_scan, self.nodes[node])
        self._at(ROLE_ASSIGN_MS, self._on_roles)
        cadence = (SNAPSHOT_SHORT_MS if duration <= SNAPSHOT_CADENCE_CUTOFF_MS
                   else SNAPSHOT_LONG_MS)
        for t in range(cadence, duration + 1, cadence):
            self._at(t, self._on_snapshot)

        heap, pop = self._heap, heapq.heappop
        while heap:
            t, _, handler, args = pop(heap)
            if t > duration:
                break
            handler(t, *args)

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
        uniform = rt.rng.uniform
        heap, seq, on_ctl = self._heap, self._seq, self._do_ctl
        for peer, base_latency_ms in self._out_links[rt.node]:
            # _latency, inline.  Draw even for a dead neighbour, so the
            # stream does not move; a node never revives, so no event for
            # it is needed.
            jitter = uniform(-LATENCY_JITTER, LATENCY_JITTER)
            latency = max(1, round(base_latency_ms * (1.0 + jitter)))
            if peer.alive:
                heapq.heappush(heap, (now + latency, next(seq), on_ctl,
                                      (peer, pkt)))

    def _on_hello(self, now: int, rt: _NodeRuntime) -> None:
        if not rt.alive:
            return
        if rt.battery is not None:
            self._charge(rt, now)
            if not rt.alive:
                return
        if rt.role is None or self._is_awake(rt, now):
            topo = rt.topo
            topo.expire_links(now)
            topo.expire_topology(now)
            if topo.dirty:
                topo.dirty = False
                topo.select_mprs()
                routes = topo.compute_routes()
                if routes != rt.routes:
                    rt.routes = routes
                    rt.routable = None
                    if self._wants_tick(rt):
                        self._schedule_tick(rt, now)
            self._broadcast(rt, topo.make_hello(), now)
            if rt.battery is not None:
                self._check_handoff(rt, now)
        heapq.heappush(self._heap, (now + self.policies.hello_interval_ms,
                                    next(self._seq), self._do_hello, (rt,)))

    def _on_tc(self, now: int, rt: _NodeRuntime) -> None:
        if not rt.alive:
            return
        if (rt.role is None or self._is_awake(rt, now)) and rt.topo.mpr_selectors:
            rt.tc_seq = (rt.tc_seq + 1) % (1 << 16)
            self._broadcast(rt, rt.topo.make_tc(rt.tc_seq), now)
        heapq.heappush(self._heap, (now + self.policies.tc_interval_ms,
                                    next(self._seq), self._do_tc, (rt,)))

    def _on_ctl(self, now: int, rt: _NodeRuntime, pkt: ControlPacket) -> None:
        if not rt.alive or not (rt.role is None or self._is_awake(rt, now)):
            return
        if self.policies.energy_per_control > 0:
            self._drain_event(rt, Activity.CONTROL_PACKET, now)
            if not rt.alive:
                return
        if pkt.kind is ControlKind.HELLO:
            rt.topo.process_hello(pkt, now)
        elif rt.topo.process_tc(pkt, now):
            self._broadcast(rt, pkt.relayed_by(rt.node), now)

    # -- message plane -----------------------------------------------------------

    def _load_percent(self, rt: _NodeRuntime) -> int:
        return min(100, round(100 * rt.bank.ram_used / rt.bank.ram_budget))

    def _maybe_backup(self, rt: _NodeRuntime, msg: EmergencyMessage,
                      now: int, data: Optional[bytes] = None) -> None:
        """Apply the backup policy; data is msg's encoding, if held."""
        if self._policy is None:
            return
        if self._policy_reads_node:
            battery_pct = 100 if rt.battery is None else int(rt.battery.percent)
            decision = self._policy(msg, max(0, min(100, battery_pct)),
                                    self._load_percent(rt))
        else:  # the policy reads neither percentage
            decision = self._policy(msg, 0, 0)
        if decision.action is BackupAction.BACKUP_ON_RECEIVE:
            self._persist(rt, msg, data)
        elif decision.action is BackupAction.BACKUP_AFTER_FORWARD:
            rt.pending_after_forward.add(msg.msg_id)

    def _persist(self, rt: _NodeRuntime, msg: EmergencyMessage,
                 data: Optional[bytes] = None) -> None:
        try:
            rt.store.persist(msg, data)
        except StorageFull:
            self.metrics.dropped["backup_full"] = (
                self.metrics.dropped.get("backup_full", 0) + 1)

    def _transmit(self, rt: _NodeRuntime, msg: EmergencyMessage,
                  next_hop: NodeId, now: int) -> None:
        model = self._link_models.get((rt.node.address, next_hop.address),
                                      self._loopback)
        latency = self._latency(rt, model)
        draws = self._error_draws.get(msg.msg_id)
        if draws is not None:
            if draws.send is not None:
                if draws.send < model.p_send_error:
                    self.metrics.send_errors += 1
                    latency += model.base_latency_ms
                draws.send = None
            if draws.recv is not None and (
                    next_hop == msg.dst
                    or (msg.dst.is_station_address
                        and next_hop.is_station_address)):
                if draws.recv < model.p_recv_error:
                    self.metrics.recv_errors += 1
                    latency += model.base_latency_ms
                del self._error_draws[msg.msg_id]  # both draws are spent
        self._drain_event(rt, Activity.FORWARD_MESSAGE, now)
        data = encode_message(msg)
        if msg.msg_id in rt.pending_after_forward:
            rt.pending_after_forward.discard(msg.msg_id)
            self._persist(rt, msg, data)
        self._at(now + latency, self._do_msg, self.nodes[next_hop], data)

    def _on_tick(self, now: int, rt: _NodeRuntime) -> None:
        rt.tick_scheduled = False
        if not rt.alive:
            return
        if rt.role is not None:
            wake = self._next_wake(rt, now)
            if wake > now:
                self._schedule_tick(rt, wake)
                return
        outcomes = rt.bank.forward_tick(rt.routes, now)
        retry = False
        for outcome in outcomes:
            if outcome.kind is OutcomeKind.DELIVERED:
                if rt.routable:
                    rt.routable -= 1
                self._transmit(rt, outcome.message, outcome.next_hop, now)
                if not rt.alive:
                    return
            elif outcome.kind is OutcomeKind.UNREACHABLE:
                retry = True
        if retry and rt.routable is None:
            rt.routable = self._count_routable(rt)
        if self._wants_tick(rt):
            self._schedule_tick(rt, now + (RETRY_TICK_MS if retry
                                           else FORWARD_TICK_MS))

    def _resolves(self, rt: _NodeRuntime, dst: NodeId) -> bool:
        """Whether forward_tick would send toward dst rather than demote."""
        return (rt.bank._is_local_destination(dst)
                or resolve_next_hop(rt.routes, dst) is not None)

    def _count_routable(self, rt: _NodeRuntime) -> int:
        """Held messages that resolve under rt.routes, by one bank scan."""
        bank = rt.bank
        return sum(1 for entry in itertools.chain(*bank.queues, bank.swap_store)
                   if self._resolves(rt, entry.msg.dst))

    def _held(self, rt: _NodeRuntime) -> Optional[int]:
        """Messages in custody, while the routable count is being kept."""
        if rt.routable is None:
            return None
        return sum(map(len, rt.bank.queues)) + len(rt.bank.swap_store)

    def _admitted(self, rt: _NodeRuntime, msg: EmergencyMessage,
                  held_before: Optional[int], now: int) -> None:
        """Count a message the bank just took into custody, then wake it."""
        if (held_before is not None and self._held(rt) > held_before
                and self._resolves(rt, msg.dst)):
            rt.routable += 1
        if self._wants_tick(rt):
            self._schedule_tick(rt, now)

    def _on_msg(self, now: int, rt: _NodeRuntime, data: bytes) -> None:
        if not rt.alive:
            self.metrics.lost_to_dead_node += 1
            return
        if rt.role is not None:
            wake = self._next_wake(rt, now)
            if wake > now:
                self._at(wake, self._do_msg, rt, data)
                return
        if rt.battery is not None:
            self._charge(rt, now)
            if not rt.alive:
                self.metrics.lost_to_dead_node += 1
                return
            p = acceptance_probability(rt.battery.percent,
                                       self.policies.handoff_threshold_pct)
            if p < 1.0 and rt.rng.random() >= p:
                self.metrics.handoff_rejected += 1
                return
        before = len(rt.bank.delivered_log)
        held = self._held(rt)
        if rt.bank.receive(data) is ReceiveResult.IGNORED:
            self.metrics.ignored += 1
            return
        # The codec is canonical, so data is the received message's encoding.
        self._maybe_backup(rt, rt.bank.last_received, now, data)
        for msg in rt.bank.delivered_log[before:]:
            self._record_delivery(rt, msg, now)
        self._admitted(rt, rt.bank.last_received, held, now)

    def _record_delivery(self, rt: _NodeRuntime, msg: EmergencyMessage,
                         now: int) -> None:
        estimate = "unknown"
        if rt.node in self._station_kinds and self._known_locations:
            located = self._estimates.get(msg.src.address)
            if located is None:
                located = self._estimates[msg.src.address] = estimate_position(
                    passive_query(msg.src, self.policies.location_query_hops,
                                  self._static_adjacency,
                                  self._known_locations))
            estimate = located.to_json()
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

    def _on_inject(self, now: int, spec: TrafficSpec, rt: _NodeRuntime, i: int,
                   seq: int) -> None:
        """Inject message i of spec, whose sequence number is seq."""
        if i + 1 < spec.count:
            heapq.heappush(self._heap, (now + spec.interval_ms, seq + 1,
                                        self._do_inject,
                                        (spec, rt, i + 1, seq + 1)))
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
            send = rt.rng.random()
            self._error_draws[msg.msg_id] = _ErrorDraws(send, rt.rng.random())
        self.metrics.injected += 1
        self._maybe_backup(rt, msg, now)
        held = self._held(rt)
        rt.bank.inject(msg)
        self._admitted(rt, msg, held, now)

    def _draw_priority(self, rt: _NodeRuntime, spec, i: int) -> int:
        if spec.kind == "fixed":
            return spec.value
        if spec.kind == "stratified":
            period = max(1, round(1.0 / spec.priority0_share))
            if i % period == 0:
                return 0
            return rt.rng.integers(1, 5)
        return rt.rng.integers(0, 5)

    def _draw_size(self, rt: _NodeRuntime, spec) -> int:
        if spec.kind == "constant":
            return spec.lo
        return rt.rng.integers(spec.lo, spec.hi + 1)

    # -- handoff, boot, roles -----------------------------------------------------

    def _check_handoff(self, rt: _NodeRuntime, now: int) -> None:
        if rt.battery is None or not rt.alive:
            return
        if rt.battery.percent >= self.policies.handoff_threshold_pct:
            return
        actions = low_battery_handoff(rt.bank, rt.routes, rt.battery.percent,
                                      self.policies.handoff_threshold_pct)
        if actions:
            rt.routable = 0  # the bank is empty now
        for action in actions:
            if action.kind is HandoffKind.FLUSH:
                self.metrics.handoff_flushed += 1
                self._transmit(rt, action.message, action.target, now)
            else:
                self.metrics.handoff_persisted += 1
                self._persist(rt, action.message)

    def _on_scan(self, now: int, rt: _NodeRuntime) -> None:
        if not rt.alive:
            return
        observations = []
        for peer, _ in self._out_links[rt.node]:
            if not peer.alive:
                continue
            nb = peer.node
            if nb in self._station_kinds:
                signature = Signature.TEMPORARY_STATION
            else:
                signature = peer.boot.own_signature
            observations.append(PeerObservation(str(nb), -40.0, signature))
        decision = rt.boot.scan(observations, now)
        self.metrics.boot_decisions.append({
            "t": now, "node": str(rt.node), "decision": decision.value,
        })
        if decision is BootDecision.WAIT:
            self._at(rt.boot.next_rescan_at, self._do_scan, rt)

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

    def _on_power(self, now: int, rt: _NodeRuntime) -> None:
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

"""Deterministic discrete-event simulator tying the protocol stack together.

Every node runs the real protocol objects: a topology state for link
sensing and routing, a priority queue bank for custody of messages, a
backup store, a boot controller, and a battery.  The event loop orders
work by time and, within a ms, by a fixed order of tiers (see
_HELLO_TIER): events queued before the run, then HELLOs and then TC
timers, each in address order, then every other event in the order it
was queued, and a stretch's end last.  Every random draw comes from a
counter-based generator keyed by (run seed, node address, purpose), so
a given (scenario, seed) pair always produces byte-identical metrics.
A node has three streams: its HELLOs' latency jitter, the jitter of
the TCs it originates, and everything else (the message plane and the
TCs it relays).  A stream (`_Draws`) builds its Philox on its first
draw, reads raw words a block at a time and applies numpy's transforms
in Python, returning exactly what a `np.random.Generator` over the same
key would, at a fraction of the cost of a scalar Generator call.

Emergency messages cross links as real wire bytes through each bank's
receive path, which decodes each received hop exactly once; the backup
policy reuses that decoded message.  Only `_on_inject` encodes a
message: every later hop, and a low-battery handoff, sends or persists
its held bytes with the current priority and hop count spliced in.
Control packets have no wire form:
the topology states pass them to each other by value, and a packet costs
only its link latency and, when a scenario sets one, its energy.

Work is done on change, not on a timer.  A hello reruns MPR selection and
route computation only when the topology state says an input changed.
A node reuses its HELLO's neighbour tuple until a link or its MPR set
changes, and a receiver that gets the very tuple it last heard from
that sender only refreshes the link's timers.  When no run-level fact
can tell the two times apart (see run()), that refresh is applied as
the HELLO is sent, stamped with its arrival, and queues no event.  A
node with fewer than two neighbours never sends or relays a TC, so it
runs no TC timer, and a TC its neighbour originates with the very tuple
that set the neighbour's topology entry is applied at send the same
way.  A control packet to a dead neighbour is not scheduled at all
(its latency is still drawn, so a node's k-th HELLO or TC always reads
the same words of its stream): a node never comes back to life.  A
node schedules a forward tick only when its queue bank wants one; a
bank holding only unroutable messages parks (see `forwarding`).

A node whose HELLOs can change nothing is in a stretch: it queues no
HELLO, and the HELLOs it owes are a count on the fixed grid of HELLO
times.  The whole network enters one when, on the stretch's run-level
facts (see run()), every HELLO only refreshes, no control packet is in
flight and the only TCs are those a node applies at send to its leaf
neighbours (see _enter_stretch); it ends at the first death or handoff
crossing, closed forms of the battery totals armed as one event and
re-solved once a battery node has spent a budget of forwards.  Its TC
timers stop too, at their first TC time in it: each TC would only
refresh leaves' topology entries, on a fixed grid of times.  Nothing
owed is drawn: HELLO k of a node with d neighbours reads words [k·d,
(k+1)·d) of its HELLO stream, and its TCs likewise of its TC stream,
which no other draw shares.  So the end counts each node's owed HELLOs
and TCs in closed form, reads the words of its last owed HELLO and
latest owed TCs where they stand, restamps its neighbours' links,
topology entries and duplicate sets from them (_stamp_hellos,
_stamp_tcs), and skips each stream once.  The HELLOs and TC timers then
resume at the next times of their grids, where their tiers give them the
places the reference's take (see _end_stretch).

A node's death is a time, `dies_at`, and the node is dead at `now`
exactly when `now >= dies_at`; a mains node never dies.  Its battery
(`power.BatteryModel`) keeps integer totals and gives the death time in
closed form: the first whole ms at which continuous drain empties it, or
the time of the forward or control packet charge that does.  Such a
charge moves the death time earlier, and a duty-cycle role moves it to
the new schedule's; a handler reads the level at its own time without
booking anything.  So no event exists to find a death, and a run's
deaths are read from the death times when it ends.

Facts that cannot change are computed once.  Per run: the link model of
each address pair (and each node's neighbours with their links), the
backup policy, compiled into one decision function that reads a node's
battery and load only when an enabled option does, and the location
estimate of each message source, as the JSON every delivery record
reuses, since a passive query floods the static adjacency to the static
known locations.  A node id remembers its own dotted-quad text.  The
codec is canonical, so a message's bytes are its encoding: the
inject-time encoding and each received hop's bytes are held in its
queue entry, size it and become its backup record, and a transmission's
spliced bytes serve both the wire and an after-forward backup.

An event costs little beyond its modelling work.  A heap entry is
(time, sequence, handler, arguments): the handler is the bound
`_on_<kind>` method, read once when run() starts, and a node event
carries the node's runtime rather than its id.  Each traffic spec keeps
only its next inject on the heap, under the spec's index, so the heap
stays node-sized and injects keep their order.  A message-plane handler
asks its bank whether it wants a tick only when none is scheduled, skips
the backup policy when none is enabled, and charges energy only on
battery nodes; a loss-free run looks up no error draws.  A topology
state scans for expired links and topology entries only once the
earliest expiry may have passed, and sends one HELLO packet object
until its neighbour tuple changes.

A lossy run draws a message's send and receive error uniforms at
inject, keeps each in its own map by message id, and spends it on the
transmission it applies to: the send draw against the first
transmission's link, the receive draw against the final hop's link.
Only a node that dozes gets a duty-cycle role, which carries its wake
windows: `RoleAssignment.next_wake` says when it wakes.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .backup import (
    BackupAction,
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
    terminates_at,
)
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
from .olsr import DUP_HOLD_MS, SEQ_MOD, ControlKind, ControlPacket, TopologyState
from .power import (
    MS_PER_HOUR,
    Activity,
    BatteryModel,
    CalibrationPoint,
    RoleAssignment,
    acceptance_probability,
    calibrate,
    classify_roles,
    is_awake,
    station_route,
)
from .scenario import (
    LATENCY_JITTER,
    LOOPBACK_LATENCY_MS,
    LinkModel,
    Scenario,
    TrafficSpec,
    build_battery_scenario,
)

# Read on every hop or charge; on Python 3.11 reading a member through its
# enum class costs about ten times as much as reading a module global.
_DELIVERED = OutcomeKind.DELIVERED
_UNREACHABLE = OutcomeKind.UNREACHABLE
_IGNORED = ReceiveResult.IGNORED
_BACKUP_ON_RECEIVE = BackupAction.BACKUP_ON_RECEIVE
_BACKUP_AFTER_FORWARD = BackupAction.BACKUP_AFTER_FORWARD
_FORWARD_MESSAGE = Activity.FORWARD_MESSAGE
_CONTROL_PACKET = Activity.CONTROL_PACKET
_HELLO = ControlKind.HELLO

FORWARD_TICK_MS = 1
RETRY_TICK_MS = 100
ROLE_ASSIGN_MS = 30_000
FIRST_TC_MS = 2_500
SNAPSHOT_SHORT_MS = 10_000
SNAPSHOT_LONG_MS = 600_000
SNAPSHOT_CADENCE_CUTOFF_MS = 300_000
# The events of one ms run in tiers of their sequence numbers: first
# those queued before the run loop starts, injects under their traffic
# spec's index and snapshots, role assignment and first scans under the
# counter's next numbers; then the HELLOs and then the TC timers, each
# under its tier plus the node's address, so in address order; then
# every other event, under the counter restarted at _EVENT_TIER, in the
# order it was queued; and last a stretch's end.
_HELLO_TIER = 1 << 40
_TC_TIER = 2 << 40
_EVENT_TIER = 3 << 40
_LAST_IN_MS = 1 << 63

# Measured phone lifetimes that pin the battery model: idle, with the
# screen on, and relaying a message every 10 seconds.
CALIBRATION_POINTS = (
    CalibrationPoint.idle(15.0),
    CalibrationPoint.screen(7.0),
    CalibrationPoint.interval(10.0, 7.0),
)
# The calibrated rates, of a battery of capacity 1; each node's battery is
# a copy with its own capacity, control cost and screen.
_BASE_BATTERY = calibrate(list(CALIBRATION_POINTS))


# Raw 64-bit Philox outputs fetched at a time by a node's draws; a
# multiple of the four a Philox counter step gives.
DRAW_BLOCK = 256
# A node's streams by purpose, keyed by (run seed, address | purpose):
# HELLO jitter and the jitter of the TCs the node originates each have
# their own; everything else (the message plane and relayed TCs) draws
# from the one keyed by the address alone.
_HELLO_STREAM = 1 << 32
_TC_STREAM = 2 << 32


class _Draws:
    """One random stream: what np.random.Generator(Philox(key)) returns.

    A scalar Generator call costs several microseconds; these read raw
    Philox words from blocks fetched lazily and apply numpy's own
    transforms, so every value and the stream's position match the
    Generator's exactly.  Nothing is built before the first draw, not
    even the Philox: a run builds only the streams it draws from.
    """

    __slots__ = ("_key", "_bits", "_words", "_spare", "_end")

    def __init__(self, key):
        self._key = np.asarray(key, dtype=np.uint64)
        self._bits: Optional[np.random.Philox] = None
        self._words: list[int] = []   # unread raw words, next one last
        self._spare: Optional[int] = None   # high half of a split word
        self._end = 0   # the stream position just past the fetched words

    def _refill(self) -> list[int]:
        if self._bits is None:
            # Philox is counter-based: a word's counter is its position
            # over four, and _end is always a whole counter.
            self._bits = np.random.Philox(key=self._key,
                                          counter=self._end // 4)
        self._words = self._bits.random_raw(DRAW_BLOCK).tolist()[::-1]
        self._end += DRAW_BLOCK
        return self._words

    def tell(self) -> int:
        """The stream position: how many words come before the next."""
        return self._end - len(self._words)

    def uniforms_at(self, at: int, n: int, lo: float, hi: float) -> list[float]:
        """The n uniform(lo, hi) draws the words from stream position at on
        give, wherever the stream stands, without moving it.  Philox is
        counter-based: a word's counter is its position over four."""
        raw = np.random.Philox(key=self._key, counter=at // 4).random_raw(
            at % 4 + n).tolist()[at % 4:]
        return [lo + (hi - lo) * ((word >> 11) * 2.0 ** -53) for word in raw]

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

    def skip(self, n: int) -> None:
        """Pass over n words, as n random() calls would; a pending high
        half stays pending, as it does in the Generator.  The Philox is
        built again at the counter of the word the stream then stands at."""
        at = self.tell() + n
        self._bits, self._end = None, at - at % 4
        del self._refill()[DRAW_BLOCK - at % 4:]

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
    # The node's streams (see _HELLO_STREAM): the message plane's and
    # relayed TCs', its HELLOs' and its own TCs'.
    rng: _Draws
    hello_rng: _Draws
    tc_rng: _Draws
    battery: Optional[BatteryModel]
    role: Optional[RoleAssignment] = None
    # Fewer than two static neighbours: the node never relays a TC.
    leaf: bool = False
    # The node is dead from this ms on: its battery's death time.
    dies_at: float = math.inf
    # A battery node in a stretch: the death time its budgeted forwards
    # leave (see _horizon); a forward that moves dies_at to or before it
    # has spent the budget.
    armed_death: float = -math.inf
    tc_seq: int = 0
    msg_counter: int = 0
    tick_scheduled: bool = False
    pending_after_forward: set = field(default_factory=set)


class Simulator:
    """One run of a scenario; create, call run(), read the metrics."""

    # The event elisions a run may apply, each only where its run-level
    # facts hold (see run()): a HELLO that only refreshes a link applied as
    # it is sent ("refresh"), a leaf's TC refresh applied as it is sent
    # ("tc"), and HELLOs a stretch owes rather than sends ("stretch").
    # Without them every HELLO and TC is an event: the reference path.
    elisions = frozenset({"refresh", "tc", "stretch"})

    def __init__(self, scenario: Scenario, seed: Optional[int] = None):
        scenario.validate()
        self.scenario = scenario
        self.seed = scenario.seed if seed is None else seed
        self.policies = scenario.policies
        self.metrics = RunMetrics(scenario.name, self.seed,
                                  scenario.duration_ms)
        self._last_ms = scenario.duration_ms
        self._heap: list = []
        self._seq = itertools.count()
        # A lossy run's error uniforms by message id, drawn at inject; see
        # _transmit for the one transmission each is spent on.
        self._send_draws: dict[int, float] = {}
        self._recv_draws: dict[int, float] = {}
        # The stretch (see _enter_stretch): the last time something that a
        # stretch rules out happened, the HELLO time last decided on and
        # its decision, and while one is on, its nodes, the time of the
        # first HELLO they owe, and the time its armed end is due at and
        # its queued event; once its TC timers have stopped, the stopped
        # nodes and the first TC time they owe.
        self._unsteady_at = 0
        self._decided = (None, False)
        self._members: list[_NodeRuntime] = []
        self._hello_from = 0
        self._end_at: Optional[float] = None
        self._end_event: Optional[tuple] = None
        self._tc_stopped: list[_NodeRuntime] = []
        self._tc_from = 0

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

        backup_options = self.policies.enabled_backup_options()
        self._policy = compile_policy(backup_options) if backup_options else None
        self._policy_reads_node = reads_node_condition(backup_options)
        self._known_locations = {
            spec.node: spec.location for spec in scenario.nodes
            if spec.location is not None
        }
        self._station_kinds = {spec.node for spec in scenario.nodes
                               if spec.kind == "station"}
        # Location estimate, as delivery-record JSON, by origin address.  A
        # passive query floods the static adjacency to the static known
        # locations, so within a run its answer depends on the message's
        # source alone.
        self._estimates: dict[int, dict] = {}

        self.nodes: dict[NodeId, _NodeRuntime] = {}
        seed = self.seed % (1 << 64)
        for spec in sorted(scenario.nodes, key=lambda s: s.node.address):
            battery = None
            if spec.battery_capacity is not None:
                battery = replace(
                    _BASE_BATTERY, capacity=spec.battery_capacity,
                    energy_per_control=self.policies.energy_per_control,
                    screen_on=spec.screen_on)
            address = spec.node.address
            self.nodes[spec.node] = _NodeRuntime(
                spec=spec,
                node=spec.node,
                topo=TopologyState(spec.node,
                                   hold_time_ms=self.policies.hold_time_ms,
                                   topology_hold_ms=self.policies.topology_hold_ms),
                bank=PriorityQueueBank(spec.node),
                store=BackupStore(),
                boot=BootController(),
                rng=_Draws([seed, address]),
                hello_rng=_Draws([seed, address | _HELLO_STREAM]),
                tc_rng=_Draws([seed, address | _TC_STREAM]),
                battery=battery,
                dies_at=math.inf if battery is None else battery.dies_at,
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
        for rt in self.nodes.values():
            rt.leaf = len(self._out_links[rt.node]) < 2

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

    def _at(self, t: int, handler, *args) -> None:
        heapq.heappush(self._heap, (t, next(self._seq), handler, args))

    def _timer(self, t: int, tier: int, handler, rt: _NodeRuntime) -> None:
        """Queue rt's HELLO or TC timer at t, in its tier's address order."""
        heapq.heappush(self._heap, (t, tier + rt.node.address, handler, (rt,)))

    def _schedule_tick(self, rt: _NodeRuntime, t: int) -> None:
        if not rt.tick_scheduled:
            rt.tick_scheduled = True
            self._at(t, self._do_tick, rt)

    # -- battery ------------------------------------------------------------

    def _drain_event(self, rt: _NodeRuntime, activity: Activity,
                     now: int) -> None:
        """One discrete energy charge (message or control packet).  A death
        past the run is not looked for, unless a stretch budget is armed:
        its crossing can come inside the run while the death does not."""
        if rt.battery is not None and now < rt.dies_at:
            rt.dies_at = rt.battery.drain(
                activity, now,
                self._last_ms if rt.armed_death == -math.inf else math.inf)
            if rt.dies_at <= rt.armed_death:
                self._rebudget([rt], now)

    # -- the run ----------------------------------------------------------------

    def run(self) -> RunMetrics:
        duration = self.scenario.duration_ms
        self._bind_handlers()
        elisions = self.elisions
        # A HELLO that only refreshes a link is applied when it is sent
        # (see _broadcast) when nothing can tell the two times apart: its
        # reception costs no energy, every node is always awake, and the
        # longest link latency is below the HELLO interval, so no earlier
        # HELLO from the same sender is still in flight.
        models = self._link_models.values()
        self._longest = longest = max(
            (round(model.base_latency_ms * (1.0 + LATENCY_JITTER))
             for model in models), default=0)
        policies = self.policies
        interval = policies.hello_interval_ms
        self._refresh_at_send = ("refresh" in elisions
                                 and policies.energy_per_control == 0
                                 and not policies.duty_cycle_enabled
                                 and longest < interval)
        # A leaf never relays a TC, so a TC its neighbour originates that
        # only refreshes a topology entry is applied when it is sent, on the
        # same facts, when also no earlier TC from that neighbour is still
        # in flight.  Relayed TCs stay events: copies that took different
        # paths can arrive out of order.
        self._tc_at_send = ("tc" in elisions and self._refresh_at_send
                            and longest < policies.tc_interval_ms)
        # A stretch (see _enter_stretch) needs more: a live neighbour's link
        # and a TC origin's topology entry never lapse between refreshes;
        # and a TC sequence number comes back only after a leaf's HELLO has
        # aged its key out of the duplicate set, so the keys a stretch's
        # end restamps (_stamp_tcs) are distinct too.
        tc_interval = policies.tc_interval_ms
        self._stretches = (
            "stretch" in elisions and self._refresh_at_send
            and policies.hold_time_ms > interval + longest
            and policies.topology_hold_ms > tc_interval + longest
            and SEQ_MOD * tc_interval > DUP_HOLD_MS + interval + longest)
        # The owed TCs a stretch's end restamps from: a key of any earlier
        # one has aged out by the end's last HELLO time.
        self._tc_kept = -(-(DUP_HOLD_MS + interval + longest) // tc_interval)
        for rt in self.nodes.values():
            self._timer(0, _HELLO_TIER, self._do_hello, rt)
            # A node with fewer than two neighbours lists at most one in its
            # HELLO, so it covers no 2-hop node: it is never an MPR, gains
            # no MPR selector and so never sends a TC.
            if not rt.leaf:
                self._timer(FIRST_TC_MS, _TC_TIER, self._do_tc, rt)
        # Injects run first in their ms, in traffic-spec order: each spec
        # keeps only its next inject on the heap, under its own index.
        traffic = self.scenario.traffic
        for key, spec in enumerate(traffic):
            rt = self.nodes[spec.source]
            heapq.heappush(self._heap, (spec.start_ms, key, self._do_inject,
                                        (spec, rt, 0, key)))
        self._seq = itertools.count(len(traffic))
        for node, at in sorted(self.policies.scan_schedule.items()):
            self._at(at, self._do_scan, self.nodes[node])
        self._at(ROLE_ASSIGN_MS, self._on_roles)
        cadence = (SNAPSHOT_SHORT_MS if duration <= SNAPSHOT_CADENCE_CUTOFF_MS
                   else SNAPSHOT_LONG_MS)
        for t in range(cadence, duration + 1, cadence):
            self._at(t, self._on_snapshot)

        self._seq = itertools.count(_EVENT_TIER)
        heap, pop = self._heap, heapq.heappop
        while heap:
            t, _, handler, args = pop(heap)
            if t > duration:
                break
            handler(t, *args)
        self._finalize()
        return self.metrics

    # -- control plane -----------------------------------------------------------

    def _broadcast(self, rt: _NodeRuntime, pkt: ControlPacket, now: int,
                   rng: _Draws, at_send: bool = False) -> None:
        """Send pkt to every neighbour, drawing its latencies from rng.
        With at_send, pkt is a HELLO or rt's own TC, and a neighbour it
        would only refresh (any for a HELLO, a leaf for a TC) is refreshed
        now, as of its arrival, rather than by an event."""
        if self.policies.energy_per_control > 0:
            self._drain_event(rt, _CONTROL_PACKET, now)
            if now >= rt.dies_at:
                return
        uniform = rng.uniform
        heap, seq, on_ctl = self._heap, self._seq, self._do_ctl
        hello = pkt.kind is _HELLO
        for peer, base_latency_ms in self._out_links[rt.node]:
            # The link's base latency with a uniform jitter; round() of a
            # float is already an int.  Draw even for a dead neighbour, so
            # every packet draws one word per neighbour (see _owed); a node
            # never revives, so no event for it is needed.
            jitter = uniform(-LATENCY_JITTER, LATENCY_JITTER)
            arrival = now + max(1, round(base_latency_ms * (1.0 + jitter)))
            if now >= peer.dies_at or at_send and (
                    peer.topo.refresh(pkt, arrival) if hello
                    else peer.leaf and peer.topo.refresh_tc(pkt, arrival)):
                continue
            self._unsteady_at = now
            heapq.heappush(heap, (arrival, next(seq), on_ctl, (peer, pkt)))

    def _on_hello(self, now: int, rt: Optional[_NodeRuntime]) -> None:
        if rt is None:
            # The stretch's armed end, after every other event of ms now:
            # budget every battery member again.
            self._end_event, self._end_at = None, math.inf
            self._rebudget(self._members, now)
            return
        if now >= rt.dies_at:
            return
        if rt.role is None or is_awake(rt.role, now):
            topo = rt.topo
            topo.expire_links(now)
            topo.expire_topology(now)
            rerouted = False
            if topo.dirty:
                self._unsteady_at = now
                topo.dirty = False
                topo.select_mprs()
                rerouted = rt.bank.set_routes(topo.compute_routes())
            self._broadcast(rt, topo.make_hello(), now, rt.hello_rng,
                            self._refresh_at_send)
            if rt.battery is not None:
                self._check_handoff(rt, now)
            # After the handoff, which may have emptied the bank.
            if rerouted and rt.bank.wants_tick:
                self._schedule_tick(rt, now)
            if self._stretches and self._steady(now):
                return
        self._timer(now + self.policies.hello_interval_ms, _HELLO_TIER,
                    self._do_hello, rt)

    # -- stretches ---------------------------------------------------------------

    def _steady(self, t: int) -> bool:
        """Whether the HELLOs after those of time t are owed, not sent;
        decided once per HELLO time, by its first HELLO (_enter_stretch)."""
        at, steady = self._decided
        if at != t:
            steady = self._enter_stretch(t)
            self._decided = (t, steady)
        return steady

    def _enter_stretch(self, t: int) -> bool:
        """Start a stretch after the HELLOs of time t if every HELLO of
        every live node can only refresh its neighbours' links until
        something can change; arm its end.

        The HELLOs of one time run as one block in address order, before
        every event of their ms but those queued before the run (see
        _HELLO_TIER).  None of them, no control packet and no topology
        change came since before the block a HELLO interval ago: so no
        node is dirty, each has the HELLO every live neighbour heard from
        it last and nothing is in flight, and this block does what the
        last did.
        A node's state can then change only if a link or topology entry
        lapses, a node dies or a battery falls under the handoff
        threshold.  Links do not lapse: every linked neighbour is alive
        and refreshes each link in time.  Topology entries do not: the
        only TCs are those a node sends to neighbours that are all
        leaves, each applied at send to an entry that TC's tuple set and
        that holds until the next TC comes.  Deaths and handoff crossings
        are closed forms of the battery totals (`BatteryModel.horizon`):
        the stretch ends at the first death or the ms before the first
        crossing, as budgeted for each battery node's next forwards, so
        the first HELLO that could see either is sent.
        """
        interval = self.policies.hello_interval_ms
        if self._unsteady_at >= t - interval:
            return False
        tc_arrives_by = t + self.policies.tc_interval_ms + self._longest
        members = []
        for rt in self.nodes.values():
            if t >= rt.dies_at:
                continue
            topo = rt.topo
            if topo.dirty or any(t >= self.nodes[nb].dies_at
                                 for nb in topo.links):
                return False
            out = self._out_links[rt.node]
            for origin in topo.topology:
                peer = out[0][0] if len(out) == 1 else None
                if (peer is None or peer.node != origin
                        or t >= peer.dies_at or not peer.topo.mpr_selectors):
                    return False
            if topo.mpr_selectors:
                sent = topo.tc_tuple()
                if not self._tc_at_send or sent is None or not all(
                        t >= peer.dies_at or peer.leaf and peer.topo.holds_tc(
                            rt.node, sent, tc_arrives_by)
                        for peer, _ in out):
                    return False
            members.append(rt)
        end = min((self._horizon(rt, t) for rt in members
                   if rt.battery is not None), default=math.inf)
        if end < t + interval:
            for rt in members:
                rt.armed_death = -math.inf
            return False
        self._members, self._hello_from = members, t + interval
        self._arm(end)
        return True

    def _horizon(self, rt: _NodeRuntime, now: int) -> float:
        """Budget battery node rt's next forwards and return the last ms
        its stretch may run to under that budget: its death, or the ms
        before its handoff crossing.

        The budget is half the forwards that would reach the earlier of
        the two if paid now; a forward that moves dies_at to or before
        armed_death has spent it.
        """
        battery, pct = rt.battery, self.policies.handoff_threshold_pct
        spare = battery.spare_forwards(now, pct)
        finite = spare < math.inf
        death, crossing = battery.horizon(now, pct,
                                          int(spare // 2) if finite else 0)
        rt.armed_death = death if finite else -math.inf
        return min(death, crossing - 1)

    def _arm(self, end: float) -> None:
        """Queue the stretch's end at ms end, after every other event of
        that ms, and take any end queued before off the heap; one past the
        run is not queued.  It is a HELLO event with no node: it stands in
        for the HELLOs the stretch owes."""
        if self._end_event is not None:
            self._heap.remove(self._end_event)
            heapq.heapify(self._heap)
        self._end_at, self._end_event = end, None
        if end <= self.scenario.duration_ms:
            self._end_event = (end, _LAST_IN_MS, self._do_hello, (None,))
            heapq.heappush(self._heap, self._end_event)

    def _rebudget(self, nodes: list, now: int) -> None:
        """Budget the battery nodes among nodes again, at the stretch's
        armed end or once a forward has spent one's budget: end the
        stretch now if a death or a handoff crossing comes by the next ms,
        or arm its end sooner if one comes before the armed end."""
        end = min((self._horizon(rt, now) if now < rt.dies_at else rt.dies_at
                   for rt in nodes if rt.battery is not None),
                  default=math.inf)
        if end <= now:
            self._end_stretch(now)
        elif end < self._end_at:
            self._arm(end)

    def _end_stretch(self, now: int) -> None:
        """End the stretch at ms now: restamp what each node's owed HELLOs
        and TCs would have set, and resume its HELLOs and stopped TC timer
        at their next times.

        HELLO times are the grid k·interval and TC times FIRST_TC_MS +
        k·tc_interval.  An event that ends a stretch runs after the HELLO
        and TC timers of its ms (see _HELLO_TIER), so the owed ones run up
        to the last of each at or before now, or before a node's death.
        """
        interval = self.policies.hello_interval_ms
        step = self.policies.tc_interval_ms
        last = now - now % interval
        last_tc = now - (now - FIRST_TC_MS) % step
        for rt in self._members:
            self._stamp_hellos(rt, self._timers_ran_to(rt, now))
        for rt in self._tc_stopped:
            if rt.topo.mpr_selectors:   # else it would have sent no TC
                self._stamp_tcs(rt, min(last_tc,
                                        self._timers_ran_to(rt, now)))
            if now < rt.dies_at:
                self._timer(last_tc + step, _TC_TIER, self._do_tc, rt)
        for rt in self._members:
            rt.armed_death = -math.inf
            if now < rt.dies_at:
                rt.topo.expire_topology(last)
                self._timer(last + interval, _HELLO_TIER, self._do_hello, rt)
        self._arm(math.inf)   # takes the queued end off the heap
        self._members, self._tc_stopped = [], []
        self._end_at = None

    @staticmethod
    def _timers_ran_to(rt: _NodeRuntime, now: int) -> int:
        """The last ms up to now at which rt's HELLO and TC timers ran: now,
        or the ms before rt's death, or that of its death if a charge
        emptied it.  In a stretch the only charges are forwards, which run
        after the timers of their ms."""
        if now < rt.dies_at:
            return now
        if rt.battery.died_of is None:
            return rt.dies_at - 1
        return rt.dies_at

    def _owed(self, rt: _NodeRuntime, rng: _Draws, first: int, step: int,
              last: int, keep: int) -> tuple[int, list]:
        """The packets rt owes, one at each of the times first, first +
        step, ... up to last, each drawing one latency jitter per
        neighbour from rng: their count, and the latest keep of them as
        (index, time, arrival at each neighbour).  Stands rng past them.

        Packet k of a node with d neighbours draws words [k·d, (k+1)·d) of
        its stream, and Philox is counter-based, so the kept packets' words
        are read where they stand and the others' are never drawn."""
        out = self._out_links[rt.node]
        n, count = len(out), max(0, (last - first) // step + 1)
        skipped = max(0, count - keep)
        jitters = rng.uniforms_at(rng.tell() + skipped * n,
                                  (count - skipped) * n,
                                  -LATENCY_JITTER, LATENCY_JITTER)
        rng.skip(count * n)
        return count, [(j, first + j * step, [
            first + j * step + max(1, round(base_latency_ms * (
                1.0 + jitters[(j - skipped) * n + k])))
            for k, (_, base_latency_ms) in enumerate(out)])
            for j in range(skipped, count)]

    def _stamp_hellos(self, rt: _NodeRuntime, last: int) -> None:
        """Restamp each live neighbour's link to rt as rt's last HELLO owed
        from _hello_from up to time last would have
        (`TopologyState.refresh_owed`)."""
        _, owed = self._owed(rt, rt.hello_rng, self._hello_from,
                             self.policies.hello_interval_ms, last, 1)
        hello = rt.topo.make_hello()
        for _, at, arrivals in owed:
            for (peer, _), arrival in zip(self._out_links[rt.node], arrivals):
                if at < peer.dies_at:
                    peer.topo.refresh_owed(hello, arrival)

    def _stamp_tcs(self, rt: _NodeRuntime, last: int) -> None:
        """Restamp each live leaf's topology entry for rt and its
        duplicate-set keys as the TCs rt's stopped timer owes would have
        (`TopologyState.refresh_tc_owed`), and move rt's TC sequence
        number on past them.

        They are one at each TC time from _tc_from up to time last: at
        least the one at _tc_from, where the timer stopped.  Only the
        latest _tc_kept can leave a key that the end's expire_topology
        keeps."""
        count, owed = self._owed(rt, rt.tc_rng, self._tc_from,
                                 self.policies.tc_interval_ms, last,
                                 self._tc_kept)
        seq = rt.tc_seq
        for k, (peer, _) in enumerate(self._out_links[rt.node]):
            keys = [((seq + j + 1) % SEQ_MOD, arrivals[k])
                    for j, at, arrivals in owed if at < peer.dies_at]
            if keys:
                peer.topo.refresh_tc_owed(rt.node, keys)
        rt.tc_seq = (seq + count) % SEQ_MOD

    def _on_tc(self, now: int, rt: _NodeRuntime) -> None:
        if now >= rt.dies_at:
            return
        if self._end_at is not None:
            # In a stretch rt's TCs can only refresh its leaves' entries, so
            # its timer stops until the end restamps the leaves (_stamp_tcs)
            # and resumes it.  Every TC timer runs on one grid of times, so
            # the whole block stops at the first TC time in the stretch.
            if not self._tc_stopped:
                self._tc_from = now
            self._tc_stopped.append(rt)
            return
        if ((rt.role is None or is_awake(rt.role, now))
                and rt.topo.mpr_selectors):
            rt.tc_seq = (rt.tc_seq + 1) % SEQ_MOD
            self._broadcast(rt, rt.topo.make_tc(rt.tc_seq), now, rt.tc_rng,
                            self._tc_at_send)
        self._timer(now + self.policies.tc_interval_ms, _TC_TIER, self._do_tc,
                    rt)

    def _on_ctl(self, now: int, rt: _NodeRuntime, pkt: ControlPacket) -> None:
        self._unsteady_at = now
        if now >= rt.dies_at or not (rt.role is None
                                     or is_awake(rt.role, now)):
            return
        if self.policies.energy_per_control > 0:
            self._drain_event(rt, _CONTROL_PACKET, now)
            if now >= rt.dies_at:
                return
        if pkt.kind is _HELLO:
            rt.topo.process_hello(pkt, now)
        elif rt.topo.process_tc(pkt, now):
            self._broadcast(rt, pkt.relayed_by(rt.node), now, rt.rng)

    # -- message plane -----------------------------------------------------------

    def _load_percent(self, rt: _NodeRuntime) -> int:
        return min(100, round(100 * rt.bank.ram_used / rt.bank.ram_budget))

    def _maybe_backup(self, rt: _NodeRuntime, msg: EmergencyMessage,
                      now: int, data: bytes) -> None:
        """Apply the compiled backup policy; data is msg's encoding."""
        if self._policy_reads_node:
            battery_pct = 100 if rt.battery is None else int(rt.battery.percent(now))
            decision = self._policy(msg, max(0, min(100, battery_pct)),
                                    self._load_percent(rt))
        else:  # the policy reads neither percentage
            decision = self._policy(msg, 0, 0)
        action = decision.action
        if action is _BACKUP_ON_RECEIVE:
            self._persist(rt, msg, data)
        elif action is _BACKUP_AFTER_FORWARD:
            rt.pending_after_forward.add(msg.msg_id)

    def _persist(self, rt: _NodeRuntime, msg: EmergencyMessage,
                 data: bytes) -> None:
        try:
            rt.store.persist(msg, data)
        except StorageFull:
            self.metrics.dropped["backup_full"] = (
                self.metrics.dropped.get("backup_full", 0) + 1)

    def _transmit(self, rt: _NodeRuntime, msg: EmergencyMessage,
                  next_hop: NodeId, now: int, data: bytes) -> None:
        """Send msg to next_hop; data is msg's encoding."""
        model = self._link_models.get((rt.node.address, next_hop.address),
                                      self._loopback)
        # The link's latency, drawn as _broadcast draws it.
        jitter = rt.rng.uniform(-LATENCY_JITTER, LATENCY_JITTER)
        latency = max(1, round(model.base_latency_ms * (1.0 + jitter)))
        if self._lossy:
            msg_id = msg.msg_id
            draw = self._send_draws.pop(msg_id, None)
            if draw is not None and draw < model.p_send_error:
                self.metrics.send_errors += 1
                latency += model.base_latency_ms
            draw = self._recv_draws.get(msg_id)
            if draw is not None and terminates_at(next_hop, msg.dst):
                del self._recv_draws[msg_id]
                if draw < model.p_recv_error:
                    self.metrics.recv_errors += 1
                    latency += model.base_latency_ms
        if rt.battery is not None:
            self._drain_event(rt, _FORWARD_MESSAGE, now)
        pending = rt.pending_after_forward
        if pending and msg.msg_id in pending:
            pending.discard(msg.msg_id)
            self._persist(rt, msg, data)
        heapq.heappush(self._heap, (now + latency, next(self._seq),
                                    self._do_msg, (self.nodes[next_hop], data)))

    def _on_tick(self, now: int, rt: _NodeRuntime) -> None:
        rt.tick_scheduled = False
        if now >= rt.dies_at:
            return
        if rt.role is not None:
            wake = rt.role.next_wake(now)
            if wake > now:
                self._schedule_tick(rt, wake)
                return
        bank = rt.bank
        retry = False
        for kind, msg, next_hop, _, data in bank.forward_tick():
            if kind is _DELIVERED:
                self._transmit(rt, msg, next_hop, now, data)
                if now >= rt.dies_at:
                    return
            elif kind is _UNREACHABLE:
                retry = True
        if bank.wants_tick:
            self._schedule_tick(rt, now + (RETRY_TICK_MS if retry
                                           else FORWARD_TICK_MS))

    def _on_msg(self, now: int, rt: _NodeRuntime, data: bytes) -> None:
        if now >= rt.dies_at:
            self.metrics.lost_to_dead_node += 1
            return
        if rt.role is not None:
            wake = rt.role.next_wake(now)
            if wake > now:
                self._at(wake, self._do_msg, rt, data)
                return
        if rt.battery is not None:
            p = acceptance_probability(rt.battery.percent(now),
                                       self.policies.handoff_threshold_pct)
            if p < 1.0 and rt.rng.random() >= p:
                self.metrics.handoff_rejected += 1
                return
        bank = rt.bank
        if bank.receive(data) is _IGNORED:
            self.metrics.ignored += 1
            return
        if self._policy is not None:
            # The codec is canonical, so data is the received message's
            # encoding.
            self._maybe_backup(rt, bank.last_received, now, data)
        # Take the terminal deliveries out of the bank once recorded, so a
        # run does not keep every delivered message alive.
        log = bank.delivered_log
        if log:
            for msg in log:
                self._record_delivery(rt, msg, now)
            log.clear()
        if not rt.tick_scheduled and bank.wants_tick:
            self._schedule_tick(rt, now)

    def _record_delivery(self, rt: _NodeRuntime, msg: EmergencyMessage,
                         now: int) -> None:
        estimate = "unknown"
        if rt.node in self._station_kinds and self._known_locations:
            # One JSON dict per source, shared by its delivery records.
            estimate = self._estimates.get(msg.src.address)
            if estimate is None:
                estimate = self._estimates[msg.src.address] = estimate_position(
                    passive_query(msg.src, self.policies.location_query_hops,
                                  self._static_adjacency,
                                  self._known_locations)).to_json()
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
                   key: int) -> None:
        """Inject message i of spec, the traffic spec of index key."""
        if i + 1 < spec.count:
            heapq.heappush(self._heap, (now + spec.interval_ms, key,
                                        self._do_inject,
                                        (spec, rt, i + 1, key)))
        if now >= rt.dies_at:
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
            self._send_draws[msg.msg_id] = rt.rng.random()
            self._recv_draws[msg.msg_id] = rt.rng.random()
        self.metrics.injected += 1
        # The one encoding of this message: its queue entry holds it and an
        # inject-time backup records it.
        data = encode_message(msg)
        if self._policy is not None:
            self._maybe_backup(rt, msg, now, data)
        bank = rt.bank
        bank.inject(msg, data)
        if not rt.tick_scheduled and bank.wants_tick:
            self._schedule_tick(rt, now)

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
        """Hand off battery node rt's custody once under the threshold."""
        if (now >= rt.dies_at or rt.battery.percent(now)
                >= self.policies.handoff_threshold_pct):
            return
        # Evacuate everything held toward the nearest station, else into
        # the backup log.
        route = station_route(rt.bank.routes)
        if route is None:
            for msg, data in rt.bank.drain_for_backup():
                self.metrics.handoff_persisted += 1
                self._persist(rt, msg, data)
            return
        for msg, data in rt.bank.flush_to(route[0]):
            self.metrics.handoff_flushed += 1
            self._transmit(rt, msg, route[0], now, data)

    def _on_scan(self, now: int, rt: _NodeRuntime) -> None:
        if now >= rt.dies_at:
            return
        observations = []
        for peer, _ in self._out_links[rt.node]:
            if now >= peer.dies_at:
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
                                     self.policies.duty_cycle,
                                     self.policies.wake_window_ms)
        for node, assignment in assignments.items():
            rt = self.nodes[node]
            self.metrics.roles[str(node)] = assignment.role.value
            # Only a node that dozes gets a role; a live battery drains by
            # its wake windows from now on.
            if self.policies.duty_cycle_enabled and assignment.duty_cycle < 1.0:
                rt.role = assignment
                if rt.battery is not None and now < rt.dies_at:
                    rt.dies_at = rt.battery.set_role(assignment, now)

    def _on_power(self, now: int, rt: _NodeRuntime) -> None:
        """Nothing schedules a power event: a death is a time (`dies_at`).
        Kept only because perfbench/spans.py wraps every `_on_<kind>`
        handler by name, this one included."""

    # -- observation ------------------------------------------------------------

    def _on_snapshot(self, now: int) -> None:
        nodes = []
        links = set()
        mpr: dict[str, list[str]] = {}
        for node, rt in self.nodes.items():
            battery_pct = (None if rt.battery is None
                           else round(rt.battery.percent(now), 6))
            alive = now < rt.dies_at
            nodes.append({
                "node": str(node),
                "kind": rt.spec.kind,
                "battery_percent": battery_pct,
                "alive": alive,
                "awake": alive and (rt.role is None or is_awake(rt.role, now)),
            })
            if not alive:
                continue
            for nb in rt.topo.symmetric_neighbors():
                if nb in self.nodes and now < self.nodes[nb].dies_at:
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
        end = self.scenario.duration_ms
        for node, rt in self.nodes.items():
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
                    for act, amount in rt.battery.ledger(end).items()}
                self.metrics.battery_percent[name] = round(
                    rt.battery.percent(end), 6)
                if rt.dies_at <= end:
                    self.metrics.deaths[name] = rt.dies_at
        self.metrics.conservation_ok = all(
            rt.bank.conservation_holds() for rt in self.nodes.values())


def run(scenario: Scenario, seed: Optional[int] = None) -> RunMetrics:
    """Simulate scenario and return its metrics."""
    return Simulator(scenario, seed).run()


def run_battery_experiment(interval: str, seed: int = 0) -> float:
    """Lifetime in hours of the relay phone under the given profile."""
    scenario = build_battery_scenario(interval, seed=seed)
    metrics = run(scenario)
    phone = next(spec for spec in scenario.nodes if spec.kind == "phone")
    died_at = metrics.deaths.get(str(phone.node))
    if died_at is None:
        return scenario.duration_ms / MS_PER_HOUR
    return died_at / MS_PER_HOUR

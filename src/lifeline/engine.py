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
(its latency is still drawn, so the random stream does not move): a
node never comes back to life.  A node schedules a forward tick only
when its queue bank wants one; a bank holding only unroutable messages
parks (see `forwarding`).

A node whose HELLOs can change nothing is in a stretch: it queues no
HELLO, and its random stream owes the jitter words they would have
drawn (`owed_from`).  A stretch never ends for a quiet node, one
without battery or duty-cycle role whose neighbours are all dead and
whose topology state has emptied (see _quiet), and its TC timer stops
too.  The whole network enters one when, on the stretch's run-level
facts (see run()), every HELLO only refreshes, no control packet is in
flight and the only TCs are those a node applies at send to its leaf
neighbours (see _enter_stretch); it ends at the first death or handoff
crossing, closed forms of the battery totals armed as one event and
re-solved once a battery node has spent a budget of forwards.  Its TC
timers stop too, at their first TC time in it (`tc_owed_from`): each
TC would only refresh leaves' topology entries, on a fixed grid of
times.  The owed state is read only where something needs it: a draw
on a node's stream first passes over the owed HELLO and TC words, in
the order the reference would have drawn them (_pay, with the run loop
marking where each TC time's timers would have run, _passing), and the
end reads the words of each node's last owed HELLO and latest owed TCs
where they stand and restamps its neighbours' links, topology entries
and duplicate sets from them (_stamp).  The HELLOs and TC timers then
resume in address order, in the place the reference's would have taken
among the events of their ms (see _end_stretch).

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
carries the node's runtime rather than its id.  Every inject's sequence
number is reserved in one block where queueing them all would have
taken it, but each traffic spec keeps only its next inject on the heap,
so the heap stays node-sized and events keep their (time, sequence)
order.  A message-plane handler asks its bank whether it wants a tick
only when none is scheduled, skips the backup policy when none is
enabled, and charges energy only on battery nodes; a loss-free run
looks up no error draws.  A topology state scans for expired links and
topology entries only once the earliest expiry may have passed, and
sends one HELLO packet object until its neighbour tuple changes.

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
# Above every sequence number the counter hands out: an event with it runs
# after every other event of its ms.
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


def _before(first: int, step: int, count: int, at: int, ties: bool) -> int:
    """How many of the count times first, first + step, ... come before
    time at, one at at itself counting when ties."""
    return max(0, min(count, ((at if ties else at - 1) - first) // step + 1))


class _Draws:
    """A node's random draws: what np.random.Generator(Philox(key)) returns.

    A scalar Generator call costs several microseconds; these read raw
    Philox words from blocks fetched lazily (none at construction) and
    apply numpy's own transforms, so every value and the stream's
    position match the Generator's exactly.
    """

    __slots__ = ("_key", "_bits", "_words", "_spare", "_end")

    def __init__(self, key: np.ndarray):
        self._key = key
        self._bits = np.random.Philox(key=key)
        self._words: list[int] = []   # unread raw words, next one last
        self._spare: Optional[int] = None   # high half of a split word
        self._end = 0   # the stream position just past the fetched words

    def _refill(self) -> list[int]:
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
        half stays pending, as it does in the Generator."""
        words = self._words
        if n > len(words):
            n -= len(words)
            # Blocks are whole Philox counters (four words each), so every
            # fetch leaves the counter where advance() steps four words.
            self._bits.advance(n // 4)
            self._end += n // 4 * 4
            words = self._refill()
            n %= 4
        del words[len(words) - n:]

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
    role: Optional[RoleAssignment] = None
    # Fewer than two static neighbours: the node never relays a TC.
    leaf: bool = False
    # The node is dead from this ms on: its battery's death time.
    dies_at: float = math.inf
    # Set while the node is in a stretch (see _enter_stretch and _quiet):
    # the time of the first HELLO it has not sent and whose jitter words
    # its stream still owes.
    owed_from: Optional[int] = None
    # The node's stretch never ends (see _quiet).
    quiet: bool = False
    # In a stretch: the time of the last owed HELLO passed over and the
    # stream position of its words.
    last_owed: Optional[tuple] = None
    # In a stretch, once its TC timer has stopped (see _on_tc): the time of
    # the first TC whose words its stream still owes; and the time, stream
    # position and sequence number of the latest owed TCs passed over, as
    # many as _stamp needs.
    tc_owed_from: Optional[int] = None
    owed_tcs: list = field(default_factory=list)
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
        # its decision, and while one is on, its nodes and the time its
        # armed end is due at; once its TC timers have stopped, the last
        # TC time passed, and the next one with the sequence number its
        # timers would have been queued under (see _passing).
        self._unsteady_at = 0
        self._decided = (None, False)
        self._members: list[_NodeRuntime] = []
        self._end_at: Optional[float] = None
        self._tc_ran_to = 0
        self._tc_due: Optional[tuple[int, int]] = None
        # The run loop calls _passing at its first event from _mark on:
        # the next HELLO time (_hello_due), or the next owed TC time.
        self._slot_seq = 0
        self._hello_due = 0

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
        for spec in sorted(scenario.nodes, key=lambda s: s.node.address):
            battery = None
            if spec.battery_capacity is not None:
                battery = replace(
                    _BASE_BATTERY, capacity=spec.battery_capacity,
                    energy_per_control=self.policies.energy_per_control,
                    screen_on=spec.screen_on)
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
                self._rearm(rt, now)

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
        self._may_quiet = "stretch" in elisions
        # A stretch (see _enter_stretch) needs more: a live neighbour's link
        # and a TC origin's topology entry never lapse between refreshes;
        # no tick, message or TC timer is queued exactly one HELLO interval
        # ahead, so the HELLOs of one time stay one block in address order
        # and a tick or message at a node comes after its HELLO of that
        # ms; and a TC sequence number comes back only after a leaf's
        # HELLO has aged its key out of the duplicate set, so the keys a
        # stretch's end restamps (_stamp) are distinct too.
        slowest_message = longest + 2 * max(
            (model.base_latency_ms for model in models
             if model.p_send_error > 0 or model.p_recv_error > 0), default=0)
        tc_interval = policies.tc_interval_ms
        self._stretches = (
            "stretch" in elisions and self._refresh_at_send
            and policies.hold_time_ms > interval + longest
            and policies.topology_hold_ms > tc_interval + longest
            and interval > max(RETRY_TICK_MS, slowest_message)
            and tc_interval != interval
            and SEQ_MOD * tc_interval > DUP_HOLD_MS + interval + longest)
        # The owed TCs a stretch's end restamps from: a key of any earlier
        # one has aged out by the end's last HELLO time.
        self._tc_kept = -(-(DUP_HOLD_MS + interval + longest) // tc_interval)
        for rt in self.nodes.values():
            self._at(0, self._do_hello, rt)
            # A node with fewer than two neighbours lists at most one in its
            # HELLO, so it covers no 2-hop node: it is never an MPR, gains
            # no MPR selector and so never sends a TC.
            if not rt.leaf:
                self._at(FIRST_TC_MS, self._do_tc, rt)
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
        self._stop = duration + 1
        self._mark = 0 if self._stretches else self._stop
        while heap:
            t, seq, handler, args = pop(heap)
            if t >= self._mark:
                if t > duration:
                    break
                self._passing(t, seq)
            handler(t, *args)
        self._finalize()
        return self.metrics

    def _passing(self, t: int, seq: int) -> None:
        """Event (t, seq) runs next: first take the sequence numbers that
        the reference's timers passed since the last call would have queued
        their next timers under, then set the next _mark.

        The HELLOs of a HELLO time run as one block and queue the next, and
        nothing queued in their ms lands on that next time but those
        HELLOs (see _end_stretch): the first number taken from that ms on,
        _slot_seq, stands for theirs.  The TC timers of a TC time also run
        as one block, in address order: they were queued so at the start,
        and each block queues the next and nothing between.  While a
        stretch owes them (_on_tc), the block due at _tc_due runs before
        (t, seq) if it sorts first, and queues the next block under a
        number taken now: after every event that ran before it, and before
        every event queued from here on.  So the block of ms t itself runs
        first only when (t, seq) is a stretch end, queued to run after
        every other event of its ms (_arm).  Of the numbers taken at one
        call, the earlier time's block or HELLOs take the first.
        """
        interval = self.policies.hello_interval_ms
        hello = t >= self._hello_due
        if hello:
            self._hello_due = t - t % interval + interval
        tc = self._tc_due
        while tc is not None and (tc[0] < t or tc[0] == t and tc[1] < seq):
            step = self.policies.tc_interval_ms
            ran = tc[0] + max(0, (t - tc[0] - 1) // step) * step
            if hello and ran >= t - t % interval:
                self._slot_seq = next(self._seq)
                hello = False
            self._tc_ran_to = ran
            tc = self._tc_due = (ran + step, next(self._seq))
        if hello:
            self._slot_seq = next(self._seq)
        mark = min(self._hello_due, self._stop)
        self._mark = mark if tc is None else min(mark, tc[0])

    # -- control plane -----------------------------------------------------------

    def _broadcast(self, rt: _NodeRuntime, pkt: ControlPacket, now: int,
                   at_send: bool = False) -> None:
        """Send pkt to every neighbour.  With at_send, pkt is a HELLO or
        rt's own TC, and a neighbour it would only refresh (any for a
        HELLO, a leaf for a TC) is refreshed now, as of its arrival,
        rather than by an event."""
        if self.policies.energy_per_control > 0:
            self._drain_event(rt, _CONTROL_PACKET, now)
            if now >= rt.dies_at:
                return
        uniform = rt.rng.uniform
        heap, seq, on_ctl = self._heap, self._seq, self._do_ctl
        hello = pkt.kind is _HELLO
        for peer, base_latency_ms in self._out_links[rt.node]:
            # The link's base latency with a uniform jitter; round() of a
            # float is already an int.  Draw even for a dead neighbour, so
            # the stream does not move; a node never revives, so no event
            # for it is needed.
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
            self._on_stretch_end(now)
            return
        if now >= rt.dies_at:
            return
        interval = self.policies.hello_interval_ms
        if rt.role is None or is_awake(rt.role, now):
            topo = rt.topo
            topo.expire_links(now)
            topo.expire_topology(now)
            if topo.dirty:
                self._unsteady_at = now
                topo.dirty = False
                topo.select_mprs()
                routes = topo.compute_routes()
                if rt.bank.set_routes(routes) and rt.bank.wants_tick:
                    self._schedule_tick(rt, now)
            self._broadcast(rt, topo.make_hello(), now, self._refresh_at_send)
            if rt.battery is not None:
                self._check_handoff(rt, now)
            elif self._may_quiet and not topo.links and self._quiet(rt, now):
                rt.owed_from, rt.quiet = now + interval, True
                return
            if self._stretches and self._steady(now):
                rt.owed_from = now + interval
                return
        heapq.heappush(self._heap, (now + interval, next(self._seq),
                                    self._do_hello, (rt,)))

    def _quiet(self, rt: _NodeRuntime, now: int) -> bool:
        """Whether the HELLOs and TCs of rt, a node with no battery, can
        change nothing from now on: its stretch never ends.

        So they cannot once rt has no duty-cycle role and can no longer get
        one, its static neighbours are all dead, and its topology state
        holds nothing and is not dirty: no packet can reach it, it has no
        MPR selector to send a TC for, and each HELLO would only draw one
        jitter word per neighbour, which _on_inject passes over before its
        first draw (_pay).  No other handler draws from a quiet node's
        stream: it has no route to transmit on and no battery to test
        acceptance with.
        """
        topo = rt.topo
        return (rt.role is None
                and (now >= ROLE_ASSIGN_MS
                     or not self.policies.duty_cycle_enabled)
                and not (topo.links or topo.topology or topo.seen_tc
                         or topo.dirty)
                and all(now >= peer.dies_at for peer, _ in self._out_links[rt.node]))

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
        every live node that is not quiet can only refresh its
        neighbours' links until something can change; arm its end.

        The HELLOs of one time run as one block in address order (see
        run()), and none of them, no control packet and no topology change
        came since before the block a HELLO interval ago: so no node is
        dirty, each has the HELLO every live neighbour heard from it last
        and nothing is in flight, and this block does what the last did.
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
            if t >= rt.dies_at or rt.quiet:
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
            return False
        self._members = members
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
        that ms; one past the run is not queued.  It is a HELLO event with
        no node: it stands in for the HELLOs the stretch owes."""
        self._end_at = end
        if end <= self.scenario.duration_ms:
            heapq.heappush(self._heap, (end, _LAST_IN_MS + next(self._seq),
                                        self._do_hello, (None,)))

    def _rearm(self, rt: _NodeRuntime, now: int) -> None:
        """A forward spent battery node rt's budget: budget again, and end
        the stretch sooner if the new budget says so."""
        if self._end_at is None:
            rt.armed_death = -math.inf
            return
        end = self._horizon(rt, now)
        if end <= now:
            self._end_stretch(now)
        elif end < self._end_at:
            self._arm(end)

    def _on_stretch_end(self, now: int) -> None:
        """The stretch's armed end, after every other event of ms now:
        budget again, and end the stretch if a death or a handoff crossing
        still comes by the next ms."""
        if now != self._end_at:
            return   # brought forward since
        end = min((self._horizon(rt, now) if now < rt.dies_at else rt.dies_at
                   for rt in self._members if rt.battery is not None),
                  default=math.inf)
        if end > now:
            self._arm(end)
        else:
            self._end_stretch(now)

    def _end_stretch(self, now: int) -> None:
        """End the stretch at ms now: each node pays what it owes up to now,
        and its HELLOs and stopped TC timer resume at their next times.

        The HELLOs of that time were queued, in the reference, by those of
        the last HELLO time, as one block in address order; nothing queued
        that ms lands on the next HELLO time but those HELLOs (see run()).
        So the resumed ones take sequence numbers just after _slot_seq,
        the first one taken in the ms of the last HELLO time, in address
        order.  The TC timers resume as the block _tc_due stands for.
        """
        interval = self.policies.hello_interval_ms
        last = now // interval * interval
        members = self._members
        for rt in members:
            self._pay(rt, now)
            self._stamp(rt)
        self._resume(members, last + interval, self._slot_seq,
                     self._do_hello, now)
        if self._tc_due is not None:
            at, seq = self._tc_due
            self._resume([rt for rt in members if rt.tc_owed_from is not None],
                         at, seq, self._do_tc, now)
        for rt in members:
            rt.owed_from = rt.tc_owed_from = None
            rt.armed_death = -math.inf
            if now < rt.dies_at:
                rt.topo.expire_topology(last)
        self._members, self._end_at, self._tc_due = [], None, None

    def _resume(self, stopped: list, at: int, seq: int, handler,
                now: int) -> None:
        """Queue the timers of the stopped nodes alive at now at time at, in
        address order, just after sequence number seq."""
        for i, rt in enumerate(stopped, 1):
            if now < rt.dies_at:
                heapq.heappush(self._heap, (at, seq + i / (len(stopped) + 1),
                                            handler, (rt,)))

    def _pay(self, rt: _NodeRuntime, upto: int) -> None:
        """Pass over the words rt's stream owes, one latency jitter per
        neighbour for each owed HELLO up to time upto and each owed TC up
        to the last TC time passed (_passing), in the reference's order: at
        a shared ms a TC timer queued more than a HELLO interval ahead ran
        before that ms's HELLO, a nearer one after it.

        Note where the last owed HELLO's words start, and the time, words
        and sequence number of the latest owed TCs: they set the stamps of
        rt's links, topology entries and duplicate-set keys at its
        neighbours, which nothing reads before the stretch ends (_stamp).
        """
        interval, step = (self.policies.hello_interval_ms,
                          self.policies.tc_interval_ms)
        dies_at, first, first_tc = rt.dies_at, rt.owed_from, rt.tc_owed_from
        last = upto if upto < dies_at else dies_at - 1
        hellos = (last - first) // interval + 1 if last >= first else 0
        tcs = 0
        if first_tc is not None and rt.topo.mpr_selectors:
            last = (self._tc_ran_to if self._tc_ran_to < dies_at
                    else dies_at - 1)
            if last >= first_tc:
                tcs = (last - first_tc) // step + 1
        if not (hellos or tcs):
            return
        n, rng = len(self._out_links[rt.node]), rt.rng
        start = rng.tell()
        tc_first = step > interval
        if hellos:
            at = first + (hellos - 1) * interval
            rt.owed_from = at + interval
            rt.last_owed = (at, start + n * (hellos - 1 + (
                tcs and _before(first_tc, step, tcs, at, tc_first))))
        if tcs:
            owed, seq, kept = rt.owed_tcs, rt.tc_seq, self._tc_kept
            for j in range(max(0, tcs - kept), tcs):
                at = first_tc + j * step
                owed.append((at, start + n * (j + _before(
                    first, interval, hellos, at, not tc_first)),
                    (seq + j + 1) % SEQ_MOD))
            del owed[:-kept]
            rt.tc_seq = (seq + tcs) % SEQ_MOD
            rt.tc_owed_from = first_tc + tcs * step
        rng.skip((hellos + tcs) * n)

    def _stamp(self, rt: _NodeRuntime) -> None:
        """Restamp each live neighbour's link to rt as rt's last owed HELLO
        would have (`TopologyState.refresh_owed`), and its topology entry
        for rt and duplicate-set keys as rt's owed TCs would have
        (`TopologyState.refresh_tc_owed`).  Philox is counter-based, so
        those packets' words are read where they stand, and the words of
        owed packets that set no stamp are never drawn."""
        out = self._out_links[rt.node]
        if rt.last_owed is not None:
            at, position = rt.last_owed
            rt.last_owed = None
            jitters = rt.rng.uniforms_at(position, len(out), -LATENCY_JITTER,
                                         LATENCY_JITTER)
            hello = rt.topo.make_hello()
            for (peer, base_latency_ms), jitter in zip(out, jitters):
                if at < peer.dies_at:
                    peer.topo.refresh_owed(hello, at + max(
                        1, round(base_latency_ms * (1.0 + jitter))))
        owed = rt.owed_tcs
        if owed:
            rt.owed_tcs = []
            start = owed[0][1]
            jitters = rt.rng.uniforms_at(start, owed[-1][1] + len(out) - start,
                                         -LATENCY_JITTER, LATENCY_JITTER)
            for k, (peer, base_latency_ms) in enumerate(out):
                keys = [(seq, at + max(1, round(base_latency_ms * (
                    1.0 + jitters[position - start + k]))))
                    for at, position, seq in owed if at < peer.dies_at]
                if keys:
                    peer.topo.refresh_tc_owed(rt.node, keys)

    def _on_tc(self, now: int, rt: _NodeRuntime) -> None:
        if now >= rt.dies_at or rt.quiet:
            return
        if self._end_at is not None:
            # In a stretch rt's TCs can only refresh its leaves' entries, so
            # its timer stops and its stream owes them (_pay) until the end
            # restamps the leaves (_stamp) and resumes it.  Its TC time's
            # block stops with the first of it (see _passing).
            rt.tc_owed_from = now
            if self._tc_due is None:
                step = self.policies.tc_interval_ms
                self._tc_ran_to = now
                self._tc_due = (now + step, next(self._seq))
                self._mark = min(self._mark, now + step)
            return
        if ((rt.role is None or is_awake(rt.role, now))
                and rt.topo.mpr_selectors):
            rt.tc_seq = (rt.tc_seq + 1) % SEQ_MOD
            self._broadcast(rt, rt.topo.make_tc(rt.tc_seq), now,
                            self._tc_at_send)
        heapq.heappush(self._heap, (now + self.policies.tc_interval_ms,
                                    next(self._seq), self._do_tc, (rt,)))

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
            self._broadcast(rt, pkt.relayed_by(rt.node), now)

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
        if rt.owed_from is not None:
            # Its HELLO of this ms, and the TC times passed, came first.
            self._pay(rt, now)
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
                   seq: int) -> None:
        """Inject message i of spec, whose sequence number is seq."""
        if i + 1 < spec.count:
            heapq.heappush(self._heap, (now + spec.interval_ms, seq + 1,
                                        self._do_inject,
                                        (spec, rt, i + 1, seq + 1)))
        if now >= rt.dies_at:
            return
        if rt.owed_from is not None:
            # Every owed HELLO and TC before now drew ahead of this inject;
            # one at now comes after it, since inject sequence numbers are
            # reserved when the run starts.
            self._pay(rt, now - 1)
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

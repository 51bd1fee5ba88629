"""Scenario model: nodes, links, traffic, policies, and canned setups.

A scenario is a plain JSON document (schema ``lifeline-scenario/1``)
describing the network to simulate.  Parsing reports the exact field
path of the first problem so a bad file can be fixed without guesswork.
The canned setups A through G cover the latency ladder (loopback,
short chain, phone-to-phone chain, lossy long links) and the backup
experiments.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, fields
from typing import Optional

from .backup import OPTION_PRIORITY, BackupOption
from .locating import DEFAULT_QUERY_HOPS, KnownLocation
from .messages import (
    MAX_PAYLOAD_BYTES,
    PRIORITY_LEVELS,
    InvariantViolation,
    NodeId,
)
from .olsr import (
    HELLO_INTERVAL_MS,
    HOLD_TIME_MS,
    TC_INTERVAL_MS,
    TOPOLOGY_HOLD_MS,
)
from .power import (
    DEFAULT_DUTY_CYCLE,
    HANDOFF_THRESHOLD_PCT,
    ROUTER_CAPACITY_FACTOR,
    WAKE_WINDOW_MS,
)

SCENARIO_SCHEMA = "lifeline-scenario/1"

SETUP_IDS = ("A", "B", "C", "D", "E", "F", "G")

NODE_KINDS = ("phone", "router", "station", "laptop")

# Link classes by physical distance: loopback, same-room, across-street.
LOOPBACK_LATENCY_MS = 1
SHORT_LINK_LATENCY_MS = 5
LONG_LINK_LATENCY_MS = 15
SHORT_LINK_MAX_M = 5.0
LATENCY_JITTER = 0.2

# Long links carry the measured per-message error probabilities.
LONG_LINK_P_SEND_ERROR = 0.0018
LONG_LINK_P_RECV_ERROR = 0.0032

DEFAULT_TRAFFIC_START_MS = 15_000
DEFAULT_TRAFFIC_INTERVAL_MS = 10
DEFAULT_PRIORITY0_SHARE = 0.2

PHONE_BATTERY_CAPACITY = 1.0


class MalformedScenario(ValueError):
    """A scenario document that fails schema validation.

    The message always names the offending field path, for example
    ``traffic[0].size.kind: expected 'constant' or 'uniform'``.
    """


@dataclass
class LinkModel:
    """Latency and error behaviour of one link class."""

    base_latency_ms: int
    p_send_error: float = 0.0
    p_recv_error: float = 0.0

    @classmethod
    def for_distance(cls, distance_m: float) -> "LinkModel":
        if distance_m <= 0:
            return cls(LOOPBACK_LATENCY_MS)
        if distance_m < SHORT_LINK_MAX_M:
            return cls(SHORT_LINK_LATENCY_MS)
        return cls(LONG_LINK_LATENCY_MS,
                   p_send_error=LONG_LINK_P_SEND_ERROR,
                   p_recv_error=LONG_LINK_P_RECV_ERROR)


@dataclass
class NodeSpec:
    node: NodeId
    kind: str
    battery_capacity: Optional[float] = None
    screen_on: bool = False
    location: Optional[KnownLocation] = None

    def to_json(self) -> dict:
        doc: dict = {"address": str(self.node), "kind": self.kind}
        if self.battery_capacity is not None:
            doc["battery_capacity"] = self.battery_capacity
        if self.screen_on:
            doc["screen_on"] = True
        if self.location is not None:
            doc["location"] = {
                "x": self.location.coordinates[0],
                "y": self.location.coordinates[1],
                "label": self.location.label,
            }
        return doc


@dataclass
class LinkSpec:
    a: NodeId
    b: NodeId
    distance_m: float

    @property
    def model(self) -> LinkModel:
        return LinkModel.for_distance(self.distance_m)

    def to_json(self) -> dict:
        return {"a": str(self.a), "b": str(self.b),
                "distance_m": self.distance_m}


@dataclass
class SizeSpec:
    """Payload size draw: a constant or a uniform byte range."""

    kind: str = "constant"
    lo: int = MAX_PAYLOAD_BYTES
    hi: int = MAX_PAYLOAD_BYTES

    @classmethod
    def constant(cls, n: int = MAX_PAYLOAD_BYTES) -> "SizeSpec":
        return cls("constant", n, n)

    @classmethod
    def uniform(cls, lo: int = 10, hi: int = MAX_PAYLOAD_BYTES) -> "SizeSpec":
        return cls("uniform", lo, hi)

    def to_json(self) -> dict:
        if self.kind == "constant":
            return {"kind": "constant", "bytes": self.lo}
        return {"kind": "uniform", "lo": self.lo, "hi": self.hi}


@dataclass
class PrioritySpec:
    """Priority draw: fixed, uniform over all levels, or stratified.

    The stratified form assigns priority 0 to an exact share of the
    messages (every k-th message when share is 1/k) and draws the rest
    uniformly from the remaining levels, so a 1000-message run with
    share 0.2 contains exactly 200 priority-0 messages.
    """

    kind: str = "uniform"
    value: int = 0
    priority0_share: float = DEFAULT_PRIORITY0_SHARE

    @classmethod
    def fixed(cls, value: int) -> "PrioritySpec":
        return cls("fixed", value=value)

    @classmethod
    def uniform(cls) -> "PrioritySpec":
        return cls("uniform")

    @classmethod
    def stratified(cls, share: float = DEFAULT_PRIORITY0_SHARE
                   ) -> "PrioritySpec":
        return cls("stratified", priority0_share=share)

    def to_json(self) -> dict:
        if self.kind == "fixed":
            return {"kind": "fixed", "value": self.value}
        if self.kind == "uniform":
            return {"kind": "uniform"}
        return {"kind": "stratified", "priority0_share": self.priority0_share}


@dataclass
class TrafficSpec:
    source: NodeId
    destination: NodeId
    count: int
    interval_ms: int = DEFAULT_TRAFFIC_INTERVAL_MS
    start_ms: int = DEFAULT_TRAFFIC_START_MS
    size: SizeSpec = field(default_factory=SizeSpec.constant)
    priority: PrioritySpec = field(default_factory=PrioritySpec.uniform)

    def end_ms(self) -> int:
        return self.start_ms + (self.count - 1) * self.interval_ms

    def to_json(self) -> dict:
        return {
            "source": str(self.source),
            "destination": str(self.destination),
            "count": self.count,
            "interval_ms": self.interval_ms,
            "start_ms": self.start_ms,
            "size": self.size.to_json(),
            "priority": self.priority.to_json(),
        }


@dataclass
class Policies:
    backup_options: list[dict] = field(default_factory=list)
    handoff_threshold_pct: float = HANDOFF_THRESHOLD_PCT
    duty_cycle_enabled: bool = False
    duty_cycle: float = DEFAULT_DUTY_CYCLE
    wake_window_ms: int = WAKE_WINDOW_MS
    energy_per_control: float = 0.0
    hello_interval_ms: int = HELLO_INTERVAL_MS
    tc_interval_ms: int = TC_INTERVAL_MS
    hold_time_ms: int = HOLD_TIME_MS
    topology_hold_ms: int = TOPOLOGY_HOLD_MS
    scan_schedule: dict[NodeId, int] = field(default_factory=dict)
    location_query_hops: int = DEFAULT_QUERY_HOPS

    def to_json(self) -> dict:
        """Every field that differs from its default, by its field name;
        the scan schedule keyed by address text."""
        default = Policies()
        doc = {spec.name: getattr(self, spec.name) for spec in fields(self)
               if getattr(self, spec.name) != getattr(default, spec.name)}
        if "scan_schedule" in doc:
            doc["scan_schedule"] = {
                str(node): at for node, at in sorted(self.scan_schedule.items())
            }
        if "backup_options" in doc:
            doc["backup_options"] = list(self.backup_options)
        return doc

    def enabled_backup_options(self) -> set[BackupOption]:
        """The backup_options rows as policy options.

        BackupOption states the rules; a row that breaks one raises
        MalformedScenario naming the row and its field.
        """
        enabled = set()
        for i, opt in enumerate(self.backup_options):
            path = f"policies.backup_options[{i}]"
            with _Fields(opt, path) as row:
                number = row.get("option", int)
                threshold = row.get("threshold", float, None)
            try:
                enabled.add(BackupOption(number, threshold))
            except InvariantViolation as exc:
                bad = "option" if number not in OPTION_PRIORITY else "threshold"
                raise MalformedScenario(f"{path}.{bad}: {exc}") from None
        return enabled


@dataclass
class Scenario:
    name: str
    nodes: list[NodeSpec]
    links: list[LinkSpec]
    traffic: list[TrafficSpec]
    policies: Policies = field(default_factory=Policies)
    seed: int = 0
    duration_ms: int = 60_000

    def adjacency(self) -> dict[NodeId, set[NodeId]]:
        adj: dict[NodeId, set[NodeId]] = {s.node: set() for s in self.nodes}
        for link in self.links:
            if link.a != link.b:
                adj[link.a].add(link.b)
                adj[link.b].add(link.a)
        return adj

    def validate(self) -> None:
        known = set()
        for i, spec in enumerate(self.nodes):
            if spec.node in known:
                raise MalformedScenario(
                    f"nodes[{i}].address: duplicate {spec.node}")
            known.add(spec.node)
            if spec.kind not in NODE_KINDS:
                raise MalformedScenario(
                    f"nodes[{i}].kind: expected one of {NODE_KINDS}")
            if spec.kind == "station" and not spec.node.is_station_address:
                raise MalformedScenario(
                    f"nodes[{i}].address: station must use a reserved "
                    f"station-range address, got {spec.node}")
            # A death time is closed-form arithmetic on the capacity.
            if (spec.battery_capacity is not None
                    and not 0 < spec.battery_capacity < math.inf):
                raise MalformedScenario(
                    f"nodes[{i}].battery_capacity: expected a finite value > 0")
            # json reads NaN and Infinity, which no JSON output may carry.
            if spec.location is not None:
                for axis, value in zip("xy", spec.location.coordinates):
                    if not math.isfinite(value):
                        raise MalformedScenario(
                            f"nodes[{i}].location.{axis}: expected a finite value")
        # The link listed last would win, so a run would depend on the
        # listing order.
        pairs: dict[frozenset, int] = {}
        for i, link in enumerate(self.links):
            for end, node in (("a", link.a), ("b", link.b)):
                if node not in known:
                    raise MalformedScenario(
                        f"links[{i}].{end}: unknown node {node}")
            earlier = pairs.setdefault(frozenset((link.a, link.b)), i)
            if earlier != i:
                raise MalformedScenario(
                    f"links[{i}]: duplicate of links[{earlier}] "
                    f"({link.a} - {link.b})")
            if not 0 <= link.distance_m < math.inf:
                raise MalformedScenario(
                    f"links[{i}].distance_m: expected a finite value >= 0")
        stations = {s.node for s in self.nodes if s.kind == "station"}
        for i, spec in enumerate(self.traffic):
            for end, node in (("source", spec.source),
                              ("destination", spec.destination)):
                if node not in known:
                    raise MalformedScenario(
                        f"traffic[{i}].{end}: unknown node {node}")
            if spec.destination.is_station_address and not stations:
                raise MalformedScenario(
                    f"traffic[{i}].destination: station-addressed traffic "
                    f"requires at least one station node")
            if spec.count < 1:
                raise MalformedScenario(f"traffic[{i}].count: must be >= 1")
            if spec.interval_ms < 1:
                raise MalformedScenario(
                    f"traffic[{i}].interval_ms: must be >= 1")
            if spec.start_ms < 0:
                raise MalformedScenario(f"traffic[{i}].start_ms: must be >= 0")
            size, path = spec.size, f"traffic[{i}].size"
            if size.kind not in ("constant", "uniform"):
                raise MalformedScenario(f"{path}.kind: {_EXPECTED_SIZE_KIND}")
            if size.kind == "constant":
                if not 1 <= size.lo <= MAX_PAYLOAD_BYTES:
                    raise MalformedScenario(
                        f"{path}.bytes: expected 1..{MAX_PAYLOAD_BYTES}")
            elif not 1 <= size.lo <= size.hi <= MAX_PAYLOAD_BYTES:
                raise MalformedScenario(
                    f"{path}: expected 1 <= lo <= hi <= {MAX_PAYLOAD_BYTES}")
            prio, path = spec.priority, f"traffic[{i}].priority"
            if prio.kind not in ("fixed", "uniform", "stratified"):
                raise MalformedScenario(f"{path}.kind: {_EXPECTED_PRIORITY_KIND}")
            if prio.kind == "fixed" and not 0 <= prio.value < PRIORITY_LEVELS:
                raise MalformedScenario(
                    f"{path}.value: expected 0..{PRIORITY_LEVELS - 1}")
            if prio.kind == "stratified" and not 0 < prio.priority0_share <= 1:
                raise MalformedScenario(
                    f"{path}.priority0_share: expected a share in (0, 1]")
        if self.duration_ms < 1:
            raise MalformedScenario("duration_ms: must be >= 1")
        for spec in self.traffic:
            if spec.end_ms() >= self.duration_ms:
                raise MalformedScenario(
                    "duration_ms: run ends before all traffic is injected")
        policies = self.policies
        # A zero or negative timer reschedules itself at the same instant
        # forever, divides by zero (wake window) or forgets at once (holds).
        for name in ("hello_interval_ms", "tc_interval_ms", "wake_window_ms",
                     "hold_time_ms", "topology_hold_ms"):
            if getattr(policies, name) < 1:
                raise MalformedScenario(f"policies.{name}: must be >= 1")
        # Read at role assignment even with duty cycling off.
        if not 0 < policies.duty_cycle <= 1:
            raise MalformedScenario(
                "policies.duty_cycle: expected a value in (0, 1]")
        # A negative cost would raise the level; NaN compares false and so
        # would charge nothing.
        if not 0 <= policies.energy_per_control < math.inf:
            raise MalformedScenario(
                "policies.energy_per_control: expected a finite value >= 0")
        if not 0 <= policies.handoff_threshold_pct <= 100:
            raise MalformedScenario(
                "policies.handoff_threshold_pct: expected a value in [0, 100]")
        if policies.location_query_hops < 1:
            raise MalformedScenario("policies.location_query_hops: must be >= 1")
        for node, at in policies.scan_schedule.items():
            path = f"policies.scan_schedule[{str(node)!r}]"
            if node not in known:
                raise MalformedScenario(f"{path}: unknown node {node}")
            if isinstance(at, bool) or not isinstance(at, int) or at < 0:
                raise MalformedScenario(f"{path}: expected an int >= 0")
        policies.enabled_backup_options()

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "schema": SCENARIO_SCHEMA,
            "name": self.name,
            "seed": self.seed,
            "duration_ms": self.duration_ms,
            "nodes": [n.to_json() for n in self.nodes],
            "links": [l.to_json() for l in self.links],
            "traffic": [t.to_json() for t in self.traffic],
            "policies": self.policies.to_json(),
        }

    @classmethod
    def from_json_dict(cls, doc) -> "Scenario":
        scenario = _parse_scenario(doc)
        scenario.validate()
        return scenario


# -- parsing with field-path diagnostics ----------------------------------
# Parsers check shapes and types; Scenario.validate checks every range.

_MISSING = object()
_EXPECTED_SIZE_KIND = "expected 'constant' or 'uniform'"
_EXPECTED_PRIORITY_KIND = "expected 'fixed', 'uniform', or 'stratified'"


class _Fields:
    """The fields of one JSON object at `path`, read by name.

    Used as a context manager: a key that no read named by the end of
    the block is an error, so a misspelt field is not taken for an
    absent one.
    """

    def __init__(self, doc, path: str):
        if not isinstance(doc, dict):
            raise MalformedScenario(f"{path}: expected an object")
        self.doc, self.path = doc, path
        self._unread = dict.fromkeys(doc)

    def __enter__(self) -> "_Fields":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and self._unread:
            key = next(iter(self._unread))
            raise MalformedScenario(f"{self.path}.{key}: unknown field")

    def get(self, key, kinds, default=_MISSING):
        self._unread.pop(key, None)
        if key not in self.doc:
            if default is not _MISSING:
                return default
            raise MalformedScenario(
                f"{self.path}.{key}: missing required field")
        value = self.doc[key]
        wanted = (int, float) if kinds is float else kinds
        bool_mismatch = isinstance(value, bool) and wanted is not bool
        if not isinstance(value, wanted) or bool_mismatch:
            name = getattr(kinds, "__name__", str(kinds))
            raise MalformedScenario(f"{self.path}.{key}: expected {name}")
        return value

    def present(self, kinds, *keys) -> dict:
        """The keys that are present, as keyword arguments, so that the
        constructor they go to supplies the defaults of the others."""
        return {key: self.get(key, kinds) for key in keys if key in self.doc}

    def node(self, key) -> NodeId:
        """The field key, an address."""
        return _parse_node_id(self.get(key, str), f"{self.path}.{key}")


def _parse_node_id(text, path) -> NodeId:
    try:
        return NodeId.parse(text)
    except (ValueError, TypeError) as exc:
        raise MalformedScenario(f"{path}: {exc}") from None


def _parse_node(doc, path) -> NodeSpec:
    with _Fields(doc, path) as f:
        spec = NodeSpec(f.node("address"), f.get("kind", str),
                        **f.present(float, "battery_capacity"),
                        **f.present(bool, "screen_on"))
        location = f.get("location", object, None)
        if location is not None:
            with _Fields(location, f"{path}.location") as at:
                xy = (float(at.get("x", float)), float(at.get("y", float)))
                spec.location = KnownLocation(spec.node, xy,
                                              **at.present(str, "label"))
    return spec


def _parse_link(doc, path) -> LinkSpec:
    with _Fields(doc, path) as f:
        return LinkSpec(f.node("a"), f.node("b"),
                        float(f.get("distance_m", float)))


def _parse_size(doc, path) -> SizeSpec:
    with _Fields(doc, path) as f:
        kind = f.get("kind", str)
        if kind == "constant":
            return SizeSpec.constant(f.get("bytes", int))
        if kind == "uniform":
            return SizeSpec.uniform(**f.present(int, "lo", "hi"))
        raise MalformedScenario(f"{path}.kind: {_EXPECTED_SIZE_KIND}")


def _parse_priority(doc, path) -> PrioritySpec:
    with _Fields(doc, path) as f:
        kind = f.get("kind", str)
        if kind == "fixed":
            return PrioritySpec.fixed(f.get("value", int))
        if kind == "uniform":
            return PrioritySpec.uniform()
        if kind == "stratified":
            return PrioritySpec.stratified(float(f.get(
                "priority0_share", float, DEFAULT_PRIORITY0_SHARE)))
        raise MalformedScenario(f"{path}.kind: {_EXPECTED_PRIORITY_KIND}")


def _parse_traffic(doc, path) -> TrafficSpec:
    with _Fields(doc, path) as f:
        spec = TrafficSpec(f.node("source"), f.node("destination"),
                           f.get("count", int),
                           **f.present(int, "interval_ms", "start_ms"))
        if "size" in doc:
            spec.size = _parse_size(f.get("size", object), f"{path}.size")
        if "priority" in doc:
            spec.priority = _parse_priority(f.get("priority", object),
                                            f"{path}.priority")
    return spec


def _parse_policies(doc) -> Policies:
    """Each Policies field that is present, by its name, of its default's
    type."""
    default, values = Policies(), {}
    with _Fields(doc, "policies") as f:
        for spec in fields(Policies):
            if spec.name in doc:
                kind = type(getattr(default, spec.name))
                value = f.get(spec.name, kind)
                values[spec.name] = float(value) if kind is float else value
    if "scan_schedule" in values:
        values["scan_schedule"] = {
            _parse_node_id(addr, "policies.scan_schedule"): at
            for addr, at in values["scan_schedule"].items()
        }
    if "backup_options" in values:
        # Checked by Policies.enabled_backup_options when the scenario
        # validates.
        values["backup_options"] = copy.deepcopy(values["backup_options"])
    return Policies(**values)


def _parse_scenario(doc) -> Scenario:
    with _Fields(doc, "document") as f:
        schema = f.get("schema", str)
        if schema != SCENARIO_SCHEMA:
            raise MalformedScenario(
                f"schema: expected {SCENARIO_SCHEMA!r}, got {schema!r}")
        name, seed = f.get("name", str), f.present(int, "seed")
        duration = f.get("duration_ms", int)
        nodes = f.get("nodes", list)
        if not nodes:
            raise MalformedScenario("nodes: expected at least one node")
        return Scenario(
            name,
            nodes=[_parse_node(n, f"nodes[{i}]") for i, n in enumerate(nodes)],
            links=[_parse_link(l, f"links[{i}]")
                   for i, l in enumerate(f.get("links", list, []))],
            traffic=[_parse_traffic(t, f"traffic[{i}]")
                     for i, t in enumerate(f.get("traffic", list, []))],
            policies=_parse_policies(f.get("policies", object, {})),
            duration_ms=duration,
            **seed)


# -- canned setups ---------------------------------------------------------


def _router(n: int) -> NodeId:
    return NodeId.parse(f"10.0.0.{n}")


def _phone(n: int) -> NodeId:
    return NodeId.parse(f"10.0.1.{n}")


def _station(n: int = 1) -> NodeId:
    return NodeId.parse(f"255.255.255.{n}")


def _laptop(n: int = 1) -> NodeId:
    return NodeId.parse(f"10.0.2.{n}")


def _run_duration(traffic: list[TrafficSpec]) -> int:
    """The last inject plus a minute to drain the queues."""
    return max(spec.end_ms() for spec in traffic) + 60_000


# Backup options whose threshold has no usable default, with its range.
# Option 4's threshold is a priority and defaults to 0.
_REQUIRED_THRESHOLDS = {
    3: "a battery percentage in (0, 100]",
    5: "a load percentage in (0, 100)",
    6: "a sender load percentage in (0, 100)",
}


def build_setup(setup_id: str, messages: int = 1000, seed: int = 0,
                backup_option: int = 1,
                backup_threshold: Optional[float] = None) -> Scenario:
    """Construct one of the canned experiment setups A through G.

    A is a single router delivering to itself over loopback; B is a
    four-router chain on short links; C adds a phone at each end of the
    chain; D is C with long lossy links.  E, F, and G rerun the A, B,
    and C topologies as backup experiments: stratified priorities with
    an exact 20% share of priority 0, and the chosen backup option
    (option 1 by default, option 4 with a threshold for the selective
    variant) enabled on every node.  Options 3, 5 and 6 need
    backup_threshold; option 4's defaults to priority 0.
    """
    setup_id = setup_id.upper()
    if setup_id not in SETUP_IDS:
        raise MalformedScenario(
            f"setup: expected one of {'/'.join(SETUP_IDS)}, got {setup_id!r}")
    if messages < 1:
        raise MalformedScenario("messages: must be >= 1")
    if (setup_id not in "ABCD" and backup_threshold is None
            and backup_option in _REQUIRED_THRESHOLDS):
        raise MalformedScenario(
            f"backup_threshold: option {backup_option} needs "
            f"{_REQUIRED_THRESHOLDS[backup_option]}")

    routers = [_router(n) for n in range(1, 5)]
    base = setup_id if setup_id in "ABCD" else {"E": "A", "F": "B", "G": "C"}[setup_id]

    # These setups measure transport (latency, errors, backup counts),
    # so every node runs on mains; lifetimes get their own scenarios.
    if base == "A":
        nodes = [NodeSpec(routers[0], "router")]
        links = [LinkSpec(routers[0], routers[0], 0.0)]
        route = (routers[0], routers[0])
    else:
        distance = 3.0 if base in ("B", "C") else 60.0
        nodes = [NodeSpec(r, "router") for r in routers]
        links = [LinkSpec(routers[i], routers[i + 1], distance)
                 for i in range(3)]
        route = (routers[0], routers[3])
        if base in ("C", "D"):
            phones = [_phone(1), _phone(2)]
            nodes = ([NodeSpec(phones[0], "phone")]
                     + nodes
                     + [NodeSpec(phones[1], "phone")])
            links.insert(0, LinkSpec(phones[0], routers[0], distance))
            links.append(LinkSpec(routers[3], phones[1], distance))
            route = (phones[0], phones[1])

    if setup_id in "ABCD":
        priority = PrioritySpec.uniform()
        policies = Policies()
    else:
        priority = PrioritySpec.stratified()
        option: dict = {"option": backup_option}
        if backup_option >= 3:
            option["threshold"] = (0 if backup_threshold is None
                                   else backup_threshold)
        policies = Policies(backup_options=[option])

    traffic = [TrafficSpec(route[0], route[1], messages,
                           size=SizeSpec.constant(MAX_PAYLOAD_BYTES),
                           priority=priority)]
    scenario = Scenario(
        name=f"setup-{setup_id}",
        nodes=nodes,
        links=links,
        traffic=traffic,
        policies=policies,
        seed=seed,
        duration_ms=_run_duration(traffic),
    )
    scenario.validate()
    return scenario


BATTERY_INTERVALS = ("idle", "screen", "10s", "60s", "300s")


def build_battery_scenario(interval: str, seed: int = 0) -> Scenario:
    """Relay-lifetime experiment: laptop source, phone relay, station sink.

    The phone relays every message, so its battery drain tracks the
    message interval; the run ends well past the longest expected
    lifetime and the phone's recorded death time is the result.  The
    idle and screen profiles carry no traffic.
    """
    if interval not in BATTERY_INTERVALS:
        raise MalformedScenario(
            f"interval: expected one of {'/'.join(BATTERY_INTERVALS)}")
    laptop, phone, station = _laptop(1), _phone(1), _station(1)
    nodes = [
        NodeSpec(laptop, "laptop"),
        NodeSpec(phone, "phone", battery_capacity=PHONE_BATTERY_CAPACITY,
                 screen_on=(interval == "screen")),
        NodeSpec(station, "station"),
    ]
    links = [LinkSpec(laptop, phone, 3.0), LinkSpec(phone, station, 3.0)]
    duration_ms = 16 * 3_600_000
    traffic = []
    if interval not in ("idle", "screen"):
        interval_ms = int(interval.rstrip("s")) * 1000
        # Enough messages to outlast the phone, within the run window.
        count = (duration_ms - DEFAULT_TRAFFIC_START_MS) // interval_ms - 1
        traffic = [TrafficSpec(laptop, station, count,
                               interval_ms=interval_ms,
                               priority=PrioritySpec.uniform())]
    # The experiment measures the raw drain model, so the protective
    # low-battery handoff is switched off; it gets its own scenarios.
    policies = Policies(handoff_threshold_pct=0.0)
    scenario = Scenario(
        name=f"battery-{interval}",
        nodes=nodes,
        links=links,
        traffic=traffic,
        policies=policies,
        seed=seed,
        duration_ms=duration_ms,
    )
    scenario.validate()
    return scenario


def build_boot_scenario(seed: int = 0) -> Scenario:
    """Outage recovery walk-through for three routers near a station.

    Router 1 scans first and finds the temporary station (switch);
    router 2 scans after router 1 has joined the emergency network and
    follows it (join); router 3 sees nothing on its first scan (wait)
    and joins on the rescan once router 2 is in emergency mode.
    """
    station = _station(1)
    r1, r2, r3 = _router(1), _router(2), _router(3)
    nodes = [NodeSpec(station, "station"),
             NodeSpec(r1, "router"), NodeSpec(r2, "router"),
             NodeSpec(r3, "router")]
    links = [LinkSpec(station, r1, 3.0), LinkSpec(r1, r2, 3.0),
             LinkSpec(r2, r3, 3.0)]
    policies = Policies(scan_schedule={r1: 0, r3: 500, r2: 1000})
    scenario = Scenario(
        name="boot-recovery",
        nodes=nodes,
        links=links,
        traffic=[],
        policies=policies,
        seed=seed,
        duration_ms=120_000,
    )
    scenario.validate()
    return scenario


def build_duty_cycle_scenario(enabled: bool, seed: int = 0) -> Scenario:
    """3x3 grid around a station, with or without the sleep schedule.

    The grid is phones except for a bigger-battery router at the
    center, which also carries the station uplink.  The corners end up
    inner (nobody needs them as a relay), the midpoints and the center
    end up boundary.  Control packets cost energy here (charged on
    send and on receive) so the relay burden is visible: each midpoint
    hears every beacon its two corner neighbours emit, and when the
    inner-node schedule lets the corners sleep, the midpoints outlive
    their always-on counterparts.
    """
    station = _station(1)
    center = (1, 1)
    phone_capacity = 0.2
    grid = {(x, y): NodeId.parse(f"10.0.{x + 1}.{y + 1}")
            for x in range(3) for y in range(3)}
    nodes = [NodeSpec(station, "station")]
    for pos, node in sorted(grid.items()):
        if pos == center:
            nodes.append(NodeSpec(
                node, "router",
                battery_capacity=ROUTER_CAPACITY_FACTOR * phone_capacity))
        else:
            nodes.append(NodeSpec(node, "phone",
                                  battery_capacity=phone_capacity))
    links = [LinkSpec(station, grid[center], 3.0)]
    for (x, y), node in sorted(grid.items()):
        if x + 1 < 3:
            links.append(LinkSpec(node, grid[(x + 1, y)], 3.0))
        if y + 1 < 3:
            links.append(LinkSpec(node, grid[(x, y + 1)], 3.0))
    traffic = [
        TrafficSpec(node, station, 5, interval_ms=30_000,
                    start_ms=60_000 + 1000 * i,
                    priority=PrioritySpec.uniform())
        for i, (pos, node) in enumerate(sorted(grid.items()))
        if pos != center
    ]
    policies = Policies(
        duty_cycle_enabled=enabled,
        energy_per_control=1.0 / 80_000,
        hold_time_ms=30_000,
        topology_hold_ms=90_000,
    )
    scenario = Scenario(
        name=f"duty-cycle-{'on' if enabled else 'off'}",
        nodes=nodes,
        links=links,
        traffic=traffic,
        policies=policies,
        seed=seed,
        duration_ms=4 * 3_600_000,
    )
    scenario.validate()
    return scenario

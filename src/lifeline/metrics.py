"""Run metrics, canonical serialization, and topology export.

Serialization is canonical (sorted keys, fixed separators) so equal runs
produce byte-identical files; the CSV view carries the same aggregate
numbers for spreadsheet use.  The JSON writer emits exactly
`json.dumps(to_json_dict(), sort_keys=True, separators=(",", ":"))`, but
formats the deliveries array itself: each record fills one template of
its sorted keys, and each distinct string or estimate object is dumped
once (the engine shares one estimate per message source).  Topology
snapshots taken during a run can be rendered as DOT, with relay (MPR)
edges styled distinctly.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from typing import Optional

METRICS_SCHEMA = "lifeline-metrics/1"
_SEPARATORS = (",", ":")


class NoSnapshot(LookupError):
    """No topology snapshot exists at or before the requested time."""


@dataclass
class DeliveryRecord:
    msg_id: int
    src: str
    dst: str
    priority: int
    created_at: int
    delivered_at: int
    hop_count: int
    deliver_node: str
    estimate: object = "unknown"

    @property
    def latency_ms(self) -> int:
        return self.delivered_at - self.created_at

    def to_json(self) -> dict:
        return {
            "msg_id": self.msg_id,
            "src": self.src,
            "dst": self.dst,
            "priority": self.priority,
            "created_at": self.created_at,
            "delivered_at": self.delivered_at,
            "latency_ms": self.latency_ms,
            "hop_count": self.hop_count,
            "deliver_node": self.deliver_node,
            "estimate": self.estimate,
        }


def _records_json(records: list[dict]) -> str:
    """Dicts with one key set, as json.dumps(records, sort_keys=True,
    separators=(",", ":")) writes them.

    One template holds the keys in sorted order.  An int prints as JSON
    prints it; any other value is dumped once per object, since a run
    names few nodes and the engine shares one estimate object per
    message source.  The records hold their values throughout, so no id
    in the cache is reused by another object.
    """
    if not records:
        return "[]"
    keys = sorted(records[0])
    template = "{%s}" % ",".join(json.dumps(key) + ":%s" for key in keys)
    dumped: dict[int, str] = {}
    rows = []
    for record in records:
        values = []
        for key in keys:
            value = record[key]
            if type(value) is not int:
                text = dumped.get(id(value))
                if text is None:
                    text = dumped[id(value)] = json.dumps(
                        value, sort_keys=True, separators=_SEPARATORS)
                value = text
            values.append(value)
        rows.append(template % tuple(values))
    return "[%s]" % ",".join(rows)


@dataclass
class RunMetrics:
    scenario_name: str
    seed: int
    duration_ms: int
    injected: int = 0
    deliveries: list[DeliveryRecord] = field(default_factory=list)
    dropped: dict[str, int] = field(default_factory=dict)
    ignored: int = 0
    send_errors: int = 0
    recv_errors: int = 0
    backed_up: dict[str, int] = field(default_factory=dict)
    persisted: dict[str, int] = field(default_factory=dict)
    handoff_flushed: int = 0
    handoff_persisted: int = 0
    handoff_rejected: int = 0
    lost_to_dead_node: int = 0
    boot_decisions: list[dict] = field(default_factory=list)
    roles: dict[str, str] = field(default_factory=dict)
    deaths: dict[str, int] = field(default_factory=dict)
    energy: dict[str, dict[str, float]] = field(default_factory=dict)
    battery_percent: dict[str, float] = field(default_factory=dict)
    conservation_ok: bool = True
    snapshots: list[dict] = field(default_factory=list)

    # -- aggregate views ------------------------------------------------

    @property
    def delivered(self) -> int:
        return len(self.deliveries)

    def delivery_ratio(self) -> float:
        return self.delivered / self.injected if self.injected else 0.0

    def mean_latency_ms(self) -> Optional[float]:
        if not self.deliveries:
            return None
        return statistics.fmean(d.latency_ms for d in self.deliveries)

    def latency_by_priority(self) -> dict[int, dict[str, float]]:
        grouped: dict[int, list[int]] = {}
        for d in self.deliveries:
            grouped.setdefault(d.priority, []).append(d.latency_ms)
        return {
            p: {
                "count": len(vals),
                "mean_ms": statistics.fmean(vals),
                "min_ms": min(vals),
                "max_ms": max(vals),
            }
            for p, vals in sorted(grouped.items())
        }

    def to_json_dict(self) -> dict:
        return {
            "schema": METRICS_SCHEMA,
            "scenario": self.scenario_name,
            "seed": self.seed,
            "duration_ms": self.duration_ms,
            "injected": self.injected,
            "delivered": self.delivered,
            "delivery_ratio": self.delivery_ratio(),
            "mean_latency_ms": self.mean_latency_ms(),
            "latency_by_priority": {
                str(p): stats for p, stats in self.latency_by_priority().items()
            },
            "dropped": dict(sorted(self.dropped.items())),
            "ignored": self.ignored,
            "send_errors": self.send_errors,
            "recv_errors": self.recv_errors,
            "backed_up": dict(sorted(self.backed_up.items())),
            "persisted": dict(sorted(self.persisted.items())),
            "handoff": {
                "flushed": self.handoff_flushed,
                "persisted": self.handoff_persisted,
                "rejected": self.handoff_rejected,
            },
            "lost_to_dead_node": self.lost_to_dead_node,
            "boot_decisions": self.boot_decisions,
            "roles": dict(sorted(self.roles.items())),
            "deaths": dict(sorted(self.deaths.items())),
            "energy": {
                node: dict(sorted(ledger.items()))
                for node, ledger in sorted(self.energy.items())
            },
            "battery_percent": dict(sorted(self.battery_percent.items())),
            "conservation_ok": self.conservation_ok,
            "deliveries": [d.to_json() for d in self.deliveries],
            "snapshots": self.snapshots,
        }

    def to_json(self) -> str:
        """The canonical text: json.dumps(to_json_dict(), sort_keys=True,
        separators=(",", ":")), byte for byte.

        Each top-level value is dumped as that call dumps it, in key
        order, except the deliveries array, which `_records_json` writes.
        """
        return "{%s}" % ",".join(
            "%s:%s" % (json.dumps(key), _records_json(value)
                       if key == "deliveries" else
                       json.dumps(value, sort_keys=True,
                                  separators=_SEPARATORS))
            for key, value in sorted(self.to_json_dict().items()))

    def to_csv(self) -> str:
        """Aggregate numbers in a flat metric,key,value table."""
        rows = [("metric", "key", "value")]
        for name, value in (
                ("injected", self.injected), ("delivered", self.delivered),
                ("delivery_ratio", self.delivery_ratio()),
                ("mean_latency_ms", self.mean_latency_ms()),
                ("ignored", self.ignored), ("send_errors", self.send_errors),
                ("recv_errors", self.recv_errors),
                ("lost_to_dead_node", self.lost_to_dead_node)):
            rows.append((name, "", _csv_num(value)))
        for p, stats in self.latency_by_priority().items():
            for stat_name in ("count", "mean_ms", "min_ms", "max_ms"):
                rows.append((f"latency_p{p}", stat_name, _csv_num(stats[stat_name])))
        for reason, count in sorted(self.dropped.items()):
            rows.append(("dropped", reason, str(count)))
        for node, count in sorted(self.persisted.items()):
            rows.append(("persisted", node, str(count)))
        for name, count in (("flushed", self.handoff_flushed),
                            ("persisted", self.handoff_persisted),
                            ("rejected", self.handoff_rejected)):
            rows.append(("handoff", name, str(count)))
        for node, at in sorted(self.deaths.items()):
            rows.append(("death_ms", node, str(at)))
        return "\n".join(",".join(row) for row in rows) + "\n"


def _csv_num(value) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def validate_metrics_json(doc) -> None:
    """Check a serialized metrics document against the v1 schema.

    Raises ValueError naming the path of the first problem, and nothing
    else, whatever the document holds.
    """
    def fail(path, why):
        raise ValueError(f"{path}: {why}")

    def expect(path, value, kinds):
        if not isinstance(value, kinds):
            fail(path, f"expected {kinds}, got {type(value).__name__}")

    def expect_keys(path, value, keys):
        expect(path, value, dict)
        for key in keys:
            if key not in value:
                fail(f"{path}.{key}", "missing")

    expect("document", doc, dict)
    if doc.get("schema") != METRICS_SCHEMA:
        fail("schema", f"expected {METRICS_SCHEMA!r}")
    # Every top-level key to_json_dict writes.
    for key, kinds in (
        ("scenario", str), ("seed", int), ("duration_ms", int),
        ("injected", int), ("delivered", int), ("delivery_ratio", (int, float)),
        ("mean_latency_ms", (int, float, type(None))),
        ("latency_by_priority", dict),
        ("dropped", dict), ("ignored", int), ("send_errors", int),
        ("recv_errors", int), ("backed_up", dict), ("persisted", dict),
        ("handoff", dict), ("lost_to_dead_node", int),
        ("boot_decisions", list), ("roles", dict), ("deaths", dict),
        ("energy", dict), ("battery_percent", dict),
        ("conservation_ok", bool), ("deliveries", list), ("snapshots", list),
    ):
        if key not in doc:
            fail(key, "missing")
        expect(key, doc[key], kinds)
    for i, d in enumerate(doc["deliveries"]):
        expect_keys(f"deliveries[{i}]", d,
                    ("msg_id", "src", "dst", "priority", "created_at",
                     "delivered_at", "latency_ms", "hop_count",
                     "deliver_node", "estimate"))
    # What export_topology reads of each snapshot.
    for i, snap in enumerate(doc["snapshots"]):
        path = f"snapshots[{i}]"
        expect_keys(path, snap, ("t", "nodes", "links", "mpr"))
        expect(f"{path}.t", snap["t"], int)
        expect(f"{path}.nodes", snap["nodes"], list)
        for j, node in enumerate(snap["nodes"]):
            expect_keys(f"{path}.nodes[{j}]", node, ("node", "kind"))
        expect(f"{path}.links", snap["links"], list)
        for j, pair in enumerate(snap["links"]):
            expect(f"{path}.links[{j}]", pair, list)
            if len(pair) != 2:
                fail(f"{path}.links[{j}]", "expected a pair of nodes")
        expect(f"{path}.mpr", snap["mpr"], dict)
        for node, relays in snap["mpr"].items():
            expect(f"{path}.mpr[{node!r}]", relays, list)


def export_topology(metrics: RunMetrics, t: int) -> str:
    """DOT text of the latest snapshot at or before t."""
    chosen = None
    for snap in metrics.snapshots:
        if snap["t"] <= t:
            chosen = snap
    if chosen is None:
        raise NoSnapshot(f"no topology snapshot at or before {t} ms")

    lines = ["graph lifeline {", f'  label="t={chosen["t"]}ms";']
    mpr_map = {node: set(relays) for node, relays in chosen["mpr"].items()}
    for node in sorted(chosen["nodes"], key=lambda n: n["node"]):
        battery = node.get("battery_percent")
        battery_label = "mains" if battery is None else f"{battery:.0f}%"
        label = f'{node["node"]}\\n{node["kind"]} {battery_label}'
        shape = "box" if node["kind"] == "station" else "ellipse"
        lines.append(f'  "{node["node"]}" [label="{label}", shape={shape}];')
    for a, b in sorted(tuple(pair) for pair in chosen["links"]):
        relay = b in mpr_map.get(a, ()) or a in mpr_map.get(b, ())
        style = ' [style=bold, color="red"]' if relay else ""
        lines.append(f'  "{a}" -- "{b}"{style};')
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Position locating without GPS.

Nodes with pre-configured coordinates (routers, stations) answer
TTL-bounded "WHERE AM I?" floods; a querier estimates its own position
as the nearest replier's coordinates, falling back to the centroid when
several tie at the minimum hop distance.  On topology changes the
configured nodes push their coordinates to newly joined nodes, and every
cache is refreshed so passive queries and active caches agree once the
network is quiet.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .messages import InvariantViolation, NodeId

DEFAULT_QUERY_HOPS = 3

Adjacency = dict[NodeId, set[NodeId]]


@dataclass(frozen=True)
class KnownLocation:
    node: NodeId
    coordinates: tuple[float, float]
    label: str = ""


@dataclass(frozen=True)
class LocationReply:
    replier: NodeId
    coordinates: tuple[float, float]
    hop_distance: int


@dataclass(frozen=True)
class LocationEstimate:
    coordinates: Optional[tuple[float, float]]
    source_count: int = 0
    hop_distance: Optional[int] = None

    @property
    def known(self) -> bool:
        return self.coordinates is not None

    def to_json(self):
        if not self.known:
            return "unknown"
        return {
            "x": self.coordinates[0],
            "y": self.coordinates[1],
            "hop_distance": self.hop_distance,
            "source_count": self.source_count,
        }


UNKNOWN_ESTIMATE = LocationEstimate(None)


def flood_reach(adjacency: Adjacency, origin: NodeId, n_hops: int) -> dict[NodeId, int]:
    """Nodes a TTL-n flood from origin reaches, with first-arrival hops.

    The origin itself is not part of the result; each node forwards a
    query once, and the TTL bounds propagation at n hops.
    """
    if n_hops < 1:
        raise InvariantViolation(f"query hop budget must be >= 1: {n_hops}")
    seen = {origin}
    reached: dict[NodeId, int] = {}
    frontier: deque[tuple[NodeId, int]] = deque([(origin, n_hops)])
    while frontier:
        node, ttl = frontier.popleft()
        if ttl <= 0:
            continue
        for neighbor in sorted(adjacency.get(node, ()), key=lambda v: v.address):
            if neighbor in seen:
                continue
            seen.add(neighbor)
            reached[neighbor] = n_hops - ttl + 1
            frontier.append((neighbor, ttl - 1))
    return reached


def passive_query(origin: NodeId, n_hops: int, adjacency: Adjacency,
                  known_locations: dict[NodeId, KnownLocation]) -> list[LocationReply]:
    """Flood a query; every configured node reached replies with its spot."""
    reached = flood_reach(adjacency, origin, n_hops)
    replies = [
        LocationReply(node, known_locations[node].coordinates, hops)
        for node, hops in reached.items()
        if node in known_locations
    ]
    replies.sort(key=lambda r: (r.hop_distance, r.replier.address))
    return replies


def estimate_position(replies: Sequence[LocationReply]) -> LocationEstimate:
    """Nearest replier wins; minimum-hop ties average out to the centroid."""
    if not replies:
        return UNKNOWN_ESTIMATE
    best_hop = min(r.hop_distance for r in replies)
    nearest = sorted(
        (r for r in replies if r.hop_distance == best_hop),
        key=lambda r: r.replier.address,
    )
    x = sum(r.coordinates[0] for r in nearest) / len(nearest)
    y = sum(r.coordinates[1] for r in nearest) / len(nearest)
    return LocationEstimate((x, y), source_count=len(nearest), hop_distance=best_hop)


class LocationDirectory:
    """Per-node location caches kept current by topology-change pushes."""

    def __init__(self, known_locations: dict[NodeId, KnownLocation],
                 n_hops: int = DEFAULT_QUERY_HOPS):
        self.known = dict(known_locations)
        self.n_hops = n_hops
        self.caches: dict[NodeId, dict[NodeId, KnownLocation]] = {}

    def on_change(self, adjacency: Adjacency,
                  joined: Iterable[NodeId] = ()) -> list[tuple[NodeId, KnownLocation]]:
        """Rebuild every cache against the new topology; report the pushes
        addressed to just-joined nodes."""
        fresh: dict[NodeId, dict[NodeId, KnownLocation]] = {
            node: {} for node in adjacency
        }
        for router, location in self.known.items():
            if router not in adjacency:
                continue
            for target in flood_reach(adjacency, router, self.n_hops):
                fresh[target][router] = location
        self.caches = fresh
        joined_set = set(joined)
        return [
            (target, location)
            for target in sorted(joined_set, key=lambda v: v.address)
            for _, location in sorted(fresh.get(target, {}).items())
        ]

    def cache_of(self, node: NodeId) -> dict[NodeId, KnownLocation]:
        return dict(self.caches.get(node, {}))

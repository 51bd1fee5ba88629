"""Per-layer spans for a traced run, wrapped around the package from outside.

A `Tracer` replaces each traced function with a wrapper that times it as
a span.  Spans nest: a span's self time is its duration minus the time
its child spans cover, so the self times of all spans add up to the time
covered by outermost spans (`covered_s`), and the rest of a timed window
is time no layer span covers.  Spans are aggregated per function as they
close (calls, busy time, self time) instead of being kept one by one: a
run makes millions of calls.

The package binds some functions by name at import time (the engine
imports `decode_message`, `passive_query`, `evaluate_policy` and
others), so a module-level function is replaced at every binding site
found in the `lifeline` modules, not only where it is defined.  Methods are replaced
on their class.  `uninstall` puts every original object back.

`boot` and `cli` are not traced: the engine reaches `BootController.scan`
only through `Policies.scan_schedule`, which no workload sets, and the
CLI is a thin argparse wrapper around the same calls the benchmark makes.
Nor is `power.is_awake`: the engine calls it only once duty cycling is
enabled (`Policies.duty_cycle_enabled`), which no workload does.

Every traced function reports its calls, busy time and self time on every
workload, so a layer a workload never reaches reads 0 there (`backup` and
`locating` on relay-16h, for example).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

from lifeline import backup, locating, messages, power
from lifeline.backup import BackupStore
from lifeline.engine import Simulator
from lifeline.forwarding import OutcomeKind, PriorityQueueBank, ReceiveResult
from lifeline.metrics import RunMetrics
from lifeline.olsr import TopologyState
from lifeline.power import BatteryModel
from lifeline.scenario import Scenario

# Set on every wrapper, so a leftover one can be found after `uninstall`.
WRAPPER_MARK = "_perfbench_wrapper"

# Engine event kinds reported per dispatched handler (`Simulator._on_<kind>`).
EVENT_KINDS = ("hello", "tc", "ctl", "tick", "msg", "inject", "power",
               "snapshot")
# Also counted, in engine.events only: one roles event a run, no scans.
OTHER_EVENT_KINDS = ("roles", "scan")


@dataclass(frozen=True)
class Target:
    """One traced function: its layer, where it lives, and its name.

    `setup` marks functions reported from the set-up window rather than
    the run.
    """

    layer: str
    owner: object
    name: str
    setup: bool = False


TARGETS = (
    Target("messages", messages, "encode_message"),
    Target("messages", messages, "decode_message"),
    Target("messages", messages, "classify_packet"),
    Target("olsr", TopologyState, "process_hello"),
    Target("olsr", TopologyState, "process_tc"),
    Target("olsr", TopologyState, "select_mprs"),
    Target("olsr", TopologyState, "compute_routes"),
    Target("olsr", TopologyState, "expire_links"),
    Target("olsr", TopologyState, "expire_topology"),
    Target("olsr", TopologyState, "make_hello"),
    Target("olsr", TopologyState, "make_tc"),
    Target("forwarding", PriorityQueueBank, "receive"),
    Target("forwarding", PriorityQueueBank, "inject"),
    Target("forwarding", PriorityQueueBank, "enqueue"),
    Target("forwarding", PriorityQueueBank, "forward_tick"),
    Target("forwarding", PriorityQueueBank, "swap_in"),
    Target("backup", backup, "evaluate_policy"),
    Target("backup", BackupStore, "persist"),
    Target("power", BatteryModel, "drain"),
    Target("power", power, "acceptance_probability"),
    Target("power", power, "station_route"),
    Target("power", power, "classify_roles"),
    Target("power", power, "calibrate", setup=True),
    Target("locating", locating, "passive_query"),
    Target("locating", locating, "estimate_position"),
    Target("scenario", Scenario, "validate", setup=True),
    Target("metrics", RunMetrics, "to_json"),
    Target("metrics", RunMetrics, "to_csv"),
)

RUN_LAYERS = ("messages", "olsr", "forwarding", "backup", "power",
              "locating", "metrics")


@dataclass
class Stat:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


def _package_modules() -> list:
    return [module for name, module in sorted(sys.modules.items())
            if name == "lifeline" or name.startswith("lifeline.")]


def _binding_sites(original: object) -> list[tuple[object, str]]:
    """Every (module, attribute) in the package bound to `original`."""
    return [(module, attr) for module in _package_modules()
            for attr, value in vars(module).items() if value is original]


class Tracer:
    """Times the traced functions while installed; see the module doc."""

    def __init__(self) -> None:
        self.stats: dict[tuple[str, str], Stat] = {}
        self.events: Counter[str] = Counter()
        self.covered_s = 0.0
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        # Counts taken where the work happens, by the _after_* hooks.
        self.encode_bytes = 0
        self.accepted_receives = 0
        self.routes_changed = 0
        self._last_routes: dict[TopologyState, dict] = {}
        self.delivered_outcomes = 0
        self.swapped_in = 0
        self.peak_depth = 0
        self.peak_ram = 0
        self.persist_bytes = 0
        self.persist_stored = 0
        self._store_sizes: dict[BackupStore, int] = {}
        self.query_origins: set = set()
        self.json_bytes = 0

    # -- spans ----------------------------------------------------------------

    def span(self, layer: str, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """`fn` wrapped as a span; `after(args, result)` runs once it closes."""
        stat = self.stats.setdefault((layer, name), Stat())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stat.calls += 1
                stat.busy_s += elapsed
                stat.self_s += elapsed - child
                if stack:
                    stack[-1] += elapsed
                else:
                    self.covered_s += elapsed
            if after is not None:
                after(args, result)
            return result

        setattr(wrapper, WRAPPER_MARK, True)
        return wrapper

    def _count_event(self, kind: str, fn: Callable) -> Callable:
        events = self.events

        @functools.wraps(fn)
        def wrapper(*args):
            events[kind] += 1
            return fn(*args)

        setattr(wrapper, WRAPPER_MARK, True)
        return wrapper

    # -- hooks that count useful work where it happens ------------------------

    def _after_encode_message(self, args, data) -> None:
        self.encode_bytes += len(data)

    def _after_receive(self, args, result) -> None:
        if result is ReceiveResult.ACCEPTED:
            self.accepted_receives += 1

    def _after_compute_routes(self, args, table) -> None:
        topo = args[0]
        # A node starts from an empty table, as the engine's runtime does.
        if table != self._last_routes.get(topo, {}):
            self.routes_changed += 1
        self._last_routes[topo] = table

    def _after_enqueue(self, args, outcome) -> None:
        bank = args[0]
        depth = sum(len(q) for q in bank.queues) + len(bank.swap_store)
        self.peak_depth = max(self.peak_depth, depth)
        self.peak_ram = max(self.peak_ram, bank.ram_used)

    def _after_forward_tick(self, args, outcomes) -> None:
        self.delivered_outcomes += sum(
            1 for o in outcomes if o.kind is OutcomeKind.DELIVERED)

    def _after_swap_in(self, args, entries) -> None:
        self.swapped_in += entries

    def _after_persist(self, args, stored) -> None:
        store = args[0]
        before = self._store_sizes.get(store, 0)
        self._store_sizes[store] = store.size_bytes
        if stored:
            self.persist_stored += 1
            self.persist_bytes += store.size_bytes - before

    def _after_passive_query(self, args, replies) -> None:
        self.query_origins.add(args[0])

    def _after_to_json(self, args, text) -> None:
        self.json_bytes += len(text.encode())

    # -- installing and removing the wrappers ---------------------------------

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for target in TARGETS:
                hook = getattr(self, f"_after_{target.name}", None)
                if isinstance(target.owner, type):
                    original = target.owner.__dict__[target.name]
                    self._patch(target.owner, target.name,
                                self.span(target.layer, target.name,
                                          original, hook))
                    continue
                original = getattr(target.owner, target.name)
                wrapper = self.span(target.layer, target.name, original, hook)
                for module, attr in _binding_sites(original):
                    self._patch(module, attr, wrapper)
            for kind in EVENT_KINDS + OTHER_EVENT_KINDS:
                attr = f"_on_{kind}"
                self._patch(Simulator, attr,
                            self._count_event(kind, Simulator.__dict__[attr]))
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        """Put back every original object, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------------

    def stat(self, layer: str, name: str) -> Stat:
        return self.stats.get((layer, name), Stat())

    def layer_self_s(self, layer: str) -> float:
        return sum(stat.self_s for (lay, _), stat in self.stats.items()
                   if lay == layer)

    def self_total_s(self) -> float:
        return sum(stat.self_s for stat in self.stats.values())


def installed_wrappers() -> list[str]:
    """Names in the package still bound to a tracing wrapper (want none)."""
    owners = _package_modules()
    owners += [t.owner for t in TARGETS if isinstance(t.owner, type)]
    owners.append(Simulator)
    return sorted({f"{getattr(owner, '__name__', owner)}.{attr}"
                   for owner in owners
                   for attr, value in vars(owner).items()
                   if getattr(value, WRAPPER_MARK, False)})


def _ratio(part: float, whole: float) -> float:
    """part / whole, or 0 when nothing was attempted."""
    return part / whole if whole else 0.0


def layer_metrics(setup: Tracer, setup_s: float, first_setup_s: float,
                  run: Tracer, run_s: float, untraced_run_s: float
                  ) -> dict[str, tuple[float, str, str]]:
    """Per-layer metrics of one traced set-up and run.

    Returns name -> (value, unit, better).  `setup` and `run` traced the
    two windows whose wall times are `setup_s` and `run_s`;
    `first_setup_s` is the untraced first set-up of a fresh process and
    `untraced_run_s` the median repeat's run time with tracing off.
    """
    out: dict[str, tuple[float, str, str]] = {}

    def put(name, value, unit, better="lower"):
        out[name] = (value, unit, better)

    events = sum(run.events.values())
    put("engine.events", events, "count")
    put("engine.events_per_s", _ratio(events, untraced_run_s), "1/s", "higher")
    for kind in EVENT_KINDS:
        put(f"engine.events.{kind}", run.events[kind], "count")
    put("engine.dispatch.self_s", run_s - run.covered_s, "s")
    put("engine.setup.self_s", setup_s - setup.covered_s, "s")
    put("setup.first_s", first_setup_s, "s")

    for target in TARGETS:
        tracer = setup if target.setup else run
        stat = tracer.stat(target.layer, target.name)
        prefix = f"{target.layer}.{target.name}"
        put(f"{prefix}.calls", stat.calls, "count")
        put(f"{prefix}.busy_s", stat.busy_s, "s")
        put(f"{prefix}.self_s", stat.self_s, "s")
    build = setup.stat("scenario", "build")
    put("scenario.build.calls", build.calls, "count")
    put("scenario.build.busy_s", build.busy_s, "s")
    put("scenario.build.self_s", build.self_s, "s")

    decodes = run.stat("messages", "decode_message").calls
    ticks = run.stat("forwarding", "forward_tick").calls
    routes = run.stat("olsr", "compute_routes").calls
    persists = run.stat("backup", "persist").calls
    queries = run.stat("locating", "passive_query").calls
    put("messages.encode_message.bytes", run.encode_bytes, "B")
    put("messages.decodes_per_receive",
        _ratio(decodes, run.accepted_receives), "ratio")
    put("olsr.compute_routes.changed_ratio",
        _ratio(run.routes_changed, routes), "ratio", "higher")
    put("forwarding.forward_tick.useful_ratio",
        _ratio(run.delivered_outcomes, ticks), "ratio", "higher")
    put("forwarding.swap_in.entries", run.swapped_in, "count")
    put("forwarding.queue.peak_depth", run.peak_depth, "count")
    put("forwarding.ram.peak_bytes", run.peak_ram, "B")
    put("backup.persist.bytes", run.persist_bytes, "B")
    put("backup.persist.useful_ratio",
        _ratio(run.persist_stored, persists), "ratio", "higher")
    put("locating.passive_query.distinct_origin_ratio",
        _ratio(len(run.query_origins), queries), "ratio", "higher")
    put("metrics.json_bytes", run.json_bytes, "B")

    for layer in RUN_LAYERS:
        put(f"{layer}.self_s", run.layer_self_s(layer), "s")
    put("scenario.self_s", setup.layer_self_s("scenario"), "s")
    put("trace.run_s", run_s, "s")
    put("trace.overhead_s", run_s - untraced_run_s, "s")
    return out

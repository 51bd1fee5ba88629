"""The statements of the simulation modules that no pinned run reaches.

One traced pass runs setups A-G at REACH_MESSAGES messages each, every
golden corpus seed, both low-battery handoff scenarios, the 16 h relay
run (seed 1), whose relay spends many budgets of forwards in one stretch,
and the duty-cycle grid on a fortieth of its batteries for 10 min, whose
dozing corners pay charges that empty them inside the run, under
`sys.settrace`, and records the lines of `engine.py`,
`forwarding.py`, `backup.py`, `olsr.py` and `power.py` that ran.  Each line belongs to the innermost statement
that holds it; a compound statement also counts as run when any
statement inside it ran.  A function none of whose statements ran is
reported once, by its `def` line; in a function that ran, each
statement that did not, but whose enclosing statement did, is reported.

A report is keyed by (module-qualified function name, first line of the
statement), not by line number, so edits elsewhere in a file move no
key; a first line that repeats within a function gets " #2", " #3" and
so on in source order.  `ALLOWED` names every statement that may go
unreached, each with the reason no pinned run reaches it.  The check
fails when a statement outside it goes unreached, when an allowlisted
one now runs, or when an allowlisted key names no statement.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from lifeline import backup, engine, forwarding, olsr, power
from lifeline.engine import run
from lifeline.scenario import (
    SETUP_IDS,
    build_battery_scenario,
    build_duty_cycle_scenario,
    build_setup,
)

from test_engine import handoff_scenario
from test_golden_corpus import CORPUS_SEEDS, corpus_scenario

REACH_MESSAGES = 200
MODULES = {"engine": engine, "forwarding": forwarding, "backup": backup,
           "olsr": olsr, "power": power}

_OVERFLOW = "no traced run fills a bank's 2 MiB budget; gateway-surge does"
_STORE_FILE = "runs use in-memory backup stores; a log file is CLI and test use"
_READBACK = "log readback is for `dump-log` and restarts, which no run does"
_OPTION_CHECK = "Scenario.validate rejects a bad option before it is built"
_CRITERIA_ONLY = "only criteria 5 and 6 run OLSR without the engine"
_AT_IMPORT = ("the engine builds its calibration points and calibrates at "
              "import, untraced")
_ROLES = "classify_roles builds only valid assignments"

ALLOWED = {
    # -- engine ---------------------------------------------------------------
    ("engine._Draws.integers",
     'raise ValueError("integers: hi must exceed lo")'):
        "every bounded draw spans at least one value",
    ("engine._Draws.integers", "return lo"):
        "every bounded draw spans at least two values",
    ("engine._Draws.integers", "bits, draw = 64, self._next64"):
        "no bounded draw spans more than 2**32 values",
    ("engine._Draws.integers", "return lo + draw()"):
        "no bounded draw spans exactly 2**32 values",
    ("engine._Draws.integers", "threshold = (1 << bits) % span"):
        "a draw needs rejection with odds span/2**32, under 1 in 10**7 here",
    ("engine._Draws.integers", "while m & mask < threshold:"):
        "a draw needs rejection with odds span/2**32, under 1 in 10**7 here",
    ("engine.Simulator._on_tick", "return"):
        "no traced node dies with a forward tick queued",
    ("engine.Simulator._on_scan", "return"):
        "no traced scan is scheduled for a node that dies first",
    ("engine.Simulator._on_msg", "self.metrics.ignored += 1"):
        "the engine only ever sends a message's canonical bytes",
    ("engine.Simulator._on_msg", "return #4"):
        "the engine only ever sends a message's canonical bytes",
    ("engine.Simulator._persist", 'self.metrics.dropped["backup_full"] = ('):
        "no traced node persists the 64 MiB a backup store holds",
    ("engine.Simulator._finalize", "self.metrics.dropped[reason.value] = ("):
        "no traced bank drops a message: " + _OVERFLOW,
    ("engine.Simulator._on_power",
     "def _on_power(self, now: int, rt: _NodeRuntime) -> None:"):
        "a stub nothing schedules, kept because perfbench/spans.py wraps "
        "every `_on_<kind>` handler by name",
    ("engine.run_battery_experiment",
     "def run_battery_experiment(interval: str, seed: int = 0) -> float:"):
        "criterion 2 and the `battery` command call it, not the traced runs",
    # -- forwarding -----------------------------------------------------------
    ("forwarding.resolve_next_hop", "return route[0]"):
        "traced traffic names the station's own address, always in the table",
    ("forwarding.PriorityQueueBank.receive", "self.ignored_count += 1"):
        "the engine only ever sends a message's canonical bytes",
    ("forwarding.PriorityQueueBank.receive", "return ReceiveResult.IGNORED"):
        "the engine only ever sends a message's canonical bytes",
    ("forwarding.PriorityQueueBank._admit",
     "return self._drop(msg, DropReason.DUPLICATE)"):
        "no traced message comes back to a node that sent it on",
    ("forwarding.PriorityQueueBank._drop",
     "def _drop(self, msg: EmergencyMessage, reason: DropReason) "
     "-> ForwardOutcome:"):
        "no traced bank drops a message: " + _OVERFLOW,
    ("forwarding.PriorityQueueBank._remember_delivered",
     "self._delivered_ids.popitem(last=False)"):
        "no traced node sends on 4,096 messages; criterion 4's runs do",
    ("forwarding.PriorityQueueBank.enqueue", "data = encode_message(msg)"):
        "only BackupStore.restore_into injects without bytes",
    ("forwarding.PriorityQueueBank.enqueue", "evictable = next("): _OVERFLOW,
    ("forwarding.PriorityQueueBank.enqueue", "if evictable is None:"):
        _OVERFLOW,
    ("forwarding.PriorityQueueBank.enqueue",
     "victim = self.queues[evictable].pop()  # newest first"): _OVERFLOW,
    ("forwarding.PriorityQueueBank.enqueue",
     "self.ram_used -= len(victim.data)"): _OVERFLOW,
    ("forwarding.PriorityQueueBank.enqueue",
     "bisect.insort(self.swap_store, victim, key=lambda e: e.seq)"):
        _OVERFLOW,
    ("forwarding.PriorityQueueBank.enqueue",
     "tail = self.queues[msg.priority].pop()"): _OVERFLOW,
    ("forwarding.PriorityQueueBank.enqueue", "assert tail is entry"):
        _OVERFLOW,
    ("forwarding.PriorityQueueBank.enqueue", "self.ram_used -= len(data)"):
        _OVERFLOW,
    ("forwarding.PriorityQueueBank.enqueue",
     "return self._drop(msg, DropReason.RAM_EXHAUSTED)"): _OVERFLOW,
    ("forwarding.PriorityQueueBank.swap_in",
     "batch, self.swap_store = self.swap_store, []"):
        "no traced bank swaps: " + _OVERFLOW,
    ("forwarding.PriorityQueueBank.swap_in", "for entry in batch:"):
        "no traced bank swaps: " + _OVERFLOW,
    ("forwarding.PriorityQueueBank.swap_in", "return len(batch)"):
        "no traced bank swaps: " + _OVERFLOW,
    ("forwarding.PriorityQueueBank._pop_entry", "return None"):
        "a bank is ticked only while it holds a message",
    ("forwarding.PriorityQueueBank.forward_tick", "return []"):
        "a bank is ticked only while it holds a message",
    ("forwarding.PriorityQueueBank.snapshot", "def snapshot(self) -> dict:"):
        "the engine never asks a bank for its snapshot",
    # -- backup ---------------------------------------------------------------
    ("backup.BackupOption.__post_init__",
     'raise InvariantViolation(f"unknown backup option: {n}")'):
        _OPTION_CHECK,
    ("backup.BackupOption.__post_init__",
     'raise InvariantViolation(f"option {n} takes no threshold")'):
        _OPTION_CHECK,
    ("backup.BackupOption.__post_init__",
     'raise InvariantViolation(f"option {n} requires a threshold")'):
        _OPTION_CHECK,
    ("backup.BackupOption.__post_init__",
     'raise InvariantViolation(f"option 3 threshold out of range: {t}")'):
        _OPTION_CHECK,
    ("backup.BackupOption.__post_init__",
     'raise InvariantViolation(f"option 4 threshold out of range: {t}")'):
        _OPTION_CHECK,
    ("backup.BackupOption.__post_init__",
     'raise InvariantViolation(f"option {n} threshold out of range: {t}")'):
        _OPTION_CHECK,
    ("backup.NodeCondition.__post_init__", "def __post_init__(self) -> None:"):
        "only evaluate_policy's callers build a NodeCondition",
    ("backup.BackupDecision.__post_init__",
     'raise InvariantViolation("winning_option present iff a backup happens")'):
        "compile_policy builds only consistent decisions",
    ("backup.evaluate_policy",
     "def evaluate_policy(enabled: set[BackupOption], msg: EmergencyMessage,"):
        "the engine compiles its policy once; only tests evaluate one",
    ("backup._read_log",
     "def _read_log(data: bytes) -> tuple[list[EmergencyMessage], int]:"):
        _READBACK,
    ("backup.BackupStore.__init__", "data = self._path.read_bytes()"):
        _STORE_FILE,
    ("backup.BackupStore.__init__", "messages, self._size = _read_log(data)"):
        _STORE_FILE,
    ("backup.BackupStore.__init__",
     "self._ids = {msg.msg_id for msg in messages}"): _STORE_FILE,
    ("backup.BackupStore.__init__", "self._count = len(messages)"):
        _STORE_FILE,
    ("backup.BackupStore.__init__",
     "self.corrupt_tail_bytes = len(data) - self._size"): _STORE_FILE,
    ("backup.BackupStore.persist", "payload = encode_message(msg)"):
        "the engine always hands over the bytes it holds",
    ("backup.BackupStore.persist",
     'raise StorageFull(f"backup log at {self._size} bytes cannot take '
     '{size} more")'):
        "no traced node persists the 64 MiB a backup store holds",
    ("backup.BackupStore.persist", 'with self._path.open("ab") as fh:'):
        _STORE_FILE,
    ("backup.BackupStore.size_bytes", "def size_bytes(self) -> int:"):
        "only the benchmark's tracer reads it",
    ("backup.BackupStore.__contains__",
     "def __contains__(self, msg_id: int) -> bool:"):
        "the engine never asks a store whether it holds an id",
    ("backup.BackupStore.messages",
     "def messages(self) -> list[EmergencyMessage]:"): _READBACK,
    ("backup.BackupStore.restore_into",
     "def restore_into(self, bank: PriorityQueueBank) -> int:"): _READBACK,
    ("backup.BackupStore.to_json", "def to_json(self) -> list[dict]:"):
        _READBACK,
    # -- olsr -----------------------------------------------------------------
    ("olsr.TopologyState.process_hello", "return #2"):
        "the engine sends no HELLO over a loopback link; converge's callers "
        "may pass any adjacency",
    ("olsr.TopologyState.refresh_tc", "return False #2"):
        "the engine refreshes at send, before any copy of that TC can arrive",
    ("olsr.converge",
     "def converge(adjacency: Adjacency) -> dict[NodeId, TopologyState]:"):
        _CRITERIA_ONLY,
    ("olsr.flood_tc",
     "def flood_tc(states: dict[NodeId, TopologyState], adjacency: Adjacency,"):
        _CRITERIA_ONLY,
    # -- power ----------------------------------------------------------------
    ("power.BatteryModel.drain",
     'raise BatteryDead("battery already exhausted")'):
        "the engine stops charging a node once its battery ran out",
    ("power.CalibrationPoint.idle",
     'def idle(cls, lifetime_hours: float) -> "CalibrationPoint":'):
        _AT_IMPORT,
    ("power.CalibrationPoint.interval",
     "def interval(cls, interval_s: float, lifetime_hours: float) "
     '-> "CalibrationPoint":'):
        _AT_IMPORT,
    ("power.CalibrationPoint.screen",
     'def screen(cls, lifetime_hours: float) -> "CalibrationPoint":'):
        _AT_IMPORT,
    ("power.RoleAssignment.__post_init__",
     'raise InvariantViolation("boundary nodes never sleep")'): _ROLES,
    ("power.RoleAssignment.__post_init__",
     'raise InvariantViolation(f"duty cycle out of range: '
     '{self.duty_cycle}")'): _ROLES,
    ("power.calibrate",
     "def calibrate(observations: list[CalibrationPoint]) -> BatteryModel:"):
        _AT_IMPORT,
    ("power.calibrate.rate_of",
     "def rate_of(point: CalibrationPoint) -> float:"): _AT_IMPORT,
}


def _executable(stmts: list[ast.stmt]) -> list[ast.stmt]:
    """stmts without bare string constants (docstrings), which compile to
    no code."""
    return [s for s in stmts
            if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant)
                    and isinstance(s.value.value, str))]


def _children(stmt: ast.stmt) -> list[ast.stmt]:
    """The statements directly inside stmt, in source order; none for a
    nested function, whose body is a function of its own."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    out = []
    for name in ("body", "orelse", "finalbody"):
        out += getattr(stmt, name, [])
    for handler in getattr(stmt, "handlers", []):
        out += handler.body
    for case in getattr(stmt, "cases", []):
        out += case.body
    return _executable(sorted(out, key=lambda s: s.lineno))


def _own_lines(stmt: ast.stmt) -> range:
    """The lines of stmt that no statement inside it holds: a compound
    statement's header, a def's decorators and signature."""
    start = min([stmt.lineno] + [d.lineno for d in
                                 getattr(stmt, "decorator_list", [])])
    inner = stmt.body if isinstance(stmt, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)) else _children(stmt)
    end = max(stmt.lineno, inner[0].lineno - 1) if inner else stmt.end_lineno
    return range(start, end + 1)


def _functions(tree: ast.Module):
    """(qualname, def) of every function and method, nested ones too."""
    todo = [("", node) for node in tree.body]
    while todo:
        prefix, node = todo.pop(0)
        if isinstance(node, ast.ClassDef):
            todo += [(f"{prefix}{node.name}.", n) for n in node.body]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + node.name
            yield qualname, node
            stack = _executable(node.body)
            while stack:
                stmt = stack.pop()
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    todo.append((f"{qualname}.", stmt))
                stack += _children(stmt)


def _mark_ran(stmts: list[ast.stmt], ran: set[int], marks: dict) -> bool:
    """Record in marks whether each statement ran; return whether any did.

    A compound statement ran if a statement inside it did, even without a
    line event of its own (a `try:` header has none)."""
    any_ran = False
    for stmt in stmts:
        inner = _mark_ran(_children(stmt), ran, marks)
        marks[stmt] = inner or any(line in ran for line in _own_lines(stmt))
        any_ran = any_ran or marks[stmt]
    return any_ran


def _missed(stmts: list[ast.stmt], marks: dict):
    """The statements that did not run inside statements that did."""
    for stmt in stmts:
        if marks[stmt]:
            yield from _missed(_children(stmt), marks)
        else:
            yield stmt


def module_report(name: str, ran: set[int]) -> tuple[set, set]:
    """(the key of every statement of module name, those that did not
    run); ran holds the module's lines that ran."""
    source = Path(MODULES[name].__file__).read_text()
    lines = source.splitlines()
    every, unreached = set(), set()
    for qualname, func in _functions(ast.parse(source)):
        qualname = f"{name}.{qualname}"
        body = _executable(func.body)
        flat, todo = [], list(body)
        while todo:
            stmt = todo.pop()
            flat.append(stmt)
            todo += _children(stmt)
        keys, seen = {}, {}
        for stmt in sorted(flat, key=lambda s: (s.lineno, s.col_offset)):
            text = lines[stmt.lineno - 1].strip()
            seen[text] = seen.get(text, 0) + 1
            keys[stmt] = (qualname, text if seen[text] == 1
                          else f"{text} #{seen[text]}")
        def_key = (qualname, lines[func.lineno - 1].strip())
        every.add(def_key)
        every.update(keys.values())
        marks: dict = {}
        if _mark_ran(body, ran, marks):
            unreached.update(keys[stmt] for stmt in _missed(body, marks))
        else:
            unreached.add(def_key)
    return every, unreached


def _pinned_scenarios():
    yield from (build_setup(s, messages=REACH_MESSAGES) for s in SETUP_IDS)
    yield from (corpus_scenario(seed) for seed in CORPUS_SEEDS)
    yield handoff_scenario(station=True)
    yield handoff_scenario(station=False)
    yield build_battery_scenario("10s", seed=1)
    grid = build_duty_cycle_scenario(True)
    yield replace(grid, duration_ms=600_000, nodes=[
        spec if spec.battery_capacity is None
        else replace(spec, battery_capacity=spec.battery_capacity / 40)
        for spec in grid.nodes])


def trace_pinned_runs() -> dict[str, set[int]]:
    """The lines of each module in MODULES that the pinned runs ran."""
    ran = {module.__file__: set() for module in MODULES.values()}

    def line_tracer(add):
        def on_line(frame, event, arg):
            add(frame.f_lineno)
            return on_line
        return on_line

    tracers = {path: line_tracer(lines.add) for path, lines in ran.items()}

    def on_call(frame, event, arg):
        return tracers.get(frame.f_code.co_filename)

    scenarios = list(_pinned_scenarios())
    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        for scenario in scenarios:
            run(scenario)
    finally:
        sys.settrace(previous)
    return {name: ran[module.__file__] for name, module in MODULES.items()}


@pytest.fixture(scope="module")
def reach():
    ran = trace_pinned_runs()
    every, unreached = set(), set()
    for name in MODULES:
        module_every, module_unreached = module_report(name, ran[name])
        every |= module_every
        unreached |= module_unreached
    return every, unreached


def test_every_unreached_statement_is_allowlisted(reach):
    _, unreached = reach
    assert sorted(unreached - set(ALLOWED)) == []


def test_no_allowlisted_statement_runs(reach):
    every, unreached = reach
    assert sorted((set(ALLOWED) & every) - unreached) == []


def test_every_allowlisted_key_names_a_statement(reach):
    every, _ = reach
    assert sorted(set(ALLOWED) - every) == []

"""Command-line front end for running and inspecting simulations.

Exit codes: 0 on success, 2 for a malformed scenario (bad JSON or a
schema violation, reported with a field path), 1 for anything else that
goes wrong (missing files, no snapshot at the requested time).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .backup import BackupStore
from .engine import Simulator, run_battery_experiment
from .metrics import NoSnapshot, RunMetrics, export_topology, validate_metrics_json
from .scenario import (
    BATTERY_INTERVALS,
    SETUP_IDS,
    MalformedScenario,
    Scenario,
    build_battery_scenario,
    build_setup,
)


def _load_scenario(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FileNotFoundError(f"cannot read scenario file: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedScenario(f"scenario file is not valid JSON: {exc}") from exc
    return Scenario.from_json_dict(doc)


def _emit_metrics(metrics: RunMetrics, out: Optional[str]) -> None:
    if out is None:
        print(metrics.to_json())
        return
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metrics.json").write_text(metrics.to_json() + "\n")
    (out_dir / "metrics.csv").write_text(metrics.to_csv())
    print(f"wrote {out_dir / 'metrics.json'}")
    print(f"wrote {out_dir / 'metrics.csv'}")


def _emit_scenario(scenario: Scenario, target: str) -> int:
    """Write scenario's JSON to the file target, or to stdout for '-'."""
    text = json.dumps(scenario.to_json_dict(), indent=2, sort_keys=True)
    if target == "-":
        print(text)
    else:
        Path(target).write_text(text + "\n")
        print(f"wrote {target}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    metrics = Simulator(scenario, seed=args.seed).run()
    _emit_metrics(metrics, args.out)
    return 0


def _cmd_setup(args: argparse.Namespace) -> int:
    scenario = build_setup(
        args.id,
        messages=args.messages,
        seed=args.seed,
        backup_option=args.backup_option,
        backup_threshold=args.backup_threshold,
    )
    if args.emit_scenario is not None:
        return _emit_scenario(scenario, args.emit_scenario)
    metrics = Simulator(scenario).run()
    _emit_metrics(metrics, args.out)
    return 0


def _cmd_battery(args: argparse.Namespace) -> int:
    if args.emit_scenario is not None:
        return _emit_scenario(build_battery_scenario(args.interval,
                                                     seed=args.seed),
                              args.emit_scenario)
    hours = run_battery_experiment(args.interval, seed=args.seed)
    print(json.dumps({"interval": args.interval, "lifetime_hours": round(hours, 4)}))
    return 0


def _cmd_topo(args: argparse.Namespace) -> int:
    path = Path(args.run) / "metrics.json"
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise FileNotFoundError(f"cannot read metrics: {exc}") from exc
    validate_metrics_json(doc)
    metrics = RunMetrics(
        scenario_name=doc["scenario"],
        seed=doc["seed"],
        duration_ms=doc["duration_ms"],
    )
    metrics.snapshots = doc["snapshots"]
    sys.stdout.write(export_topology(metrics, args.at))
    return 0


def _cmd_dump_log(args: argparse.Namespace) -> int:
    path = Path(args.log)
    if not path.exists():
        raise FileNotFoundError(f"no such log file: {path}")
    try:
        store = BackupStore(path)
    except OSError as exc:
        raise FileNotFoundError(f"cannot read backup log: {exc}") from exc
    print(json.dumps(store.to_json(), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lifeline-sim",
        description="Run emergency ad hoc network simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("--scenario", required=True, help="scenario JSON file")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_run.add_argument("--out", default=None,
                       help="directory for metrics.json/metrics.csv "
                            "(default: JSON to stdout)")
    p_run.set_defaults(func=_cmd_run)

    p_setup = sub.add_parser("setup", help="run or emit a canned set-up")
    p_setup.add_argument("id", choices=list(SETUP_IDS))
    p_setup.add_argument("--messages", type=int, default=1000)
    p_setup.add_argument("--seed", type=int, default=0)
    p_setup.add_argument("--backup-option", type=int, default=1,
                         choices=(1, 2, 3, 4, 5, 6),
                         help="backup option for set-ups E/F/G")
    p_setup.add_argument("--backup-threshold", type=int, default=None,
                         help="threshold for option 3 (battery percent), "
                              "4 (priority 0-4, default 0), 5 (load "
                              "percent) or 6 (sender load percent)")
    p_setup.add_argument("--emit-scenario", default=None, metavar="FILE",
                         help="write the scenario JSON instead of running "
                              "('-' for stdout)")
    p_setup.add_argument("--out", default=None,
                         help="directory for metrics.json/metrics.csv")
    p_setup.set_defaults(func=_cmd_setup)

    p_batt = sub.add_parser("battery", help="run a battery lifetime test")
    p_batt.add_argument("--interval", required=True,
                        choices=list(BATTERY_INTERVALS))
    p_batt.add_argument("--seed", type=int, default=0)
    p_batt.add_argument("--emit-scenario", default=None, metavar="FILE",
                        help="write the scenario JSON instead of running "
                             "('-' for stdout)")
    p_batt.set_defaults(func=_cmd_battery)

    p_topo = sub.add_parser("topo", help="render a topology snapshot as DOT")
    p_topo.add_argument("--run", required=True,
                        help="output directory of a previous run")
    p_topo.add_argument("--at", type=int, required=True,
                        help="snapshot time in ms")
    p_topo.set_defaults(func=_cmd_topo)

    p_dump = sub.add_parser("dump-log", help="print a backup log as JSON")
    p_dump.add_argument("log", help="backup log file")
    p_dump.set_defaults(func=_cmd_dump_log)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MalformedScenario as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, NoSnapshot, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

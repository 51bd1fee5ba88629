"""Lifeline benchmark: host cost of three seeded simulation workloads.

    python3 perfbench/run.py --workload relay-16h --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; the package is imported from
its `src/` directory, never from an installed copy.  One run of a
workload:

1. repeats, until `--seconds` have passed and at least `MIN_REPEATS`
   times: one set-up probe in a fresh process (setup_probe.py), then a
   set-up, a full garbage collection, and a timed `Simulator.run()` and
   canonical JSON and CSV serialisation, whose output is checked.
   `run_s` is the fastest repeat and `setup_s` the fastest probe: the
   host's load only ever adds time, and on a shared host it comes and
   goes for seconds to minutes;
2. with `--trace 1`, then sets up and runs once more with every layer
   wrapped in spans (see spans.py) and reports per-layer metrics.

The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.  A run fails if it
raises, if a check in workloads.py fails, or if its metrics digest
differs from the first run's.  `--workload all` runs every workload in
turn, each in its own child process, and prints one table.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
# Not used while the benchmark was tuned; for checking claims later.
HELD_OUT_SEED = 7919
DEFAULT_SECONDS = json.loads(
    (ROOT / "BENCHMARK.json").read_text())["run_seconds"]
MIN_REPEATS = 2
CHILD_TIMEOUT_S = 900
PROBE_TIMEOUT_S = 120
DIGEST_PREFIX = "sha256 "


def load_package() -> None:
    """Import `lifeline` from this checkout's src/, or exit non-zero."""
    if not (SRC / "lifeline" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lifeline package under {SRC}")
    sys.path.insert(0, str(SRC))
    import lifeline
    if Path(lifeline.__file__).resolve().parent != (SRC / "lifeline").resolve():
        raise SystemExit(f"perfbench: imported lifeline from "
                         f"{lifeline.__file__}, not from {SRC}")


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def setup(workload, seed: int):
    """Build, validate and construct; returns (scenario, simulator)."""
    from lifeline.engine import Simulator
    scenario = workload.build(seed)
    scenario.validate()
    return scenario, Simulator(scenario)


def probe_setup(name: str, seed: int) -> tuple[float, float]:
    """(first_s, warm_s) of one setup_probe.py process; see that file."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent
                             / "setup_probe.py"),
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe of {name} exited "
                         f"{proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["first_s"], result["warm_s"]


class Measurement:
    """Everything one workload run records, in the order it happens."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.setup_samples: list[float] = []
        self.first_setup_samples: list[float] = []
        self.run_samples: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.digest: str | None = None

    def probe_setup(self) -> None:
        """Time set-up in one fresh process; see setup_probe.py."""
        first_s, warm_s = probe_setup(self.workload.name, self.seed)
        self.first_setup_samples.append(first_s)
        self.setup_samples.append(warm_s)

    def output_problems(self, scenario, metrics_json: str) -> list[str]:
        """Every check one run's output fails, the digest check included."""
        problems = self.workload.problems(scenario, metrics_json)
        digest = hashlib.sha256(metrics_json.encode()).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append(f"metrics digest {digest} differs from the "
                            f"first run's {self.digest}")
        return problems

    def record_attempt(self, problems: list[str], label: str) -> None:
        """Count one attempted run, failed if it has any problem."""
        self.attempted += 1
        for problem in problems:
            print(f"  {label}: FAIL {problem}")
        if problems:
            self.failed += 1

    def repeat(self, label: str) -> None:
        """One untraced set-up and run, the run timed and checked."""
        scenario, sim = setup(self.workload, self.seed)
        gc.collect()
        start = time.perf_counter()
        try:
            metrics = sim.run()
            metrics_json = metrics.to_json()
            metrics.to_csv()
        except Exception as exc:  # a crashing run is a failed run
            traceback.print_exc()
            self.record_attempt([f"raised {type(exc).__name__}: {exc}"],
                                label)
            return
        elapsed = time.perf_counter() - start
        self.run_samples.append(elapsed)
        print(f"  {label}: setup {self.setup_samples[-1]:.6f} s (first "
              f"{self.first_setup_samples[-1]:.4f} s), run {elapsed:.4f} s")
        self.record_attempt(self.output_problems(scenario, metrics_json),
                            label)

    def measure(self, seconds: float) -> None:
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            self.probe_setup()
            self.repeat(f"run {self.attempted + 1}")
            if not self.run_samples and self.attempted >= MIN_REPEATS:
                return  # every run raises; more repeats will not help
            # Stop before a probe and repeat that would end past the window.
            now = time.perf_counter()
            if (len(self.run_samples) >= MIN_REPEATS
                    and now - start + (now - began) > seconds):
                return

    def end_to_end(self) -> dict:
        return {
            "run_s": _metric(min(self.run_samples), "s"),
            "setup_s": _metric(min(self.setup_samples), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MiB"),
        }

    def traced(self) -> dict:
        """One traced set-up and run; returns the per-layer metrics."""
        import spans
        setup_tracer, run_tracer = spans.Tracer(), spans.Tracer()
        label = "traced run"
        with setup_tracer:
            start = time.perf_counter()
            scenario = setup_tracer.span(
                "scenario", "build", self.workload.build)(self.seed)
            scenario.validate()
            from lifeline.engine import Simulator
            sim = Simulator(scenario)
            setup_s = time.perf_counter() - start
        try:
            with run_tracer:
                start = time.perf_counter()
                metrics = sim.run()
                metrics_json = metrics.to_json()
                metrics.to_csv()
                run_s = time.perf_counter() - start
        except Exception as exc:  # a crashing run is a failed run
            traceback.print_exc()
            self.record_attempt([f"raised {type(exc).__name__}: {exc}"],
                                label)
            return {}
        problems = self.output_problems(scenario, metrics_json)
        problems += [f"wrapper left installed: {name}"
                     for name in spans.installed_wrappers()]
        untraced = statistics.median(self.run_samples)
        layers = spans.layer_metrics(
            setup_tracer, setup_s, statistics.median(self.first_setup_samples),
            run_tracer, run_s, untraced)
        for name, (value, unit, _) in layers.items():
            print(f"  {name} = {value:.6g} {unit}")
        for tracer, window, wall in ((setup_tracer, "set-up", setup_s),
                                     (run_tracer, "run", run_s)):
            total = tracer.self_total_s()
            if abs(total - tracer.covered_s) > 1e-6 * max(1.0, wall):
                problems.append(f"{window} self times sum to {total} s but "
                                f"spans cover {tracer.covered_s} s")
            if tracer.covered_s > wall:
                problems.append(f"{window} spans cover {tracer.covered_s} s "
                                f"of a {wall} s window")
        accounted = layers["engine.dispatch.self_s"][0] + sum(
            layers[f"{layer}.self_s"][0] for layer in spans.RUN_LAYERS)
        if abs(accounted - run_s) > 1e-6 * max(1.0, run_s):
            problems.append(f"layer self times and dispatch add up to "
                            f"{accounted} s, not the traced run's {run_s} s")
        for name in self.workload.positive_in_trace:
            if not layers[name][0] > 0:
                problems.append(f"{name} is {layers[name][0]}, want > 0")
        self.record_attempt(problems, label)
        return {name: _metric(value, unit)
                for name, (value, unit, _) in layers.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS
    m = Measurement(WORKLOADS[name], seed)
    print(f"perfbench {name} seed {seed}: {'traced' if trace else 'untraced'}")
    m.measure(seconds)
    if not m.run_samples:
        raise SystemExit(f"perfbench: every run of {name} raised")
    metrics = m.end_to_end()
    print(f"  run_s {metrics['run_s']['value']:.4f} s (fastest of "
          f"{len(m.run_samples)} runs, median "
          f"{statistics.median(m.run_samples):.4f} s), setup_s "
          f"{metrics['setup_s']['value']:.6f} s (fastest of "
          f"{len(m.setup_samples)} processes; first set-up of a process "
          f"{statistics.median(m.first_setup_samples):.4f} s), peak_rss_mb "
          f"{metrics['peak_rss_mb']['value']:.1f} MiB, fail_ratio "
          f"{m.failed}/{m.attempted}")
    if trace:
        metrics = m.traced()
    print(f"{DIGEST_PREFIX}{m.digest}")
    return {"correct": m.failed == 0, "attempted": m.attempted,
            "failed": m.failed, "metrics": metrics}


def run_child(name: str, seed: int, seconds: float, trace: bool
              ) -> tuple[dict, str, str]:
    """Run one workload in a fresh process: (result, digest, stdout)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {name} exited {proc.returncode}:\n"
                         f"{proc.stdout}{proc.stderr}")
    lines = proc.stdout.splitlines()
    digest = next((line[len(DIGEST_PREFIX):] for line in lines
                   if line.startswith(DIGEST_PREFIX)), "")
    return json.loads(lines[-1]), digest, proc.stdout


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload, one after another, each in its own process."""
    from workloads import WORKLOADS
    results = {}
    for name in WORKLOADS:
        result, digest, stdout = run_child(name, seed, seconds, trace)
        print(stdout, end="")
        results[name] = (result, digest)
    if not trace:
        print(f"{'workload':16} {'run_s (s)':>10} {'setup_s (s)':>12} "
              f"{'peak_rss_mb (MiB)':>18} {'fail_ratio (failed/attempted)':>30}"
              f"  sha256")
        for name, (result, digest) in results.items():
            got = result["metrics"]
            print(f"{name:16} {got['run_s']['value']:>10.4f} "
                  f"{got['setup_s']['value']:>12.6f} "
                  f"{got['peak_rss_mb']['value']:>18.1f} "
                  f"{result['failed'] / result['attempted']:>14.3f} "
                  f"({result['failed']}/{result['attempted']})"
                  f"{'':>8}  {digest[:16]}")
    return {
        "correct": all(r["correct"] for r, _ in results.values()),
        "attempted": sum(r["attempted"] for r, _ in results.values()),
        "failed": sum(r["failed"] for r, _ in results.values()),
        "metrics": {f"{name}.{metric}": value
                    for name, (r, _) in results.items()
                    for metric, value in r["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="relay-16h, chain-burst-10k, gateway-surge or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_package()
    from workloads import WORKLOADS
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

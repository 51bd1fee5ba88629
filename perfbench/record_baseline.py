"""Write perfbench/baseline.json: run metadata plus every workload's numbers.

    python3 perfbench/record_baseline.py

Runs one workload at a time, each in its own process and never two at
once.  It records every workload untraced at the default and the held-out
seed, and traced at the default seed, each for BENCHMARK.json's
`run_seconds`.  Record on an otherwise idle
machine, from a checkout whose src/ matches the commit it names.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import subprocess
from pathlib import Path

import run

OUT = Path(__file__).resolve().parent / "baseline.json"


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(["git", *args], cwd=run.ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metadata() -> dict:
    import numpy
    status = _git("status", "--porcelain", "--", "src")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "src_matches_commit": status == "" if status is not None else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seeds": {"default": run.DEFAULT_SEED, "held_out": run.HELD_OUT_SEED},
        "seconds": run.DEFAULT_SECONDS,
        "runs": "one at a time, each workload in its own process",
        "recorded_utc": datetime.datetime.now(datetime.timezone.utc)
                        .isoformat(timespec="seconds"),
    }


def _values(result: dict) -> dict:
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main() -> int:
    run.load_package()
    from workloads import WORKLOADS
    doc = {"metadata": metadata(), "workloads": {}}
    for name, workload in WORKLOADS.items():
        entry = {"why": workload.why, "end_to_end": {}}
        for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
            result, digest, _ = run.run_child(
                name, seed, run.DEFAULT_SECONDS, False)
            entry["end_to_end"][str(seed)] = {
                "metrics": _values(result), "attempted": result["attempted"],
                "failed": result["failed"], "sha256": digest}
        result, digest, _ = run.run_child(
            name, run.DEFAULT_SEED, run.DEFAULT_SECONDS, True)
        entry["trace"] = {"seed": run.DEFAULT_SEED,
                          "metrics": _values(result),
                          "failed": result["failed"], "sha256": digest}
        doc["workloads"][name] = entry
        print(f"{name}: done")
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

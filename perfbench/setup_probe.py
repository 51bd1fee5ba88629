"""Time one workload's set-up in a fresh process.

    python3 perfbench/setup_probe.py --workload gateway-surge --seed 1

A set-up is the scenario build, `validate()` and `Simulator(...)`.  The
last line of standard output is one JSON object:

- `first_s`: the first set-up of the process, after the package's
  modules are imported.  It pays one-time costs, chiefly the lazy import
  of `numpy.random` on the first `Simulator`.
- `warm_s`: the lowest mean of `BATCHES` batches of `BATCH_SIZE` set-ups
  after it, each batch after a full garbage collection.

Set-up takes well under a millisecond once warm, and how fast it runs
depends on the process: two processes on an idle machine can differ by a
third for their whole lives.  run.py therefore starts several of these
probes in a run and reports the fastest.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import time

import run

BATCHES = 10
BATCH_SIZE = 50


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    run.load_package()
    import lifeline.engine  # noqa: F401  (imported before any timing)
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]

    def timed_setup() -> float:
        start = time.perf_counter()
        run.setup(workload, args.seed)
        return time.perf_counter() - start

    first_s = timed_setup()
    batches = []
    for _ in range(BATCHES):
        gc.collect()
        batches.append(statistics.mean(timed_setup()
                                       for _ in range(BATCH_SIZE)))
    print(json.dumps({"first_s": first_s, "warm_s": min(batches)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
